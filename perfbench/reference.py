"""Independent reference for the face tractions the program reports.

The program evaluates the regular-kernel integrals of the face fields with
the flat node rule of ``curvecrack.quadrature``.  This module recomputes
sigma_n + i tau_n from the program's density, using only public primitives (``KernelSet.block``, ``pv_polynomial``,
``q_polynomial``, ``traction_jump``, ``gauss_legendre``) on a composite
Gauss-Legendre rule split at the evaluation point.  The rule is doubled
once and the two results must agree to ``SELF_CHECK_TOL`` of the largest
traction, so the reference is converged in quadrature and ``field_err``
measures the program's own quadrature error.
"""

from __future__ import annotations

import numpy as np

from curvecrack import (DensityCoefficients, FarFieldLoad, KernelSet, Material,
                        face_field_profile, make_circular_arc, make_semicircle,
                        pv_polynomial, solve_problem, traction_jump)
from curvecrack.densities import q_polynomial
from curvecrack.quadrature import gauss_legendre

PANELS = 6          # panels on each side of the evaluation point
ORDER = 24          # Gauss points per panel
SELF_CHECK_TOL = 1e-9
FIT_TOL = 1e-9      # relative misfit allowed when reading g' back as a polynomial


class ReferenceError(RuntimeError):
    """The program's output cannot be turned into a trustworthy reference."""


def build_problem(params):
    """(curve, material, load) of a generated config."""
    if params["shape"] == "semicircle":
        curve = make_semicircle()
    else:
        curve = make_circular_arc(params["curvature"])
    material = Material(mu=params["mu"], kappa=params["kappa"])
    load = FarFieldLoad(sigma1=params["sigma1_inf"],
                        sigma2=params["sigma2_inf"], alpha=params["alpha"])
    return curve, material, load


def density_from_samples(s, gprime, degree, length, gamma1):
    """Recover the degree-N density polynomial from its samples on [0, l].

    The fit runs in the Legendre basis on [-1, 1] and is converted to the
    centered power basis (s - l/2)^k that ``DensityCoefficients`` uses.
    """
    half = 0.5 * length
    t = (np.asarray(s) - half) / half
    leg = np.polynomial.legendre.legfit(t, gprime, degree)
    power_t = np.polynomial.legendre.leg2poly(leg)
    power_x = power_t / half ** np.arange(len(power_t))
    coeffs = DensityCoefficients(g1=power_x.real, g2=power_x.imag,
                                 length=length, gamma1=gamma1)
    misfit = np.max(np.abs(coeffs.gprime(s) - gprime))
    scale = np.max(np.abs(gprime))
    if not misfit <= FIT_TOL * scale:
        raise ReferenceError(f"g_prime.csv is not a degree-{degree} "
                             f"polynomial: misfit {misfit:.3e}")
    return coeffs


_UNIT_X, _UNIT_W = gauss_legendre(ORDER, 0.0, 1.0)


def _split_rule(length, s0, panels):
    """Composite rule with ``panels`` equal panels on [0, s0] and [s0, l]."""
    edges = np.concatenate([np.linspace(0.0, s0, panels + 1),
                            np.linspace(s0, length, panels + 1)[1:]])
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * _UNIT_X).ravel(), (width * _UNIT_W).ravel()


class ReferenceTraction:
    """sigma_n + i tau_n on either face, with converged quadrature."""

    def __init__(self, curve, material, load, coeffs):
        self.curve = curve
        self.material = material
        self.load = load
        self.coeffs = coeffs
        self.kset = KernelSet(curve, material.kappa)
        self.gp_poly = coeffs.g1 + 1j * coeffs.g2
        self.q_poly = q_polynomial(curve, material, coeffs.gamma1, coeffs)

    def _q(self, s):
        return traction_jump(self.curve, self.material, self.coeffs.gamma1,
                             self.coeffs, s)

    def regular_part(self, s0, panels):
        x, w = _split_rule(self.curve.length, s0, panels)
        blk = self.kset.block(x, s0, derivatives=False)
        gp = self.coeffs.gprime(x)
        q = self._q(x)
        return np.sum(w * (blk["k1"] * gp + blk["k2"] * np.conj(gp)
                           - 2j * blk["k3"] * q + 2j * blk["k2"] * np.conj(q)))

    def traction(self, s0, side, reg):
        """Face traction at s0 given the regular integral ``reg`` there."""
        kappa = self.material.kappa
        length = self.curve.length
        sing = (2.0 * pv_polynomial(self.gp_poly, length, s0)
                + 2j * (kappa - 1.0) * pv_polynomial(self.q_poly, length, s0))
        t1 = self.curve.tangent(s0)
        far = 2.0 * np.real(self.load.phi_inf) \
            + np.conj(self.load.psi_inf) * np.conj(t1) ** 2
        sign = 1.0 if side == "plus" else -1.0
        return (sign * self._q(s0) + (sing + reg) / (2.0 * np.pi * (kappa + 1.0))
                + far)


def reference_tractions(params, coeffs, points):
    """Converged tractions at (s0, side) points, and the rule-doubling change.

    Returns (values, self_check), self_check relative to the largest |value|.
    Raises ReferenceError unless self_check is below SELF_CHECK_TOL.
    """
    curve, material, load = build_problem(params)
    ref = ReferenceTraction(curve, material, load, coeffs)
    regular, change, values = {}, 0.0, []
    for s0, side in points:
        if s0 not in regular:
            coarse = ref.regular_part(s0, PANELS)
            regular[s0] = ref.regular_part(s0, 2 * PANELS)
            change = max(change, abs(regular[s0] - coarse))
        values.append(ref.traction(s0, side, regular[s0]))
    values = np.array(values)
    peak = float(np.max(np.abs(values)))
    self_check = change / (2.0 * np.pi * (material.kappa + 1.0)) / peak
    if not self_check < SELF_CHECK_TOL:
        raise ReferenceError(f"reference rule not converged: doubling moved "
                             f"it by {self_check:.3e} of its peak")
    return values, self_check


def midpoint_grid(length, n):
    j = np.arange(1, n + 1)
    return (2 * j - 1) * length / (2 * n)


def solve_field_error(params, g_table, face_rows):
    """Error of the tractions in face_fields.csv (solve mode).

    The density is read back from g_prime.csv.  ``field_err`` is the largest
    |sigma_n + i tau_n - reference| relative to the largest reference
    traction, ``field_err_load`` the same error in units of the remote load.
    """
    curve, _, _ = build_problem(params)
    gprime = g_table["re_gprime"] + 1j * g_table["im_gprime"]
    coeffs = density_from_samples(g_table["s"], gprime, params["N"],
                                  curve.length, params["gamma1"])
    values, self_check = reference_tractions(
        params, coeffs, [(r["s"], r["side"]) for r in face_rows])
    got = np.array([r["sigma_n"] + 1j * r["tau_n"] for r in face_rows])
    err = float(np.max(np.abs(got - values)))
    unit = max(abs(params["sigma1_inf"]), abs(params["sigma2_inf"]))
    return {"field_err": err / float(np.max(np.abs(values))),
            "field_err_load": err / unit, "self_check": self_check}


def sweep_field_error(params, rows):
    """Relative error of each max_traction in sweep_gamma.csv.

    rows holds (gamma1, max_traction) pairs.  The density of each point is
    solved again through the public ``solve_problem``; the reference maximum
    is taken over the same 101-point midpoint grid on both faces.
    """
    curve, material, load = build_problem(params)
    grid = midpoint_grid(curve.length, 101)
    points = [(s0, side) for side in ("plus", "minus") for s0 in grid]
    errs, checks = [], []
    for gamma1, reported in rows:
        coeffs = solve_problem(curve, material, load, gamma1, N=params["N"])
        values, self_check = reference_tractions(params, coeffs, points)
        peak = float(np.max(np.abs(values)))
        errs.append(abs(reported - peak) / peak)
        checks.append(self_check)
    return {"field_err": max(errs), "per_point": errs,
            "self_check": max(checks)}


def arc_field_error(params, g_table, degree=20):
    """Error of ``face_field_profile`` on the arc density of degree 20.

    Convergence mode writes densities but no face fields, so the library's
    evaluator is run on the N = 20 density read back from g_prime.csv and
    compared with the reference over 100 midpoints on both faces.
    """
    curve, material, load = build_problem(params)
    gprime = g_table[f"re_gprime_N{degree}"] + 1j * g_table[f"im_gprime_N{degree}"]
    coeffs = density_from_samples(g_table["s"], gprime, degree, curve.length,
                                  params["gamma1"])
    samples = face_field_profile(curve, material, load, coeffs,
                                 midpoint_grid(curve.length, 100))
    values, self_check = reference_tractions(
        params, coeffs, [(f.s, f.side) for f in samples])
    got = np.array([f.sigma_n + 1j * f.tau_n for f in samples])
    err = float(np.max(np.abs(got - values)))
    return {"field_err": err / float(np.max(np.abs(values))),
            "self_check": self_check}
