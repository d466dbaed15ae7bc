"""Derived results: opening profiles, tip log-singularity fits, parameter sweeps.

The crack opening is the solver's jump table applied to the density's
coefficients, and close to the tips the face fields inherit a logarithmic
term whose coefficient is extracted by a least-squares fit of value ~
A ln s + c over a window well inside the first quarter of the arc.
Face-field profiles, tip fits and the maximal face traction each build one
field evaluator at all their points s0 and apply it to the density; it
returns both faces at once.

Sweeps tabulate once and apply per point.  A gamma1 sweep builds the
collocation tables (`solver._CollocationTables`) and one field evaluator at
the 101-point max-traction grid plus the 32 default tip-window points, then
applies both to each gamma1 in turn (`_solve_and_report`), so the kernels
are tabulated once per sweep however many points it has; the opening
comes from the collocation tables' jump table.  A curvature sweep builds
them once per curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import (DensityCoefficients, basis, cauchy_densities,
                        q_polynomial)
from .fields import _SIDES, _FieldEvaluator
from .geometry import CrackCurve, make_circular_arc
from .quadrature import Discretization, midpoint_grid
from .solver import (AssemblyError, SolveError, _CollocationTables,
                     _jump_table, solve, solve_problem)

FIELD_NAMES = ("sigma_n", "tau_n", "du1_ds", "du2_ds")


@dataclass
class OpeningProfile:
    """Displacement jump across the crack and its normal component."""

    s: np.ndarray
    jump: np.ndarray          # complex (u1 + i u2)^+ - (u1 + i u2)^-
    delta: np.ndarray         # signed normal opening, positive = faces separate
    max_opening: float
    min_opening: float


def opening_profile(coeffs: DensityCoefficients, curve: CrackCurve, material,
                    n_samples: int = 201) -> OpeningProfile:
    """Integrate the density into the crack-opening profile.

    jump(s) = (i / 2 mu) * int_0^s g'(x) t'(x) dx, which vanishes at s = 0 by
    construction and at s = l up to the single-valuedness residual.  The
    opening delta is the projection of the jump on the unit normal i t'(s).
    The integrals are the jump table (`solver._jump_table`) applied to g'.
    """
    return _opening(coeffs, curve, material,
                    _jump_table(curve, coeffs.degree, n_samples))


def _opening(coeffs, curve, material, table) -> OpeningProfile:
    """opening_profile from a jump table of the curve."""
    s_grid = np.linspace(0.0, curve.length, len(table))
    jump = 0.5j * (table @ (coeffs.g1 + 1j * coeffs.g2)) / material.mu
    delta = np.imag(np.conj(curve.tangent(s_grid)) * jump)
    return OpeningProfile(s=s_grid, jump=jump, delta=delta,
                          max_opening=float(np.max(delta)),
                          min_opening=float(np.min(delta)))


@dataclass
class LogFit:
    """Least-squares fit value ~ A * ln(s) + c near a crack tip."""

    A: float
    c: float
    window: tuple
    rms: float
    field_id: str = ""
    tip: float = 0.0


def fit_log_coefficient(samples, window=None, field_id: str = "",
                        tip: float = 0.0) -> LogFit:
    """Fit A ln s + c to (s, value) samples inside the window.

    samples is a sequence of (s, value) pairs (or a pair of arrays); s is the
    distance to the tip and must be positive.  At least 8 samples must fall
    inside the window.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 2 and arr.shape[0] == 2 and arr.shape[1] != 2:
        s, v = arr[0], arr[1]
    else:
        s, v = arr[:, 0], arr[:, 1]
    if np.any(s <= 0.0):
        raise ValueError("log fit requires strictly positive tip distances")
    if window is None:
        window = (float(np.min(s)), float(np.max(s)))
    mask = (s >= window[0]) & (s <= window[1])
    if np.count_nonzero(mask) < 8:
        raise ValueError(
            f"log fit needs at least 8 samples in window {window}, "
            f"got {np.count_nonzero(mask)}")
    ls = np.log(s[mask])
    vv = v[mask]
    slope, intercept = np.polyfit(ls, vv, 1)
    resid = vv - (slope * ls + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return LogFit(A=float(slope), c=float(intercept), window=tuple(window),
                  rms=rms, field_id=field_id, tip=tip)


def default_fit_window(length: float) -> tuple:
    """Default tip window [l/200, l/20]: ln s spans ln 10 while the bounded
    part stays nearly flat."""
    return (length / 200.0, length / 20.0)


# default point counts of max_face_traction and the tip fits; the sweep
# columns use them too
_TRACTION_POINTS = 101
_TIP_POINTS = 32


def _tip_points(curve, tip, window, n):
    """Distances from the tip (geometric over the window) and their s."""
    if tip not in (0.0, curve.length):
        raise ValueError(f"tip must be 0.0 or the arc length {curve.length}, "
                         f"got {tip}")
    if window is None:
        window = default_fit_window(curve.length)
    dist = np.geomspace(window[0], window[1], n)
    return dist, (dist if tip == 0.0 else curve.length - dist)


def _field_values(traction, du):
    """The four face fields of one face, named as in FIELD_NAMES."""
    return {"sigma_n": traction.real, "tau_n": traction.imag,
            "du1_ds": du.real, "du2_ds": du.imag}


def _tip_fields(curve, material, load, coeffs, tip, side, window, n):
    """Distances from the tip and the face fields there, one evaluator."""
    dist, s_vals = _tip_points(curve, tip, window, n)
    ev = _FieldEvaluator(curve, material, load, s_vals, coeffs.degree)
    traction, du = ev.face_values(coeffs)
    k = _SIDES.index(side)
    return dist, _field_values(traction[k], du[k])


def collect_tip_samples(curve, material, load, coeffs, field: str,
                        tip: float = 0.0, side: str = "plus",
                        window=None, n: int = _TIP_POINTS):
    """Geometrically spaced face-field samples near a tip.

    Returns (distances, values) where distances are measured from the tip
    (tip = 0.0 or tip = curve.length).
    """
    if field not in FIELD_NAMES:
        raise ValueError(f"unknown field {field!r}; choose from {FIELD_NAMES}")
    dist, values = _tip_fields(curve, material, load, coeffs, tip, side,
                               window, n)
    return dist, values[field]


def fit_tip_coefficients(curve, material, load, coeffs, tip: float = 0.0,
                         side: str = "plus", window=None,
                         n: int = _TIP_POINTS):
    """LogFit for each of the four face fields at one tip, sampled once."""
    dist, values = _tip_fields(curve, material, load, coeffs, tip, side,
                               window, n)
    return {name: fit_log_coefficient(np.column_stack([dist, values[name]]),
                                      window=window, field_id=name, tip=tip)
            for name in FIELD_NAMES}


def tip_log_coefficients(curve, material, coeffs):
    """Closed-form log coefficients at the tip s = 0 from the densities.

    Splitting the principal-value integrals at the tip shows each face field
    behaves like A ln s + O(1) with A = -p(0) / (2 pi (kappa+1)), where p
    is its principal-value density (`densities.cauchy_densities`, the
    definition the solver's tip rows use): sigma for sigma_n + i tau_n and
    t'(0) omega / 2mu for du1/ds + i du2/ds.  Used as an independent
    cross-check of the fitted coefficients.
    """
    kappa = material.kappa
    tip = basis(0.0, curve.length, coeffs.degree)
    gp0 = complex((coeffs.g1 + 1j * coeffs.g2) @ tip)
    q0 = complex(q_polynomial(curve, material, coeffs.gamma1, coeffs) @ tip)
    sigma, omega = cauchy_densities(gp0, q0, kappa)
    scale = -1.0 / (2.0 * np.pi * (kappa + 1.0))
    a_tr = scale * sigma
    a_du = scale * complex(curve.tangent(0.0)) * omega / (2.0 * material.mu)
    return {"sigma_n": a_tr.real, "tau_n": a_tr.imag,
            "du1_ds": a_du.real, "du2_ds": a_du.imag}


def max_face_traction(curve, material, load, coeffs,
                      n_points: int = _TRACTION_POINTS) -> float:
    """sup over both faces of |sigma_n + i tau_n| on a midpoint grid."""
    ev = _FieldEvaluator(curve, material, load,
                         midpoint_grid(curve.length, n_points), coeffs.degree)
    return float(np.max(np.abs(ev.face_values(coeffs)[0])))


@dataclass
class GammaSweepRow:
    gamma1: float
    A1: float = float("nan")
    A2: float = float("nan")
    max_opening: float = float("nan")
    min_opening: float = float("nan")
    max_traction: float = float("nan")
    error: str = ""


@dataclass
class CurvatureSweepRow:
    kappa0: float
    A1: float = float("nan")
    A2: float = float("nan")
    max_opening: float = float("nan")
    min_opening: float = float("nan")
    max_traction: float = float("nan")
    error: str = ""


class _SweepTables:
    """Everything a sweep point on one curve reuses.

    The collocation tables, and one field evaluator at the points of the
    sweep columns: max_face_traction's default grid and, for the tip fits
    at s = 0 on the "+" face, fit_tip_coefficients' default window.
    """

    def __init__(self, curve, material, load, N):
        self.curve, self.material, self.load = curve, material, load
        self.collocation = _CollocationTables(
            curve, material, Discretization(N, curve.length))
        self.tip_dist, tip_s = _tip_points(curve, 0.0, None, _TIP_POINTS)
        grid = midpoint_grid(curve.length, _TRACTION_POINTS)
        self.fields = _FieldEvaluator(curve, material, load,
                                      np.concatenate([grid, tip_s]), N)


def _solve_and_report(tables, gamma1):
    """(A1, A2, max opening, min opening, max traction) at one gamma1."""
    curve, material = tables.curve, tables.material
    coeffs = solve(tables.collocation.system(tables.load, gamma1), curve)
    traction, du = tables.fields.face_values(coeffs)
    n = _TRACTION_POINTS
    values = _field_values(traction[0, n:], du[0, n:])
    A1, A2 = (fit_log_coefficient(np.column_stack([tables.tip_dist,
                                                   values[name]])).A
              for name in ("du1_ds", "tau_n"))
    prof = _opening(coeffs, curve, material, tables.collocation.jump)
    return (A1, A2, prof.max_opening, prof.min_opening,
            float(np.max(np.abs(traction[:, :n]))))


_SWEEP_ERRORS = (AssemblyError, SolveError, ValueError)


def _fill(row, report, *args):
    """Fill row from report(*args), or record the error it raised."""
    try:
        (row.A1, row.A2, row.max_opening, row.min_opening,
         row.max_traction) = report(*args)
    except _SWEEP_ERRORS as exc:
        row.error = str(exc)
    return row


def sweep_gamma(curve, material, load, gamma_grid, N: int = 20):
    """One solve per gamma1 value, in order; failed rows carry the error.

    The kernels and the field evaluator are tabulated once for the whole
    sweep; every point applies them to its own gamma1 and density.
    """
    try:
        tables = _SweepTables(curve, material, load, N)
    except _SWEEP_ERRORS as exc:
        return [GammaSweepRow(gamma1=float(g1), error=str(exc))
                for g1 in gamma_grid]
    return [_fill(GammaSweepRow(gamma1=float(g1)), _solve_and_report,
                  tables, float(g1))
            for g1 in gamma_grid]


def sweep_curvature(material, load, gamma1, kappa0_grid, N: int = 20):
    """One solve per arc curvature in (0, 1], in order; arcs end at +1, -1."""
    def report(k0):
        tables = _SweepTables(make_circular_arc(k0), material, load, N)
        return _solve_and_report(tables, gamma1)

    return [_fill(CurvatureSweepRow(kappa0=float(k0)), report, float(k0))
            for k0 in kappa0_grid]


@dataclass
class ConvergenceRow:
    N: int
    sup_diff: float
    coeffs: DensityCoefficients = field(repr=False, default=None)


def convergence_study(curve, material, load, gamma1, n_list,
                      n_grid: int = 401):
    """Reconstructed g' for each N against the largest N on a common grid."""
    n_list = list(n_list)
    if len(n_list) < 2 or any(b < a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be ascending with at least two entries")
    grid = np.linspace(0.0, curve.length, n_grid)
    solved = [(n, solve_problem(curve, material, load, gamma1, N=n))
              for n in n_list]
    ref = solved[-1][1].gprime(grid)
    rows = []
    for n, coeffs in solved:
        diff = float(np.max(np.abs(coeffs.gprime(grid) - ref)))
        rows.append(ConvergenceRow(N=n, sup_diff=diff, coeffs=coeffs))
    return rows


def parity_residuals(values):
    """(even, odd) mismatch of samples on a grid symmetric about the center.

    A field sampled at points mirrored pairwise about l/2 is even when
    reversing the array changes nothing; residuals are normalized by the
    sup-norm of the field.
    """
    v = np.asarray(values, dtype=float)
    sup = float(np.max(np.abs(v)))
    if sup == 0.0:
        return 0.0, 0.0
    rev = v[::-1]
    even = float(np.max(np.abs(v - rev))) / (2.0 * sup)
    odd = float(np.max(np.abs(v + rev))) / (2.0 * sup)
    return even, odd


def extremum_coincidence_report(rows):
    """Soft diagnostic: do |A1|, |A2| and the openings peak at the same gamma1?

    Returns (indices, within_one_step); never raises.  Reported, not
    asserted: the coincidence is an observation about the model, not a
    solver invariant.
    """
    ok = [r for r in rows if not r.error]
    if len(ok) < 3:
        return {}, False
    idx = {
        "A1": max(range(len(ok)), key=lambda i: abs(ok[i].A1)),
        "A2": max(range(len(ok)), key=lambda i: abs(ok[i].A2)),
        "max_opening": max(range(len(ok)), key=lambda i: ok[i].max_opening),
    }
    vals = list(idx.values())
    return idx, (max(vals) - min(vals) <= 1)


# ---------------------------------------------------------------------------
# CSV persistence (header row mandatory, full-precision floats)

def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return repr(float(v))


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_g_prime_csv(path, s, columns: dict):
    header = ["s"] + list(columns)
    data = zip(s, *columns.values())
    write_csv(path, header, data)


def write_face_fields_csv(path, samples):
    header = ["s", "side", "sigma_n", "tau_n", "du1_ds", "du2_ds"]
    rows = [(f.s, f.side, f.sigma_n, f.tau_n, f.du1_ds, f.du2_ds)
            for f in samples]
    write_csv(path, header, rows)


def write_opening_csv(path, profile: OpeningProfile):
    header = ["s", "du1_jump", "du2_jump", "delta"]
    rows = zip(profile.s, np.real(profile.jump), np.imag(profile.jump),
               profile.delta)
    write_csv(path, header, rows)


def write_sweep_gamma_csv(path, rows):
    header = ["gamma1", "A1", "A2", "max_opening", "min_opening",
              "max_traction", "error"]
    write_csv(path, header,
              [(r.gamma1, r.A1, r.A2, r.max_opening, r.min_opening,
                r.max_traction, r.error) for r in rows])


def write_sweep_curvature_csv(path, rows):
    header = ["kappa0", "A1", "A2", "max_opening", "min_opening",
              "max_traction", "error"]
    write_csv(path, header,
              [(r.kappa0, r.A1, r.A2, r.max_opening, r.min_opening,
                r.max_traction, r.error) for r in rows])


def write_convergence_csv(path, rows):
    header = ["N", "sup_diff_vs_largest"]
    write_csv(path, header, [(r.N, r.sup_diff) for r in rows])
