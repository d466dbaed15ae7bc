"""Collocation solver for the singular integro-differential crack system.

The unknown density g'(s) is expanded in the centered Taylor basis
(s - l/2)^k, k = 0..N, with real coefficient pairs (g1_k, g2_k).  The
traction-jump density q is eliminated through the surface-tension closure
(see densities.py), so the unknown vector has 2N+2 real entries.

Rows 1..N of the collocation block are the real parts of the boundary
equation at the midpoints s_j, rows N+1..2N the imaginary parts.  All
density-dependent terms sit in the matrix; only the load forcing
(kappa+1) f(s_j) enters the right-hand side.  Appended to the block are
equality constraints: the single-valuedness condition
int_0^l g'(s) t'(s) ds = 0, and (for gamma1 > 0) four tip-regularity rows
demanding that the surface tension carried by each crack face vanish at
the tips; a face terminating with nonzero tension would exert a point load
there, outside the admissible field class.  Without these rows the system
admits a family of boundary-layer modes of width sqrt(gamma1(kappa-1)/4mu)
that leave the collocation equations numerically unresolved.

Integral evaluation: the Cauchy principal values of the polynomial
densities (and their first and second s0-derivatives, boundary terms
included) are computed in closed form by `quadrature.pv_monomials`, and
the regular-kernel blocks with `quadrature.regular_rule`, the composite
Gauss-Legendre rule the face fields use too.  The flat node rule of
`quadrature` is kept only for the oracles; feeding its O(1/N) errors into
this strongly amplifying system destroys convergence.

The constrained system is solved by least squares in the constraint null
space with a light Tikhonov term (relative weight 1e-8) that suppresses
the residual boundary-layer content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import (DensityCoefficients, poly_derivative, poly_eval,
                        traction_jump)
from .fields import boundary_forcing
from .geometry import CrackCurve
from .kernels import KernelSet
from .quadrature import (Discretization, gauss_legendre, pv_monomials,
                         regular_rule)

CONDITION_LIMIT = 1e14
LAMBDA_REL = 1e-8


class AssemblyError(RuntimeError):
    """Non-finite entries or invalid geometry during system assembly."""


class SolveError(RuntimeError):
    """Singular or unacceptably ill-conditioned collocation system."""


@dataclass
class LinearSystem:
    """Row-scaled collocation block stacked over the equality constraints.

    The first 2N rows collocate the boundary equation; the trailing
    n_constraints rows hold the single-valuedness condition and, for
    gamma1 > 0, the tip-tension rows.  condition_estimate is the 2-norm
    condition number of the collocation block restricted to the constraint
    null space (the operator the least-squares solve actually inverts).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n_constraints: int
    condition_estimate: float
    row_scale: np.ndarray
    disc: Discretization
    gamma1: float

    @property
    def collocation_block(self):
        return self.matrix[: -self.n_constraints]

    @property
    def constraint_block(self):
        return self.matrix[-self.n_constraints:]

    def dump_text(self) -> str:
        """Plain-text dump of the matrix and right-hand side."""
        lines = [f"n_rows {self.matrix.shape[0]}",
                 f"n_cols {self.matrix.shape[1]}",
                 f"n_constraints {self.n_constraints}"]
        lines.append("row_scale " + " ".join(repr(float(v)) for v in self.row_scale))
        for i, row in enumerate(self.matrix):
            lines.append(f"row {i} " + " ".join(repr(float(v)) for v in row))
        lines.append("rhs " + " ".join(repr(float(v)) for v in self.rhs))
        lines.append(f"condition_estimate {self.condition_estimate!r}")
        return "\n".join(lines) + "\n"


class _ColumnData:
    """Per-basis-column polynomial data shared by all evaluation points.

    Coefficient matrices have shape (2N+2, N+1); row c holds the centered
    coefficients of the quantity generated by unknown c (g1_0..g1_N then
    g2_0..g2_N).
    """

    def __init__(self, curve: CrackCurve, material, gamma1: float, N: int):
        if curve.constant_curvature is None:
            raise AssemblyError(
                "assembly requires a constant-curvature curve; built-in "
                "shapes only")
        self.N = N
        self.length = curve.length
        k0 = curve.constant_curvature
        eye = np.eye(N + 1)
        zeros = np.zeros((N + 1, N + 1))

        def deriv(mat):
            out = np.zeros_like(mat)
            k = np.arange(1, mat.shape[1])
            out[:, :-1] = mat[:, 1:] * k
            return out

        self.RG = np.vstack([eye, zeros])
        self.IG = np.vstack([zeros, eye])
        # P = kappa0 Im g' + Re g''; constant curvature keeps it polynomial
        self.P = np.vstack([deriv(eye), k0 * eye])
        self.PP = deriv(self.P)
        self.K0P = k0 * self.P
        self.gamma1 = gamma1
        self.mu = material.mu

        self._d = {}
        self._dd = {}
        self._end = {}
        for name in ("RG", "IG", "PP", "K0P"):
            mat = getattr(self, name)
            d = deriv(mat)
            self._d[name] = d
            self._dd[name] = deriv(d)
            self._end[name] = self._endpoints(mat)
            self._end[name + "_d"] = self._endpoints(d)

    def _endpoints(self, mat):
        half = 0.5 * self.length
        k = np.arange(mat.shape[1])
        e0 = (-half) ** k
        el = half ** k
        return mat @ e0, mat @ el

    def pv(self, name, J):
        return getattr(self, name) @ J

    def pv1(self, name, J, s0):
        v0, vl = self._end[name]
        return (self._d[name] @ J
                - vl / (self.length - s0) - v0 / s0)

    def pv2(self, name, J, s0):
        v0, vl = self._end[name]
        d0, dl = self._end[name + "_d"]
        return (self._dd[name] @ J
                - dl / (self.length - s0) - d0 / s0
                - vl / (self.length - s0) ** 2 + v0 / s0 ** 2)

    def node_values(self, nodes):
        """Complex g' and q per column at the given nodes."""
        x = nodes - 0.5 * self.length
        basis = x[None, :] ** np.arange(self.N + 1)[:, None]
        gp = (self.RG + 1j * self.IG) @ basis
        q = (self.gamma1 / (4.0 * self.mu)) * (self.K0P + 1j * self.PP) @ basis
        return gp, q


class _Assembler:
    """Evaluates the operator rows of the system at arbitrary interior s0."""

    def __init__(self, curve, material, gamma1, N, eps_d=None):
        self.curve = curve
        self.material = material
        self.gamma1 = gamma1
        self.N = N
        self.kappa = material.kappa
        self.mu = material.mu
        self.cols = _ColumnData(curve, material, gamma1, N)
        self.kset = KernelSet(curve, material.kappa, eps_d=eps_d)
        self.xg, self.wg = regular_rule(curve.length)
        gp, q = self.cols.node_values(self.xg)
        self.GP, self.Q = gp, q
        self.GPc, self.Qc = np.conj(gp), np.conj(q)

    def rows(self, s0: float):
        """(real row, imaginary row, face-tension row) at s0, per column."""
        kappa, mu, gamma1 = self.kappa, self.mu, self.gamma1
        gmu = gamma1 / mu
        curve = self.curve
        cols = self.cols
        J = pv_monomials(curve.length, s0, self.N)

        c0r = cols.pv("RG", J)
        c1r = cols.pv1("RG", J, s0)
        c0i = cols.pv("IG", J)
        c1i = cols.pv1("IG", J, s0)
        c2i = cols.pv2("IG", J, s0)
        c0p = cols.pv("PP", J)
        c1p = cols.pv1("PP", J, s0)
        c0k = cols.pv("K0P", J)
        c1k = cols.pv1("K0P", J, s0)
        c2k = cols.pv2("K0P", J, s0)

        k0 = float(curve.kappa0(np.asarray(s0)))
        k0p = float(curve.kappa0_prime(np.asarray(s0)))
        a_v = ((kappa - 1.0) / np.pi) * c0r + (kappa * gmu / np.pi) * c0p
        a_vp = ((kappa - 1.0) / np.pi) * c1r + (kappa * gmu / np.pi) * c1p
        bt_p = ((kappa - 1.0) / np.pi) * c1i - (kappa * gmu / np.pi) * c1k
        bt_pp = ((kappa - 1.0) / np.pi) * c2i - (kappa * gmu / np.pi) * c2k

        l10 = ((1.0 / np.pi) * c0r
               - ((kappa - 1.0) * gmu / (4.0 * np.pi)) * c0p
               + (gmu / 4.0) * k0 * (k0 * a_v - bt_p))
        l11 = ((1.0 / np.pi) * c0i
               + ((kappa - 1.0) * gmu / (4.0 * np.pi)) * c0k
               + (gmu / 4.0) * (k0p * a_v + k0 * a_vp - bt_pp))

        blk = self.kset.block(self.xg, s0)
        w = self.wg

        def ksum(dens, key):
            return dens @ (w * blk[key])

        i_a = (ksum(self.GP, "k1") + ksum(self.GPc, "k2")
               - 2j * ksum(self.Q, "k3") + 2j * ksum(self.Qc, "k2"))
        i_b = ((ksum(self.GP, "k4") - ksum(self.GPc, "k2")) / (2.0 * np.pi)
               + (kappa * ksum(self.Q, "k1") + ksum(self.Qc, "k2"))
               / (np.pi * 1j))
        i_c = (1j * ksum(self.GP, "d4") - 1j * ksum(self.GPc, "d2")
               + 2.0 * kappa * ksum(self.Q, "d1") + 2.0 * ksum(self.Qc, "d2"))
        i_d = ((ksum(self.GP, "dd4") - ksum(self.GPc, "dd2")) / (2.0 * np.pi)
               + (kappa * ksum(self.Q, "dd1") + ksum(self.Qc, "dd2"))
               / (np.pi * 1j))

        m1d = (-i_a / (2.0 * np.pi)
               - (gmu / 2.0) * (k0 * k0 + 1j * k0p) * np.real(i_b)
               - (gmu / (4.0 * np.pi)) * k0 * i_c
               + 1j * (gmu / 2.0) * np.imag(i_d))

        # (kappa+1) times the average face tension carried by the densities
        ib1 = i_c / (2.0 * np.pi * 1j)
        re_om = 0.5 * a_v + np.real(i_b)
        im_om1 = 0.5 * bt_p + np.imag(ib1)
        tension = -(gamma1 / (2.0 * mu)) * (k0 * re_om - im_om1)

        return l10 - np.real(m1d), l11 - np.imag(m1d), tension


def _single_valued_row_integrals(curve: CrackCurve, N: int):
    """I_k = int_0^l t'(s) (s - l/2)^k ds, k = 0..N, by composite Gauss rule."""
    panels = max(8, N // 2)
    vals = np.zeros(N + 1, dtype=complex)
    edges = np.linspace(0.0, curve.length, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(24, a, b)
        t1 = curve.tangent(x)
        basis = (x - 0.5 * curve.length)[None, :] ** np.arange(N + 1)[:, None]
        vals += basis @ (w * t1)
    return vals


def _poly_deriv_eval(mat, x: float):
    """Row-wise value at centered coordinate x of d/ds of the polynomials
    whose centered coefficients are the rows of mat."""
    k = np.arange(1, mat.shape[1])
    dmat = mat[:, 1:] * k
    basis = x ** np.arange(dmat.shape[1])
    return dmat @ basis


def assemble(curve: CrackCurve, material, load, gamma1: float,
             disc: Discretization, row_scaling: bool = True,
             eps_d: float | None = None) -> LinearSystem:
    """Assemble the constrained collocation system."""
    if not np.isfinite(gamma1) or gamma1 < 0:
        raise AssemblyError(
            f"gamma1 must be finite and nonnegative, got {gamma1}")
    N = disc.N
    kappa = material.kappa
    asm = _Assembler(curve, material, gamma1, N, eps_d=eps_d)
    colloc = disc.collocation_points
    f_c = boundary_forcing(curve, material, load, gamma1, colloc)

    ncols = 2 * N + 2
    rows = np.zeros((2 * N, ncols))
    rhs = np.zeros(2 * N)
    for j, s0 in enumerate(colloc):
        row_re, row_im, _ = asm.rows(float(s0))
        rows[j] = row_re
        rows[N + j] = row_im
        rhs[j] = (kappa + 1.0) * np.real(f_c[j])
        rhs[N + j] = (kappa + 1.0) * np.imag(f_c[j])

    con_rows = []
    con_rhs = []
    ints = _single_valued_row_integrals(curve, N)
    r = np.zeros(ncols)
    r[: N + 1] = np.real(ints)
    r[N + 1:] = -np.imag(ints)
    con_rows.append(r)
    con_rhs.append(0.0)
    r = np.zeros(ncols)
    r[: N + 1] = np.imag(ints)
    r[N + 1:] = np.real(ints)
    con_rows.append(r)
    con_rhs.append(0.0)

    if gamma1 > 0.0:
        # Tip solvability conditions of the Hoelder solution class: the two
        # combinations controlling the log coefficients of the bounded face
        # fields vanish at the tips.  For a straight crack these degenerate
        # (the channels decouple and the first reduces to Im g' = 0), which
        # leaves the boundary-layer modes exp(+-s/sqrt(gamma1(kappa-1)/4mu))
        # of the homogeneous system unpinned; pinning the tip values of g''
        # there restores a uniquely resolved density without touching the
        # log-singular structure of the curved problem.
        half = 0.5 * curve.length
        for tip in (0.0, curve.length):
            x = tip - half
            basis = x ** np.arange(N + 1)
            k0t = float(curve.kappa0(np.asarray(tip)))
            re_gp = asm.cols.RG @ basis
            im_gp = asm.cols.IG @ basis
            re_q = (gamma1 / (4.0 * material.mu)) * k0t * (asm.cols.P @ basis)
            im_q = (gamma1 / (4.0 * material.mu)) * (asm.cols.PP @ basis)
            con_rows.append(-(kappa - 1.0) * im_gp + 4.0 * kappa * re_q)
            con_rows.append(re_gp - (kappa - 1.0) * im_q)
            con_rhs.extend([0.0, 0.0])
            if curve.constant_curvature == 0.0:
                con_rows.append(_poly_deriv_eval(asm.cols.RG, x))
                con_rows.append(_poly_deriv_eval(asm.cols.IG, x))
                con_rhs.extend([0.0, 0.0])

    A = np.vstack([rows, np.array(con_rows)])
    b = np.concatenate([rhs, np.array(con_rhs)])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise AssemblyError("non-finite entries in the collocation system")

    if row_scaling:
        scale = np.max(np.abs(A), axis=1)
        if np.any(scale == 0.0):
            raise AssemblyError("zero row encountered during scaling")
    else:
        scale = np.ones(A.shape[0])
    A = A / scale[:, None]
    b = b / scale

    n_con = len(con_rows)
    system = LinearSystem(matrix=A, rhs=b, n_constraints=n_con,
                          condition_estimate=np.nan, row_scale=scale,
                          disc=disc, gamma1=gamma1)
    system.condition_estimate = _condition_estimate(system)
    return system


def _reduced_parts(system: LinearSystem):
    """Constraint particular solution, null basis, and reduced block."""
    A = system.collocation_block
    b = system.rhs[: -system.n_constraints]
    T = system.constraint_block
    t = system.rhs[-system.n_constraints:]
    x0, *_ = np.linalg.lstsq(T, t, rcond=None)
    _, _, Vt = np.linalg.svd(T)
    Z = Vt[T.shape[0]:].T
    return A, b, T, t, x0, Z


def _condition_estimate(system: LinearSystem) -> float:
    A, _, _, _, _, Z = _reduced_parts(system)
    sv = np.linalg.svd(A @ Z, compute_uv=False)
    lam = LAMBDA_REL * sv[0] if sv[0] > 0 else 0.0
    smallest = max(sv[-1], lam)
    if smallest == 0.0:
        return float("inf")
    return float(sv[0] / smallest)


def solve(system: LinearSystem, curve: CrackCurve | None = None) -> DensityCoefficients:
    """Constrained least-squares solve with light Tikhonov regularization.

    The equality constraints are eliminated exactly; in their null space the
    collocation block is inverted through its SVD with singular values
    damped by lambda = 1e-8 * sigma_max, which suppresses the boundary-layer
    null family while leaving resolved directions untouched.  Raises
    SolveError when the effective conditioning still exceeds 1e14: the
    underlying operator has a unique solution except on the discrete
    spectrum of its compact part, and parameters near such a point (or a
    degenerate geometry) land here.
    """
    if not np.all(np.isfinite(system.matrix)):
        raise SolveError("system matrix contains non-finite entries")
    if not np.isfinite(system.condition_estimate) \
            or system.condition_estimate > CONDITION_LIMIT:
        raise SolveError(
            f"condition estimate {system.condition_estimate:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; parameters may sit near the discrete "
            "spectrum of the integral operator")

    A, b, T, t, x0, Z = _reduced_parts(system)
    G = A @ Z
    h = b - A @ x0
    U, S, Vt = np.linalg.svd(G, full_matrices=False)
    lam = LAMBDA_REL * S[0] if S[0] > 0 else 0.0
    damped = S / (S * S + lam * lam)
    y = Vt.T @ (damped * (U.T @ h))
    x = x0 + Z @ y

    # solver-level residual of the damped normal equations
    lhs = G.T @ (G @ y) + lam * lam * y
    rhs_n = G.T @ h
    residual = np.max(np.abs(lhs - rhs_n))
    bound = 1e-10 * (np.max(np.abs(G)) ** 2 * max(np.max(np.abs(y)), 1.0)
                     + np.max(np.abs(rhs_n)) + 1e-300)
    if residual > bound:
        raise SolveError(
            f"normal-equation residual {residual:.3e} exceeds {bound:.3e}")

    N = system.disc.N
    coeffs = DensityCoefficients(
        g1=x[: N + 1], g2=x[N + 1:], length=system.disc.length,
        gamma1=system.gamma1,
        condition_estimate=system.condition_estimate,
        classical_limit=(system.gamma1 == 0.0),
    )
    if curve is not None:
        coeffs.single_valued_residual = single_valued_residual(coeffs, curve)
    return coeffs


def solve_problem(curve: CrackCurve, material, load, gamma1: float, N: int = 20,
                  row_scaling: bool = True,
                  eps_d: float | None = None) -> DensityCoefficients:
    """Assemble and solve in one call."""
    disc = Discretization(N, curve.length)
    system = assemble(curve, material, load, gamma1, disc, row_scaling, eps_d)
    return solve(system, curve)


def single_valued_integral(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> complex:
    """int_0^l g'(s) t'(s) ds with the same Gauss rule as the constraint rows."""
    ints = _single_valued_row_integrals(curve, coeffs.degree)
    return complex(np.sum((coeffs.g1 + 1j * coeffs.g2) * ints))


def single_valued_residual(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> float:
    """|int g' t' ds| normalized by sup|g'| times the arc length."""
    value = abs(single_valued_integral(coeffs, curve))
    samples = np.linspace(0.0, curve.length, 512)
    sup = float(np.max(np.abs(coeffs.gprime(samples))))
    if sup == 0.0:
        return 0.0
    return value / (sup * curve.length)


def tip_condition_residuals(coeffs: DensityCoefficients, curve: CrackCurve,
                            material, gamma1: float):
    """Residuals of the crack-tip solvability conditions at both tips.

    For curved cracks these are the two bracketed combinations whose
    vanishing makes sigma_n and du2/ds bounded; for a straight crack the
    appropriate combinations degenerate to Im g' and Im g'' at the tips.
    Values are normalized by the maximum interior |g'|; the conditions are
    carried by the solve only approximately, so the residuals shrink with N
    instead of vanishing.
    """
    samples = np.linspace(0.0, curve.length, 512)
    sup = float(np.max(np.abs(coeffs.gprime(samples))))
    norm = sup if sup > 0.0 else 1.0

    tips = np.array([0.0, curve.length])
    if curve.constant_curvature == 0.0:
        im_gp = poly_eval(coeffs.g2, tips, coeffs.length)
        im_gpp = poly_eval(poly_derivative(coeffs.g2), tips, coeffs.length)
        r = (im_gp[0], im_gpp[0], im_gp[1], im_gpp[1])
    else:
        kappa = material.kappa
        re_gp = poly_eval(coeffs.g1, tips, coeffs.length)
        im_gp = poly_eval(coeffs.g2, tips, coeffs.length)
        q = traction_jump(curve, material, gamma1, coeffs, tips)
        r_a = -(kappa - 1.0) * im_gp + 4.0 * kappa * np.real(q)
        r_b = re_gp - (kappa - 1.0) * np.imag(q)
        r = (r_a[0], r_b[0], r_a[1], r_b[1])
    return tuple(float(v) / norm for v in r)
