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
int_0^l g'(s) t'(s) ds = 0, and (for gamma1 > 0) four tip rows, two per
tip (`_tip_rows`).  They zero the log coefficients of sigma_n and of the
normal component of du/ds, the component along the normal i t' (at s = 0
on the semicircle -du1/ds, not du2/ds): tip values of the densities of
`densities.cauchy_densities`.  Times +-gamma1/(4 pi mu), the
normal-component row is also the coefficient of the (s0 - tip)^-2 term of
the imaginary collocation rows.

With 2N collocation rows and 6 constraint rows for 2N + 2 unknowns the
constrained system has no exact solution: the least-squares density meets
the boundary equation at the collocation midpoints but not between them,
least of all near the tips (see the tests/test_acceptance.py docstring).

Integral evaluation: the collocation rows come from the face-field
operator (`fields._FaceOperator`) tabulated at the collocation points.
For each of the 2N+2 basis columns it gives the face-average traction
Sigma and the face function omega with its first two s0-derivatives; the
real row is (kappa+1)(Re Sigma - gamma1 kappa0 dk) and the imaginary row
(kappa+1)(Im Sigma - gamma1 dk'), where dk = -(kappa0 Re omega - Im
omega')/2mu is the face-curvature change and dk' = -(kappa0 Re omega' -
Im omega'')/2mu, with kappa0 constant.  The face fields of a solved
density are the same operator applied to one column, so the assembly and
the field evaluation share one tabulation.  The principal values (and
their s0-derivatives, boundary terms included) are in closed form
(`densities.pv_monomials`) and the regular kernels use
`quadrature.regular_rule`.  The flat node rule of `quadrature` is kept
only for the oracles; feeding its O(1/N) errors into this strongly
amplifying system destroys convergence.

gamma1 enters the rows twice: q is linear in gamma1, and the
face-curvature term multiplies by gamma1 once more.  So the collocation
block is (kappa+1)(R0 + gamma1 R1 + gamma1^2 R2) with three real blocks,
and the tip rows are T0 + gamma1 T1.  `_CollocationTables` holds this
gamma1-independent part of the system of one curve, material and N: the
blocks, built once from the operator's tables (`_FaceOperator.tables`,
`_system_rows`), the tip rows and the integrals I_n of the
single-valuedness rows, int_0^l (x - l/2)^n t'(x) dx on the same
`regular_rule` (`_single_valued_integrals`).  The jump table
(`_jump_table`), the integrals of g' t' up to each point of the opening
profile, is built only when an opening is asked for, so a convergence run
builds none.  assemble() builds the tables and combines them for one
gamma1; a gamma1 sweep builds them once and combines them for every
point, with no operator product.

The constrained system is solved by least squares in the constraint null
space with a light Tikhonov term (relative weight 1e-8) that suppresses
the residual boundary-layer content.  The constraints are homogeneous, so
each system is reduced once (`LinearSystem.reduction`: the null basis and
the SVD of the reduced block) for its condition estimate, solve and dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import (DensityCoefficients, basis, cauchy_densities,
                        poly_derivative, q_coefficients)
from .fields import _FaceOperator, boundary_forcing
from .geometry import CrackCurve
from .quadrature import Discretization, gauss_legendre, regular_rule

CONDITION_LIMIT = 1e14
LAMBDA_REL = 1e-8


class AssemblyError(RuntimeError):
    """Non-finite entries, a zero row or a bad gamma1 during assembly."""


class SolveError(RuntimeError):
    """Singular or unacceptably ill-conditioned collocation system."""


@dataclass
class LinearSystem:
    """Row-scaled collocation block stacked over the equality constraints.

    The first 2N rows collocate the boundary equation; the trailing
    n_constraints rows hold the single-valuedness condition and, for
    gamma1 > 0, the tip rows.  The constraints are homogeneous (their
    right-hand side is zero), so the solve needs no particular solution:
    `reduction` is the null basis Z of the constraint block and the thin
    SVD of the collocation block times Z, computed once and shared by the
    condition gate, `solve` and `dump_text`.  condition_estimate is the
    2-norm condition number of that reduced block with its smallest
    singular value clipped at the Tikhonov floor LAMBDA_REL * sigma_max,
    so it never exceeds 1/LAMBDA_REL = 1e8; it is inf only for a zero
    reduced block.  single_valued_integrals are the unscaled integrals I_k
    of the single-valuedness rows (`_single_valued_integrals`).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n_constraints: int
    row_scale: np.ndarray
    disc: Discretization
    gamma1: float
    single_valued_integrals: np.ndarray

    @property
    def collocation_block(self):
        return self.matrix[: -self.n_constraints]

    @property
    def constraint_block(self):
        return self.matrix[-self.n_constraints:]

    @cached_property
    def reduction(self):
        """(Z, G, U, S, Vt): null basis Z, G = A Z and G = U diag(S) Vt."""
        _, _, Vt = np.linalg.svd(self.constraint_block)
        Z = Vt[self.n_constraints:].T
        G = self.collocation_block @ Z
        return (Z, G) + tuple(np.linalg.svd(G, full_matrices=False))

    @cached_property
    def condition_estimate(self) -> float:
        _, _, _, S, _ = self.reduction
        smallest = max(S[-1], LAMBDA_REL * S[0])
        if smallest == 0.0:
            return float("inf")
        return float(S[0] / smallest)

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


def _jump_table(curve: CrackCurve, degree: int, n_samples: int = 201):
    """M[k, n] = int_0^{s_k} (x - l/2)^n t'(x) dx on equispaced s_k in [0, l].

    16 Gauss points per cell between neighbours, summed cumulatively.  The
    opening profile is this table applied to the density.
    """
    s = np.linspace(0.0, curve.length, n_samples)[:, None]
    x, w = gauss_legendre(16, s[:-1], s[1:])
    wt = (w * curve.tangent(x))[:, None, :]
    mono = basis(x, curve.length, degree)
    # two real products: a complex one would copy the basis as complex
    cells = (wt.real @ mono + 1j * (wt.imag @ mono))[:, 0]
    return np.concatenate([np.zeros((1, degree + 1)),
                           np.cumsum(cells, axis=0)])


def _single_valued_integrals(curve: CrackCurve, degree: int):
    """I_n = int_0^l (x - l/2)^n t'(x) dx, n = 0..degree, by regular_rule.

    The integrals of the single-valuedness rows: the sum of w t' times the
    basis over the 192 nodes of the regular-kernel rule.
    """
    x, w = regular_rule(curve.length)
    wt = w * curve.tangent(x)
    mono = basis(x, curve.length, degree)
    return wt.real @ mono + 1j * (wt.imag @ mono)


def _tip_rows(curve: CrackCurve, kappa: float, gamma1: float, gp, q_unit):
    """Tip rows of the densities gp, gamma1 * q_unit, in constraint order.

    gp and q_unit are (C, N+1) coefficient arrays (q_unit at gamma1 = 1);
    each row holds one value per density.  Per tip: -Im omega and
    Re sigma / 2 of `cauchy_densities`, which zero the log terms of the
    normal component of du/ds and of sigma_n.  On a straight crack these
    degenerate (the first reduces to Im g' = 0) and leave the boundary-layer
    modes exp(+-s/sqrt(gamma1(kappa-1)/4mu)) unpinned; the rows Re g'' and
    Im g'' at each tip pin them.
    """
    degree = gp.shape[-1] - 1
    tips = basis([0.0, curve.length], curve.length, degree).T
    sigma, omega = cauchy_densities(gp @ tips, gamma1 * (q_unit @ tips),
                                    kappa)
    # 0.0 - x rather than -x: an exact zero stays +0.0
    rows = [0.0 - omega.imag, 0.5 * sigma.real]
    if curve.constant_curvature == 0.0:
        gpp = poly_derivative(gp) @ tips[:degree]
        rows += [gpp.real, gpp.imag]
    return [row[..., tip] for tip in (0, 1) for row in rows]


def _system_rows(curve, material, tables, conj):
    """The rows of the boundary equation per unit density coefficient.

    tables and conj are `_FaceOperator.tables`.  The collocation rows hold
    Re Sigma, Im Sigma and the face-curvature terms -kappa0 dk and -dk',
    with dk = -(kappa0 Re omega - Im omega')/2mu the face-curvature change
    and dk' = -(kappa0 Re omega' - Im omega'')/2mu.  All four are real
    parts of combinations of the fields: of Sigma, -i Sigma,
    kappa0 (kappa0 omega + i omega')/2mu and (kappa0 omega' + i
    omega'')/2mu.  Returns them as real rows on the stacked [Re c; Im c] of
    the coefficients c of g' (index 0) and of q (index 1), shape
    (2, 4 M, 2n), the four kinds of row one after the other.
    """
    k0, two_mu = curve.constant_curvature, 2.0 * material.mu
    combine = np.array([[1.0, 0.0, 0.0, 0.0],
                        [-1j, 0.0, 0.0, 0.0],
                        [0.0, k0 * k0 / two_mu, 1j * k0 / two_mu, 0.0],
                        [0.0, 0.0, k0 / two_mu, 1j / two_mu]])
    t, tc = ((combine @ x.reshape(2, 4, -1)).reshape(x.shape)
             for x in (tables, conj))
    # Re of t c + tc conj(c), with c = cr + i ci
    n = t.shape[-1]
    rows = np.empty(t.shape[:-1] + (2 * n,))
    np.add(t.real, tc.real, out=rows[..., :n])
    np.subtract(tc.imag, t.imag, out=rows[..., n:])
    return rows.reshape(2, -1, 2 * n)


class _CollocationTables:
    """The gamma1-independent part of the system of one curve, material and N.

    The collocation rows are (kappa+1)(R0 + gamma1 R1 + gamma1^2 R2): q is
    linear in gamma1, and the face-curvature term multiplies by gamma1 once
    more.  The three real (2N, 2N+2) blocks are built once from the tables
    of the face-field operator at the collocation points, with
    s0-derivatives (`_FaceOperator.tables`).  R0 is the traction of the g'
    of the basis columns, R1 the traction of their q at gamma1 = 1 plus the
    curvature term of their g', and R2 the curvature term of their q.  The
    g' columns are the identity and i times it, so their rows are the
    tables themselves, placed; the q rows are one real product with the
    basis columns' q.  The tip rows are T0 + gamma1 T1 likewise.  The tables
    also hold the single-valuedness integrals; the jump table of the opening
    is built on first use.  system() combines them for one gamma1 and load
    with no operator product, so a sweep over gamma1 tabulates the kernels
    and builds the blocks once.
    """

    def __init__(self, curve: CrackCurve, material, disc: Discretization):
        N = disc.N
        self.curve, self.material, self.disc = curve, material, disc
        kappa = material.kappa
        # column c of the system is the unknown g1_c (c <= N) or g2_(c-N-1):
        # its g' and q (gamma1 = 1) as centered coefficient rows, (2N+2, N+1)
        eye, zero = np.eye(N + 1), np.zeros((N + 1, N + 1))
        g1, g2 = np.vstack([eye, zero]), np.vstack([zero, eye])
        gp = g1 + 1j * g2
        q_unit = q_coefficients(curve, material, 1.0, g1, g2)
        op = _FaceOperator(curve, kappa, disc.collocation_points, N,
                           derivatives=True)
        g_rows, q_rows = _system_rows(curve, material, *op.tables())
        # q_unit maps the q rows to the basis columns
        q_rows = q_rows @ np.concatenate([q_unit.real, q_unit.imag], axis=1).T
        self.blocks = (g_rows[: 2 * N], q_rows[: 2 * N] + g_rows[2 * N:],
                       q_rows[2 * N:])
        # g' and, at gamma1 = 1, q of the basis columns, side by side
        tips = np.array(_tip_rows(curve, kappa, 1.0,
                                  np.concatenate([gp, 0.0 * gp]),
                                  np.concatenate([0.0 * q_unit, q_unit])))
        self.tip_rows = (tips[:, : 2 * N + 2], tips[:, 2 * N + 2:])
        self.single_valued = _single_valued_integrals(curve, N)

    @cached_property
    def jump(self):
        """The (201, N+1) jump table of the opening, built on first use."""
        return _jump_table(self.curve, self.disc.N)

    def system(self, load, gamma1: float,
               row_scaling: bool = True) -> LinearSystem:
        """The row-scaled constrained system at one gamma1 and load."""
        if not np.isfinite(gamma1) or gamma1 < 0:
            raise AssemblyError(
                f"gamma1 must be finite and nonnegative, got {gamma1}")
        curve, material, disc = self.curve, self.material, self.disc
        kappa = material.kappa

        # the boundary equation (kappa+1)[Sigma - gamma1 (kappa0 dk + i dk')]
        # = (kappa+1) f, real rows first
        r0, r1, r2 = self.blocks
        rows = (kappa + 1.0) * (r0 + gamma1 * (r1 + gamma1 * r2))
        f_c = boundary_forcing(curve, material, load, gamma1,
                               disc.collocation_points)
        rhs = (kappa + 1.0) * np.concatenate([f_c.real, f_c.imag])

        ints = self.single_valued
        con_rows = [np.concatenate([ints.real, -ints.imag]),
                    np.concatenate([ints.imag, ints.real])]
        if gamma1 > 0.0:
            t0, t1 = self.tip_rows
            con_rows += list(t0 + gamma1 * t1)
        A = np.vstack([rows] + con_rows)
        b = np.concatenate([rhs, np.zeros(len(con_rows))])
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

        return LinearSystem(matrix=A, rhs=b, n_constraints=len(con_rows),
                            row_scale=scale, disc=disc, gamma1=gamma1,
                            single_valued_integrals=ints)


def assemble(curve: CrackCurve, material, load, gamma1: float,
             disc: Discretization, row_scaling: bool = True) -> LinearSystem:
    """Assemble the constrained collocation system: tabulate, then apply."""
    tables = _CollocationTables(curve, material, disc)
    return tables.system(load, gamma1, row_scaling)


def solve(system: LinearSystem, curve: CrackCurve | None = None) -> DensityCoefficients:
    """Constrained least-squares solve with light Tikhonov regularization.

    The equality constraints are homogeneous and eliminated exactly: x =
    Z y with Z the constraint null basis of `system.reduction`, whose SVD
    of the reduced block inverts it with singular values damped by lambda
    = 1e-8 * sigma_max.  That suppresses the boundary-layer null family
    while leaving resolved directions untouched.  Raises SolveError on a
    non-finite matrix, or when condition_estimate is non-finite or exceeds
    CONDITION_LIMIT = 1e14.  The estimate is clipped at 1/LAMBDA_REL = 1e8,
    so as computed the gate fires only on a zero reduced block (estimate
    inf); an ill-conditioned but nonzero block is damped, not rejected.
    """
    if not np.all(np.isfinite(system.matrix)):
        raise SolveError("system matrix contains non-finite entries")
    if not np.isfinite(system.condition_estimate) \
            or system.condition_estimate > CONDITION_LIMIT:
        raise SolveError(
            f"condition estimate {system.condition_estimate:.3e} is not "
            f"finite or exceeds {CONDITION_LIMIT:.0e}")

    Z, G, U, S, Vt = system.reduction
    h = system.rhs[: -system.n_constraints]
    lam = LAMBDA_REL * S[0]
    damped = S / (S * S + lam * lam)
    y = Vt.T @ (damped * (U.T @ h))
    x = Z @ y

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
    )
    if curve is not None:
        coeffs.single_valued_residual = _normalized_residual(
            coeffs, curve, system.single_valued_integrals)
    return coeffs


def solve_problem(curve: CrackCurve, material, load, gamma1: float, N: int = 20,
                  row_scaling: bool = True) -> DensityCoefficients:
    """Assemble and solve in one call."""
    disc = Discretization(N, curve.length)
    system = assemble(curve, material, load, gamma1, disc, row_scaling)
    return solve(system, curve)


def single_valued_integral(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> complex:
    """int_0^l g'(s) t'(s) ds, with the integrals of the solve's rows."""
    ints = _single_valued_integrals(curve, coeffs.degree)
    return complex(np.sum((coeffs.g1 + 1j * coeffs.g2) * ints))


def single_valued_residual(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> float:
    """|int g' t' ds| normalized by sup|g'| times the arc length."""
    return _normalized_residual(
        coeffs, curve, _single_valued_integrals(curve, coeffs.degree))


def _sup_gprime(coeffs: DensityCoefficients, curve: CrackCurve) -> float:
    """sup|g'| over 512 equispaced points of [0, l], the residuals' scale."""
    samples = np.linspace(0.0, curve.length, 512)
    return float(np.max(np.abs(coeffs.gprime(samples))))


def _normalized_residual(coeffs, curve, ints) -> float:
    """single_valued_residual from the integrals I_k of the rows."""
    sup = _sup_gprime(coeffs, curve)
    value = abs(complex(np.sum((coeffs.g1 + 1j * coeffs.g2) * ints)))
    return value / (sup * curve.length) if sup > 0.0 else 0.0


def tip_condition_residuals(coeffs: DensityCoefficients, curve: CrackCurve,
                            material, gamma1: float):
    """Residuals of the crack-tip solvability conditions at both tips.

    One value per row of `_tip_rows`, 4 on a curved crack and 8 on a
    straight one, normalized by sup|g'|.  The solve imposes the tip rows as
    equality constraints, so the residuals vanish to rounding.  At gamma1 =
    0 it imposes none, and there are no residuals: ().
    """
    if gamma1 == 0.0:
        return ()
    sup = _sup_gprime(coeffs, curve)
    norm = sup if sup > 0.0 else 1.0
    g1, g2 = coeffs.g1, coeffs.g2
    rows = _tip_rows(curve, material.kappa, gamma1, (g1 + 1j * g2)[None],
                     q_coefficients(curve, material, 1.0, g1, g2)[None])
    return tuple(float(row[0]) / norm for row in rows)
