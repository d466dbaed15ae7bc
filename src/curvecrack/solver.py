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
tip (`_tip_blocks`).  They zero the log coefficients of sigma_n and of the
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
blocks, built once by one real map of the operator's raw tables
(`_FaceOperator.rows`), the closed-form tip rows and the integrals I_n
of the single-valuedness rows, int_0^l (x - l/2)^n t'(x) dx
(`_single_valued_integrals`).  The jump table (`_jump_table`), the
integrals of g' t' up to each point of the opening profile, is built only
when an opening is asked for, so a convergence run builds none.  Both
are one closed form, `_tangent_integrals`: t' is t'(l/2) exp(i kappa0
(x - l/2)) on every curve, so no quadrature rule is needed.
`_CollocationTables.systems` combines them for P gamma1 values at once
into a stack, arrays with a leading point axis, with no operator product;
assemble() builds the tables and takes the one-point stack, a gamma1
sweep builds them once and stacks all its points.

The constrained system is solved by least squares in the constraint null
space with a light Tikhonov term (relative weight 1e-8) that suppresses
the residual boundary-layer content.  The constraints are homogeneous, so
each stack is reduced once (`LinearSystem.reduction`: the null bases and
the SVDs of the reduced blocks, one batched call per SVD) for its
condition estimates, solutions and dump.  `_solutions` solves a stack and
checks each point on its own; solve() is its one-point case, so a single
solve and a sweep share one solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .densities import (DensityCoefficients, _times_derivative, basis,
                        cauchy_densities, q_rows_to_unknowns)
from .fields import _FaceOperator, boundary_forcing
from .geometry import CrackCurve
# gauss_legendre is not called here, but perfbench's tracer test rebinds it
# by name in this module, so the name stays bound here
from .quadrature import Discretization, gauss_legendre  # noqa: F401

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

    A stack of P systems that share N and the number of constraint rows
    (`_CollocationTables.systems`) carries a leading point axis on matrix,
    rhs and row_scale, and gamma1 and condition_estimate are (P,) arrays;
    the reduction factorizes the whole stack in one call per SVD.  A single
    system has no point axis.
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
        return self.matrix[..., : -self.n_constraints, :]

    @property
    def constraint_block(self):
        return self.matrix[..., -self.n_constraints:, :]

    @cached_property
    def reduction(self):
        """(Z, G, U, S, Vt): null basis Z, G = A Z and G = U diag(S) Vt."""
        _, _, Vt = np.linalg.svd(self.constraint_block)
        Z = Vt[..., self.n_constraints:, :].swapaxes(-1, -2)
        G = self.collocation_block @ Z
        return (Z, G) + tuple(np.linalg.svd(G, full_matrices=False))

    @cached_property
    def condition_estimate(self):
        _, _, _, S, _ = self.reduction
        estimates = []
        for largest, last in zip(np.ravel(S[..., 0]).tolist(),
                                 np.ravel(S[..., -1]).tolist()):
            smallest = max(last, LAMBDA_REL * largest)
            estimates.append(largest / smallest if smallest else float("inf"))
        return np.array(estimates) if S.ndim > 1 else estimates[0]

    def dump_text(self) -> str:
        """Plain-text dump of the matrix and right-hand side of one system."""
        lines = [f"n_rows {self.matrix.shape[0]}",
                 f"n_cols {self.matrix.shape[1]}",
                 f"n_constraints {self.n_constraints}"]
        lines.append("row_scale " + " ".join(repr(float(v)) for v in self.row_scale))
        for i, row in enumerate(self.matrix):
            lines.append(f"row {i} " + " ".join(repr(float(v)) for v in row))
        lines.append("rhs " + " ".join(repr(float(v)) for v in self.rhs))
        lines.append(f"condition_estimate {self.condition_estimate!r}")
        return "\n".join(lines) + "\n"


def _tangent_integrals(curve: CrackCurve, degree: int, s):
    """M[k, n] = int_0^{s_k} (x - l/2)^n t'(x) dx, n = 0..degree, closed form.

    With L = l/2, t'(x) = t'(L) exp(i kappa0 (x - L)) on every curve, so

        M[k, n] = t'(L) sum_m (i kappa0)^m / m!
                  * ((s_k - L)^p - (-L)^p) / p,   p = n + m + 1:

    the differences of the Vandermonde matrix of the s_k - L times a banded
    Toeplitz matrix of (i kappa0)^m / m!, divided by p.  The terms fall
    below 2^-56 of the first after m = `_exp_terms(|kappa0| L)`.
    """
    L = 0.5 * curve.length
    k0 = curve.constant_curvature
    terms = _exp_terms(abs(k0) * L)
    top = degree + terms
    powers = basis(s, curve.length, top)[..., 1:] \
        - basis(0.0, curve.length, top)[1:]
    # padded[degree + m] = (i kappa0)^m / m! for m = p - 1 - n, zero off
    # the band
    padded = np.zeros(top + degree, dtype=complex)
    padded[degree: top] = np.cumprod(
        np.concatenate([[1.0], 1j * k0 / np.arange(1, terms)]))
    p = np.arange(1, top + 1)[:, None]
    toeplitz = padded[degree + p - 1 - np.arange(degree + 1)] / p
    # one real product: a complex one would copy the powers as complex
    parts = powers @ np.concatenate([toeplitz.real, toeplitz.imag], axis=1)
    return curve.tangent(L) * (parts[..., : degree + 1]
                               + 1j * parts[..., degree + 1:])


def _exp_terms(x):
    """How many terms of sum_m x^m/m! to keep: the first left out is below
    2^-56."""
    m, term = 1, x
    while term >= 2.0 ** -56:
        m += 1
        term *= x / m
    return m


def _jump_table(curve: CrackCurve, degree: int, n_samples: int = 201):
    """M[k, n] = int_0^{s_k} (x - l/2)^n t'(x) dx on equispaced s_k in [0, l].

    `_tangent_integrals` at the points of the opening profile, which is
    this table applied to the density.
    """
    return _tangent_integrals(curve, degree,
                              np.linspace(0.0, curve.length, n_samples))


def _single_valued_integrals(curve: CrackCurve, degree: int):
    """I_n = int_0^l (x - l/2)^n t'(x) dx, n = 0..degree.

    The integrals of the single-valuedness rows: `_tangent_integrals` at
    s = l.
    """
    return _tangent_integrals(curve, degree, [curve.length])[0]


def _tip_blocks(curve: CrackCurve, material, degree: int):
    """T0 and T1 of the tip rows, (rows, 2 degree + 2): the rows of a
    density [g1; g2] at gamma1 are (T0 + gamma1 T1) [g1; g2], in
    constraint order, the rows of the first tip first.

    Per tip: -Im omega and Re sigma / 2 of `cauchy_densities`, which zero
    the log terms of the normal component of du/ds and of sigma_n.  Both
    are Re(z g' + z_q q) with the densities' coefficients z and z_q, and
    Re(z x) = Re z Re x - Im z Im x; g' at a tip is the basis b there on
    g1 and i b on g2, and q (gamma1 T1) comes from the closure
    (`q_rows_to_unknowns`).  On a straight crack these degenerate (the
    first reduces to Im g' = 0) and leave the boundary-layer modes
    exp(+-s/sqrt(gamma1(kappa-1)/4mu)) unpinned; the rows Re g'' and
    Im g'' at each tip, b' on g1 and on g2, pin them.
    """
    b = basis([0.0, curve.length], curve.length, degree)
    (sg, og), (sq, oq) = (cauchy_densities(1.0, 0.0, material.kappa),
                          cauchy_densities(0.0, 1.0, material.kappa))
    t0, t1 = [], []
    # -Im omega = Re(i omega), then Re sigma / 2
    for z, zq in ((1j * og, 1j * oq), (0.5 * sg, 0.5 * sq)):
        t0.append(np.hstack([z.real * b, -z.imag * b]))
        t1.append(np.hstack(q_rows_to_unknowns(zq.real * b, -zq.imag * b,
                                               curve, material)))
    if curve.constant_curvature == 0.0:
        b1, zero = _times_derivative(b), np.zeros(b.shape)
        t0 += [np.hstack([b1, zero]), np.hstack([zero, b1])]
        t1 += [np.zeros(t0[0].shape)] * 2
    return tuple(np.stack(t, axis=1).reshape(-1, 2 * degree + 2)
                 for t in (t0, t1))


class _CollocationTables:
    """The gamma1-independent part of the system of one curve, material and N.

    The collocation rows are (kappa+1)(R0 + gamma1 R1 + gamma1^2 R2): q is
    linear in gamma1, and the face-curvature term multiplies by gamma1 once
    more.  R0 is the traction of the g' of the basis columns, R1 the
    traction of their q at gamma1 = 1 plus the curvature term of their g',
    and R2 the curvature term of their q.  The three real (2N, 2N+2) blocks
    come from one real product (`_FaceOperator.rows` at the collocation
    points), and the q rows become g1 and g2 columns by column shifts.  The
    tip rows are T0 + gamma1 T1, in closed form (`_tip_blocks`).  The
    tables also hold the single-valuedness integrals; the jump table of the
    opening is built on first use.  systems() combines them for a stack of
    gamma1 values and one load with no operator product, and system() for
    one gamma1, so a sweep over gamma1 tabulates the kernels and builds the
    blocks once.
    """

    def __init__(self, curve: CrackCurve, material, disc: Discretization):
        N = disc.N
        self.curve, self.material, self.disc = curve, material, disc
        kappa = material.kappa
        k0, two_mu = curve.constant_curvature, 2.0 * material.mu
        op = _FaceOperator(curve, kappa, disc.collocation_points, N,
                           derivatives=True)
        # Re Sigma, Im Sigma and the face-curvature terms -kappa0 dk and -dk'
        # are the real parts of Sigma, -i Sigma, kappa0 (kappa0 omega +
        # i omega')/2mu and (kappa0 omega' + i omega'')/2mu: (4, 2, N, N+1)
        # rows per unit Re and Im of the coefficients of g' and of q
        g, q = op.rows(np.array([[1.0, 0.0, 0.0, 0.0],
                                 [-1j, 0.0, 0.0, 0.0],
                                 [0.0, k0 * k0 / two_mu, 1j * k0 / two_mu,
                                  0.0],
                                 [0.0, 0.0, k0 / two_mu, 1j / two_mu]]))
        q = np.stack(q_rows_to_unknowns(q[:, 0], q[:, 1], curve, material),
                     axis=1)
        # (row kind, point) by (Re or Im, coefficient)
        self.blocks = tuple(
            block.transpose(0, 2, 1, 3).reshape(2 * N, 2 * N + 2)
            for block in (g[:2], q[:2] + g[2:], q[2:]))
        self.tip_rows = _tip_blocks(curve, material, N)
        self.single_valued = ints = _single_valued_integrals(curve, N)
        self.single_valued_rows = np.array(
            [np.concatenate([ints.real, -ints.imag]),
             np.concatenate([ints.imag, ints.real])])

    @cached_property
    def jump(self):
        """The (201, N+1) jump table of the opening, built on first use."""
        return _jump_table(self.curve, self.disc.N)

    def system(self, load, gamma1: float,
               row_scaling: bool = True) -> LinearSystem:
        """The row-scaled constrained system at one gamma1 and load.

        The one-point stack of `systems`, without its point axis.
        """
        _check_gamma1(gamma1)
        stack, (error,) = self.systems(load, [gamma1], row_scaling)
        if error is not None:
            raise error
        return replace(stack, matrix=stack.matrix[0], rhs=stack.rhs[0],
                       row_scale=stack.row_scale[0], gamma1=gamma1)

    def systems(self, load, gamma1, row_scaling: bool = True):
        """The row-scaled constrained systems at P gamma1 values, one stack.

        gamma1 holds valid values (`_check_gamma1`), all zero or all
        positive: the tip rows exist only for gamma1 > 0, so the two kinds
        differ in their number of rows.  Every array is formed for all
        points at once, with the point axis first.  Returns the stack of
        the points whose system is finite and, with row_scaling, has no
        zero row, and the AssemblyError of each point (None where it has
        none), in the order of gamma1.
        """
        g = np.asarray(gamma1, dtype=float)
        positive = g > 0.0
        tip_rows = positive.any()
        if tip_rows and not positive.all():
            raise ValueError("a stack holds gamma1 = 0 or gamma1 > 0, "
                             "not both")
        curve, material, disc = self.curve, self.material, self.disc
        kappa, N = material.kappa, disc.N
        t0, t1 = self.tip_rows
        n_con = 2 + (len(t0) if tip_rows else 0)
        A = np.empty((g.size, 2 * N + n_con, 2 * N + 2))
        b = np.zeros(A.shape[:2])
        gcol = g[:, None, None]

        # the boundary equation (kappa+1)[Sigma - gamma1 (kappa0 dk + i dk')]
        # = (kappa+1) f, real rows first
        r0, r1, r2 = self.blocks
        A[:, : 2 * N] = (kappa + 1.0) * (r0 + gcol * (r1 + gcol * r2))
        f_c = boundary_forcing(curve, material, load, g[:, None],
                               disc.collocation_points)
        b[:, :N] = (kappa + 1.0) * f_c.real
        b[:, N: 2 * N] = (kappa + 1.0) * f_c.imag
        A[:, 2 * N: 2 * N + 2] = self.single_valued_rows
        if tip_rows:
            A[:, 2 * N + 2:] = t0 + gcol * t1

        # a row's largest |entry| is finite only if all its entries are
        peak = abs(A).max(axis=2)
        finite = np.isfinite(peak).all(axis=1) & np.isfinite(b).all(axis=1)
        scale = peak if row_scaling else np.ones(peak.shape)
        keep = finite & (scale != 0.0).all(axis=1)
        errors = [None if ok else AssemblyError(
            "zero row encountered during scaling" if fin
            else "non-finite entries in the collocation system")
            for ok, fin in zip(keep, finite)]
        if not keep.all():
            A, b, scale, g = A[keep], b[keep], scale[keep], g[keep]
        A /= scale[..., None]
        b /= scale
        return LinearSystem(matrix=A, rhs=b, n_constraints=n_con,
                            row_scale=scale, disc=disc, gamma1=g,
                            single_valued_integrals=self.single_valued), errors


def _check_gamma1(gamma1):
    """Raise AssemblyError unless gamma1 is finite and nonnegative."""
    if not np.isfinite(gamma1) or gamma1 < 0:
        raise AssemblyError(
            f"gamma1 must be finite and nonnegative, got {gamma1}")


def assemble(curve: CrackCurve, material, load, gamma1: float,
             disc: Discretization, row_scaling: bool = True) -> LinearSystem:
    """Assemble the constrained collocation system: tabulate, then apply."""
    tables = _CollocationTables(curve, material, disc)
    return tables.system(load, gamma1, row_scaling)


def solve(system: LinearSystem, curve: CrackCurve | None = None) -> DensityCoefficients:
    """Constrained least-squares solve with light Tikhonov regularization.

    The one-point case of `_solutions`: raises its SolveError, if any, and
    attaches the diagnostics to the density.  With a curve, the density's
    single_valued_residual is computed from the system's integrals when it
    is first read.
    """
    (x,), (error,) = _solutions(system)
    if error is not None:
        raise error
    N = system.disc.N
    coeffs = DensityCoefficients(
        g1=x[: N + 1], g2=x[N + 1:], length=system.disc.length,
        gamma1=system.gamma1,
        condition_estimate=system.condition_estimate,
    )
    if curve is not None:
        coeffs.single_valued_residual = partial(
            _normalized_residual, curve=curve,
            ints=system.single_valued_integrals)
    return coeffs


def _solutions(system: LinearSystem):
    """The damped solutions of a system or stack, (P, 2N+2), and their errors.

    The equality constraints are homogeneous and eliminated exactly: x =
    Z y with Z the constraint null basis of `system.reduction`, whose SVD
    of the reduced block inverts it with singular values damped by lambda
    = 1e-8 * sigma_max.  That suppresses the boundary-layer null family
    while leaving resolved directions untouched.  A single system is the
    one-point stack.  Raises SolveError on a non-finite matrix.  Each point
    gets a SolveError when its condition_estimate is non-finite or exceeds
    CONDITION_LIMIT = 1e14, or when the damped normal equations are not met
    to 1e-10, and None otherwise; the list of them is the second return
    value.  The estimate is clipped at 1/LAMBDA_REL = 1e8, so as computed
    the gate fires only on a zero reduced block (estimate inf); an
    ill-conditioned but nonzero block is damped, not rejected.  The same
    array code serves both: a single system has no point axis.
    """
    if not np.isfinite(system.matrix).all():
        raise SolveError("system matrix contains non-finite entries")
    Z, G, U, S, Vt = system.reduction
    Gt = G.swapaxes(-1, -2)
    h = system.rhs[..., : -system.n_constraints, None]
    lam2 = (LAMBDA_REL * S[..., :1]) ** 2
    # 0/0 only for a zero reduced block, which the condition gate rejects
    with np.errstate(invalid="ignore"):
        damped = S / (S * S + lam2)
    y = Vt.swapaxes(-1, -2) @ (damped[..., None] * (U.swapaxes(-1, -2) @ h))
    x = (Z @ y)[..., 0]

    # solver-level residual of the damped normal equations
    rhs_n = Gt @ h
    residual = _peak(Gt @ (G @ y) + lam2[..., None] * y - rhs_n)
    bound = 1e-10 * (_peak(G) ** 2 * np.maximum(_peak(y), 1.0)
                     + _peak(rhs_n) + 1e-300)
    errors = []
    for cond, res, bnd in zip(np.ravel(system.condition_estimate).tolist(),
                              np.ravel(residual).tolist(),
                              np.ravel(bound).tolist()):
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            errors.append(SolveError(
                f"condition estimate {cond:.3e} is not finite or exceeds "
                f"{CONDITION_LIMIT:.0e}"))
        elif res > bnd:
            errors.append(SolveError(
                f"normal-equation residual {res:.3e} exceeds {bnd:.3e}"))
        else:
            errors.append(None)
    return x.reshape(-1, x.shape[-1]), errors


def _peak(a):
    """max |a| of a matrix, or of each matrix of a stack."""
    return abs(a).max(axis=(-2, -1))


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

    One value per row of `_tip_blocks`, 4 on a curved crack and 8 on a
    straight one, normalized by sup|g'|.  The solve imposes the tip rows as
    equality constraints, so the residuals vanish to rounding.  At gamma1 =
    0 it imposes none, and there are no residuals: ().
    """
    if gamma1 == 0.0:
        return ()
    sup = _sup_gprime(coeffs, curve)
    norm = sup if sup > 0.0 else 1.0
    t0, t1 = _tip_blocks(curve, material, coeffs.degree)
    rows = (t0 + gamma1 * t1) @ np.concatenate([coeffs.g1, coeffs.g2])
    # + 0.0: an exact zero reads +0.0
    return tuple(float(row) / norm + 0.0 for row in rows)
