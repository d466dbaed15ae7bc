"""Collocation solver for the singular integro-differential crack system.

The unknown density g'(s) = sum_k (g1_k + i g2_k) phi_k(s), k = 0..N, is
expanded in the `densities.Basis` of the run's face operator (by default
the centered monomials (s - l/2)^k), read from a node side or a density
only.  The traction-jump density q is eliminated through the
surface-tension closure (see densities.py), so the unknown vector has
2N+2 real entries.

Rows 1..N of the collocation block are the real parts of the boundary
equation at the midpoints s_j, rows N+1..2N the imaginary parts.  All
density-dependent terms sit in the matrix; only the load forcing
(kappa+1) f(s_j) enters the right-hand side.  Appended to the block are
equality constraints: the single-valuedness condition
int_0^l g'(s) t'(s) ds = 0, and (for gamma1 > 0) the tip rows, two per
tip and four on a straight crack (`_tip_blocks`).  Two of each tip zero
the log coefficients of sigma_n and of the normal component of du/ds, the
component along the normal i t' (at s = 0 on the semicircle -du1/ds, not
du2/ds): tip values of the densities of `densities.cauchy_densities`.
Times +-gamma1/(4 pi mu), the normal-component row is also the
coefficient of the (s0 - tip)^-2 term of the imaginary collocation rows.

With 2N collocation rows and 6 constraint rows (10 on a straight crack) for
2N + 2 unknowns the constrained system has no exact solution: the
least-squares density meets the boundary equation at the collocation
midpoints but not between them, least of all near the tips (see the
tests/test_acceptance.py docstring).

Integral evaluation: the collocation rows come from the face-field
operator (`fields._NodeSide.rows`, the one read of the operator, which
the field evaluator shares) at the first ceil(N/2) collocation points;
the rows of the others are their mirror images (see the solve below).
Per unit real and imaginary part of each coefficient of g' and of q,
rows() gives Re Sigma and Im Sigma of the face-average traction
Sigma, and -kappa0 dk and -dk' of the face-curvature change dk =
-(kappa0 Re omega - Im omega')/2mu, dk' = -(kappa0 Re omega' - Im
omega'')/2mu, with kappa0 constant and omega the face function; the real
row is (kappa+1)(Re Sigma - gamma1 kappa0 dk) and the imaginary row
(kappa+1)(Im Sigma - gamma1 dk').  The principal values (and their
s0-derivatives, boundary terms included) are in closed form
(`densities._pv_tables`) and the regular kernels use
`quadrature.regular_rule`.  The flat node rule of `quadrature` is kept
only for the oracles; feeding its O(1/N) errors into this strongly
amplifying system destroys convergence.

gamma1 enters the rows twice: q is linear in gamma1, and the
face-curvature term multiplies by gamma1 once more.  So the collocation
block is (kappa+1)(R0 + gamma1 R1 + gamma1^2 R2) with three real blocks,
the tip rows are T0 + gamma1 T1 and the forcing F0 + gamma1 F1, linear
in the load.  `_CollocationTables` holds this gamma1- and
load-independent part of the system of one node side and N: the blocks,
built once in the layout of the parity halves (below), the forcing
table, the closed-form tip rows and the integrals I_n of the
single-valuedness rows, int_0^l phi_n(x) t'(x) dx
(`_single_valued_integrals`, the basis's tangent integrals in closed
form), the last two sliced from the node side.
`_CollocationTables.systems` combines them for P gamma1 values at once
into a stack, arrays with a leading point axis, with no operator
product; assemble() takes the one-point stack, a gamma1 sweep stacks all
its points.  A system carries its tables, and solve() reads the curve,
the basis and N from them.  The tables of an N are kept, read-only, by
the node side they were read from (`fields._NodeSide.derived`); the
right-hand sides, their checks and the solves are formed per call, and
so is every system part that the tables do not keep (below).

The constrained system is solved by least squares in the constraint null
space with a light Tikhonov term (relative weight 1e-8) that suppresses
the residual boundary-layer content.  Every crack is a constant-curvature
arc or a straight segment, symmetric about the normal at its midpoint, and
the mirror s -> l - s maps the system onto itself: with P =
diag((-1)^k on g1, -(-1)^k on g2) (`densities._mirror_signs`), the Re row
at s_{N+1-j} is -(Re row at s_j) P, the Im row +(Im row at s_j) P, the
single-valuedness rows (times conj t'(l/2)) are P-even and P-odd, and the
tip rows of the second tip are +-(those of the first) P.  So the N+1
unknowns P keeps (g1 at even k, g2 at odd k) and the N+1 it negates
(`densities._parity_columns`) decouple into two damped least-squares
problems of the same shape (`LinearSystem.halves`): each has a row per
Re and Im row of the first ceil(N/2) points on its own columns, a
mirrored pair weighted sqrt 2 against the middle point of odd N, with
right-hand sides (b_j -+ b_j')/sqrt 2 from the forcing at all N points
(the load is not symmetric), and as constraints one single-valuedness row
and the first tip's rows, the layout in which a system is assembled.
The damping lambda is 1e-8 times the largest singular value of both
halves, so the solution is that of the whole system.  The constraints
are homogeneous, so each stack is reduced once
(`LinearSystem.reduction`: the null bases and the SVDs of the reduced
blocks of both halves of every point, one batched call per SVD) for its
condition estimates, solutions and dump.  `_solutions` solves a stack and
checks each point on its own; solve() is its one-point case, so a single
solve and a sweep share one solver.

The scaled rows and constraint rows, the row scales, the halves' C and
the reduction depend on the curve, the material, N, gamma1 and the row
scaling, not on the load, which enters the right-hand side alone.  So the
tables keep them, read-only: for each of the last KEPT_REDUCTIONS = 16
gamma1 values they factored, per row scaling, one `_Kept` entry
(`_CollocationTables._points`).  A system of a kept point views the
entry's rows, constraint rows and row scales (a stack stacks them once)
and reads its C and reduction.  Per call it forms only its load's part,
the forcing (F0 + gamma1 F1) v of the load's potential constants v times
kappa+1, its finite check and its division by the row scales, then the
halves' A (one multiply of the rows), the solution, the normal-equation
check and its errors.  A system's arrays are read-only too, so the
factorization it reads stays that of its rows.  A point's system and
factorization are the same bits alone or in a stack, so an entry gives
the bytes a fresh one would.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .densities import (MONOMIALS, DensityCoefficients, _parity_columns,
                        _read_only, _single_valued_integrals, _tip_blocks,
                        check_gamma1, q_rows_to_unknowns)
from .fields import _forcing_table, _node_side, _NodeSide
from .geometry import CrackCurve
# gauss_legendre is not called here, but perfbench's tracer test rebinds it
# by name in this module, so the name stays bound here
from .quadrature import Discretization, gauss_legendre  # noqa: F401

CONDITION_LIMIT = 1e14
LAMBDA_REL = 1e-8
# gamma1 values whose reduction one `_CollocationTables` keeps per row
# scaling: the 16 points of the shipped gamma1 sweeps
KEPT_REDUCTIONS = 16


class AssemblyError(RuntimeError):
    """Non-finite entries, a zero row or a bad gamma1 during assembly."""


class SolveError(RuntimeError):
    """Singular or unacceptably ill-conditioned collocation system."""


class _Kept(NamedTuple):
    """What the tables keep of one gamma1 and row scaling: the scaled
    system but its right-hand side, and its factorization, all read-only.

    rows, constraints and row_scale are those of `LinearSystem`, and
    factored the (C, Z^T, G, U, S, Vt) of `_reduce`, which a system built
    from the entry reads as its `LinearSystem.kept`.  factored is None for
    a point whose factorization failed, which is not kept.
    """

    rows: np.ndarray
    constraints: np.ndarray
    row_scale: np.ndarray
    factored: tuple | None


@dataclass(eq=False)
class LinearSystem:
    """Row-scaled collocation block stacked over the equality constraints.

    The first 2N rows collocate the boundary equation; the trailing
    n_constraints rows hold the single-valuedness condition and, for
    gamma1 > 0, the tip rows.  The constraints are homogeneous (their
    right-hand side is zero), so the solve needs no particular solution.
    rows holds the scaled collocation rows of the first M = ceil(N/2)
    points in the layout of the halves (parity, row kind, point, column)
    and constraints the scaled constraint rows; `matrix`, the whole
    system, is laid out from them only when read (`dump_text`, tests).
    `reduction` is, for each parity half (`halves`), the null basis Z of
    its constraint rows and the thin SVD of its collocation rows times Z,
    read once and shared by the condition gate, `solve` and `dump_text`.
    kept is the factorization the tables keep for the system's points
    (`_Kept.factored`), or None: `halves` reads its C and `reduction` its
    reduction, and only the halves' A is formed; a system built by hand,
    by `dataclasses.replace` (which carries no kept) or whose
    factorization failed factors its own.  rows, constraints, rhs and
    row_scale are read-only views, so a write into them raises ValueError
    instead of going unseen by the parts read once; rebinding an
    attribute is not refused, and `replace` leaves the arrays given to it
    writable.  condition_estimate is
    the 2-norm condition number of the reduced block of the whole system,
    whose singular values are those of both halves, with its smallest
    singular value clipped at the Tikhonov floor LAMBDA_REL * sigma_max,
    so it never exceeds 1/LAMBDA_REL = 1e8; it is inf only for a zero
    reduced block.  tables are the
    `_CollocationTables` the system was built from: its node side's curve
    and basis, N, the constants of the halves and the unscaled integrals
    I_k of the single-valuedness rows, which `solve` gives the density.
    Systems compare by identity: `==` of two systems is `is`.

    A stack of P systems that share N and the number of constraint rows
    (`_CollocationTables.systems`) carries a leading point axis on every
    array, and gamma1 and condition_estimate are (P,) arrays; a reduction
    not kept factorizes the whole stack, both halves of every point, in
    one call per SVD.  A single system has no point axis.
    """

    rows: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    row_scale: np.ndarray
    gamma1: float
    tables: _CollocationTables
    kept: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # views, so the caller's arrays keep their flags
        self.rows, self.constraints, self.rhs, self.row_scale = (
            _read_only(np.asarray(a).view()) for a in
            (self.rows, self.constraints, self.rhs, self.row_scale))

    @property
    def n_constraints(self):
        return self.constraints.shape[-2]

    @cached_property
    def matrix(self):
        """The whole row-scaled system, (..., 2N + n_constraints, 2N + 2):
        the rows of the points past the first M are their mirrors'."""
        tables, rows, N = self.tables, self.rows, self.tables.disc.N
        mirrored = rows[..., : N // 2, :][..., ::-1, :]
        rows = np.moveaxis(np.concatenate(
            [rows, tables.sign[..., None] * mirrored], axis=-2), -4, -2)
        A = np.empty(rows.shape[:-4] + (2 * N + self.n_constraints, 2 * N + 2))
        A[..., : 2 * N, tables.parity] = rows.reshape(A.shape[:-2]
                                                      + (2 * N, 2, N + 1))
        A[..., 2 * N:, :] = self.constraints
        return A

    @property
    def collocation_block(self):
        return self.matrix[..., : -self.n_constraints, :]

    @property
    def constraint_block(self):
        return self.matrix[..., -self.n_constraints:, :]

    @cached_property
    def halves(self):
        """(A, C, h) of the two parity halves, a parity axis before the
        matrix axes: collocation rows (..., 2, 2M, N+1), constraint rows
        (..., 2, n_constraints/2, N+1) and right-hand sides (..., 2, 2M).

        Half 0 holds the columns that P keeps, half 1 those it negates
        (module docstring).  Only the rows of the first M = ceil(N/2)
        points are held: after the orthogonal map (r_j -+ r_j')/sqrt 2 of
        a mirrored pair of rows, each half has sqrt 2 times the row at s_j
        on its columns, against (b_j -+ b_j')/sqrt 2.  The middle point of
        odd N is its own mirror: its Im row lies on half 0 and its Re row
        on half 1, with weight 1, and its other row is zero.  The
        single-valuedness rows are the real and imaginary parts of [I,
        iI]; times conj t'(l/2), which I_0, the chord, lies along, the real
        row lies on half 0 and the imaginary one on half 1.  Each half
        takes the first tip's rows on its columns.  C is kept's or formed
        here.
        """
        tables = self.tables
        rhs = self.rhs[..., None, :]
        h = 0.5 * tables.weight * (rhs[..., tables.first]
                                   + tables.sign * rhs[..., tables.mirrored])
        A = _half_rows(tables, self.rows)
        C = (self.kept[0] if self.kept is not None
             else _half_constraints(tables, self.constraints))
        return A, C, h.reshape(h.shape[:-2] + (A.shape[-2],))

    @cached_property
    def reduction(self):
        """(Z, G, U, S, Vt) of both halves: null basis Z, G = A Z and G = U
        diag(S) Vt, each with the parity axis of `halves`.

        kept's reduction, else computed here.  Raises SolveError when the
        constraints leave no free unknown.
        """
        A, C, _ = self.halves
        if C.shape[-2] >= C.shape[-1]:
            raise SolveError("the constraints leave no free unknown: "
                             f"{self.n_constraints} constraint rows for "
                             f"{self.constraints.shape[-1]} unknowns")
        if self.kept is not None:
            _, Zt, *rest = self.kept
            return (Zt.swapaxes(-1, -2), *rest)
        return _factor(A, C)

    @cached_property
    def condition_estimate(self):
        _, _, _, S, _ = self.reduction
        estimates = []
        for largest, last in zip(np.ravel(S[..., 0].max(axis=-1)).tolist(),
                                 np.ravel(S[..., -1].min(axis=-1)).tolist()):
            smallest = max(last, LAMBDA_REL * largest)
            estimates.append(largest / smallest if smallest else float("inf"))
        return np.array(estimates) if S.ndim > 2 else estimates[0]

    def dump_text(self) -> str:
        """Plain-text dump of the matrix and right-hand side of one system."""
        lines = [f"n_rows {self.matrix.shape[0]}",
                 f"n_cols {self.matrix.shape[1]}",
                 f"n_constraints {self.n_constraints}"]
        lines.append("row_scale " + _floats_text(self.row_scale))
        for i, row in enumerate(self.matrix):
            lines.append(f"row {i} " + _floats_text(row))
        lines.append("rhs " + _floats_text(self.rhs))
        lines.append(f"condition_estimate {self.condition_estimate!r}")
        return "\n".join(lines) + "\n"


def _half_rows(tables, rows):
    """The halves' A (`LinearSystem.halves`) of the scaled rows of a
    system or stack."""
    A = tables.weight[..., None] * rows
    return A.reshape(A.shape[:-4] + (2, 2 * A.shape[-2], A.shape[-1]))


def _half_constraints(tables, constraints):
    """The halves' C (`LinearSystem.halves`) of the scaled constraint rows
    of a system or stack."""
    n_con, cols = constraints.shape[-2], tables.parity
    I0 = tables.single_valued[0]
    sv = (np.conj(I0) / abs(I0)) * (constraints[..., 0, :]
                                    + 1j * constraints[..., 1, :])
    # the second tip's rows are +-(the first tip's rows) P
    tips = constraints[..., 2: 2 + (n_con - 2) // 2, :]
    even = np.concatenate([sv.real[..., None, :], tips], axis=-2)
    odd = np.concatenate([sv.imag[..., None, :], tips], axis=-2)
    return np.stack([even[..., cols[0]], odd[..., cols[1]]], axis=-3)


def _factor(A, C):
    """(Z, G, U, S, Vt) of the halves' blocks A and C (`reduction`), one
    call per SVD for every half of every point."""
    _, _, Vt = np.linalg.svd(C)
    Z = Vt[..., C.shape[-2]:, :].swapaxes(-1, -2)
    G = A @ Z
    return (Z, G) + tuple(np.linalg.svd(G, full_matrices=False))


def _floats_text(values):
    """Space-separated repr of each value as a double, the rule of the
    CSVs: one tolist() of the whole row, then repr of each float."""
    return " ".join(map(repr, np.asarray(values, dtype=float).tolist()))


class _CollocationTables:
    """The gamma1-independent part of the system of one node side and N.

    The node side (`fields._NodeSide`) carries the curve, the material and
    the basis; disc is the `Discretization` of N on its curve.  Of the
    collocation rows (kappa+1)(R0 + gamma1 R1 + gamma1^2 R2), R0 is the
    traction of the g' of the basis columns, R1 the traction of their q at
    gamma1 = 1 plus the curvature term of their g', and R2 the curvature
    term of their q.  The three real blocks, in the layout of
    `LinearSystem.halves`, hold the rows of the first M = ceil(N/2)
    collocation points, read once from the node side (`_NodeSide.rows`
    with s0-derivatives) with the q rows taken to g1 and g2 columns by the
    closure (`q_rows_to_unknowns`); the other points' rows are their
    mirrors.  sign, weight, first and mirrored are the constants of the
    halves, forcing the load forcing (`fields._forcing_table`), and the
    tip rows T0, T1 (`_tip_blocks`) and the single-valuedness integrals
    are sliced from the node side.  systems() combines them for a stack of
    gamma1 values and one load with no operator product, and system() for
    one gamma1, so a sweep over gamma1 tabulates the kernels and builds
    the blocks once, and so does every later run of the process on the
    node side, which keeps them (`_NodeSide.derived`).  Its arrays are
    read-only.

    It keeps the gamma1-dependent, load-independent part of the system
    too: for the last KEPT_REDUCTIONS = 16 gamma1 values it factored, per
    row scaling, the point's read-only `_Kept`, least recently read
    evicted first, which the systems of every load at that gamma1 view,
    so they form only their right-hand sides.  A failed factorization is
    not kept.  An entry holds about 9.5 (N+1)^2 doubles,
    33 kB at N = 20 and 291 kB at N = 60 (24 and 226 kB of them the
    reduction), so a table set keeps at most 0.53 MB at N = 20 and 4.7 MB
    at N = 60, and a node side keeps one table set per N it was asked
    for.
    """

    def __init__(self, node_side: _NodeSide, N: int):
        self.node_side = node_side
        self.disc = disc = Discretization(N, node_side.curve.length)
        M = (N + 1) // 2
        # (g' or q, row kind, Re or Im, point, coefficient): Re Sigma,
        # Im Sigma, -kappa0 dk and -dk' per unit coefficient
        g, q = node_side.rows(disc.collocation_points[:M], N,
                              derivatives=True)
        q = np.stack(q_rows_to_unknowns(q[:, 0], q[:, 1], node_side.curve,
                                        node_side.material, node_side.basis),
                     axis=1)
        self.parity = cols = _read_only(_parity_columns(N))
        self.blocks = tuple(_read_only(np.ascontiguousarray(np.moveaxis(
            block.transpose(0, 2, 1, 3).reshape(2, M, 2 * N + 2)[..., cols],
            -2, 0))) for block in (g[:2], q[:2] + g[2:], q[2:]))
        # the mirror's sign[p, kind] on half p, the weight of a row in each
        # half, and the rows of the first M points and of their mirrors
        self.sign = _read_only((1.0 - 2.0 * np.eye(2))[..., None])
        weight = np.full((2, 2, M), np.sqrt(2.0))
        if N % 2:
            weight[..., -1] = 0.5 * (1.0 + self.sign[..., 0])
        self.weight = _read_only(weight)
        self.first, self.mirrored = (
            _read_only(N * np.arange(2)[:, None] + j)
            for j in (np.arange(M), N - 1 - np.arange(M)))
        self.forcing = _forcing_table(node_side.curve, node_side.material,
                                      disc.collocation_points)
        top = node_side.degree + 1
        cols = np.r_[: N + 1, top: top + N + 1]
        self.tip_rows = tuple(_read_only(t[:, cols])
                              for t in node_side.tip_rows)
        self.single_valued = ints = node_side.single_valued[: N + 1]
        self.single_valued_rows = _read_only(np.array(
            [np.concatenate([ints.real, -ints.imag]),
             np.concatenate([ints.imag, ints.real])]))
        # (gamma1 bits, row_scaling) -> the _Kept of a point
        self._kept = OrderedDict()

    def system(self, load, gamma1: float,
               row_scaling: bool = True) -> LinearSystem:
        """The row-scaled constrained system at one gamma1 and load.

        The one-point case of `systems`, without its point axis; its
        arrays but the right-hand side view the point's `_Kept`, not a
        stacked copy.
        """
        _check_gamma1(gamma1)
        rhs, (part,), (error,) = self._points(
            load, np.array([gamma1], dtype=float), row_scaling)
        if error is not None:
            raise error
        system = LinearSystem(
            rows=part.rows, constraints=part.constraints,
            rhs=rhs[0] / part.row_scale, row_scale=part.row_scale,
            gamma1=gamma1, tables=self)
        system.kept = part.factored
        return system

    def systems(self, load, gamma1, row_scaling: bool = True):
        """The row-scaled constrained systems at P gamma1 values, one stack.

        gamma1 holds valid values (`_check_gamma1`), all zero or all
        positive: the tip rows exist only for gamma1 > 0, so the two kinds
        differ in their number of rows.  Every array is formed for all
        points at once, with the point axis first; a collocation row's
        mirror, not formed, has its entries up to sign, and its scale.
        The points the tables keep are read (`_points`), so a warm point
        forms only its right-hand side.  Returns the stack of the points
        whose system is finite and, with row_scaling, has no zero row, and
        the AssemblyError of each point (None where it has none), in the
        order of gamma1.
        """
        g = np.asarray(gamma1, dtype=float)
        rhs, parts, errors = self._points(load, g, row_scaling)
        keep = np.array([error is None for error in errors], dtype=bool)
        parts = [part for part in parts if part is not None]
        N, width = self.disc.N, rhs.shape[1]
        # shaped, so that a stack of no point has its axes
        shapes = (self.blocks[0].shape, (width - 2 * N, 2 * N + 2), (width,))
        rows, C, scale = (np.array([part[k] for part in parts]).reshape(
            (len(parts),) + shape) for k, shape in enumerate(shapes))
        kept = None
        if parts and all(part.factored is not None for part in parts):
            kept = tuple(np.array(a) for a in zip(*(part.factored
                                                     for part in parts)))
        stack = LinearSystem(rows=rows, constraints=C, rhs=rhs[keep] / scale,
                             row_scale=scale, gamma1=g[keep], tables=self)
        stack.kept = kept
        return stack, errors

    def _points(self, load, g, row_scaling):
        """The unscaled right-hand sides (P, 2N + constraints) of the
        points g under the load, the `_Kept` of each point (None where it
        has an error), and the AssemblyError of each (None where it has
        none).

        A point has an error unless its rows, constraint rows and
        right-hand side are finite and, with row_scaling, it has no zero
        row.  The right-hand side is formed and checked for every point;
        the parts of the points the tables keep are read, and the others
        formed as one stack (`_operators`), checked, factored as one
        (`_reduce`) and kept.  When that factorization fails or the
        constraints leave no free unknown, those points carry no
        reduction and are not kept, and the stack's own reduction raises
        the error.  The tables keep the last KEPT_REDUCTIONS points read,
        per gamma1 (bit for bit) and row scaling.
        """
        positive = g > 0.0
        tip_rows = positive.any()
        if tip_rows and not positive.all():
            raise ValueError("a stack holds gamma1 = 0 or gamma1 > 0, "
                             "not both")
        kappa, N = self.node_side.material.kappa, self.disc.N
        n_con = 2 + (len(self.tip_rows[0]) if tip_rows else 0)
        v = np.array([load.phi_inf, load.psi_inf], dtype=complex).view(float)
        # the forcing of a huge load or gamma1 overflows; the finite check
        # below refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            f0, f1 = self.forcing @ v
            f = f0 + g[:, None] * f1
            rhs = (kappa + 1.0) * np.concatenate(
                [f.real, f.imag, np.zeros((g.size, n_con))], axis=1)
        finite = np.isfinite(rhs).all(axis=1)
        nonzero = np.ones(g.size, dtype=bool)

        kept = self._kept
        keys = [(bits, row_scaling) for bits in g.view(np.int64).tolist()]
        parts = [kept.get(key) for key in keys]
        new = [i for i, part in enumerate(parts) if part is None]
        if new:
            rows, C, scale = self._operators(g[new], tip_rows)
            finite[new] &= np.isfinite(scale).all(axis=1)
            if row_scaling:
                nonzero[new] = (scale != 0.0).all(axis=1)
            else:
                scale = np.ones(scale.shape)
            ok = finite[new] & nonzero[new]
            if not ok.all():
                rows, C, scale = rows[ok], C[ok], scale[ok]
            M = rows.shape[-2]
            rows /= scale[:, : 2 * N].reshape(-1, 2, N)[:, None, :, :M, None]
            C /= scale[:, 2 * N:, None]
            reduction = _reduce(self, rows, C) if ok.any() else None
            formed = [i for i, fresh in zip(new, ok) if fresh]
            for j, i in enumerate(formed):
                # an entry holds its own point alone: one of several is
                # copied
                part = [_read_only(a[j] if len(formed) == 1 else a[j].copy())
                        for a in (rows, C, scale, *(reduction or ()))]
                parts[i] = _Kept(*part[:3], tuple(part[3:]) or None)
                if reduction is not None:
                    kept[keys[i]] = parts[i]

        errors = [None if fin and nz else AssemblyError(
            "zero row encountered during scaling" if fin
            else "non-finite entries in the collocation system")
            for fin, nz in zip(finite.tolist(), nonzero.tolist())]
        for i, error in enumerate(errors):
            if error is not None:
                parts[i] = None
            elif keys[i] in kept:
                kept.move_to_end(keys[i])
        while len(kept) > KEPT_REDUCTIONS:
            kept.popitem(last=False)
        return rhs, parts, errors

    def _operators(self, g, tip_rows):
        """The unscaled collocation rows (kappa+1)(R0 + gamma1 R1 +
        gamma1^2 R2) of the points g, (P, parity, row kind, point,
        column), their constraint rows and the scale of each row, its
        largest |entry|, finite only if all its entries are."""
        kappa, N = self.node_side.material.kappa, self.disc.N
        r0, r1, r2 = self.blocks
        t0, t1 = self.tip_rows
        gb = g[:, None, None, None, None]
        C = np.empty((g.size, 2 + (len(t0) if tip_rows else 0), 2 * N + 2))
        C[:, :2] = self.single_valued_rows
        # A huge finite gamma1 overflows; the finite check refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = (kappa + 1.0) * (r0 + gb * (r1 + gb * r2))
            if tip_rows:
                C[:, 2:] = t0 + g[:, None, None] * t1
        peak = abs(rows).max(axis=(1, 4))
        scale = np.concatenate([peak, peak[..., : N // 2][..., ::-1]], axis=2)
        scale = np.concatenate([scale.reshape(g.size, 2 * N),
                                abs(C).max(axis=2)], axis=1)
        return rows, C, scale


def _reduce(tables, rows, constraints):
    """(C, Z^T, G, U, S, Vt) of the scaled rows and constraint rows of a
    stack (`_Kept.factored`), or None when the factorization fails or the
    constraints leave no free unknown.  Z is kept as the rows of Vt it
    views (Z^T): the product Z y then sees the layout of a Z computed
    afresh, and gives the same bits."""
    C = _half_constraints(tables, constraints)
    if C.shape[-2] >= C.shape[-1]:
        return None
    try:
        Z, *rest = _factor(_half_rows(tables, rows), C)
    except np.linalg.LinAlgError:
        return None
    return (C, Z.swapaxes(-1, -2), *rest)


def _check_gamma1(gamma1):
    """Raise AssemblyError unless gamma1 is finite and nonnegative."""
    check_gamma1(gamma1, AssemblyError)


def assemble(curve: CrackCurve, material, load, gamma1: float,
             disc: Discretization, row_scaling: bool = True,
             node_side: _NodeSide | None = None) -> LinearSystem:
    """Assemble the constrained collocation system: tabulate, then apply.

    node_side is the run's (`fields._NodeSide`), of degree disc.N or more;
    by default the cached monomial one of degree disc.N
    (`fields._node_side`).  The tables of disc.N are the node side's
    (`_NodeSide.derived`); the system, its load and gamma1 are formed per
    call.  Raises ValueError, naming both values, when disc is on another
    length than the curve or the node side on another curve or material
    (its mu and kappa, which the tables read).
    """
    if node_side is None:
        node_side = _node_side(curve, material, disc.N, MONOMIALS)
    given = node_side.material
    for name, got, want in (
            ("Discretization length", disc.length, curve.length),
            ("node side curve", node_side.curve, curve),
            ("node side mu", given.mu, material.mu),
            ("node side kappa", given.kappa, material.kappa)):
        if got != want:
            raise ValueError(f"{name} {got!r} is not the run's {want!r}")
    return node_side.derived(_CollocationTables, disc.N).system(
        load, gamma1, row_scaling)


def solve(system: LinearSystem) -> DensityCoefficients:
    """Constrained least-squares solve with light Tikhonov regularization.

    The one-point case of `_solutions`: raises its SolveError, if any, and
    attaches the diagnostics to the density, with the curve, the length
    and the basis of the system's tables.  Its single_valued_residual is
    computed from the tables' curve and integrals when it is first read,
    and its trust fields from the singular values of the reduction.
    """
    (x,), (error,) = _solutions(system)
    if error is not None:
        raise error
    tables = system.tables
    coeffs = DensityCoefficients(
        *np.split(x, 2), length=tables.disc.length, gamma1=system.gamma1,
        condition_estimate=system.condition_estimate,
        basis=tables.node_side.basis, curve=tables.node_side.curve)
    coeffs.single_valued_residual = partial(
        _normalized_residual, curve=tables.node_side.curve,
        ints=tables.single_valued)
    S = system.reduction[3]
    coeffs.reduced_conditions = partial(_reduced_conditions, S=S)
    coeffs.damped_directions = partial(_damped_directions, S=S)
    return coeffs


def _reduced_conditions(_, S):
    """sigma_max / sigma_min of each parity half's singular values S,
    inf where sigma_min is 0."""
    return tuple(s[0] / s[-1] if s[-1] else float("inf") for s in S.tolist())


def _damped_directions(_, S):
    """The count of each parity half's singular values S below the
    damping lambda = LAMBDA_REL * sigma_max of both halves."""
    return tuple((S < LAMBDA_REL * S[:, 0].max()).sum(axis=1).tolist())


def _solutions(system: LinearSystem):
    """The damped solutions of a system or stack, (P, 2N+2), and their errors.

    The equality constraints are homogeneous and eliminated exactly: each
    parity half's unknowns are Z y with Z the null basis of its
    constraints in `system.reduction`, whose SVD of the reduced block
    inverts it with singular values damped by lambda = 1e-8 * sigma_max,
    sigma_max the largest of both halves, as for the whole system.  That
    suppresses the boundary-layer null family while leaving resolved
    directions untouched.  A single system is the one-point stack.  Raises
    SolveError on a non-finite matrix or when the constraints leave no
    free unknown.  Each point gets a SolveError when its
    condition_estimate is non-finite or exceeds CONDITION_LIMIT = 1e14, or
    when the damped normal equations of its halves are not met to 1e-10,
    and None otherwise; the list of them is the second return value.  The
    estimate is clipped at 1/LAMBDA_REL = 1e8, so as computed the gate
    fires only on a zero reduced block (estimate inf); an ill-conditioned
    but nonzero block is damped, not rejected.  The same array code serves
    both: a single system has no point axis.
    """
    A, C, h = system.halves
    if not (np.isfinite(A).all() and np.isfinite(C).all()):
        raise SolveError("system matrix contains non-finite entries")
    Z, G, U, S, Vt = system.reduction
    Gt = G.swapaxes(-1, -2)
    h = h[..., None]
    lam2 = (LAMBDA_REL * S[..., :1].max(axis=-2, keepdims=True)) ** 2
    # 0/0 only for a zero reduced block, which the condition gate rejects
    with np.errstate(invalid="ignore"):
        damped = S / (S * S + lam2)
    y = Vt.swapaxes(-1, -2) @ (damped[..., None] * (U.swapaxes(-1, -2) @ h))
    half_x = (Z @ y)[..., 0]
    x = np.empty(half_x.shape[:-2] + (2 * half_x.shape[-1],))
    x[..., system.tables.parity.ravel()] = half_x.reshape(x.shape)

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
    """max |a| over both parity halves of a system, or of each system of a
    stack."""
    return abs(a).max(axis=(-3, -2, -1))


def solve_problem(curve: CrackCurve, material, load, gamma1: float, N: int = 20,
                  row_scaling: bool = True) -> DensityCoefficients:
    """Assemble and solve in one call."""
    disc = Discretization(N, curve.length)
    system = assemble(curve, material, load, gamma1, disc, row_scaling)
    return solve(system)


def single_valued_integral(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> complex:
    """int_0^l g'(s) t'(s) ds, with the integrals of the solve's rows."""
    coeffs.check_curve(curve)
    ints = _single_valued_integrals(curve, coeffs.degree, coeffs.basis)
    return complex(np.sum((coeffs.g1 + 1j * coeffs.g2) * ints))


def single_valued_residual(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> float:
    """|int g' t' ds| normalized by sup|g'| times the arc length."""
    coeffs.check_curve(curve)
    return _normalized_residual(coeffs, curve, _single_valued_integrals(
        curve, coeffs.degree, coeffs.basis))


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
    0 it imposes none, and there are no residuals: ().  gamma1 must be the
    density's own: q follows from g' at coeffs.gamma1.
    """
    if gamma1 != coeffs.gamma1:
        raise ValueError(f"gamma1 {gamma1!r} is not the density's own "
                         f"{coeffs.gamma1!r}")
    coeffs.check_curve(curve)
    return _tip_residuals(coeffs, curve, _tip_blocks(
        curve, material, coeffs.degree, coeffs.basis))


def _tip_residuals(coeffs: DensityCoefficients, curve: CrackCurve, tip_rows):
    """tip_condition_residuals from the tip rows (T0, T1) of the density's
    degree, at the density's gamma1."""
    if coeffs.gamma1 == 0.0:
        return ()
    sup = _sup_gprime(coeffs, curve)
    norm = sup if sup > 0.0 else 1.0
    t0, t1 = tip_rows
    rows = (t0 + coeffs.gamma1 * t1) @ np.concatenate([coeffs.g1, coeffs.g2])
    # + 0.0: an exact zero reads +0.0
    return tuple(float(row) / norm + 0.0 for row in rows)
