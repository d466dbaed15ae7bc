"""Derived results: opening profiles, tip log-singularity coefficients, sweeps.

The crack opening is the jump table (`densities._jump_table`) applied to
the density's coefficients (`opening_profile` builds it on each call),
and close to the tips the face fields inherit a logarithmic term A ln s
whose coefficient has a closed form in the densities at the tip
(`tip_log_coefficients`): the A every report prints.  A least-squares
fit of value ~ A ln s + c near a tip (`fit_tip_coefficients`) agrees
with it only in windows well inside the tip's boundary layer, not in
the default one.  Face-field profiles, tip fits and the maximal face
traction each read the face fields of the density at all their points
s0, both faces at once, through `fields._face_values`, which builds the
face-field rows there (`fields._face_rows`, the one builder of them).

Solve mode and the sweeps report one set of numbers, `SolveReport`, read
and reduced through one path.  `_SweepTables` reads one node side
(`fields._NodeSide`, the carrier of the curve, material, basis and N)
for the collocation tables (`solver._CollocationTables`) and the rows on
the unknowns x = [g1; g2], affine in gamma1, of what the report reads:
the face fields on both faces at a midpoint grid (`fields._face_rows`;
sigma_n and tau_n at the sweeps' 101 max-traction points, all four at
solve mode's 100 `face_fields.csv` points) and the tip log coefficients
A1 and A2, with the jump table of the openings.  None of it depends on
the load or gamma1, so the cached node side of the curve, material and
N (`fields._node_side`, the one table cache of the program) keeps it,
one per face grid and field count (`_sweep_tables`,
`_NodeSide.derived`).  A gamma1 sweep reads the tables once and solves
its points as two stacks (`_solve_and_report`), the gamma1 = 0 points
and the positive ones with their tip rows; a curvature sweep reads them
once per curve, and solve mode (`cli`) evaluates a stack of one
(`_SweepTables.values`) and reports only for its summary.  Errors stay
per point: an invalid gamma1 never enters a stack, a point that fails a
check of its own gets that error while the others go on, and an error
of the whole stack goes on each of its rows.

Every CSV goes through `write_csv`, which takes whole columns, formats each
column once (floats by repr, integers by str, strings quoted where the csv
module needs it) and writes the file in one call.  A column given as a
list or tuple of strings is text already formatted (`_cells`), so a
repeated column is formatted once.  The output grids are load-free too:
the node side keeps each g' grid with its basis table and text
(`_OutputGrid`), and solve mode's tables the text of the face points, so
a warm run formats only the values that change with the load and gamma1.
Kept text is kept written (`_Written`: checked and quoted once), so a
write passes it through with one type check.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .densities import (MONOMIALS, DensityCoefficients, _jump_table,
                        _read_only, _tip_log_rows)
from .fields import (_SIDES, _face_rows, _face_values, _node_side,
                     _side_index)
from .geometry import CrackCurve, make_circular_arc
from .quadrature import Discretization, midpoint_grid
from .solver import (AssemblyError, SolveError, _check_gamma1,
                     _CollocationTables, _solutions, assemble, solve)

FIELD_NAMES = ("sigma_n", "tau_n", "du1_ds", "du2_ds")


@dataclass
class OpeningProfile:
    """Displacement jump across the crack and its normal component."""

    s: np.ndarray
    jump: np.ndarray          # complex (u1 + i u2)^+ - (u1 + i u2)^-
    delta: np.ndarray         # signed normal opening, positive = faces separate
    max_opening: float
    min_opening: float


# the points of an opening profile, and of the g' grid of solve mode and of
# a convergence study, whose every second point is the opening's; the
# midpoints of solve mode's face_fields.csv
_OPENING_POINTS = 201
_GRID_POINTS = 401
_FACE_POINTS = 100


def opening_profile(coeffs: DensityCoefficients, curve: CrackCurve, material,
                    n_samples: int = _OPENING_POINTS) -> OpeningProfile:
    """Integrate the density into the crack-opening profile.

    jump(s) = (i / 2 mu) * int_0^s g'(x) t'(x) dx, which vanishes at s = 0 by
    construction and at s = l up to the single-valuedness residual.  The
    opening delta is the projection of the jump on the unit normal i t'(s).
    The integrals are the jump table (`densities._jump_table`) applied to
    g', built on each call.
    """
    _check_count("n_samples", n_samples, 2)
    coeffs.check_curve(curve)
    s_grid = np.linspace(0.0, curve.length, n_samples)
    jump, delta = _openings(
        (coeffs.g1 + 1j * coeffs.g2)[:, None],
        _jump_table(curve, coeffs.degree, coeffs.basis, n_samples),
        np.conj(curve.tangent(s_grid))[:, None], material.mu)
    delta = delta[:, 0]
    return OpeningProfile(s=s_grid, jump=jump[:, 0], delta=delta,
                          max_opening=float(np.max(delta)),
                          min_opening=float(np.min(delta)))


def _check_count(name, value, least):
    """Reject a non-integer value, a bool or one below least, naming the
    argument."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
            or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


def _openings(gp, table, tangent, mu):
    """The jump and the opening of densities on the grid of a jump table.

    gp holds the coefficients of g' of P densities as columns, (N+1, P),
    and tangent the conjugate of t' at the grid points as a column; the
    jump and the opening delta are (n_samples, P), from one product.
    """
    jump = 0.5j * (table @ gp) / mu
    return jump, np.imag(tangent * jump)


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

    samples is an (n, 2) array of (s, value) pairs; s is the distance to
    the tip and must be positive.  At least 8 samples must fall inside the
    window.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (s, value) "
                         f"pairs, got shape {arr.shape}")
    return _log_fits(arr[:, 0], {field_id: arr[:, 1]}, window, tip)[field_id]


def _fit_lines(dist, values, window=None):
    """Least-squares A ln s + c of every column of values, one fit call.

    dist are the (n,) distances s from the tip, values (n, K).  Returns A,
    c and the rms residual, (K,) each, and the window.
    """
    if np.any(dist <= 0.0):
        raise ValueError("log fit requires strictly positive tip distances")
    if window is None:
        window = (float(np.min(dist)), float(np.max(dist)))
    mask = (dist >= window[0]) & (dist <= window[1])
    if np.count_nonzero(mask) < 8:
        raise ValueError(
            f"log fit needs at least 8 samples in window {window}, "
            f"got {np.count_nonzero(mask)}")
    ls = np.log(dist[mask])
    vv = values[mask]
    slope, intercept = np.polyfit(ls, vv, 1)
    resid = vv - (slope * ls[:, None] + intercept)
    return slope, intercept, np.sqrt(np.mean(resid**2, axis=0)), window


def default_fit_window(length: float) -> tuple:
    """Default tip window [l/200, l/20]: ln s spans ln 10 while the bounded
    part stays nearly flat.  Raises ValueError unless length is finite and
    positive."""
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be finite and positive, got {length!r}")
    return (length / 200.0, length / 20.0)


# default point counts of max_face_traction (the sweeps' too) and tip fits
_TRACTION_POINTS = 101
_TIP_POINTS = 32


def _tip_points(curve, tip, window, n):
    """Distances from the tip (geometric over the window) and their s."""
    if tip not in (0.0, curve.length):
        raise ValueError(f"tip must be 0.0 or the arc length {curve.length}, "
                         f"got {tip}")
    lo, hi = default_fit_window(curve.length) if window is None else window
    if not 0.0 < lo < hi < curve.length:
        raise ValueError("the tip window (lo, hi) needs 0 < lo < hi < "
                         f"{curve.length}, got {window}")
    dist = np.geomspace(lo, hi, n)
    return dist, (dist if tip == 0.0 else curve.length - dist)


def _tip_fields(curve, material, load, coeffs, tip, side, window, n):
    """Distances from the tip and the four face fields there
    (`fields._face_values`)."""
    face = _side_index(side)
    dist, s_vals = _tip_points(curve, tip, window, n)
    traction, du = (v[face] for v in _face_values(curve, material, load,
                                                  coeffs, s_vals))
    return dist, {"sigma_n": traction.real, "tau_n": traction.imag,
                  "du1_ds": du.real, "du2_ds": du.imag}


def collect_tip_samples(curve, material, load, coeffs, field: str,
                        tip: float = 0.0, side: str = "plus",
                        window=None, n: int = _TIP_POINTS):
    """Geometrically spaced face-field samples near a tip.

    Returns (distances, values) where distances are measured from the tip
    (tip = 0.0 or tip = curve.length).
    """
    if field not in FIELD_NAMES:
        raise ValueError(f"unknown field {field!r}; choose from {FIELD_NAMES}")
    _check_count("n", n, 1)
    dist, values = _tip_fields(curve, material, load, coeffs, tip, side,
                               window, n)
    return dist, values[field]


def fit_tip_coefficients(curve, material, load, coeffs, tip: float = 0.0,
                         side: str = "plus", window=None,
                         n: int = _TIP_POINTS):
    """LogFit for each of the four face fields at one tip, sampled once."""
    _check_count("n", n, 8)
    dist, values = _tip_fields(curve, material, load, coeffs, tip, side,
                               window, n)
    return _log_fits(dist, values, window, tip)


def _log_fits(dist, values, window, tip):
    """LogFit of each field of the dict values from its values at the
    distances dist, all fitted in one call (`_fit_lines`)."""
    A, c, rms, window = _fit_lines(
        dist, np.column_stack(list(values.values())), window)
    return {name: LogFit(A=float(A[k]), c=float(c[k]), window=tuple(window),
                         rms=float(rms[k]), field_id=name, tip=tip)
            for k, name in enumerate(values)}


def tip_log_coefficients(curve, material, coeffs):
    """Closed-form log coefficients at the tip s = 0 from the densities.

    Splitting the principal-value integrals at the tip shows each face field
    behaves like A ln s + O(1) with A = -p(0) / (2 pi (kappa+1)), where p
    is its principal-value density (`densities.cauchy_densities`, the
    definition the solver's tip rows use): sigma for sigma_n + i tau_n and
    t'(0) omega / 2mu for du1/ds + i du2/ds.  It applies their rows on the
    unknowns (`densities._tip_log_rows`), as the sweeps' tables do.
    """
    coeffs.check_curve(curve)
    values = _tip_values(
        _tip_log_rows(curve, material, coeffs.degree, coeffs.basis),
        np.concatenate([coeffs.g1, coeffs.g2])[None], coeffs.gamma1)
    return dict(zip(FIELD_NAMES, values[:, 0].tolist()))


def _tip_values(rows, x, gamma1):
    """(T0 + gamma1 T1) x of rows (T0, T1) for densities x (P, 2N+2) at
    gamma1, (rows, P): sums of each density's own products, stack or not."""
    t0, t1 = (t[:, None] * x for t in rows)
    return t0.sum(axis=-1) + gamma1 * t1.sum(axis=-1)


def max_face_traction(curve, material, load, coeffs,
                      n_points: int = _TRACTION_POINTS) -> float:
    """sup over both faces of |sigma_n + i tau_n| on a midpoint grid."""
    _check_count("n_points", n_points, 1)
    traction, _ = _face_values(curve, material, load, coeffs,
                               midpoint_grid(curve.length, n_points))
    return float(np.max(np.abs(traction)))


@dataclass(kw_only=True)
class SolveReport:
    """The numbers reported for one solve, in `_SweepTables.report` order.

    A1, A2: the closed-form log coefficients of du1/ds and tau_n at the
    s = 0 tip (`tip_log_coefficients`); the extremes of the opening delta;
    the sup of |sigma_n + i tau_n| over both faces at the face points.
    error is the message of a failed solve, whose numbers stay nan.
    """

    A1: float = field(default=float("nan"), metadata={"label": "A1 (du1/ds)"})
    A2: float = field(default=float("nan"), metadata={"label": "A2 (tau_n)"})
    max_opening: float = float("nan")
    min_opening: float = float("nan")
    max_traction: float = float("nan")
    error: str = ""


# the report's numbers, in the order of the columns of _SweepTables.report
_NUMBERS = tuple(f for f in fields(SolveReport) if f.name != "error")


@dataclass
class GammaSweepRow(SolveReport):
    gamma1: float


@dataclass
class CurvatureSweepRow(SolveReport):
    kappa0: float


def _sweep_header(row_type):
    """The header of a sweep CSV: the row's key, the one field its type
    adds to SolveReport, then the report's fields."""
    *report, key = (f.name for f in fields(row_type))
    return [key, *report]


class _OutputGrid:
    """n equispaced points s of [0, l], the node side's basis table there
    at its degree, read-only both, and the points' CSV text, written
    (`_Written`): the g' grid of solve mode (`_SweepTables.grid`) and of a
    convergence study.  The node side keeps one per n (`_NodeSide.derived`),
    so a run on it formats no grid point that an earlier run formatted.
    """

    def __init__(self, node_side, n):
        length = node_side.curve.length
        self.s = _read_only(np.linspace(0.0, length, n))
        self.table = _read_only(node_side.basis.table(self.s, length,
                                                      node_side.degree))
        self.text = _Written(_cells(self.s))


class _SweepTables:
    """Everything a solve on one curve and N reuses, with the reads
    (`evaluate`, `values`) and the one reduction (`report`) of a stack of
    solutions.

    One node side serves the collocation tables and the face-field rows
    at a midpoint grid of n_face points (`fields._face_rows`, `face_rows`)
    of the first `fields` face fields on both faces: sigma_n and tau_n,
    all a sweep's report reads, or all four for solve mode's
    face_fields.csv.  The rows of A1 and A2 (`tip_log_rows`) and the jump
    table of the openings are built here, their one reader.  N is the node
    side's degree.  On first use come what solve mode alone writes: its g'
    grid (`grid`) and the text of the face points (`face_text`).  None of
    it depends on the load or gamma1, which evaluate() takes, and its
    arrays are read-only and its text written, so the node side keeps one
    per n_face and fields for every run on it (`_sweep_tables`).
    """

    def __init__(self, node_side, n_face, fields):
        curve, N = node_side.curve, node_side.degree
        self.material = node_side.material
        self.collocation = node_side.derived(_CollocationTables, N)
        self.jump = _jump_table(curve, N, node_side.basis, _OPENING_POINTS)
        self.jump_tangent = _read_only(np.conj(curve.tangent(np.linspace(
            0.0, curve.length, _OPENING_POINTS)))[:, None])
        self.face_s = _read_only(midpoint_grid(curve.length, n_face))
        self.face_rows = _face_rows(node_side, self.face_s, fields)
        # A1 (du1/ds), then A2 (tau_n)
        self.tip_log_rows = tuple(
            _read_only(t[[2, 1]])
            for t in _tip_log_rows(curve, self.material, N, node_side.basis))

    @cached_property
    def grid(self):
        """The `_OutputGrid` of _GRID_POINTS on the node side, which keeps
        it: solve mode's g' grid, whose text is the s column of
        g_prime.csv and, every second cell, of opening.csv."""
        return self.collocation.node_side.derived(_OutputGrid, _GRID_POINTS)

    @cached_property
    def face_text(self):
        """The s and side columns of face_fields.csv at face_s, written."""
        s, side = _face_columns(_cells(self.face_s))
        return _Written(s), _Written(_quoted(side))

    def openings(self, x):
        """The jump and the opening delta of P solutions x (P, 2N+2) on the
        jump table's grid, (n_samples, P) each."""
        n = x.shape[1] // 2
        return _openings((x[:, :n] + 1j * x[:, n:]).T, self.jump,
                         self.jump_tangent, self.material.mu)

    def evaluate(self, x, gamma1, load):
        """What the report reads of P solutions x (P, 2N+2) at gamma1 (P,)
        under load, from its rows alone: sigma_n and tau_n on both faces at
        face_s, (2, 2, n_face, P), A1 and A2, (2, P), and the opening
        delta, (n_samples, P)."""
        return (self.face_rows.apply(x, gamma1, load)[:2],
                _tip_values(self.tip_log_rows, x, gamma1), self.openings(x)[1])

    def values(self, x, gamma1, load):
        """The face fields of P solutions x at gamma1 under load, on tables
        of all four: sigma_n + i tau_n and du1/ds + i du2/ds on both faces
        at face_s, (2, n_face, P) each, the jump, (n_samples, P), and their
        evaluate() values."""
        sigma, tau, du1, du2 = self.face_rows.apply(x, gamma1, load)
        jump, delta = self.openings(x)
        return (sigma + 1j * tau, du1 + 1j * du2, jump,
                ((sigma, tau), _tip_values(self.tip_log_rows, x, gamma1),
                 delta))

    def report(self, traction, tip, delta):
        """The numbers of SolveReport of P solutions, (P, 5), from their
        evaluate() values: A1, A2 and the extremes."""
        sigma, tau = traction
        a1, a2 = tip
        # the extremes of each solution over a contiguous row of its own
        delta = np.ascontiguousarray(delta.T)
        return np.column_stack([a1, a2, delta.max(axis=1), delta.min(axis=1),
                                np.abs(sigma + 1j * tau).max(axis=(0, 1))])


def _sweep_tables(curve, material, N, n_face, fields):
    """The `_SweepTables` of n_face points and the first `fields` face
    fields on the cached node side of the curve, material and N
    (`fields._node_side`), which keeps them.  N is checked
    (`Discretization`) before the node side is built."""
    Discretization(N, curve.length)
    return _node_side(curve, material, N, MONOMIALS).derived(
        _SweepTables, n_face, fields)


# a failed solve (a failed SVD among them), and the ValueError of a bad N
# (`Discretization`) or curve (`GeometryError`)
_SWEEP_ERRORS = (AssemblyError, SolveError, ValueError)


def _solve_and_report(tables, load, rows, gamma1):
    """Fill rows from their gamma1 values under the load, solved as one
    stack.

    gamma1 holds valid values, all zero or all positive (one stack of
    `_CollocationTables.systems`).  A point whose own system fails a check
    gets that check's error; an error raised for the whole stack, the
    SolveError of a failed stacked factorization say, goes on every row
    still in it.
    """
    try:
        system, errors = tables.collocation.systems(load, gamma1)
        rows, gamma1 = _keep(rows, gamma1, errors)
        if not rows:
            return
        x, errors = _solutions(system)
        x = x[[e is None for e in errors]]
        rows, gamma1 = _keep(rows, gamma1, errors)
        for row, values in zip(rows, tables.report(*tables.evaluate(
                x, gamma1, load)).tolist()):
            for number, value in zip(_NUMBERS, values, strict=True):
                setattr(row, number.name, value)
    except _SWEEP_ERRORS as exc:
        for row in rows:
            row.error = str(exc)


def _keep(rows, gamma1, errors):
    """Record each row's error; the rows without one, and their gamma1."""
    ok = [error is None for error in errors]
    for row, error in zip(rows, errors):
        if error is not None:
            row.error = str(error)
    return [row for row, keep in zip(rows, ok) if keep], gamma1[ok]


def _fill(rows, gamma1, load, make_tables):
    """Fill each row from the solve at its gamma1 under the load, or record
    its error.

    make_tables() builds the rows' `_SweepTables`; its error goes on every
    row.  An invalid gamma1 never enters a stack; the zero and the positive
    values form one stack each, since they differ in constraint rows.
    """
    try:
        tables = make_tables()
    except _SWEEP_ERRORS as exc:
        for row in rows:
            row.error = str(exc)
        return
    gamma1 = np.array(gamma1, dtype=float)
    valid = np.zeros(gamma1.shape, dtype=bool)
    for i, row in enumerate(rows):
        try:
            _check_gamma1(gamma1[i])
            valid[i] = True
        except AssemblyError as exc:
            row.error = str(exc)
    for kind in (gamma1 == 0.0, gamma1 > 0.0):
        kind &= valid
        if kind.any():
            _solve_and_report(tables, load,
                              [r for r, k in zip(rows, kind) if k],
                              gamma1[kind])


def sweep_gamma(curve, material, load, gamma_grid, N: int = 20):
    """One solve per gamma1 value, in order; failed rows carry the error.

    The kernels and the face-field rows are tabulated once for the whole
    sweep, and for any later run on the curve, material and N
    (`_sweep_tables`, kept by the cached node side), and the points are
    solved as stacks (`_solve_and_report`): one for the gamma1 = 0 points
    and one for the positive ones.
    """
    rows = [GammaSweepRow(gamma1=float(g1)) for g1 in gamma_grid]
    _fill(rows, [row.gamma1 for row in rows], load,
          lambda: _sweep_tables(curve, material, N, _TRACTION_POINTS, 2))
    return rows


def sweep_curvature(material, load, gamma1, kappa0_grid, N: int = 20):
    """One solve per arc curvature in (0, 1], in order; arcs end at +1, -1."""
    rows = [CurvatureSweepRow(kappa0=float(k0)) for k0 in kappa0_grid]
    for row in rows:
        _fill([row], [gamma1], load, lambda: _sweep_tables(
            make_circular_arc(row.kappa0), material, N, _TRACTION_POINTS, 2))
    return rows


@dataclass
class ConvergenceRow:
    """One N of a convergence study; gprime holds g' at the points of
    grid, the study's `_OutputGrid` (one object for every row)."""

    N: int
    sup_diff: float
    coeffs: DensityCoefficients = field(repr=False, default=None)
    gprime: np.ndarray = field(repr=False, default=None)
    grid: _OutputGrid = field(repr=False, default=None)


def convergence_study(curve, material, load, gamma1, n_list,
                      n_grid: int = _GRID_POINTS):
    """Reconstructed g' for each N against the largest N on a common grid.

    The grid is n_grid equispaced points of [0, l]; each row carries it
    and its g' there, from the first N+1 columns of the grid's basis
    table.  Every N reads the cached node side of the largest N
    (`fields._node_side`), and the collocation tables of N and the grid,
    with its table and text, that it keeps (`_NodeSide.derived`), so a
    study repeated on the curve and material builds and formats no table
    or grid.  Every N is checked (`Discretization`) before anything is
    built.
    """
    _check_count("n_grid", n_grid, 2)
    n_list = list(n_list)
    for n in n_list:
        Discretization(n, curve.length)
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending with at least "
                         "two entries")
    node_side = _node_side(curve, material, n_list[-1], MONOMIALS)
    solved = [(n, solve(assemble(curve, material, load, gamma1,
                                 Discretization(n, curve.length),
                                 node_side=node_side)))
              for n in n_list]
    grid = node_side.derived(_OutputGrid, n_grid)
    samples = [grid.table[:, : n + 1] @ (coeffs.g1 + 1j * coeffs.g2)
               for n, coeffs in solved]
    return [ConvergenceRow(N=n, coeffs=coeffs, gprime=gp, grid=grid,
                           sup_diff=float(np.max(np.abs(gp - samples[-1]))))
            for (n, coeffs), gp in zip(solved, samples)]


def parity_residuals(values):
    """(even, odd) mismatch of samples on a grid symmetric about the center.

    A field sampled at points mirrored pairwise about l/2 is even when
    reversing the array changes nothing; residuals are normalized by the
    sup-norm of the field.  Raises ValueError unless values is a nonempty
    array of finite samples.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.size == 0:
        raise ValueError(f"values must be a nonempty array, got {values!r}")
    if not np.isfinite(v).all():
        raise ValueError(f"values must be finite, got {values!r}")
    sup = float(np.max(np.abs(v)))
    if sup == 0.0:
        return 0.0, 0.0
    rev = v[::-1]
    even = float(np.max(np.abs(v - rev))) / (2.0 * sup)
    odd = float(np.max(np.abs(v + rev))) / (2.0 * sup)
    return even, odd


def extremum_coincidence_report(rows):
    """Soft diagnostic: do |A1|, |A2| and the openings peak at the same gamma1?

    Returns (indices, within_one_step); never raises.  The indices are
    positions in rows, the sweep grid, and rows that carry an error are
    skipped, so "within one step" means at most one grid step apart.
    Reported, not asserted: the coincidence is an observation about the
    model, not a solver invariant.
    """
    ok = [i for i, r in enumerate(rows) if not r.error]
    if len(ok) < 3:
        return {}, False
    idx = {
        "A1": max(ok, key=lambda i: abs(rows[i].A1)),
        "A2": max(ok, key=lambda i: abs(rows[i].A2)),
        "max_opening": max(ok, key=lambda i: rows[i].max_opening),
    }
    vals = list(idx.values())
    return idx, (max(vals) - min(vals) <= 1)


# ---------------------------------------------------------------------------
# CSV persistence (header row mandatory, full-precision floats)

class _Written(tuple):
    """A CSV column in its written form: text cells, quoted where the csv
    module needs it (`_quoted`), which `_cells` takes as it stands, and so
    a slice of it.  The text kept with the tables (`_OutputGrid.text`,
    `_SweepTables.face_text`) is checked and quoted once, when it is
    formatted."""

    def __getitem__(self, index):
        cells = tuple.__getitem__(self, index)
        return _Written(cells) if isinstance(index, slice) else cells


def _cells(column):
    """The text of one CSV column: floats by repr (the shortest text that
    reads back to the same double), integers by str, strings as given
    (`_quoted`).  A list or tuple of strings is a text column as it
    stands, so a column formatted once is written again without a second
    repr, and a `_Written` column is its own text."""
    if isinstance(column, _Written):
        return column
    if isinstance(column, (list, tuple)) and all(isinstance(c, str)
                                                 for c in column):
        return _quoted(column)
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return list(map(repr, values.astype(float, copy=False).tolist()))
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind == "U":
        return _quoted(values.tolist())
    raise TypeError("a CSV column holds floats, integers or strings, got "
                    f"dtype {values.dtype}")


def _quoted(cells):
    """String cells, each quoted, with its quotes doubled, where it holds a
    comma, a quote or a line break, as the csv module reads it.  Most
    columns hold none, which one scan of the joined column finds."""
    special, joined = ',"\r\n', "".join(cells)
    if not any(c in joined for c in special):
        return cells
    return ['"' + text.replace('"', '""') + '"'
            if any(c in text for c in special) else text for text in cells]


def write_csv(path, header, columns):
    """Write a header row and the rows of equally long columns.

    Each column is formatted by `_cells`: a list or tuple of str, the
    text a caller formatted once, is written as it stands but for the
    quoting rule, and the text kept written (`_Written`) as it stands.
    The whole file is one string, the rows joined in one pass, written in
    one call; a column of unequal length raises before the file is
    opened.
    """
    cells = [_cells(column) for column in columns]
    text = "\n".join([",".join(header),
                      *map(",".join, zip(*cells, strict=True))])
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def write_g_prime_csv(path, s, columns: dict):
    write_csv(path, ["s", *columns], [s, *columns.values()])


def write_face_fields_csv(path, s, traction, du):
    """Face fields of both faces at the points s, all "+" rows first.

    traction is sigma_n + i tau_n and du is d(u1 + i u2)/ds, each (2, M)
    with the "+" face first, as `fields._face_values` returns them.  The
    points are formatted once, for both faces.
    """
    _write_face_fields_csv(
        path, _face_columns(_cells(np.asarray(s, dtype=float))), traction,
        du)


def _face_columns(s_text):
    """The s and side columns of face_fields.csv from the text of its
    points: every point on the "+" face, then on the "-" face."""
    return s_text * len(_SIDES), tuple(side for side in _SIDES
                                       for _ in s_text)


def _write_face_fields_csv(path, columns, traction, du):
    """write_face_fields_csv from the s and side columns as text
    (`_face_columns`; solve mode's are kept, `_SweepTables.face_text`)."""
    header = ["s", "side", "sigma_n", "tau_n", "du1_ds", "du2_ds"]
    write_csv(path, header,
              [*columns, traction.real.ravel(), traction.imag.ravel(),
               du.real.ravel(), du.imag.ravel()])


def write_opening_csv(path, profile: OpeningProfile):
    _write_opening_csv(path, profile.s, profile.jump, profile.delta)


def _write_opening_csv(path, s, jump, delta):
    """write_opening_csv from the columns, the s column as floats or as the
    text of the grid (solve mode's is every second cell of its g' grid's
    kept text, `_OutputGrid.text`)."""
    header = ["s", "du1_jump", "du2_jump", "delta"]
    write_csv(path, header, [s, jump.real, jump.imag, delta])


def _write_sweep_csv(path, row_type, rows):
    header = _sweep_header(row_type)
    write_csv(path, header,
              [[getattr(r, name) for r in rows] for name in header])


def write_sweep_gamma_csv(path, rows):
    _write_sweep_csv(path, GammaSweepRow, rows)


def write_sweep_curvature_csv(path, rows):
    _write_sweep_csv(path, CurvatureSweepRow, rows)


def write_convergence_csv(path, rows):
    header = ["N", "sup_diff_vs_largest"]
    write_csv(path, header, [[r.N for r in rows], [r.sup_diff for r in rows]])
