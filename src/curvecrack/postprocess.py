"""Derived results: opening profiles, tip log-singularity fits, parameter sweeps.

The crack opening is the solver's jump table applied to the density's
coefficients, and close to the tips the face fields inherit a logarithmic
term whose coefficient is extracted by a least-squares fit of value ~
A ln s + c over a window well inside the first quarter of the arc.
Face-field profiles, tip fits and the maximal face traction each build one
field evaluator at all their points s0 and apply it to the density; it
returns both faces at once.

Solve mode and the sweeps tabulate once and apply per solve.  `_SweepTables`
holds the collocation tables (`solver._CollocationTables`) of one curve and
N, and one field evaluator at a midpoint face grid plus the 32 default
tip-window points at s = 0: the 101-point max-traction grid for a sweep,
the 100-point `face_fields.csv` grid for solve mode (`cli._solve_outputs`).
The openings come from the collocation tables' jump table, built on the
first opening, so the kernels and the jump table are built once per curve
however many solves use them.  A gamma1 sweep builds the tables once, a
curvature sweep once per curve.

A gamma1 sweep solves its points as stacks (`_solve_and_report`): one for
the gamma1 = 0 points and one for the positive ones, which carry the tip
rows too.  Each stack is one batched reduction and solve
(`solver._solutions`), one application of the field evaluator to all its
densities as columns, one least-squares fit of every point's two tip
fields on the shared [ln s, 1] design, and one product of the jump table
with all the densities.  Errors stay per point: an invalid gamma1 never
enters a stack, a point that fails a check of its own gets that error
while the others go on, and an error of the whole stack goes on each of
its rows.

Every CSV goes through `write_csv`, which takes whole columns and formats
each column once: floats by repr, integers by str, strings as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densities import (DensityCoefficients, basis, cauchy_densities,
                        q_coefficients, q_polynomial)
from .fields import _SIDES, _FieldEvaluator
from .geometry import CrackCurve, make_circular_arc
from .quadrature import Discretization, midpoint_grid
from .solver import (AssemblyError, SolveError, _check_gamma1,
                     _CollocationTables, _jump_table, _solutions,
                     solve_problem)

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
    s_grid, jump, delta = _openings(
        (coeffs.g1 + 1j * coeffs.g2)[:, None], curve, material, table)
    delta = delta[:, 0]
    return OpeningProfile(s=s_grid, jump=jump[:, 0], delta=delta,
                          max_opening=float(np.max(delta)),
                          min_opening=float(np.min(delta)))


def _openings(gp, curve, material, table):
    """The grid of a jump table, and the jump and opening of densities there.

    gp holds the coefficients of g' of P densities as columns, (N+1, P);
    the jump and the opening delta are (n_samples, P), from one product.
    """
    s_grid = np.linspace(0.0, curve.length, len(table))
    jump = 0.5j * (table @ gp) / material.mu
    delta = np.imag(np.conj(curve.tangent(s_grid))[:, None] * jump)
    return s_grid, jump, delta


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
    return _log_fits(s, {field_id: v}, (field_id,), window, tip)[field_id]


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
    return _log_fits(dist, values, FIELD_NAMES, window, tip)


def _log_fits(dist, values, names, window=None, tip=0.0):
    """LogFit of each named field from its values at distances dist.

    All the named fields are fitted in one call (`_fit_lines`).
    """
    A, c, rms, window = _fit_lines(
        np.asarray(dist, dtype=float),
        np.column_stack([values[name] for name in names]), window)
    return {name: LogFit(A=float(A[k]), c=float(c[k]), window=tuple(window),
                         rms=float(rms[k]), field_id=name, tip=tip)
            for k, name in enumerate(names)}


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
    """Everything a solve on one curve and N reuses.

    The collocation tables, and one field evaluator at the points of the
    outputs: a midpoint grid of n_face points on both faces and, for the
    tip fits at s = 0 on the "+" face, fit_tip_coefficients' default
    window.  The sweeps use max_face_traction's default grid; solve mode
    passes the 100 points of face_fields.csv.
    """

    def __init__(self, curve, material, load, N, n_face=_TRACTION_POINTS):
        self.curve, self.material, self.load = curve, material, load
        self.collocation = _CollocationTables(
            curve, material, Discretization(N, curve.length))
        self.face_s = midpoint_grid(curve.length, n_face)
        self.tip_dist, tip_s = _tip_points(curve, 0.0, None, _TIP_POINTS)
        self.fields = _FieldEvaluator(curve, material, load,
                                      np.concatenate([self.face_s, tip_s]), N)

    def _split(self, traction, du):
        """The evaluator's values as face values at face_s, (2, n_face, ...)
        each, and the "+" face fields at the tip points, named as in
        FIELD_NAMES."""
        n = self.face_s.size
        return (traction[:, :n], du[:, :n],
                _field_values(traction[0, n:], du[0, n:]))

    def face_values(self, coeffs):
        """Traction and du/ds on both faces at face_s, (2, n_face) each,
        and the "+" face fields at the tip points, named as in FIELD_NAMES."""
        return self._split(*self.fields.face_values(coeffs))

    def opening(self, coeffs) -> OpeningProfile:
        """opening_profile of coeffs from the collocation jump table."""
        return _opening(coeffs, self.curve, self.material,
                        self.collocation.jump)

    def columns(self, x, gamma1):
        """The sweep columns of P solutions x (P, 2N+2) at gamma1 (P,).

        (A1, A2, max opening, min opening, max traction) per solution, as
        a (P, 5) array.  The field evaluator takes the P densities as
        columns, one fit call fits both tip fields of every point, and the
        openings are one product with the jump table.
        """
        N = self.collocation.disc.N
        g1, g2 = x[:, : N + 1], x[:, N + 1:]
        gp = g1 + 1j * g2
        q = q_coefficients(self.curve, self.material, gamma1[:, None], g1, g2)
        traction, _, tip_values = self._split(*self.fields.apply(gp, q))
        A = _fit_lines(self.tip_dist, np.concatenate(
            [tip_values["du1_ds"], tip_values["tau_n"]], axis=1))[0]
        _, _, delta = _openings(gp.T, self.curve, self.material,
                                self.collocation.jump)
        P = x.shape[0]
        return np.column_stack([A[:P], A[P:], np.max(delta, axis=0),
                                np.min(delta, axis=0),
                                np.max(np.abs(traction), axis=(0, 1))])


# numpy's LinAlgError is a ValueError
_SWEEP_ERRORS = (AssemblyError, SolveError, ValueError)


def _solve_and_report(tables, rows, gamma1):
    """Fill rows from their gamma1 values, solved as one stack.

    gamma1 holds valid values, all zero or all positive (one stack of
    `_CollocationTables.systems`).  A point whose own system fails a check
    gets that check's error; an error raised for the whole stack, a
    LinAlgError of a stacked factorization say, goes on every row still
    in it.
    """
    try:
        system, errors = tables.collocation.systems(tables.load, gamma1)
        rows, gamma1 = _keep(rows, gamma1, errors)
        if not rows:
            return
        x, errors = _solutions(system)
        x = x[[e is None for e in errors]]
        rows, gamma1 = _keep(rows, gamma1, errors)
        for row, values in zip(rows, tables.columns(x, gamma1).tolist()):
            (row.A1, row.A2, row.max_opening, row.min_opening,
             row.max_traction) = values
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


def _fill(rows, tables, gamma1):
    """Fill each row from the solve at its gamma1, or record its error.

    An invalid gamma1 never enters a stack; the zero and the positive
    values form one stack each, since they differ in constraint rows.
    """
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
            _solve_and_report(tables, [r for r, k in zip(rows, kind) if k],
                              gamma1[kind])


def sweep_gamma(curve, material, load, gamma_grid, N: int = 20):
    """One solve per gamma1 value, in order; failed rows carry the error.

    The kernels and the field evaluator are tabulated once for the whole
    sweep, and the points are solved as stacks (`_solve_and_report`): one
    for the gamma1 = 0 points and one for the positive ones.
    """
    rows = [GammaSweepRow(gamma1=float(g1)) for g1 in gamma_grid]
    try:
        tables = _SweepTables(curve, material, load, N)
    except _SWEEP_ERRORS as exc:
        for row in rows:
            row.error = str(exc)
        return rows
    _fill(rows, tables, [row.gamma1 for row in rows])
    return rows


def sweep_curvature(material, load, gamma1, kappa0_grid, N: int = 20):
    """One solve per arc curvature in (0, 1], in order; arcs end at +1, -1."""
    rows = [CurvatureSweepRow(kappa0=float(k0)) for k0 in kappa0_grid]
    for row in rows:
        try:
            tables = _SweepTables(make_circular_arc(row.kappa0), material,
                                  load, N)
        except _SWEEP_ERRORS as exc:
            row.error = str(exc)
            continue
        _fill([row], tables, [gamma1])
    return rows


@dataclass
class ConvergenceRow:
    """One N of a convergence study; gprime holds g' on the study's grid."""

    N: int
    sup_diff: float
    coeffs: DensityCoefficients = field(repr=False, default=None)
    gprime: np.ndarray = field(repr=False, default=None)


def convergence_study(curve, material, load, gamma1, n_list,
                      n_grid: int = 401):
    """Reconstructed g' for each N against the largest N on a common grid.

    The grid is n_grid equispaced points of [0, l]; each row carries its
    g' there, from the first N+1 columns of one basis table of the grid.
    """
    n_list = list(n_list)
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending with at least "
                         "two entries")
    grid = np.linspace(0.0, curve.length, n_grid)
    solved = [(n, solve_problem(curve, material, load, gamma1, N=n))
              for n in n_list]
    table = basis(grid, curve.length, n_list[-1])
    samples = [table[:, : n + 1] @ (coeffs.g1 + 1j * coeffs.g2)
               for n, coeffs in solved]
    rows = []
    for (n, coeffs), gp in zip(solved, samples):
        diff = float(np.max(np.abs(gp - samples[-1])))
        rows.append(ConvergenceRow(N=n, sup_diff=diff, coeffs=coeffs,
                                   gprime=gp))
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

def _cells(column):
    """The text of one CSV column: floats by repr (the shortest text that
    reads back to the same double), integers by str, strings as given."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return list(map(repr, values.astype(float, copy=False).tolist()))
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    if values.dtype.kind == "U":
        return list(column)
    raise TypeError("a CSV column holds floats, integers or strings, got "
                    f"dtype {values.dtype}")


def write_csv(path, header, columns):
    """Write a header row and the rows of equally long columns."""
    cells = [_cells(column) for column in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n"
                      for row in zip(*cells, strict=True))


def write_g_prime_csv(path, s, columns: dict):
    write_csv(path, ["s", *columns], [s, *columns.values()])


def write_face_fields_csv(path, s, traction, du):
    """Face fields of both faces at the points s, all "+" rows first.

    traction is sigma_n + i tau_n and du is d(u1 + i u2)/ds, each (2, M)
    with the "+" face first, as `fields._FieldEvaluator.face_values`
    returns them.
    """
    header = ["s", "side", "sigma_n", "tau_n", "du1_ds", "du2_ds"]
    s = np.asarray(s, dtype=float)
    write_csv(path, header,
              [np.tile(s, len(_SIDES)), np.repeat(_SIDES, s.size),
               traction.real.ravel(), traction.imag.ravel(),
               du.real.ravel(), du.imag.ravel()])


def write_opening_csv(path, profile: OpeningProfile):
    header = ["s", "du1_jump", "du2_jump", "delta"]
    write_csv(path, header, [profile.s, profile.jump.real, profile.jump.imag,
                             profile.delta])


_SWEEP_COLUMNS = ("A1", "A2", "max_opening", "min_opening", "max_traction",
                  "error")


def _write_sweep_csv(path, key, rows):
    header = [key, *_SWEEP_COLUMNS]
    write_csv(path, header,
              [[getattr(r, name) for r in rows] for name in header])


def write_sweep_gamma_csv(path, rows):
    _write_sweep_csv(path, "gamma1", rows)


def write_sweep_curvature_csv(path, rows):
    _write_sweep_csv(path, "kappa0", rows)


def write_convergence_csv(path, rows):
    header = ["N", "sup_diff_vs_largest"]
    write_csv(path, header, [[r.N for r in rows], [r.sup_diff for r in rows]])
