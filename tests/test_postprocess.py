import csv
import gc
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (CrackCurve, DensityCoefficients, Discretization,
                        FarFieldLoad, KernelSet, Material, collect_tip_samples,
                        convergence_study, default_fit_window, face_fields,
                        fit_log_coefficient, fit_tip_coefficients,
                        make_circular_arc, make_semicircle, make_straight,
                        max_face_traction, opening_profile, parity_residuals,
                        single_valued_integral, single_valued_residual, solve,
                        solve_problem, sweep_curvature, sweep_gamma,
                        tip_condition_residuals, tip_log_coefficients,
                        traction_jump, traction_jump_parts)
from curvecrack import densities, postprocess, solver
from curvecrack.densities import MONOMIALS
from curvecrack.fields import (_face_values, _node_side, _NodeSide,
                               face_field_profile)
from curvecrack.postprocess import (ConvergenceRow, CurvatureSweepRow,
                                    GammaSweepRow, SolveReport, _cells,
                                    extremum_coincidence_report,
                                    write_convergence_csv, write_csv,
                                    write_face_fields_csv, write_g_prime_csv,
                                    write_opening_csv,
                                    write_sweep_curvature_csv,
                                    write_sweep_gamma_csv)
from curvecrack.solver import AssemblyError

# a load under which every crack of _CURVES opens: the straight crack
# under load_h does not
LOAD = FarFieldLoad(sigma1=1.0, sigma2=0.5, alpha=0.3)
_CURVES = {"semicircle": make_semicircle(), "arc0.5": make_circular_arc(0.5),
           "straight": make_straight(2.0)}


class TestOpeningProfile:
    def test_zero_coefficients(self, material, semicircle):
        coeffs = DensityCoefficients(np.zeros(5), np.zeros(5),
                                     semicircle.length, 1.0)
        prof = opening_profile(coeffs, semicircle, material)
        assert prof.max_opening == 0.0 and prof.min_opening == 0.0
        assert np.all(prof.delta == 0.0)

    def test_closes_at_tips(self, solved_semicircle, semicircle, material):
        prof = opening_profile(solved_semicircle, semicircle, material)
        assert prof.delta[0] == 0.0
        scale = np.max(np.abs(prof.delta))
        assert abs(prof.delta[-1]) < 1e-8 * max(scale, 1e-30)

    def test_jump_derivative_consistency(self, solved_semicircle, semicircle,
                                         material):
        # d(jump)/ds = i g'(s) t'(s) / (2 mu)
        prof = opening_profile(solved_semicircle, semicircle, material,
                               n_samples=401)
        s = prof.s
        h = s[1] - s[0]
        fd = (prof.jump[2:] - prof.jump[:-2]) / (2.0 * h)
        expected = (0.5j * solved_semicircle.gprime(s[1:-1])
                    * semicircle.tangent(s[1:-1]) / material.mu)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(fd - expected)) < 5e-3 * scale

    def test_negative_minimum_under_horizontal_load(self, solved_semicircle,
                                                    semicircle, material):
        prof = opening_profile(solved_semicircle, semicircle, material)
        assert prof.max_opening > 0.0
        assert prof.min_opening < 0.0


class TestLogFit:
    def test_exact_recovery(self):
        s = np.geomspace(0.01, 0.1, 32)
        fit = fit_log_coefficient(np.column_stack([s, 3.0 * np.log(s) + 7.0]))
        assert fit.A == pytest.approx(3.0, abs=1e-12)
        assert fit.c == pytest.approx(7.0, abs=1e-12)
        assert fit.rms < 1e-12

    def test_constant_field(self):
        s = np.geomspace(0.01, 0.1, 16)
        fit = fit_log_coefficient(np.column_stack([s, np.full_like(s, 5.0)]))
        assert fit.A == pytest.approx(0.0, abs=1e-12)
        assert fit.c == pytest.approx(5.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(min_value=-10, max_value=10),
           c=st.floats(min_value=-10, max_value=10))
    def test_recovery_hypothesis(self, a, c):
        s = np.geomspace(0.003, 0.2, 24)
        fit = fit_log_coefficient(np.column_stack([s, a * np.log(s) + c]))
        assert fit.A == pytest.approx(a, abs=1e-9)

    def test_too_few_samples(self):
        s = np.geomspace(0.01, 0.1, 5)
        with pytest.raises(ValueError):
            fit_log_coefficient(np.column_stack([s, np.log(s)]))

    def test_nonpositive_distance(self):
        s = np.linspace(-0.01, 0.1, 12)
        with pytest.raises(ValueError):
            fit_log_coefficient(np.column_stack([s, np.ones_like(s)]))

    def test_window_filtering(self):
        s = np.geomspace(1e-4, 1.0, 64)
        vals = 2.0 * np.log(s)
        fit = fit_log_coefficient(np.column_stack([s, vals]),
                                  window=(1e-3, 1e-1))
        assert fit.window == (1e-3, 1e-1)
        assert fit.A == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("shape", [(2, 10), (10,), (10, 3), (2, 2, 5)])
    def test_samples_are_pairs_only(self, shape):
        # one layout: (s, value) rows; a pair of arrays is not read
        s = np.geomspace(0.01, 0.1, 10)
        samples = np.resize(np.concatenate([s, np.log(s)]), shape)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fit_log_coefficient(samples)


class TestTipCoefficients:
    def test_closed_form_matches_deep_window_fit(self, material, semicircle,
                                                 load_h):
        # a pure constant density makes the principal-value log term dominate
        # arbitrarily close to the tip, where the evaluator is exact
        coeffs = DensityCoefficients(np.array([1.0]), np.array([0.5]),
                                     semicircle.length, gamma1=1.0)
        closed = tip_log_coefficients(semicircle, material, coeffs)
        window = (semicircle.length * 1e-7, semicircle.length * 1e-5)
        for name in ("sigma_n", "tau_n"):
            d, v = collect_tip_samples(semicircle, material, load_h, coeffs,
                                       name, window=window, n=16)
            fit = fit_log_coefficient(np.column_stack([d, v]), window=window)
            assert fit.A == pytest.approx(closed[name], abs=5e-3)

    @pytest.mark.parametrize("gamma1", [0.25, 1.0])
    @pytest.mark.parametrize("curve", _CURVES.values(), ids=_CURVES)
    def test_closed_form_matches_deep_window_fit_of_solves(self, material,
                                                           curve, gamma1):
        # a window far inside the tip boundary layer sees the log term of
        # each of the four fields of a solved density: the fit there is
        # the closed form the reports print
        coeffs = solve_problem(curve, material, LOAD, gamma1, N=20)
        closed = tip_log_coefficients(curve, material, coeffs)
        window = (1e-8 * curve.length, 1e-7 * curve.length)
        fits = fit_tip_coefficients(curve, material, LOAD, coeffs,
                                    window=window)
        scale = max(1.0, *map(abs, closed.values()))
        for name, fit in fits.items():
            assert abs(fit.A - closed[name]) <= 2e-4 * scale, name

    @pytest.mark.parametrize("gamma1", [1.0, 0.25])
    @pytest.mark.parametrize("curvature", [1.0, 0.5])
    def test_closed_form_vanishes_where_tip_rows_zero(self, material, load_h,
                                                      curvature, gamma1):
        # the tip rows zero the log coefficients of sigma_n and of the
        # normal component of du/ds at s = 0; the closed form must agree
        curve = make_circular_arc(curvature)
        coeffs = solve_problem(curve, material, load_h, gamma1, N=20)
        closed = tip_log_coefficients(curve, material, coeffs)
        sup = np.max(np.abs(coeffs.gprime(np.linspace(0.0, curve.length,
                                                      512))))
        normal = 1j * complex(curve.tangent(0.0))
        a_normal = (np.conj(normal)
                    * (closed["du1_ds"] + 1j * closed["du2_ds"])).real
        assert abs(closed["sigma_n"]) <= 1e-10 * sup
        assert abs(a_normal) <= 1e-10 * sup
        assert abs(closed["tau_n"]) >= 0.1

    def test_fit_bundle_fields(self, solved_semicircle, semicircle, material,
                               load_h):
        fits = fit_tip_coefficients(semicircle, material, load_h,
                                    solved_semicircle)
        assert set(fits) == {"sigma_n", "tau_n", "du1_ds", "du2_ds"}
        lo, hi = default_fit_window(semicircle.length)
        for fit in fits.values():
            assert fit.window == (lo, hi)
            assert np.isfinite(fit.A) and np.isfinite(fit.rms)
        # the bundle samples once; each fit must match the one-field route
        for name, fit in fits.items():
            d, v = collect_tip_samples(semicircle, material, load_h,
                                       solved_semicircle, name)
            alone = fit_log_coefficient(np.column_stack([d, v]))
            assert fit.A == pytest.approx(alone.A, rel=1e-12)

    @pytest.mark.parametrize("length", [-1.0, 0.0, np.nan, np.inf])
    def test_default_fit_window_refuses_a_bad_length(self, length):
        with pytest.raises(ValueError, match="length must be finite and "
                                             "positive"):
            default_fit_window(length)

    def test_tip_must_be_an_end_of_the_arc(self, solved_semicircle,
                                           semicircle, material, load_h):
        for bad in (1.0, 2.0 * semicircle.length):
            with pytest.raises(ValueError, match="tip"):
                collect_tip_samples(semicircle, material, load_h,
                                    solved_semicircle, "tau_n", tip=bad)
            with pytest.raises(ValueError, match="tip"):
                fit_tip_coefficients(semicircle, material, load_h,
                                     solved_semicircle, tip=bad)
        fits = fit_tip_coefficients(semicircle, material, load_h,
                                    solved_semicircle, tip=semicircle.length)
        assert all(f.tip == semicircle.length and np.isfinite(f.A)
                   for f in fits.values())

    def test_sigma_suppressed_relative_to_tau(self, solved_semicircle,
                                              semicircle, material, load_h):
        fits = fit_tip_coefficients(semicircle, material, load_h,
                                    solved_semicircle)
        assert abs(fits["sigma_n"].A) < 0.5 * abs(fits["tau_n"].A)


class TestParity:
    def test_synthetic(self):
        x = np.linspace(-1, 1, 21)
        even, odd = parity_residuals(x**2)
        assert even < 1e-15 and odd == pytest.approx(1.0)
        even, odd = parity_residuals(x**3)
        assert odd < 1e-15 and even == pytest.approx(1.0)

    def test_zero_field(self):
        assert parity_residuals(np.zeros(8)) == (0.0, 0.0)

    @pytest.mark.parametrize("values,match", [
        ([], "nonempty"), (3.0, "nonempty"),
        ([np.nan, 1.0], "finite"), ([np.inf, 1.0], "finite")])
    def test_refuses_empty_scalar_and_nonfinite_values(self, values, match):
        with pytest.raises(ValueError, match=match):
            parity_residuals(values)

    def test_solved_fields_have_definite_parity(self, solved_semicircle,
                                                semicircle, material, load_h):
        # mirror-symmetric geometry and load: sigma_n and du1/ds are even
        # about the center, tau_n and du2/ds odd
        k = 24
        j = np.arange(1, k + 1)
        grid = (2 * j - 1) * semicircle.length / (2 * k)
        prof = face_field_profile(semicircle, material, load_h,
                                  solved_semicircle, grid, sides=("plus",))
        vals = {n: np.array([getattr(p, n) for p in prof])
                for n in ("sigma_n", "tau_n", "du1_ds", "du2_ds")}
        assert parity_residuals(vals["sigma_n"])[0] < 1e-6
        assert parity_residuals(vals["du1_ds"])[0] < 1e-6
        assert parity_residuals(vals["tau_n"])[1] < 1e-6
        assert parity_residuals(vals["du2_ds"])[1] < 1e-6


@pytest.fixture(scope="module")
def gamma_rows(semicircle, material, load_h):
    return sweep_gamma(semicircle, material, load_h, [0.5, 1.0, 2.0], N=12)


class TestSweeps:
    def test_gamma_rows_finite(self, gamma_rows):
        assert [r.gamma1 for r in gamma_rows] == [0.5, 1.0, 2.0]
        for r in gamma_rows:
            assert r.error == ""
            assert np.isfinite(r.A1) and np.isfinite(r.A2)
            assert np.isfinite(r.max_opening) and np.isfinite(r.min_opening)

    def test_duplicate_rows_identical(self, semicircle, material, load_h):
        rows = sweep_gamma(semicircle, material, load_h, [1.0, 1.0], N=10)
        a, b = rows
        assert (a.A1, a.A2, a.max_opening, a.min_opening, a.max_traction) \
            == (b.A1, b.A2, b.max_opening, b.min_opening, b.max_traction)

    def test_curvature_sweep_unit_row_matches_semicircle(
            self, material, semicircle, load_h):
        rows = sweep_curvature(material, load_h, 1.0, [1.0], N=12)
        co = solve_problem(semicircle, material, load_h, 1.0, N=12)
        closed = tip_log_coefficients(semicircle, material, co)
        assert rows[0].error == ""
        # the tip rows make A1 zero to rounding on the semicircle
        assert rows[0].A1 == pytest.approx(closed["du1_ds"], rel=1e-9,
                                           abs=_zero_to_rounding(co))
        assert rows[0].A2 == pytest.approx(closed["tau_n"], rel=1e-9)

    def test_curvature_sweep_rows(self, material, load_h):
        load = FarFieldLoad(sigma1=1.0, sigma2=1.0)
        rows = sweep_curvature(material, load, 1.0, [0.25, 0.5, 1.0], N=12)
        assert [r.kappa0 for r in rows] == [0.25, 0.5, 1.0]
        assert all(r.error == "" for r in rows)

    def test_extremum_report_smoke(self, gamma_rows):
        idx, within = extremum_coincidence_report(gamma_rows)
        assert set(idx) == {"A1", "A2", "max_opening"}
        assert isinstance(within, bool)

    def test_extremum_report_indexes_the_grid(self):
        # the peak at gamma1 = 0.3 is grid index 2, after a failed first row
        rows = [GammaSweepRow(gamma1=0.1, error="failed"),
                GammaSweepRow(gamma1=0.2, A1=1.0, A2=1.0, max_opening=1.0),
                GammaSweepRow(gamma1=0.3, A1=-3.0, A2=3.0, max_opening=3.0),
                GammaSweepRow(gamma1=0.4, A1=2.0, A2=-2.0, max_opening=2.0)]
        assert extremum_coincidence_report(rows) \
            == ({"A1": 2, "A2": 2, "max_opening": 2}, True)

    def test_extremum_report_steps_over_failed_rows(self):
        # peaks at grid indices 0 and 2 are two steps apart, although only
        # one error-free row lies between them
        rows = [GammaSweepRow(gamma1=0.1, A1=5.0, A2=1.0, max_opening=1.0),
                GammaSweepRow(gamma1=0.2, error="failed"),
                GammaSweepRow(gamma1=0.3, A1=1.0, A2=5.0, max_opening=5.0),
                GammaSweepRow(gamma1=0.4, A1=2.0, A2=2.0, max_opening=2.0)]
        assert extremum_coincidence_report(rows) \
            == ({"A1": 0, "A2": 2, "max_opening": 2}, False)

    def test_failed_row_recorded_and_sweep_continues(self, semicircle,
                                                     material, load_h):
        rows = sweep_gamma(semicircle, material, load_h, [-1.0, 1.0], N=10)
        assert rows[0].error != ""
        assert np.isnan(rows[0].A1)
        assert rows[1].error == "" and np.isfinite(rows[1].A1)


def _zero_to_rounding(coeffs):
    """1e-12 sup|g'| of a density: the size of a log coefficient that its
    tip rows zero (A1 on the semicircle), as rounding leaves it."""
    return 1e-12 * solver._sup_gprime(coeffs, coeffs.curve)


def _per_point_row(curve, material, load, gamma1, N):
    """A sweep row's columns from the public per-point functions, and the
    density's `_zero_to_rounding`."""
    co = solve_problem(curve, material, load, gamma1, N=N)
    closed = tip_log_coefficients(curve, material, co)
    prof = opening_profile(co, curve, material)
    return (closed["du1_ds"], closed["tau_n"], prof.max_opening,
            prof.min_opening, max_face_traction(curve, material, load, co),
            _zero_to_rounding(co))


def _sweep_columns(rows):
    assert all(r.error == "" for r in rows)
    return np.array([(r.A1, r.A2, r.max_opening, r.min_opening,
                      r.max_traction) for r in rows])


def _assert_matches_per_point(rows, per_point):
    """The sweep rows' columns are the `_per_point_row` ones to 1e-9 of
    each column's largest value; A1 and A2 also to the density's
    `_zero_to_rounding`, since a column of them may be zero to rounding."""
    got, want = _sweep_columns(rows), np.array(per_point)
    want, zero = want[:, :5], want[:, 5:]
    tol = np.tile(1e-9 * np.max(np.abs(want), axis=0), (len(want), 1))
    tol[:, :2] = np.maximum(tol[:, :2], zero)
    assert np.all(np.abs(got - want) <= tol)


def _eight_point_sweeps(semicircle, arc, material, load):
    """The arguments of eight-point gamma1 sweeps after a one-point sweep
    on the semicircle, the material and N = 20, each with whether it
    builds its tables: not under another load on the same curve, material
    and N, which the first sweep left cached; afresh on another curve,
    material or N, where it builds what the one-point sweep did."""
    grid = [0.5 * 4.0 ** (i / 7) for i in range(8)]
    return [((semicircle, material, load, grid, 20), False),
            ((arc, material, load, grid, 20), True),
            ((semicircle, Material(mu=30.0, kappa=2.0), load, grid, 20), True),
            ((semicircle, material, load, grid, 16), True)]


class TestSweepTables:
    """Sweeps tabulate once and apply per point; the rows must not move."""

    def test_gamma_sweep_matches_per_point(self, semicircle, material,
                                           load_h):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        _assert_matches_per_point(
            sweep_gamma(semicircle, material, load_h, grid, N=20),
            [_per_point_row(semicircle, material, load_h, g, 20)
             for g in grid])

    def test_curvature_sweep_matches_per_point(self, material, load_h):
        grid = [0.25, 0.5, 1.0]
        _assert_matches_per_point(
            sweep_curvature(material, load_h, 1.0, grid, N=20),
            [_per_point_row(make_circular_arc(k0), material, load_h, 1.0, 20)
             for k0 in grid])

    @pytest.mark.parametrize("name", _CURVES)
    def test_reported_A_is_the_closed_form(self, material, name):
        # every row of a gamma1 sweep on the curve, and of a curvature
        # sweep at its kappa0, reports as A1 and A2 the tip_log_coefficients
        # of the per-point density: du1/ds and tau_n at s = 0
        curve, grid = _CURVES[name], [0.0, 0.5, 1.0]
        reported = [(curve, g, row) for g, row in zip(
            grid, sweep_gamma(curve, material, LOAD, grid, N=20))]
        if curve.constant_curvature > 0.0:
            k0 = curve.constant_curvature
            reported += [(make_circular_arc(k0), g, sweep_curvature(
                material, LOAD, g, [k0], N=20)[0]) for g in grid]
        for crack, gamma1, row in reported:
            co = solve_problem(crack, material, LOAD, gamma1, N=20)
            closed = tip_log_coefficients(crack, material, co)
            assert row.error == ""
            for got, want in ((row.A1, closed["du1_ds"]),
                              (row.A2, closed["tau_n"])):
                assert got == pytest.approx(want, rel=1e-12,
                                            abs=_zero_to_rounding(co))

    def test_kernel_blocks_do_not_grow_with_gamma_points(
            self, semicircle, arc_half, material, load_h, load_v,
            monkeypatch, cold_tables):
        # neither the node side of the kernel tables nor their point sides
        calls = []

        def counted(name):
            original = getattr(KernelSet, name)

            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return original(self, *args, **kwargs)
            return wrapper

        for name in ("node_tables", "raw_tables"):
            monkeypatch.setattr(KernelSet, name, counted(name))
        sweep_gamma(semicircle, material, load_h, [1.0], N=20)
        one = sorted(calls)
        assert {"node_tables", "raw_tables"} <= set(one)
        for args, want in _eight_point_sweeps(semicircle, arc_half, material,
                                              load_v):
            calls.clear()
            sweep_gamma(*args)
            assert sorted(calls) == (one if want else [])

    @pytest.mark.parametrize("study", ["convergence", "sweep"])
    def test_one_node_side_per_run(self, semicircle, material, load_h,
                                   monkeypatch, study, cold_tables):
        # a five-N study and an eight-point sweep each tabulate the node
        # side of the operator once
        calls = []
        init = _NodeSide.__init__

        def counted(self, *args, **kwargs):
            calls.append(args[2])
            init(self, *args, **kwargs)

        monkeypatch.setattr(_NodeSide, "__init__", counted)
        if study == "convergence":
            convergence_study(semicircle, material, load_h, 1.0,
                              [8, 10, 12, 14, 16])
            assert calls == [16]
        else:
            sweep_gamma(semicircle, material, load_h,
                        [0.5 * 4.0 ** (i / 7) for i in range(8)], N=12)
            assert calls == [12]

    def test_one_cache_frees_every_table(self, semicircle, material, load_h,
                                         cold_tables):
        # a sweep's tables, their collocation tables, field rows and node
        # side live in the node side cache alone: emptying it frees them
        # (the node side and the tables it keeps form cycles, which gc
        # frees)
        sweep_gamma(semicircle, material, load_h, [0.5, 1.0], N=12)
        tables = postprocess._sweep_tables(semicircle, material, 12,
                                           postprocess._TRACTION_POINTS, 2)
        # a sweep keeps the rows of sigma_n and tau_n alone
        assert tables.face_rows.shape == (2, 2, postprocess._TRACTION_POINTS)
        assert tables.face_rows.rows.shape[:2] == (2, 2)
        rows = (tables.face_rows,)
        arrays = [*tables.tip_log_rows, *(getattr(r, name) for r in rows
                                          for name in ("rows", "far"))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
        refs = [weakref.ref(x) for x in (
            tables, tables.collocation, *rows, *arrays,
            tables.collocation.node_side, tables.grid, tables.grid.table)]
        del tables, rows, arrays, array
        gc.collect()
        assert all(ref() is not None for ref in refs)
        _node_side.cache_clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_warm_sweep_fits_and_builds_nothing(self, semicircle, material,
                                                load_h, load_v, monkeypatch,
                                                cold_tables):
        # a sweep on tables a sweep left, under another load and gamma1,
        # fits no line, finds q and the tip coefficients through the rows
        # and builds no table
        sweep_gamma(semicircle, material, load_h, [1.0], N=20)
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in (
                (np, "polyfit"), (np.linalg, "lstsq"),
                (densities, "q_coefficients"), (_NodeSide, "__init__"),
                (_NodeSide, "rows"), (postprocess, "_face_rows"),
                (postprocess._SweepTables, "__init__"),
                (solver._CollocationTables, "__init__"),
                (postprocess, "_jump_table")):
            counted(owner, name)
        rows = sweep_gamma(semicircle, material, load_v,
                           [0.5 * 4.0 ** (i / 7) for i in range(8)], N=20)
        assert not any(row.error for row in rows)
        assert calls == []
        # the counters see what they count
        postprocess._fit_lines(np.arange(1.0, 9.0), np.ones((8, 1)))
        sweep_gamma(semicircle, material, load_v, [1.0], N=16)
        assert {"polyfit", "__init__", "rows", "_face_rows",
                "_jump_table"} <= set(calls)

    def test_one_cache_frees_the_convergence_grid(self, semicircle, material,
                                                  load_h, cold_tables):
        # a study's grid, its basis table and text live in the node side
        # of its largest N alone, which keeps them for the next study
        rows = convergence_study(semicircle, material, load_h, 1.0, [8, 10])
        grid = rows[0].grid
        side = _node_side(semicircle, material, 10, MONOMIALS)
        assert grid is side.derived(postprocess._OutputGrid, 401)
        assert convergence_study(semicircle, material, load_h, 0.5,
                                 [8, 10])[1].grid is grid
        refs = [weakref.ref(x) for x in (grid, grid.s, grid.table, side)]
        del rows, grid, side
        gc.collect()
        assert all(ref() is not None for ref in refs)
        _node_side.cache_clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_factorizations_do_not_grow_with_gamma_points(
            self, semicircle, material, load_h, monkeypatch, cold_tables):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sweep_gamma(semicircle, material, load_h, [1.0], N=20)
        one = len(calls)
        calls.clear()
        sweep_gamma(semicircle, material, load_h,
                    [0.5 * 4.0 ** (i / 7) for i in range(8)], N=20)
        assert one > 0 and len(calls) == one

    def test_basis_columns_do_not_grow_with_gamma_points(
            self, semicircle, arc_half, material, load_h, load_v,
            monkeypatch, cold_tables):
        # operator products over the basis columns: rows() is the one read
        # of the operator, for the collocation blocks and the field
        # evaluator alike
        calls = []
        rows = _NodeSide.rows

        def counted_rows(self, *args, **kwargs):
            calls.append(1)
            return rows(self, *args, **kwargs)

        monkeypatch.setattr(_NodeSide, "rows", counted_rows)
        sweep_gamma(semicircle, material, load_h, [1.0], N=20)
        one = len(calls)
        assert one > 0
        for args, want in _eight_point_sweeps(semicircle, arc_half, material,
                                              load_v):
            calls.clear()
            sweep_gamma(*args)
            assert len(calls) == (one if want else 0)


class TestSweepStacks:
    """A gamma1 sweep solves its points as stacks; errors stay per point."""

    GRID = [0.5, 1.0, 2.0, 4.0]

    def test_zero_and_positive_points_match_per_point(self, semicircle,
                                                      material, load_h):
        # gamma1 = 0 points have 2 constraint rows, not 6: their own stack
        grid = [0.0, 0.5, 1.0, 0.0, 2.0]
        _assert_matches_per_point(
            sweep_gamma(semicircle, material, load_h, grid, N=20),
            [_per_point_row(semicircle, material, load_h, g, 20)
             for g in grid])

    def test_invalid_gamma1_never_enters_a_stack(self, semicircle, material,
                                                 load_h):
        grid = [0.5, float("inf"), float("nan"), -1.0, 1.0]
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        clean = sweep_gamma(semicircle, material, load_h, [0.5, 1.0], N=12)
        for row in rows[1:4]:
            assert row.error == ("gamma1 must be finite and nonnegative, "
                                 f"got {row.gamma1}")
            assert np.isnan(row.A1)
        assert [rows[0], rows[4]] == clean

    def test_non_finite_point_fails_alone(self, semicircle, material,
                                          load_h):
        # the rows of gamma1 = 1e300 overflow to inf: the assembly's finite
        # check refuses that point alone, with no RuntimeWarning first
        grid = [0.5, 1e300, 1.0]
        clean = sweep_gamma(semicircle, material, load_h, grid[::2], N=12)
        bad = grid[1]
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        with pytest.raises(AssemblyError) as per_point:
            solve_problem(semicircle, material, load_h, bad, N=12)
        assert str(per_point.value) == ("non-finite entries in the "
                                        "collocation system")
        assert rows[1].error == str(per_point.value)
        assert np.isnan(rows[1].A1)
        # the other rows are the clean sweep's
        assert [r.gamma1 for r in rows] == grid
        assert rows[::2] == clean
        got = _sweep_columns(rows[:1] + rows[2:])
        want = _sweep_columns(clean)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.max(np.abs(want), axis=0))

    def test_factorization_error_fails_its_stack(self, semicircle, material,
                                                 load_h, monkeypatch):
        # the gamma1 = 0 point in the middle is a stack of its own, the one
        # whose constraint block has one row per parity half.  Each patched
        # sweep starts on an empty cache, so its operators are factored
        grid = [0.5, 0.0, 1.0, 2.0]
        clean = sweep_gamma(semicircle, material, load_h, grid, N=12)
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if a.shape[-2] == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        _node_side.cache_clear()
        monkeypatch.setattr(np.linalg, "svd", failing)
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        assert rows[1].error == "SVD did not converge"
        assert np.isnan(rows[1].A1)
        assert rows[:1] + rows[2:] == clean[:1] + clean[2:]

        def always(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        _node_side.cache_clear()
        monkeypatch.setattr(np.linalg, "svd", always)
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        assert all(r.error == "SVD did not converge" for r in rows)
        # no failed factorization was kept
        monkeypatch.undo()
        assert sweep_gamma(semicircle, material, load_h, grid, N=12) == clean


class TestConvergenceStudy:
    def test_ordering_and_rows(self, material, semicircle, load_h):
        rows = convergence_study(semicircle, material, load_h, 1.0,
                                 [8, 12, 16])
        assert [r.N for r in rows] == [8, 12, 16]
        assert rows[-1].sup_diff == 0.0
        assert rows[0].sup_diff > rows[-1].sup_diff

    def test_repeated_entries_rejected(self, material, semicircle, load_h):
        # strictly ascending, as the message and the CLI's grid check say
        for n_list in ([10, 10], [8, 8, 12]):
            with pytest.raises(ValueError, match="strictly ascending"):
                convergence_study(semicircle, material, load_h, 1.0, n_list)

    def test_validation(self, material, semicircle, load_h):
        with pytest.raises(ValueError):
            convergence_study(semicircle, material, load_h, 1.0, [16])
        with pytest.raises(ValueError):
            convergence_study(semicircle, material, load_h, 1.0, [16, 12])

    @pytest.mark.parametrize("n_list", [[16, 20.0], [16, 20.5], [16, "20"]])
    def test_non_integer_N_is_named(self, material, semicircle, load_h,
                                    n_list, cold_tables):
        # every N is checked before the node side of the largest is built
        # or the list's order compared: numpy's TypeError named no value
        # (cold, since 20.0 is the cache key 20)
        with pytest.raises(ValueError, match="must be an integer of at least "
                           f"4, got {re.escape(repr(n_list[-1]))}"):
            convergence_study(semicircle, material, load_h, 1.0, n_list)

    def test_residual_is_not_normalized(self, material, semicircle, load_h,
                                        monkeypatch):
        # no row reads the single-valuedness residual, so no solve of the
        # study computes sup|g'| for it; reading it afterwards does
        calls = []
        sup = solver._sup_gprime
        monkeypatch.setattr(solver, "_sup_gprime",
                            lambda *a: calls.append(a) or sup(*a))
        rows = convergence_study(semicircle, material, load_h, 1.0,
                                 [8, 12, 16])
        assert calls == []
        assert rows[0].coeffs.single_valued_residual \
            == solver.single_valued_residual(rows[0].coeffs, semicircle)
        assert len(calls) == 2

    def test_straight_crack_decreasing(self, material, straight2, load_v):
        rows = convergence_study(straight2, material, load_v, 1.0, [8, 16, 24])
        assert rows[0].sup_diff >= rows[1].sup_diff
        assert np.isfinite(rows[0].sup_diff)


def _cell_text(v):
    """The per-cell CSV rule the columnar writer keeps, as the reference."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            return '"' + v.replace('"', '""') + '"'
        return v
    return repr(float(v))


def _csv_text(header, rows):
    return "".join(",".join(map(_cell_text, row)) + "\n"
                   for row in [header, *rows])


class TestCsvWriters:
    def test_write_csv_keeps_the_cell_rule(self, tmp_path):
        floats = [0.1, -0.0, 0.0, float("nan"), float("inf"), -float("inf"),
                  5e-324, 1.7976931348623157e308, np.float64(1.0 / 3.0),
                  np.float64(-2.5e-17)]
        singles = np.linspace(-1.0, 1.0, 10, dtype=np.float32) / 3
        ints = [0, -1, 7, 2**62, np.int64(-2**62), np.int64(3), np.int32(-5),
                np.uint8(255), 10, 11]
        strings = ["", "plus", "minus", "nan", "1.0", "ERROR: no fit",
                   "x y", "-", "0", ""]
        texts = ["a, b", 'say "hi"', "two\nlines", ",", '"', "plain", "",
                 "x,y,z", 'q"', "1e5"]
        header = ["f", "f32", "i", "str", "text"]
        want = _csv_text(header, zip(floats, singles, ints, strings, texts))
        path = tmp_path / "cells.csv"
        write_csv(path, header, [floats, singles, ints, strings, texts])
        assert path.read_text() == want
        write_csv(path, header, [np.array(floats), singles, np.array(ints),
                                 np.array(strings), np.array(texts)])
        assert path.read_text() == want
        # a column formatted once is a list of str and writes as before
        write_csv(path, header, [_cells(floats), _cells(singles),
                                 _cells(ints), strings, texts])
        assert path.read_text() == want
        # and so is a tuple of str, text kept formatted, quoted by the
        # same rule (texts holds commas and quotes)
        write_csv(path, header, [tuple(_cells(floats)),
                                 tuple(_cells(singles)), tuple(_cells(ints)),
                                 tuple(strings), tuple(texts)])
        assert path.read_text() == want
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [[1.0], [1.0, 2.0]])
        assert path.read_text() == want
        write_csv(path, ["a", "b"], [[], []])
        assert path.read_text() == "a,b\n"

    def test_g_prime_csv(self, tmp_path):
        path = tmp_path / "g_prime.csv"
        write_g_prime_csv(path, np.array([0.0, 0.5]),
                          {"re_gprime": np.array([1.0, 2.0]),
                           "im_gprime": np.array([3.0, 4.0])})
        lines = path.read_text().splitlines()
        assert lines[0] == "s,re_gprime,im_gprime"
        assert lines[1] == "0.0,1.0,3.0"

    def test_face_fields_csv(self, tmp_path, material, semicircle, load_h):
        rng = np.random.default_rng(5)
        coeffs = DensityCoefficients(rng.normal(size=4), rng.normal(size=4),
                                     semicircle.length, 1.0)
        grid = [0.5, 1.0, 2.5]
        path = tmp_path / "face_fields.csv"
        write_face_fields_csv(path, grid, *_face_values(
            semicircle, material, load_h, coeffs, grid))
        prof = face_field_profile(semicircle, material, load_h, coeffs, grid)
        header = ["s", "side", "sigma_n", "tau_n", "du1_ds", "du2_ds"]
        assert path.read_text() == _csv_text(
            header, [(f.s, f.side, f.sigma_n, f.tau_n, f.du1_ds, f.du2_ds)
                     for f in prof])

    def test_opening_csv(self, tmp_path, material, semicircle):
        coeffs = DensityCoefficients(np.zeros(4), np.zeros(4),
                                     semicircle.length, 1.0)
        prof = opening_profile(coeffs, semicircle, material, n_samples=5)
        path = tmp_path / "opening.csv"
        write_opening_csv(path, prof)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,du1_jump,du2_jump,delta"
        assert len(lines) == 6

    def test_sweep_and_convergence_csv(self, tmp_path):
        rows = [GammaSweepRow(gamma1=0.5, A1=np.float64(1.0), A2=2.0,
                              max_opening=0.1, min_opening=-0.0,
                              max_traction=3.0),
                GammaSweepRow(gamma1=2.0, error="condition estimate inf")]
        path = tmp_path / "sweep_gamma.csv"
        write_sweep_gamma_csv(path, rows)
        assert path.read_text() == (
            "gamma1,A1,A2,max_opening,min_opening,max_traction,error\n"
            "0.5,1.0,2.0,0.1,-0.0,3.0,\n"
            "2.0,nan,nan,nan,nan,nan,condition estimate inf\n")
        crows = [ConvergenceRow(N=16, sup_diff=0.5),
                 ConvergenceRow(N=np.int64(30), sup_diff=0.0)]
        cpath = tmp_path / "convergence.csv"
        write_convergence_csv(cpath, crows)
        assert cpath.read_text() == "N,sup_diff_vs_largest\n16,0.5\n30,0.0\n"


    @pytest.mark.parametrize("row_type, key, write", [
        (GammaSweepRow, "gamma1", write_sweep_gamma_csv),
        (CurvatureSweepRow, "kappa0", write_sweep_curvature_csv)])
    def test_sweep_header_is_key_then_report(self, tmp_path, row_type, key,
                                             write):
        # the report's fields are declared once, and a sweep row adds its
        # key; the rows construct and compare as before
        report = [f.name for f in fields(SolveReport)]
        assert report == ["A1", "A2", "max_opening", "min_opening",
                          "max_traction", "error"]
        row = row_type(**{key: 0.5}, A1=1.0)
        assert row == row_type(0.5, A1=1.0) != row_type(**{key: 0.5})
        assert isinstance(row, SolveReport) and np.isnan(row.A2)
        path = tmp_path / "sweep.csv"
        write(path, [row])
        header, line = path.read_text().splitlines()
        assert header.split(",") == [key, *report]
        assert line == "0.5,1.0,nan,nan,nan,nan,"

    @pytest.mark.parametrize("sweep", ["gamma", "curvature"])
    def test_error_rows_read_back_whole(self, tmp_path, semicircle, material,
                                        load_h, sweep):
        # error messages with commas are quoted, so every row keeps the
        # header's fields
        if sweep == "gamma":
            rows = sweep_gamma(semicircle, material, load_h,
                               [1.0, float("nan")], N=12)
            write = write_sweep_gamma_csv
        else:
            rows = sweep_curvature(material, load_h, 1.0, [0.5, 1.5], N=12)
            write = write_sweep_curvature_csv
        assert not rows[0].error and "," in rows[1].error
        path = tmp_path / "sweep.csv"
        write(path, rows)
        with open(path, newline="") as fh:
            header, *table = list(csv.reader(fh))
        assert len(header) == 7
        assert [len(row) for row in table] == [7, 7]
        assert [row[-1] for row in table] == [row.error for row in rows]
        assert float(table[0][1]) == rows[0].A1

    def test_quoted_strings_read_back(self, tmp_path):
        strings = ['a, b', 'say "hi"', "two\nlines", "plain", ""]
        path = tmp_path / "strings.csv"
        write_csv(path, ["text", "n"], [strings, list(range(5))])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["text", "n"]] + [[t, str(n)]
                                          for n, t in enumerate(strings)]
        assert path.read_text().splitlines()[1:3] == ['"a, b",0',
                                                      '"say ""hi""",1']


def test_max_face_traction_positive(solved_semicircle, semicircle, material,
                                    load_h):
    val = max_face_traction(semicircle, material, load_h, solved_semicircle)
    assert val > 0.0 and np.isfinite(val)


# every public entry point that pairs a density with a curve, called as
# (curve, material, load, density)
_PAIRINGS = {
    "opening_profile": lambda c, m, ld, d: opening_profile(d, c, m),
    "max_face_traction": max_face_traction,
    "tip_log_coefficients": lambda c, m, ld, d: tip_log_coefficients(c, m, d),
    "fit_tip_coefficients": fit_tip_coefficients,
    "collect_tip_samples": lambda c, m, ld, d:
        collect_tip_samples(c, m, ld, d, "tau_n"),
    "face_fields": lambda c, m, ld, d: face_fields(c, m, ld, d, "plus", 0.3),
    "face_field_profile": lambda c, m, ld, d:
        face_field_profile(c, m, ld, d, [0.3, 0.6]),
    "traction_jump": lambda c, m, ld, d: traction_jump(c, m, d.gamma1, d, 0.3),
    "traction_jump_parts": lambda c, m, ld, d:
        traction_jump_parts(c, m, d.gamma1, d, 0.3),
    "tip_condition_residuals": lambda c, m, ld, d:
        tip_condition_residuals(d, c, m, d.gamma1),
    "single_valued_residual": lambda c, m, ld, d: single_valued_residual(d, c),
    "single_valued_integral": lambda c, m, ld, d: single_valued_integral(d, c),
    "solve": lambda c, m, ld, d: solve(solver.assemble(
        c, m, ld, d.gamma1, Discretization(d.degree, d.length))),
}


class TestArgumentChecks:
    """Bad counts and points raise a ValueError that names the argument."""

    @pytest.mark.parametrize("entry", _PAIRINGS)
    def test_density_on_a_curve_of_another_length(self, semicircle, material,
                                                  load_h, entry):
        # a semicircle density on the kappa0 = 0.5 arc is refused, naming
        # both lengths; on its own curve it is not
        density = solve_problem(semicircle, material, load_h, 1.0, N=12)
        arc = make_circular_arc(0.5)
        with pytest.raises(ValueError) as info:
            _PAIRINGS[entry](arc, material, load_h, density)
        assert repr(semicircle.length) in str(info.value)
        assert repr(arc.length) in str(info.value)
        _PAIRINGS[entry](semicircle, material, load_h, density)

    @pytest.mark.parametrize("entry", [e for e in _PAIRINGS if e != "solve"])
    def test_density_on_another_curve_of_its_length(self, semicircle,
                                                    material, load_h, entry):
        # the README density on the kappa0 = 0.5 arc of length pi is
        # refused, naming both curves.  Unchecked, max_face_traction read
        # 33.817 there against 35.463 on the semicircle, and the
        # max_opening of opening_profile 0.031326 against 0.029872
        density = solve_problem(semicircle, material, load_h, 1.0, N=20)
        assert density.curve == semicircle
        arc = CrackCurve(length=np.pi, shape="arc", constant_curvature=0.5)
        with pytest.raises(ValueError) as info:
            _PAIRINGS[entry](arc, material, load_h, density)
        assert repr(semicircle) in str(info.value)
        assert repr(arc) in str(info.value)
        # a density built from its coefficients has no curve, and only its
        # length is checked
        bare = DensityCoefficients(density.g1, density.g2, density.length,
                                   density.gamma1)
        _PAIRINGS[entry](arc, material, load_h, bare)

    def test_density_curve_of_another_length(self, semicircle):
        with pytest.raises(ValueError, match="length"):
            DensityCoefficients(np.ones(3), np.ones(3), 2.0, 1.0,
                                curve=semicircle)

    @pytest.mark.parametrize("name", ["g1", "g2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_refuses_non_finite_coefficients(self, name, bad):
        # accepted, such a density gave nan from max_face_traction,
        # opening_profile and tip_log_coefficients without an error
        parts = {"g1": np.ones(3), "g2": np.ones(3)}
        parts[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} must hold finite"):
            DensityCoefficients(parts["g1"], parts["g2"], 2.0, 1.0)

    def test_density_coefficients_stay_as_checked(self, semicircle, material,
                                                  load_h):
        # writable, g1[3] = nan after the solve passed every later check
        # and max_face_traction returned nan
        coeffs = solve_problem(semicircle, material, load_h, 1.0, N=12)
        for part in (coeffs.g1, coeffs.g2):
            with pytest.raises(ValueError, match="read-only"):
                part[3] = np.nan
        assert np.isfinite(max_face_traction(semicircle, material, load_h,
                                             coeffs))
        # the density holds views: the caller's arrays stay writeable
        g1, g2 = np.ones(3), np.zeros(3)
        DensityCoefficients(g1, g2, 2.0, 1.0)
        g1[1] = g2[1] = 2.0
        assert g1.flags.writeable and g2.flags.writeable

    def test_max_face_traction_needs_a_point(self, solved_semicircle,
                                             semicircle, material, load_h):
        # True is an Integral equal to 1
        for n in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="n_points"):
                max_face_traction(semicircle, material, load_h,
                                  solved_semicircle, n_points=n)
        assert max_face_traction(semicircle, material, load_h,
                                 solved_semicircle, n_points=1) > 0.0

    def test_opening_profile_needs_two_samples(self, solved_semicircle,
                                               semicircle, material):
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_samples"):
                opening_profile(solved_semicircle, semicircle, material,
                                n_samples=n)
        prof = opening_profile(solved_semicircle, semicircle, material,
                               n_samples=2)
        assert list(prof.s) == [0.0, semicircle.length]

    def test_tip_sample_counts(self, solved_semicircle, semicircle,
                               material, load_h):
        # at least 8 samples for the fits, 1 for the samples
        args = (semicircle, material, load_h, solved_semicircle)
        for n in (0, 7, 2.5, -1):
            with pytest.raises(ValueError, match="n must be an integer of "
                                                 "at least 8"):
                fit_tip_coefficients(*args, n=n)
        for n in (0, 2.5, -1, True):
            with pytest.raises(ValueError, match="n must be an integer of "
                                                 "at least 1"):
                collect_tip_samples(*args, "tau_n", n=n)
        assert fit_tip_coefficients(*args, n=8)["tau_n"].window \
            == default_fit_window(semicircle.length)
        d, v = collect_tip_samples(*args, "tau_n", n=1)
        assert d.shape == v.shape == (1,)

    @pytest.mark.parametrize("call", [
        lambda args, side: face_fields(*args, side, 0.3),
        lambda args, side: face_field_profile(*args, [0.3, 0.6],
                                              sides=("plus", side)),
        lambda args, side: collect_tip_samples(*args, "tau_n", side=side),
        lambda args, side: fit_tip_coefficients(*args, side=side)],
        ids=["face_fields", "face_field_profile", "collect_tip_samples",
             "fit_tip_coefficients"])
    def test_unknown_side_is_named(self, solved_semicircle, semicircle,
                                   material, load_h, call):
        args = (semicircle, material, load_h, solved_semicircle)
        with pytest.raises(ValueError, match="side must be 'plus' or "
                                             "'minus', got 'up'"):
            call(args, "up")

    @pytest.mark.parametrize("N", [3, 2.5, "20"])
    def test_sweeps_put_the_N_error_on_every_row(self, semicircle, material,
                                                 load_h, N):
        # checked before any table is built: a non-integer N once escaped
        # as numpy's TypeError from the basis table of the node side
        rows = (sweep_gamma(semicircle, material, load_h, [0.5, 1.0], N=N)
                + sweep_curvature(material, load_h, 1.0, [0.5, 1.0], N=N))
        assert [row.error for row in rows] == [
            "polynomial degree N must be an integer of at least 4, "
            f"got {N!r}"] * 4

    def test_convergence_study_needs_two_grid_points(self, semicircle,
                                                     material, load_h):
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_grid"):
                convergence_study(semicircle, material, load_h, 1.0, [8, 10],
                                  n_grid=n)

    @pytest.mark.parametrize("s0", [float("nan"), float("inf"), -0.5, 0.0,
                                    np.pi, 4.0])
    def test_face_field_points_inside_the_arc(self, solved_semicircle,
                                              semicircle, material, load_h,
                                              s0):
        # the point is named, not the kernel series it would break
        with pytest.raises(ValueError, match="s0"):
            face_field_profile(semicircle, material, load_h,
                               solved_semicircle, [1.0, s0])

    @pytest.mark.parametrize("window", [(0.1, 0.01), (0.05, 0.05),
                                        (0.0, 0.1), (-0.1, 0.1),
                                        (0.1, 4.0), (0.1, float("nan"))])
    def test_tip_window_inside_the_arc_and_ascending(
            self, solved_semicircle, semicircle, material, load_h, window):
        with pytest.raises(ValueError, match="window"):
            collect_tip_samples(semicircle, material, load_h,
                                solved_semicircle, "sigma_n", window=window)
