import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (DensityCoefficients, FarFieldLoad, KernelSet, Material,
                        collect_tip_samples, convergence_study,
                        default_fit_window, fit_log_coefficient,
                        fit_tip_coefficients, make_circular_arc,
                        make_semicircle, make_straight, max_face_traction,
                        opening_profile, parity_residuals, solve_problem,
                        sweep_curvature, sweep_gamma, tip_log_coefficients)
from curvecrack import solver
from curvecrack.fields import (_FaceOperator, _FieldEvaluator,
                               face_field_profile)
from curvecrack.postprocess import (ConvergenceRow, GammaSweepRow,
                                    extremum_coincidence_report,
                                    write_convergence_csv, write_csv,
                                    write_face_fields_csv, write_g_prime_csv,
                                    write_opening_csv, write_sweep_gamma_csv)
from curvecrack.solver import AssemblyError


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
        fits = fit_tip_coefficients(semicircle, material, load_h, co)
        assert rows[0].error == ""
        assert rows[0].A1 == pytest.approx(fits["du1_ds"].A, rel=1e-9)
        assert rows[0].A2 == pytest.approx(fits["tau_n"].A, rel=1e-9)

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


def _per_point_row(curve, material, load, gamma1, N):
    """A sweep row's columns from the public per-point functions."""
    co = solve_problem(curve, material, load, gamma1, N=N)
    fits = fit_tip_coefficients(curve, material, load, co)
    prof = opening_profile(co, curve, material)
    return (fits["du1_ds"].A, fits["tau_n"].A, prof.max_opening,
            prof.min_opening, max_face_traction(curve, material, load, co))


def _sweep_columns(rows):
    assert all(r.error == "" for r in rows)
    return np.array([(r.A1, r.A2, r.max_opening, r.min_opening,
                      r.max_traction) for r in rows])


class TestSweepTables:
    """Sweeps tabulate once and apply per point; the rows must not move."""

    def test_gamma_sweep_matches_per_point(self, semicircle, material,
                                           load_h):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        got = _sweep_columns(sweep_gamma(semicircle, material, load_h, grid,
                                         N=20))
        want = np.array([_per_point_row(semicircle, material, load_h, g, 20)
                         for g in grid])
        assert np.all(np.abs(got - want)
                      <= 1e-9 * np.max(np.abs(want), axis=0))

    def test_curvature_sweep_matches_per_point(self, material, load_h):
        grid = [0.25, 0.5, 1.0]
        got = _sweep_columns(sweep_curvature(material, load_h, 1.0, grid,
                                             N=20))
        want = np.array([_per_point_row(make_circular_arc(k0), material,
                                        load_h, 1.0, 20) for k0 in grid])
        assert np.all(np.abs(got - want)
                      <= 1e-9 * np.max(np.abs(want), axis=0))

    def test_kernel_blocks_do_not_grow_with_gamma_points(
            self, semicircle, material, load_h, monkeypatch):
        calls = []
        raw_tables = KernelSet.raw_tables

        def counted(self, *args, **kwargs):
            calls.append(1)
            return raw_tables(self, *args, **kwargs)

        monkeypatch.setattr(KernelSet, "raw_tables", counted)
        sweep_gamma(semicircle, material, load_h, [1.0], N=20)
        one = len(calls)
        calls.clear()
        sweep_gamma(semicircle, material, load_h,
                    [0.5 * 4.0 ** (i / 7) for i in range(8)], N=20)
        assert one > 0 and len(calls) == one

    def test_factorizations_do_not_grow_with_gamma_points(
            self, semicircle, material, load_h, monkeypatch):
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
            self, semicircle, material, load_h, monkeypatch):
        # operator products over the 2N+2 basis columns: apply() on that
        # many columns, or the rows the collocation blocks are built from
        N = 20
        calls = []
        apply, rows = _FaceOperator.apply, _FaceOperator.rows

        def counted_apply(self, gp_poly, q_poly):
            if gp_poly.shape[0] == 2 * N + 2:
                calls.append(1)
            return apply(self, gp_poly, q_poly)

        def counted_rows(self, combine):
            calls.append(1)
            return rows(self, combine)

        monkeypatch.setattr(_FaceOperator, "apply", counted_apply)
        monkeypatch.setattr(_FaceOperator, "rows", counted_rows)
        sweep_gamma(semicircle, material, load_h, [1.0], N=N)
        one = len(calls)
        calls.clear()
        sweep_gamma(semicircle, material, load_h,
                    [0.5 * 4.0 ** (i / 7) for i in range(8)], N=N)
        assert one > 0 and len(calls) == one


class TestSweepStacks:
    """A gamma1 sweep solves its points as stacks; errors stay per point."""

    GRID = [0.5, 1.0, 2.0, 4.0]

    def test_zero_and_positive_points_match_per_point(self, semicircle,
                                                      material, load_h):
        # gamma1 = 0 points have 2 constraint rows, not 6: their own stack
        grid = [0.0, 0.5, 1.0, 0.0, 2.0]
        got = _sweep_columns(sweep_gamma(semicircle, material, load_h, grid,
                                         N=20))
        want = np.array([_per_point_row(semicircle, material, load_h, g, 20)
                         for g in grid])
        assert np.all(np.abs(got - want)
                      <= 1e-9 * np.max(np.abs(want), axis=0))

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
                                          load_h, monkeypatch):
        clean = sweep_gamma(semicircle, material, load_h, self.GRID, N=12)
        bad = self.GRID[1]
        forcing = solver.boundary_forcing

        def nan_at_bad(curve, material, load, gamma1, s0):
            f = forcing(curve, material, load, gamma1, s0)
            return np.where(np.asarray(gamma1) == bad, np.nan, f)

        monkeypatch.setattr(solver, "boundary_forcing", nan_at_bad)
        rows = sweep_gamma(semicircle, material, load_h, self.GRID, N=12)
        with pytest.raises(AssemblyError) as per_point:
            solve_problem(semicircle, material, load_h, bad, N=12)
        assert rows[1].error == str(per_point.value)
        assert np.isnan(rows[1].A1)
        # the other rows are the clean sweep's, up to the rounding of BLAS
        # products over 3 density columns instead of 4
        assert [r.gamma1 for r in rows] == self.GRID
        got = _sweep_columns(rows[:1] + rows[2:])
        want = _sweep_columns(clean[:1] + clean[2:])
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.max(np.abs(want), axis=0))

    def test_factorization_error_fails_its_stack(self, semicircle, material,
                                                 load_h, monkeypatch):
        # the gamma1 = 0 point in the middle is a stack of its own, the one
        # whose constraint block has 2 rows
        grid = [0.5, 0.0, 1.0, 2.0]
        clean = sweep_gamma(semicircle, material, load_h, grid, N=12)
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if a.shape[-2] == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        assert rows[1].error == "SVD did not converge"
        assert np.isnan(rows[1].A1)
        assert rows[:1] + rows[2:] == clean[:1] + clean[2:]

        def always(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", always)
        rows = sweep_gamma(semicircle, material, load_h, grid, N=12)
        assert all(r.error == "SVD did not converge" for r in rows)


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
        header = ["f", "f32", "i", "str"]
        path = tmp_path / "cells.csv"
        write_csv(path, header, [floats, singles, ints, strings])
        assert path.read_text() == _csv_text(
            header, zip(floats, singles, ints, strings))
        write_csv(path, header, [np.array(floats), singles, np.array(ints),
                                 np.array(strings)])
        assert path.read_text() == _csv_text(
            header, zip(floats, singles, ints, strings))
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [[1.0], [1.0, 2.0]])

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
        fields = _FieldEvaluator(semicircle, material, load_h, grid, 3)
        path = tmp_path / "face_fields.csv"
        write_face_fields_csv(path, grid, *fields.face_values(coeffs))
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


def test_max_face_traction_positive(solved_semicircle, semicircle, material,
                                    load_h):
    val = max_face_traction(semicircle, material, load_h, solved_semicircle)
    assert val > 0.0 and np.isfinite(val)
