import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (AssemblyError, CrackCurve, DensityCoefficients,
                        Discretization, FarFieldLoad, KernelSet, LinearSystem,
                        Material, SolveError, SurfaceParams, assemble,
                        boundary_forcing, face_fields, make_circular_arc,
                        make_semicircle, make_straight, pv_cauchy_sum,
                        pv_polynomial, single_valued_integral,
                        single_valued_residual, solve, solve_problem,
                        tip_condition_residuals, traction_jump,
                        traction_jump_parts)
from curvecrack import cli, densities, fields, quadrature, solver
from curvecrack import postprocess as post
from curvecrack.densities import (MONOMIALS, cauchy_densities,
                                  poly_derivative, poly_eval, pv_monomials,
                                  q_coefficients, q_polynomial)
from curvecrack.fields import _NodeSide
from curvecrack.quadrature import gauss_legendre
from oracle import FaceOperator, times_derivative


class TestQuadratureRule:
    def test_discretization_layout(self):
        d = Discretization(10, 2.0)
        assert len(d.nodes) == 11
        assert d.nodes[0] == 0.0 and d.nodes[-1] == 2.0
        assert d.weight == pytest.approx(2.0 / 11.0)
        assert len(d.collocation_points) == 10
        # collocation midpoints interlace the nodes
        assert np.all(np.searchsorted(d.nodes, d.collocation_points) >= 1)

    def test_discretization_validation(self, material, semicircle, load_h):
        with pytest.raises(ValueError):
            Discretization(3, 1.0)
        with pytest.raises(ValueError):
            Discretization(10, -1.0)
        for bad_n in (20.5, float("nan")):
            with pytest.raises(ValueError):
                Discretization(bad_n, 1.0)
        with pytest.raises(ValueError):
            solve_problem(semicircle, material, load_h, 1.0, N=20.5)

    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_pv_constant_is_exact_zero(self, n):
        d = Discretization(n, 1.0)
        val = pv_cauchy_sum(np.ones(n + 1), d.nodes, d.weight, 0.5,
                            on_node="drop")
        assert abs(val) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_pv_linear_error_is_reciprocal(self, n):
        # closed form: int_0^1 s/(s-1/2) ds = 1; the rule returns n/(n+1)
        d = Discretization(n, 1.0)
        val = pv_cauchy_sum(d.nodes, d.nodes, d.weight, 0.5, on_node="drop")
        assert val == pytest.approx(n / (n + 1.0), abs=1e-13)

    def test_pv_node_collision_raises_by_default(self):
        d = Discretization(8, 1.0)
        with pytest.raises(ValueError):
            pv_cauchy_sum(np.ones(9), d.nodes, d.weight, 0.5)

    @pytest.mark.parametrize("mode", ["Drop", "skip", "", None])
    def test_pv_unknown_node_mode_is_named(self, mode):
        # refused up front, off a node too, not at the first node hit
        d = Discretization(8, 1.0)
        for s0 in (0.5, 0.3):
            with pytest.raises(ValueError, match="on_node"):
                pv_cauchy_sum(np.ones(9), d.nodes, d.weight, s0, on_node=mode)

    def test_pv_polynomial_against_adaptive(self):
        from scipy.integrate import quad
        rng = np.random.default_rng(0)
        l = np.pi
        c = rng.normal(size=12)
        for s0 in (0.3, 1.5, 3.0):
            mine = pv_polynomial(c, l, s0).real

            def f(s):
                x = s - l / 2
                return sum(ci * x**i for i, ci in enumerate(c))

            ref = quad(f, 0.0, l, weight="cauchy", wvar=s0)[0]
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_pv_polynomial_domain(self):
        with pytest.raises(ValueError):
            pv_polynomial(np.ones(3), 1.0, 1.5)


    def test_pv_monomials_batched_matches_pointwise(self):
        l = np.pi
        s0 = np.random.default_rng(2).uniform(0.01, l - 0.01, 23)
        batched = pv_monomials(l, s0, 20)
        assert batched.shape == (23, 21)
        for row, point in zip(batched, s0):
            single = pv_monomials(l, float(point), 20)
            assert np.all(np.abs(row - single)
                          <= 1e-13 * np.abs(single) + 1e-13)
        with pytest.raises(ValueError):
            pv_monomials(l, np.array([1.0, l]), 4)

    @pytest.mark.parametrize("length", [np.pi, 2.0, 0.7])
    def test_pv_monomials_match_loop_formula(self, length):
        # the difference-quotient sum of the docstring as a loop of array
        # updates, the reference for the Toeplitz product
        def looped(s0, kmax):
            half = 0.5 * length
            x0p = (s0[:, None] - half) ** np.arange(kmax + 1)
            out = x0p * np.log((length - s0) / s0)[:, None]
            for i in range(0, kmax, 2):
                out[:, i + 1:] += (x0p[:, :kmax - i] * 2.0
                                   * half ** (i + 1) / (i + 1))
            return out

        s0 = np.random.default_rng(5).uniform(0.001, 0.999, 40) * length
        # the terms are bounded by (l/2)^k, the log term by |log| (l/2)^k
        log = np.abs(np.log((length - s0) / s0))[:, None]
        for kmax in (0, 1, 2, 7, 20, 60, 100):
            want = looped(s0, kmax)
            got = pv_monomials(length, s0, kmax)
            scale = ((0.5 * length) ** np.arange(kmax + 1)
                     * np.maximum(1.0, log))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * scale)

    def test_gauss_rule_built_once_and_read_only(self):
        x, w = gauss_legendre(16, 0.0, 1.0)
        ref_x, ref_w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(x, 0.5 * (ref_x + 1.0))
        assert np.array_equal(w, 0.5 * ref_w)
        unit_x, unit_w = quadrature._unit_rule(16)
        assert quadrature._unit_rule(16)[0] is unit_x
        with pytest.raises(ValueError):
            unit_x[0] = 0.0
        with pytest.raises(ValueError):
            unit_w[0] = 0.0


class TestPolynomialEvaluation:
    @pytest.mark.parametrize("shape", [(), (7,), (5, 16)])
    def test_shapes_and_values_against_polyval(self, material, semicircle,
                                               shape):
        l, N, gamma1 = semicircle.length, 40, 1.3
        rng = np.random.default_rng(11)
        # every term of size O(1) on [0, l]
        scale = (0.5 * l) ** -np.arange(N + 1)
        coeffs = DensityCoefficients(rng.normal(size=N + 1) * scale,
                                     rng.normal(size=N + 1) * scale, l,
                                     gamma1)
        s = rng.uniform(0.0, l, shape)
        x = s - 0.5 * l
        q_poly = traction_jump(semicircle, material, gamma1, coeffs, s)
        cases = [(poly_eval(coeffs.g1, s, l, MONOMIALS), coeffs.g1),
                 (coeffs.gprime(s), coeffs.g1 + 1j * coeffs.g2),
                 (q_poly, q_polynomial(semicircle, material, gamma1, coeffs))]
        for got, c in cases:
            ref = np.polynomial.polynomial.polyval(x, c)
            bound = 1e-13 * np.polynomial.polynomial.polyval(np.abs(x),
                                                             np.abs(c))
            assert np.shape(got) == shape
            assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("length,gamma1,key", [
        (2.0, -1.0, "gamma1"), (2.0, float("nan"), "gamma1"),
        (2.0, float("inf"), "gamma1"), (-2.0, 1.0, "length"),
        (0.0, 1.0, "length"), (float("nan"), 1.0, "length"),
        (float("inf"), 1.0, "length"), (-2.0, float("nan"), "length")])
    def test_coefficients_reject_bad_length_or_gamma1(self, length, gamma1,
                                                      key):
        # the same gamma1 rule as SurfaceParams and the assembly
        with pytest.raises(ValueError, match=key):
            DensityCoefficients(np.ones(3), np.ones(3), length, gamma1)


class TestClosureIdentity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.lists(st.floats(min_value=-2, max_value=2),
                         min_size=10, max_size=10))
    def test_parts_match_direct_evaluation(self, data, material, semicircle):
        gamma1 = 1.3
        coeffs = DensityCoefficients(np.array(data[:5]), np.array(data[5:]),
                                     semicircle.length, gamma1)
        s = np.linspace(0.2, semicircle.length - 0.2, 9)
        q_plus, iq_minus = traction_jump_parts(semicircle, material, gamma1,
                                               coeffs, s)
        # direct evaluation of the two displayed closure lines
        x = s - semicircle.length / 2
        k = np.arange(5)
        g1, g2 = coeffs.g1, coeffs.g2
        line1 = np.zeros_like(s)
        line2 = np.zeros_like(s)
        for kk in range(5):
            line1 += kk * g1[kk] * x**max(kk - 1, 0) * (kk >= 1) \
                + g2[kk] * x**kk
            line2 += kk * (kk - 1) * g1[kk] * x**max(kk - 2, 0) * (kk >= 2) \
                + g2[kk] * kk * x**max(kk - 1, 0) * (kk >= 1)
        scale = gamma1 / (2.0 * material.mu)
        assert np.allclose(q_plus, scale * line1, atol=1e-10)
        assert np.allclose(iq_minus, -scale * line2, atol=1e-10)

    def test_straight_crack_real_part_vanishes(self, material, straight2):
        rng = np.random.default_rng(3)
        coeffs = DensityCoefficients(rng.normal(size=8), rng.normal(size=8),
                                     straight2.length, 0.7)
        q_plus, _ = traction_jump_parts(straight2, material, 0.7, coeffs,
                                        np.linspace(0.1, 1.9, 7))
        assert np.max(np.abs(q_plus)) == 0.0

    def test_gamma_zero_gives_zero(self, material, semicircle):
        coeffs = DensityCoefficients(np.ones(4), np.ones(4),
                                     semicircle.length, 0.0)
        q = traction_jump(semicircle, material, 0.0, coeffs, 1.0)
        assert abs(complex(q)) == 0.0

    def test_semicircle_quadratic_example(self, material, semicircle):
        # g' = (s - l/2)^2 in the real channel: q + conj q = (g1/2mu) 2(s-l/2)
        gamma1 = 1.0
        g1 = np.zeros(4)
        g1[2] = 1.0
        coeffs = DensityCoefficients(g1, np.zeros(4), semicircle.length,
                                     gamma1)
        s = np.linspace(0.3, 2.8, 5)
        q_plus, _ = traction_jump_parts(semicircle, material, gamma1, coeffs, s)
        expected = gamma1 / (2.0 * material.mu) * 2.0 \
            * (s - semicircle.length / 2)
        assert np.allclose(q_plus, expected, atol=1e-14)


class TestAssembly:
    def test_shapes_and_constraints(self, material, semicircle, load_h):
        disc = Discretization(12, semicircle.length)
        system = assemble(semicircle, material, load_h, 1.0, disc)
        assert system.matrix.shape == (2 * 12 + 2 + 4, 2 * 12 + 2)
        assert system.n_constraints == 6
        assert np.all(np.isfinite(system.matrix))

    def test_straight_has_layer_pinning_rows(self, material, straight2, load_v):
        disc = Discretization(12, straight2.length)
        system = assemble(straight2, material, load_v, 1.0, disc)
        assert system.n_constraints == 10

    def test_classical_limit_has_only_single_valuedness(self, material,
                                                        semicircle, load_h):
        disc = Discretization(12, semicircle.length)
        system = assemble(semicircle, material, load_h, 0.0, disc)
        assert system.n_constraints == 2

    def test_rhs_linear_in_load_matrix_fixed(self, material, semicircle):
        disc = Discretization(8, semicircle.length)
        la = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        lb = FarFieldLoad(sigma1=0.0, sigma2=1.0)
        lab = FarFieldLoad(sigma1=1.0, sigma2=1.0)
        sa = assemble(semicircle, material, la, 1.0, disc)
        sb = assemble(semicircle, material, lb, 1.0, disc)
        sab = assemble(semicircle, material, lab, 1.0, disc)
        assert np.array_equal(sa.matrix, sb.matrix)
        assert np.array_equal(sa.matrix, sab.matrix)
        assert np.allclose(sa.rhs * sa.row_scale + sb.rhs * sb.row_scale,
                           sab.rhs * sab.row_scale, atol=1e-13)

    def test_zero_load_zero_rhs(self, material, semicircle):
        disc = Discretization(8, semicircle.length)
        system = assemble(semicircle, material,
                          FarFieldLoad(sigma1=0.0, sigma2=0.0), 1.0, disc)
        assert np.all(system.rhs == 0.0)

    def test_gamma_negative_rejected(self, material, semicircle, load_h):
        disc = Discretization(8, semicircle.length)
        with pytest.raises(AssemblyError):
            assemble(semicircle, material, load_h, -0.5, disc)

    def test_non_finite_inputs_rejected(self, material, semicircle, load_h):
        nan, inf = float("nan"), float("inf")
        for bad in ({"mu": nan}, {"mu": inf}):
            with pytest.raises(ValueError):
                Material(**{"mu": 60.0, "kappa": 2.5, **bad})
        for bad in ({"sigma1": inf}, {"sigma2": nan}, {"alpha": nan}):
            with pytest.raises(ValueError):
                FarFieldLoad(**{"sigma1": 1.0, "sigma2": 0.0, **bad})
        with pytest.raises(ValueError):
            FarFieldLoad(sigma1=1.0, sigma2=0.0, phi_inf=nan)
        for gamma1 in (nan, inf):
            with pytest.raises(ValueError):
                SurfaceParams(gamma1)
            with pytest.raises(AssemblyError):
                assemble(semicircle, material, load_h, gamma1,
                         Discretization(8, semicircle.length))

    def test_row_scaling_off(self, material, semicircle, load_h):
        disc = Discretization(16, semicircle.length)
        system = assemble(semicircle, material, load_h, 1.0, disc,
                          row_scaling=False)
        assert np.all(system.row_scale == 1.0)
        co = solve(system)
        co_scaled = solve(assemble(semicircle, material, load_h, 1.0, disc))
        # scaling changes the least-squares weighting, so the two solutions
        # agree only at the interior resolution level of the scheme
        mid = semicircle.length / 2.0
        a = complex(co.gprime(mid))
        b = complex(co_scaled.gprime(mid))
        assert np.isfinite(a.real) and np.isfinite(a.imag)
        assert abs(a - b) < 0.3 * abs(b)

    @pytest.mark.parametrize("N", [8, 20])
    @pytest.mark.parametrize("curve", [make_semicircle(),
                                       make_circular_arc(0.5),
                                       make_straight(2.0)],
                             ids=["semicircle", "arc", "straight"])
    def test_collocation_rows_match_independent_evaluator(
            self, material, load_h, curve, N):
        # dual route: A x - b at a collocation point equals the directly
        # evaluated equation (kappa+1)[sigma_avg - gamma1(k0 dk + i dk') - f]
        # for an arbitrary coefficient vector
        gamma1 = 1.1
        disc = Discretization(N, curve.length)
        system = assemble(curve, material, load_h, gamma1, disc)
        rng = np.random.default_rng(4)
        x = rng.normal(size=2 * N + 2)
        coeffs = DensityCoefficients(x[: N + 1], x[N + 1:],
                                     curve.length, gamma1)
        rows = system.matrix * system.row_scale[:, None]
        rhs = system.rhs * system.row_scale
        resid = rows[: 2 * N] @ x - rhs[: 2 * N]

        ref = _independent_row_residual(curve, material, load_h, gamma1,
                                        coeffs, disc.collocation_points)
        got = resid[:N] + 1j * resid[N:]
        assert np.max(np.abs(got - ref)) < 1e-7


def _tip_rows(curve, kappa, gamma1, gp, q_unit):
    """Tip rows of the densities gp, gamma1 * q_unit, in constraint order.

    The reference of `solver._tip_blocks`, from point values at the tips:
    gp and q_unit are (C, N+1) coefficient arrays (q_unit at gamma1 = 1);
    each row holds one value per density.  Per tip: -Im omega and
    Re sigma / 2 of `cauchy_densities`, and on a straight crack Re g'' and
    Im g''.
    """
    degree = gp.shape[-1] - 1
    tips = MONOMIALS.table([0.0, curve.length], curve.length, degree).T
    sigma, omega = cauchy_densities(gp @ tips, gamma1 * (q_unit @ tips),
                                    kappa)
    rows = [-omega.imag, 0.5 * sigma.real]
    if curve.constant_curvature == 0.0:
        gpp = poly_derivative(gp, curve.length, MONOMIALS) @ tips
        rows += [gpp.real, gpp.imag]
    return [row[..., tip] for tip in (0, 1) for row in rows]


def _operator_system(curve, material, gamma1, N):
    """The unscaled system the face operator gives for the basis columns.

    The direct assembly at one gamma1: the oracle's apply() on all 2N+2
    basis columns with q at this gamma1, then the traction and
    face-curvature rows, the single-valuedness rows and the tip rows.  The
    tabulation as a quadratic in gamma1 must reproduce it.
    """
    kappa, mu = material.kappa, material.mu
    eye, zero = np.eye(N + 1), np.zeros((N + 1, N + 1))
    g1, g2 = np.vstack([eye, zero]), np.vstack([zero, eye])
    gp = g1 + 1j * g2
    q_unit = q_coefficients(curve, material, 1.0, g1, g2, MONOMIALS)
    disc = Discretization(N, curve.length)
    op = FaceOperator(_NodeSide(curve, material, N),
                      disc.collocation_points, N, derivatives=True)
    sigma, omega, omega1, omega2 = op.apply(gp, gamma1 * q_unit)
    k0 = curve.constant_curvature
    dk = -(k0 * omega.real - omega1.imag) / (2.0 * mu)
    dk1 = -(k0 * omega1.real - omega2.imag) / (2.0 * mu)
    rows = (kappa + 1.0) * np.vstack([sigma.real - gamma1 * k0 * dk,
                                      sigma.imag - gamma1 * dk1])
    ints = solver._single_valued_integrals(curve, N, MONOMIALS)
    con_rows = [np.concatenate([ints.real, -ints.imag]),
                np.concatenate([ints.imag, ints.real])]
    if gamma1 > 0.0:
        con_rows += _tip_rows(curve, kappa, gamma1, gp, q_unit)
    return np.vstack([rows] + con_rows)


def _table_blocks(curve, material, N):
    """R0, R1, R2 and T0, T1 column for column, the route the fold replaced.

    The operator as complex tables over the density coefficients, from its
    kernel tables (apply()'s) and principal values; then the four kinds of
    row as real parts on [Re c; Im c]; then the q rows times the real
    coefficients of the basis columns' q; and the tip rows of `_tip_rows`
    on the basis columns.
    """
    kappa, mu = material.kappa, material.mu
    k0, two_mu = curve.constant_curvature, 2.0 * mu
    op = FaceOperator(_NodeSide(curve, material, N),
                      Discretization(N, curve.length).collocation_points, N,
                      derivatives=True)
    reg, (a, b), (at0, atl) = op._reg, op._inv_ends, op._ends
    pv = op._pv[0]
    pv1 = times_derivative(pv) - (atl * a + at0 * b)
    pv2 = times_derivative(pv1) - (atl * a * a - at0 * b * b)
    (sg, og), (sq, oq) = (cauchy_densities(1.0, 0.0, kappa),
                          cauchy_densities(0.0, 1.0, kappa))
    wq, wk = -2j, -2j * kappa
    coef = np.array([
        [sg, 0., 0., 1., 0., 0., 0., 0., 0., 0.],
        [og, 0., 0., 0., 1., 0., 0., 0., 0., 0.],
        [0., og, 0., 0., 0., 1., 0., 0., 0., 0.],
        [0., 0., og, 0., 0., 0., 1., 0., 0., 0.],
        [sq, 0., 0., 0., 0., 0., 0., wq, 0., 0.],
        [oq, 0., 0., wk, 0., 0., 0., 0., 0., 0.],
        [0., oq, 0., 0., 0., 0., 0., 0., wk, 0.],
        [0., 0., oq, 0., 0., 0., 0., 0., 0., wk]])
    parts = np.array([pv, pv1, pv2] + [reg[key] for key in (
        "k1", "k4", "d4", "dd4", "k3", "d1", "dd1")])
    scale = 1.0 / (2.0 * np.pi * (kappa + 1.0))
    T = ((scale * coef) @ parts.reshape(10, -1)).reshape((2, 4) + pv.shape)
    k2 = np.array([[1.0, -1.0, 0.0, 0.0], [2j, -2j, 0.0, 0.0]])
    C = k2[:, :, None, None] * (scale * op._k2 * op._raw[-1, 0])
    combine = np.array([[1.0, 0.0, 0.0, 0.0],
                        [-1j, 0.0, 0.0, 0.0],
                        [0.0, k0 * k0 / two_mu, 1j * k0 / two_mu, 0.0],
                        [0.0, 0.0, k0 / two_mu, 1j / two_mu]])
    t, tc = ((combine @ x.reshape(2, 4, -1)).reshape(x.shape)
             for x in (T, C))
    rows = np.concatenate([t.real + tc.real, tc.imag - t.imag], axis=-1)
    g_rows, q_rows = rows.reshape(2, 4 * N, 2 * N + 2)
    eye, zero = np.eye(N + 1), np.zeros((N + 1, N + 1))
    g1, g2 = np.vstack([eye, zero]), np.vstack([zero, eye])
    q_unit = q_coefficients(curve, material, 1.0, g1, g2, MONOMIALS)
    q_rows = q_rows @ np.concatenate([q_unit.real, q_unit.imag], axis=1).T
    blocks = (g_rows[: 2 * N], q_rows[: 2 * N] + g_rows[2 * N:],
              q_rows[2 * N:])
    gp = g1 + 1j * g2
    tips = np.array(_tip_rows(curve, kappa, 1.0,
                                     np.concatenate([gp, 0.0 * gp]),
                                     np.concatenate([0.0 * q_unit, q_unit])))
    return blocks + (tips[:, : 2 * N + 2], tips[:, 2 * N + 2:])


@pytest.mark.parametrize("N", [8, 20, 40, 60])
@pytest.mark.parametrize("curve", [make_semicircle(), make_circular_arc(0.5),
                                   CrackCurve(length=2.0 * np.pi / 3.0,
                                              shape="arc",
                                              constant_curvature=-0.5),
                                   make_straight(2.0)],
                         ids=["semicircle", "arc", "arc-0.5", "straight"])
def test_quadratic_assembly_matches_operator(material, load_h, curve, N):
    disc = Discretization(N, curve.length)
    for gamma1 in (0.0, 0.25, 1.0, 4.0):
        want = _operator_system(curve, material, gamma1, N)
        tol = 1e-13 * np.max(np.abs(want), axis=1, keepdims=True)
        for row_scaling in (True, False):
            system = assemble(curve, material, load_h, gamma1, disc,
                              row_scaling)
            got = system.matrix * system.row_scale[:, None]
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= tol)
    # the blocks, tabulated at the first ceil(N/2) collocation points in
    # the layout of the halves, and the tip rows against the
    # column-for-column route, to rounding of each row's largest entry
    tables = solver._CollocationTables(_NodeSide(curve, material, N), N)
    M = (N + 1) // 2
    r0, r1, r2, t0, t1 = _table_blocks(curve, material, N)
    cols = densities._parity_columns(N)
    # (parity, row kind, point, column) of the Re and Im rows of the first
    # M points; a row's entries lie along the parity and column axes
    half = [np.moveaxis(r.reshape(2, N, 2 * N + 2)[:, :M][..., cols], -2, 0)
            for r in (r0, r1, r2)]
    for got, want in zip(tables.blocks, half):
        assert got.shape == want.shape == (2, 2, M, N + 1)
        tol = 1e-14 * np.max(np.abs(want), axis=(0, 3), keepdims=True)
        assert np.all(np.abs(got - want) <= tol)
    for got, want in zip(tables.tip_rows, (t0, t1)):
        assert got.shape == want.shape
        tol = 1e-14 * np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("curve", [make_semicircle(), make_circular_arc(0.6),
                                   CrackCurve(length=2.0 * np.pi / 3.0,
                                              shape="arc",
                                              constant_curvature=-0.5),
                                   make_straight(2.0)],
                         ids=["semicircle", "arc0.6", "arc-0.5", "straight"])
def test_shared_node_side_matches_standalone_tables(material, curve):
    # the first N+1 columns of a node side of degree 60 serve every N
    node_side = _NodeSide(curve, material, 60)
    for N in (16, 20, 30, 40, 60):
        shared = solver._CollocationTables(node_side, N)
        alone = solver._CollocationTables(_NodeSide(curve, material, N), N)
        for got, want in zip(shared.blocks + shared.tip_rows
                             + (shared.single_valued,),
                             alone.blocks + alone.tip_rows
                             + (alone.single_valued,)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) \
                <= 1e-13 * np.max(np.abs(want)), N


def test_node_side_refuses_a_higher_degree(material, semicircle):
    node_side = _NodeSide(semicircle, material, 16)
    with pytest.raises(ValueError, match="degree 20"):
        solver._CollocationTables(node_side, 20)


# the kappa0 = 0.5 arc of the semicircle's length
_ARC_PI = CrackCurve(length=np.pi, shape="arc", constant_curvature=0.5)
# (disc, node side, the values the error names) of each mismatch on the
# README crack at N = 20
_MISMATCHES = {
    "length": lambda curve, material: (
        Discretization(20, 3.0), None, (3.0, np.pi)),
    "curve": lambda curve, material: (
        Discretization(20, curve.length),
        _NodeSide(_ARC_PI, material, 20), (_ARC_PI, curve)),
    "material": lambda curve, material: (
        Discretization(20, curve.length),
        _NodeSide(curve, Material(mu=30.0, kappa=2.0), 20),
        (30.0, 60.0)),
}


@pytest.mark.parametrize("case", _MISMATCHES)
def test_assemble_refuses_inputs_that_do_not_belong_together(
        material, semicircle, load_h, case):
    """assemble raises a ValueError naming both values when its
    Discretization is on another length or its node side on another curve
    or material.

    Unchecked, each of these solved without error and gave a wrong
    density (README crack, N = 20, gamma1 = 1): a node side of mu = 30,
    kappa = 2 put g' off by 59 % of its sup, one on a kappa0 = 0.5 arc of
    the same length pi by 21 %, and Discretization(20, 3.0) gave a density
    of length 3.0 (condition estimate 3.4e6).
    """
    disc, node_side, named = _MISMATCHES[case](semicircle, material)
    with pytest.raises(ValueError) as info:
        assemble(semicircle, material, load_h, 1.0, disc,
                 node_side=node_side)
    for value in named:
        assert repr(value) in str(info.value)


def test_assemble_reads_mu_and_kappa_of_the_material(material, semicircle,
                                                     load_h):
    # a twin of the material from its Poisson ratio builds the same tables
    twin = Material.from_poisson(60.0, 0.125)
    assert twin != material and twin.kappa == material.kappa
    disc = Discretization(20, semicircle.length)
    got = assemble(semicircle, material, load_h, 1.0, disc,
                   node_side=_NodeSide(semicircle, twin, 20))
    want = assemble(semicircle, material, load_h, 1.0, disc)
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.rhs, want.rhs)


def test_tables_belong_to_the_node_side_they_were_asked_of(
        material, semicircle, load_h, monkeypatch, cold_tables):
    # assemble reads the collocation tables of the node side it is given,
    # by default the cache's, which keeps them: each side gives the same
    # tables on every call, and a side built by hand on the cache's key
    # gets tables of its own, equal to the cache's; the flat-rule oracle
    # builds a node side on every call
    disc = Discretization(12, semicircle.length)
    cached = fields._node_side(semicircle, material, 12, MONOMIALS)
    explicit = _NodeSide(semicircle, material, 12)
    tables = {}
    for side, given in ((cached, None), (explicit, explicit)):
        first, second = (assemble(semicircle, material, load_h, 1.0, disc,
                                  node_side=given).tables for _ in range(2))
        assert first is second and first.node_side is side
        tables[side] = first
    assert tables[cached] is not tables[explicit]
    assert np.array_equal(tables[cached].blocks, tables[explicit].blocks)

    built = []
    init = _NodeSide.__init__
    monkeypatch.setattr(_NodeSide, "__init__", lambda self, *args, **kw:
                        built.append(args) or init(self, *args, **kw))
    coeffs = solve(assemble(semicircle, material, load_h, 1.0, disc))
    for cauchy in ("exact", "discrete") * 2:
        face_fields(semicircle, material, load_h, coeffs, "plus", 0.3,
                    cauchy=cauchy)
    # the two of the oracle, each on its Discretization
    assert [type(args[3]) for args in built] == [Discretization] * 2


_MIRROR_CURVES = [make_semicircle(), make_circular_arc(0.5),
                  make_straight(2.0)]
_MIRROR_IDS = ["semicircle", "arc", "straight"]


@pytest.mark.parametrize("gamma1", [0.0, 1.0])
@pytest.mark.parametrize("N", [20, 21])
@pytest.mark.parametrize("curve", _MIRROR_CURVES, ids=_MIRROR_IDS)
def test_operator_system_is_mirror_equivariant(material, curve, N, gamma1):
    # the symmetry the parity halves rest on, in the system tabulated at
    # all N points: the Re row at s_{N+1-j} is -(Re row at s_j) P, the Im
    # row +(Im row at s_j) P, the single-valuedness rows are P-even and
    # P-odd (t'(l/2) is real on these curves), and each tip row of the
    # second tip is -, +, -, + (that of the first) P
    A = _operator_system(curve, material, gamma1, N)
    P = densities._mirror_signs(N)
    tol = 1e-13 * np.max(np.abs(A))
    re, im, con = A[:N], A[N: 2 * N], A[2 * N:]
    assert np.max(np.abs(re[::-1] + re * P)) <= tol
    assert np.max(np.abs(im[::-1] - im * P)) <= tol
    assert np.max(np.abs(con[0] - con[0] * P)) <= tol
    assert np.max(np.abs(con[1] + con[1] * P)) <= tol
    tips = con[2:]
    half = len(tips) // 2
    signs = np.array([-1.0, 1.0, -1.0, 1.0])[:half, None]
    assert half == (0 if gamma1 == 0.0 else 4 if curve.shape == "straight"
                    else 2)
    assert np.max(np.abs(tips[half:] - signs * tips[:half] * P),
                  initial=0.0) <= tol


def _whole_system_solution(system):
    """The damped solution, singular values and condition estimate of one
    system from the reduction of the whole system: the null basis of all
    its constraint rows and one SVD of its reduced collocation block."""
    n = system.n_constraints
    _, _, Vt = np.linalg.svd(system.constraint_block)
    Z = Vt[n:].T
    U, S, Vt = np.linalg.svd(system.collocation_block @ Z,
                             full_matrices=False)
    lam2 = (solver.LAMBDA_REL * S[0]) ** 2
    y = Vt.T @ (S / (S * S + lam2) * (U.T @ system.rhs[:-n]))
    condition = S[0] / max(S[-1], solver.LAMBDA_REL * S[0])
    return Z @ y, S, condition


_SPLIT_CURVES = [(make_semicircle(), FarFieldLoad(sigma1=1.0, sigma2=0.0)),
                 (make_circular_arc(0.5),
                  FarFieldLoad(sigma1=1.0, sigma2=0.0)),
                 (make_straight(2.0),
                  FarFieldLoad(sigma1=1.0, sigma2=0.0, alpha=0.5)),
                 # t'(l/2) is not real, and then t'(l/2) = i: the
                 # single-valuedness rows split only after the rotation by
                 # conj t'(l/2)
                 (CrackCurve(length=2.0, shape="arc", constant_curvature=-0.5,
                             theta0=1.0, center=0.3 + 0.2j),
                  FarFieldLoad(sigma1=1.0, sigma2=0.3, alpha=0.4)),
                 (CrackCurve(length=2.0, shape="arc", constant_curvature=0.5,
                             theta0=-0.5),
                  FarFieldLoad(sigma1=1.0, sigma2=0.3, alpha=0.4))]
_SPLIT_IDS = ["semicircle", "arc", "straight-inclined", "arc-rotated",
              "arc-vertical"]


@pytest.mark.parametrize("gamma1", [0.0, 1.0])
@pytest.mark.parametrize("N", [8, 13, 20, 21, 24])
@pytest.mark.parametrize("case", _SPLIT_CURVES, ids=_SPLIT_IDS)
def test_parity_halves_solve_the_whole_system(material, case, N, gamma1):
    # the split solve against the whole-system reduction: g' on a grid to
    # 1e-8 of its largest value (odd N runs in no benchmark workload, and
    # a middle row weighted 2 instead of sqrt 2 moves g' by about 1e-2);
    # the singular values of both halves are those of the whole reduced
    # block, so the condition estimates agree
    curve, load = case
    system = assemble(curve, material, load, gamma1,
                      Discretization(N, curve.length))
    want, S, condition = _whole_system_solution(system)
    (got,), (error,) = solver._solutions(system)
    assert error is None
    grid = MONOMIALS.table(np.linspace(0.0, curve.length, 201),
                           curve.length, N)
    gp_want = grid @ (want[: N + 1] + 1j * want[N + 1:])
    gp_got = grid @ (got[: N + 1] + 1j * got[N + 1:])
    assert np.max(np.abs(gp_got - gp_want)) \
        <= 1e-8 * np.max(np.abs(gp_want))
    halves = np.sort(system.reduction[3].ravel())[::-1]
    assert halves.shape == S.shape
    assert np.max(np.abs(halves - S)) <= 1e-14 * S[0]
    assert system.condition_estimate == pytest.approx(condition, rel=1e-8)


def test_halves_have_one_shape(material, semicircle, straight2, load_h):
    # both halves of every N and curve have N+1 columns, one collocation
    # row per Re and Im row of the first ceil(N/2) points and half the
    # constraint rows; the middle point of odd N has a zero row in one
    for curve, n_con in ((semicircle, 6), (straight2, 10)):
        for N in (20, 21):
            system = assemble(curve, material, load_h, 1.0,
                              Discretization(N, curve.length))
            A, C, h = system.halves
            M = (N + 1) // 2
            assert A.shape == (2, 2 * M, N + 1)
            assert C.shape == (2, n_con // 2, N + 1)
            assert h.shape == (2, 2 * M)
            zero = np.flatnonzero(~np.abs(A).any(axis=-1))
            assert list(zero) == ([M - 1, 4 * M - 1] if N % 2 else [])


@pytest.mark.parametrize("gamma1", [0.0, 1.0])
@pytest.mark.parametrize("N", [20, 21])
@pytest.mark.parametrize("curve", _MIRROR_CURVES, ids=_MIRROR_IDS)
def test_whole_system_is_the_full_layout(material, load_h, curve, N, gamma1):
    # the whole system as the full layout forms it: the rows of the first
    # M points on all 2N + 2 columns, those of the others by the mirror
    # (-+ P on the Re and Im rows), the constraint rows after them, each
    # row divided by its largest |entry|; bit for bit
    tables = solver._CollocationTables(_NodeSide(curve, material, N), N)
    system = tables.system(load_h, gamma1)
    M, kappa = (N + 1) // 2, material.kappa
    r0, r1, r2 = (np.empty((2, M, 2 * N + 2)) for _ in range(3))
    for full, half in zip((r0, r1, r2), tables.blocks):
        full[..., tables.parity] = np.moveaxis(half, 0, -2)
    first = (kappa + 1.0) * (r0 + gamma1 * (r1 + gamma1 * r2))
    mirror = np.array([[-1.0], [1.0]]) * densities._mirror_signs(N)
    mirrored = mirror[:, None] * first[:, : N // 2][:, ::-1]
    rows = np.concatenate([first, mirrored], axis=1).reshape(2 * N, -1)
    t0, t1 = tables.tip_rows
    A = np.concatenate([rows, tables.single_valued_rows]
                       + ([t0 + gamma1 * t1] if gamma1 else []))
    scale = np.max(np.abs(A), axis=1)
    assert np.array_equal(system.row_scale, scale)
    assert np.array_equal(system.matrix, A / scale[:, None])
    # the dump writes the full layout's rows and scales, byte for byte
    want = (["row_scale " + solver._floats_text(scale)]
            + [f"row {i} " + solver._floats_text(row)
               for i, row in enumerate(A / scale[:, None])])
    assert system.dump_text().splitlines()[3: 4 + len(A)] == want
    # the right-hand side, the forcing times kappa+1 from the kept table
    f = (kappa + 1.0) * boundary_forcing(curve, material, load_h, gamma1,
                                         tables.disc.collocation_points)
    b = np.concatenate([f.real, f.imag, np.zeros(len(A) - 2 * N)])
    assert np.max(np.abs(system.rhs * scale - b)) <= 1e-14 * np.max(np.abs(b))


# the N of the shipped convergence config
_CONVERGENCE_NS = cli.parse_config((
    Path(__file__).resolve().parent.parent / "configs"
    / "convergence_semicircle.cfg").read_text()).grid


@pytest.mark.parametrize("N", _CONVERGENCE_NS)
@pytest.mark.parametrize("curve", _MIRROR_CURVES, ids=_MIRROR_IDS)
def test_forcing_table_reproduces_boundary_forcing(material, load_h, curve,
                                                   N):
    # (table[0] + gamma1 table[1]) v at the collocation points, v = (Re phi,
    # Im phi, Re psi, Im psi) of the load, to rounding of the largest value
    tables = solver._CollocationTables(_NodeSide(curve, material, N), N)
    s0 = tables.disc.collocation_points
    assert tables.forcing.shape == (2, N, 4)
    for load in (load_h, FarFieldLoad(sigma1=1.0, sigma2=0.3, alpha=0.4)):
        v = np.array([load.phi_inf, load.psi_inf], dtype=complex).view(float)
        for gamma1 in (0.0, 0.25, 1.0, 4.0):
            want = boundary_forcing(curve, material, load, gamma1, s0)
            got = (tables.forcing[0] + gamma1 * tables.forcing[1]) @ v
            assert np.max(np.abs(got - want)) \
                <= 1e-14 * np.max(np.abs(want)), (load, gamma1)


def test_no_free_unknown_is_a_solve_error(material, straight2, load_v):
    # a straight crack at gamma1 > 0 has 10 constraint rows, all the
    # unknowns at N = 4
    system = assemble(straight2, material, load_v, 1.0,
                      Discretization(4, straight2.length))
    assert system.n_constraints == system.matrix.shape[1] == 10
    with pytest.raises(SolveError, match="no free unknown"):
        solve(system)
    with pytest.raises(SolveError, match="no free unknown"):
        system.condition_estimate
    # one unknown more per half is enough
    coeffs = solve_problem(straight2, material, load_v, 1.0, N=5)
    assert np.isfinite(coeffs.condition_estimate)


def _independent_row_residual(curve, material, load, gamma1, coeffs, points):
    """(kappa+1)[sigma_avg - gamma1(k0 dk + i dk') - f] via its own route."""
    kappa, mu = material.kappa, material.mu
    l = curve.length
    kset = KernelSet(curve, kappa)
    xg, wg = [], []
    edges = np.linspace(0.0, l, 9)
    for a, b in zip(edges[:-1], edges[1:]):
        x_, w_ = gauss_legendre(20, a, b)
        xg.append(x_)
        wg.append(w_)
    xg, wg = np.concatenate(xg), np.concatenate(wg)
    gp_n = coeffs.gprime(xg)
    q_n = traction_jump(curve, material, gamma1, coeffs, xg)
    gp_poly = coeffs.g1 + 1j * coeffs.g2
    from curvecrack.densities import q_polynomial
    q_poly = q_polynomial(curve, material, gamma1, coeffs)

    def pv_all(coef, s0):
        d = poly_derivative(coef, l, MONOMIALS)
        dd = poly_derivative(d, l, MONOMIALS)
        v = pv_polynomial(coef, l, s0)
        p_l, p_0 = (poly_eval(coef, x, l, MONOMIALS) for x in (l, 0.0))
        d_l, d_0 = (poly_eval(d, x, l, MONOMIALS) for x in (l, 0.0))
        v1 = pv_polynomial(d, l, s0) - p_l / (l - s0) - p_0 / s0
        v2 = (pv_polynomial(dd, l, s0) - d_l / (l - s0) - d_0 / s0
              - p_l / (l - s0) ** 2 + p_0 / s0 ** 2)
        return v, v1, v2

    out = []
    for s0 in points:
        s0 = float(s0)
        blk = kset.block(xg, s0)
        pg, pg1, pg2 = pv_all(gp_poly, s0)
        pq, pq1, pq2 = pv_all(q_poly, s0)

        def wsum(key, dens):
            return np.sum(wg * blk[key] * dens)

        c = 1.0 / (2.0 * np.pi * (kappa + 1.0))
        om = c * ((kappa - 1) * pg + wsum("k4", gp_n)
                  - wsum("k2", np.conj(gp_n)) - 4j * kappa * pq
                  - 2j * kappa * wsum("k1", q_n) - 2j * wsum("k2", np.conj(q_n)))
        om1 = c * ((kappa - 1) * pg1 + wsum("d4", gp_n)
                   - wsum("d2", np.conj(gp_n)) - 4j * kappa * pq1
                   - 2j * kappa * wsum("d1", q_n) - 2j * wsum("d2", np.conj(q_n)))
        om2 = c * ((kappa - 1) * pg2 + wsum("dd4", gp_n)
                   - wsum("dd2", np.conj(gp_n)) - 4j * kappa * pq2
                   - 2j * kappa * wsum("dd1", q_n)
                   - 2j * wsum("dd2", np.conj(q_n)))
        sigma = c * (2 * pg + wsum("k1", gp_n) + wsum("k2", np.conj(gp_n))
                     + 2j * (kappa - 1) * pq - 2j * wsum("k3", q_n)
                     + 2j * wsum("k2", np.conj(q_n)))
        k0 = float(curve.kappa0(np.asarray(s0)))
        k0p = float(curve.kappa0_prime(np.asarray(s0)))
        dk = -(1.0 / (2 * mu)) * (k0 * np.real(om) - np.imag(om1))
        dk1 = -(1.0 / (2 * mu)) * (k0p * np.real(om) + k0 * np.real(om1)
                                   - np.imag(om2))
        f = complex(boundary_forcing(curve, material, load, gamma1, s0))
        # sigma here is the density part only; the far-field tail of the
        # face traction is carried inside -f
        out.append((kappa + 1.0) * (sigma - gamma1 * (k0 * dk + 1j * dk1) - f))
    return np.array(out)


class TestSolve:
    def test_zero_load_null_solution(self, material, semicircle):
        co = solve_problem(semicircle, material,
                           FarFieldLoad(sigma1=0.0, sigma2=0.0), 1.0, N=12)
        assert np.max(np.abs(co.g1)) <= 1e-10
        assert np.max(np.abs(co.g2)) <= 1e-10

    def test_scaling_covariance(self, material, semicircle):
        la = FarFieldLoad(sigma1=1.0, sigma2=0.5, alpha=0.3)
        lb = FarFieldLoad(sigma1=2.0, sigma2=1.0, alpha=0.3)
        a = solve_problem(semicircle, material, la, 1.0, N=12)
        b = solve_problem(semicircle, material, lb, 1.0, N=12)
        assert np.allclose(2.0 * a.g1, b.g1, rtol=1e-9, atol=1e-12)
        assert np.allclose(2.0 * a.g2, b.g2, rtol=1e-9, atol=1e-12)

    def test_determinism(self, material, semicircle, load_h):
        a = solve_problem(semicircle, material, load_h, 1.0, N=10)
        b = solve_problem(semicircle, material, load_h, 1.0, N=10)
        assert np.array_equal(a.g1, b.g1) and np.array_equal(a.g2, b.g2)

    def test_condition_gate(self, material, semicircle, load_h):
        disc = Discretization(8, semicircle.length)
        system = assemble(semicircle, material, load_h, 1.0, disc)
        system.condition_estimate = 1e15
        with pytest.raises(SolveError):
            solve(system)
        system.condition_estimate = float("nan")
        with pytest.raises(SolveError):
            solve(system)

    def test_one_factorization_per_system(self, material, semicircle, load_h,
                                          monkeypatch, cold_tables):
        # the gate, solve and the dump share one null-space reduction: one
        # SVD of the constraint block, one of the reduced block, no lstsq,
        # on an operator no earlier test left factored
        calls = {"svd": 0, "lstsq": 0}

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        disc = Discretization(20, semicircle.length)
        system = assemble(semicircle, material, load_h, 1.0, disc)
        coeffs = solve(system)
        text = system.dump_text()
        assert calls == {"svd": 2, "lstsq": 0}
        line, = [ln for ln in text.splitlines()
                 if ln.startswith("condition_estimate ")]
        assert float(line.split()[1]) == coeffs.condition_estimate

    def test_stack_gates_each_point(self, material, semicircle, load_h):
        # a zero reduced block fails the condition gate of its own point;
        # the other point of the stack solves as it does alone
        tables = solver._CollocationTables(
            _NodeSide(semicircle, material, 12), 12)
        stack, errors = tables.systems(load_h, [0.5, 1.0])
        assert errors == [None, None]
        zeroed = stack.rows.copy()
        zeroed[0] = 0.0
        x, errors = solver._solutions(replace(stack, rows=zeroed))
        assert isinstance(errors[0], SolveError)
        assert "condition estimate inf" in str(errors[0])
        assert errors[1] is None
        alone = solve(tables.system(load_h, 1.0))
        assert np.array_equal(x[1], np.concatenate([alone.g1, alone.g2]))

    @pytest.mark.parametrize("curve_name,load_name", [
        ("semicircle", "load_h"), ("arc_half", "load_h"),
        ("straight2", "load_v"),  # under load_h the straight solution is 0
    ])
    @pytest.mark.parametrize("gamma1", [0.0, 1.0])
    @pytest.mark.parametrize("row_scaling", [True, False])
    def test_constraints_are_homogeneous(self, request, material, curve_name,
                                         load_name, gamma1, row_scaling):
        curve = request.getfixturevalue(curve_name)
        load = request.getfixturevalue(load_name)
        disc = Discretization(20, curve.length)
        system = assemble(curve, material, load, gamma1, disc, row_scaling)
        assert np.all(system.rhs[-system.n_constraints:] == 0.0)
        coeffs = solve(system)
        x = np.concatenate([coeffs.g1, coeffs.g2])
        T = system.constraint_block
        assert np.max(np.abs(x)) > 0.0
        assert np.max(np.abs(T @ x)) \
            <= 1e-13 * np.max(np.abs(T)) * np.max(np.abs(x))

    def test_single_valuedness_after_solve(self, solved_semicircle,
                                           semicircle):
        assert solved_semicircle.single_valued_residual <= 1e-8
        assert abs(single_valued_integral(solved_semicircle, semicircle)) < 1e-9

    def test_solve_reuses_single_valued_integrals(self, material, semicircle,
                                                  load_h, monkeypatch):
        # solve(system) reads the curve and the integrals from the system's
        # tables, whether assemble or the tables themselves built it: no
        # curve is passed, no jump table is built, and the residual is the
        # finite one single_valued_residual computes from the curve
        disc = Discretization(12, semicircle.length)
        tables = solver._CollocationTables(
            _NodeSide(semicircle, material, 12), 12)
        systems = [assemble(semicircle, material, load_h, 1.0, disc),
                   tables.system(load_h, 1.0)]
        calls, ints = [], []
        rebuild = post._jump_table
        monkeypatch.setattr(post, "_jump_table",
                            lambda *a: calls.append(a) or rebuild(*a))
        integrals = solver._single_valued_integrals
        monkeypatch.setattr(solver, "_single_valued_integrals",
                            lambda *a: ints.append(a) or integrals(*a))
        for system in systems:
            coeffs = solve(system)
            residual = coeffs.single_valued_residual
            assert calls == [] and ints == []
            assert np.isfinite(residual)
            assert residual == single_valued_residual(coeffs, semicircle)
            ints.clear()
        assert calls == []

    def test_single_valued_residual_stays_a_field(self):
        # the solver sets it lazily; built by hand it is a plain field
        co = DensityCoefficients(np.ones(3), np.ones(3), 1.0, 1.0)
        assert np.isnan(co.single_valued_residual)
        co = DensityCoefficients(np.ones(3), np.ones(3), 1.0, 1.0,
                                 single_valued_residual=0.5)
        assert co.single_valued_residual == 0.5

    @pytest.mark.parametrize("curve", [make_semicircle(),
                                       make_circular_arc(0.3),
                                       make_circular_arc(0.9),
                                       make_straight(2.0)],
                             ids=["semicircle", "arc0.3", "arc0.9",
                                  "straight"])
    def test_single_valued_integrals_against_mpmath(self, curve):
        # I_n = int_0^l (s - l/2)^n t'(s) ds against 40 digits, to 1e-15
        # of (l/2)^n l, the scale of the integrand times l.  With x = s - L,
        # L = l/2, t'(s) = i exp(i (theta0 + kappa0 L)) exp(i kappa0 x), and
        # int_-L^L x^n exp(i b x) dx = sum_m (i b)^m / m! int_-L^L x^(n+m),
        # whose odd powers vanish
        import mpmath as mp

        degree = 60
        got = solver._single_valued_integrals(curve, degree, MONOMIALS)
        l, k0 = curve.length, curve.constant_curvature
        with mp.workdps(40):
            half = mp.mpf(l) / 2
            front = (1j * mp.expj(mp.mpf(curve.theta0) + k0 * half)
                     if k0 else mp.mpf(1))
            for n in range(degree + 1):
                ref = front * mp.fsum(
                    (1j * k0) ** m / mp.factorial(m)
                    * 2 * half ** (n + m + 1) / (n + m + 1)
                    for m in range(n % 2, 80 if k0 else 1, 2))
                assert abs(got[n] - complex(ref)) \
                    <= 1e-15 * float(half ** n) * l, n

    @pytest.mark.parametrize("N", [20, 40, 60])
    @pytest.mark.parametrize("curve", [
        make_semicircle(), make_circular_arc(0.3), make_circular_arc(0.6),
        CrackCurve(length=2.0 * np.pi / 3.0, shape="arc",
                   constant_curvature=-0.5),
        make_straight(2.0)],
        ids=["semicircle", "arc0.3", "arc0.6", "arc-0.5", "straight"])
    def test_jump_table_matches_gauss_rule(self, curve, N):
        # the closed-form integrals of (x - l/2)^n t'(x) from 0 to each of
        # the 201 points of the opening against 16 Gauss points per cell
        # between neighbours, summed cumulatively, to 1e-14 of each
        # column's largest |value|
        s = np.linspace(0.0, curve.length, 201)[:, None]
        x, w = gauss_legendre(16, s[:-1], s[1:])
        wt = (w * curve.tangent(x))[:, None, :]
        cells = (wt @ MONOMIALS.table(x, curve.length, N))[:, 0]
        want = np.concatenate([np.zeros((1, N + 1)),
                               np.cumsum(cells, axis=0)])
        # the single-valuedness integrals are the same closed form at s = l
        got = np.vstack([
            densities._jump_table(curve, N, MONOMIALS, 201),
            solver._single_valued_integrals(curve, N, MONOMIALS)])
        assert got.shape == (202, N + 1)
        assert np.all(np.abs(got - want[[*range(201), -1]]).max(axis=0)
                      <= 1e-14 * np.abs(want).max(axis=0))

    def test_classical_limit_flag(self, material, semicircle, load_h):
        co = solve_problem(semicircle, material, load_h, 0.0, N=10)
        assert co.classical_limit
        co2 = solve_problem(semicircle, material, load_h, 1.0, N=10)
        assert not co2.classical_limit

    def test_convergence_of_reconstruction(self, solved_semicircle_by_n,
                                           semicircle):
        grid = np.linspace(0.0, semicircle.length, 401)
        ref = solved_semicircle_by_n[30].gprime(grid)
        d16 = np.max(np.abs(solved_semicircle_by_n[16].gprime(grid) - ref))
        d20 = np.max(np.abs(solved_semicircle_by_n[20].gprime(grid) - ref))
        assert d20 < d16
        assert d20 / np.max(np.abs(ref)) < 0.1


class TestTipConditions:
    def test_zero_solution(self, material, semicircle):
        coeffs = DensityCoefficients(np.zeros(5), np.zeros(5),
                                     semicircle.length, 1.0)
        assert tip_condition_residuals(coeffs, semicircle, material, 1.0) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_enforced_at_solution(self, solved_semicircle, semicircle,
                                  material):
        res = tip_condition_residuals(solved_semicircle, semicircle,
                                      material, 1.0)
        assert max(abs(v) for v in res) < 1e-8

    def test_straight_solution(self, solved_straight, straight2, material):
        res = tip_condition_residuals(solved_straight, straight2,
                                      material, 1.0)
        assert max(abs(v) for v in res) < 1e-2

    @pytest.mark.parametrize("load", [
        FarFieldLoad(sigma1=0.0, sigma2=1.0),
        FarFieldLoad(sigma1=1.0, sigma2=0.0, alpha=0.7)])
    def test_straight_reports_every_tip_row(self, material, straight2, load):
        # 4 rows per tip on a straight crack, the two real-channel rows too
        coeffs = solve_problem(straight2, material, load, 1.0, N=24)
        res = tip_condition_residuals(coeffs, straight2, material, 1.0)
        assert len(res) == 8
        assert max(abs(v) for v in res) <= 1e-8

    @pytest.mark.parametrize("curve", [make_semicircle(),
                                       CrackCurve(length=2.0 * np.pi / 3.0,
                                                  shape="arc",
                                                  constant_curvature=-0.5),
                                       make_straight(2.0)],
                             ids=["semicircle", "arc-0.5", "straight"])
    def test_rows_match_tip_values(self, material, curve):
        # an arbitrary density: the closed-form rows against the densities'
        # values at the tips
        g1, g2 = np.random.default_rng(5).normal(size=(2, 13))
        coeffs = DensityCoefficients(g1, g2, curve.length, 0.7)
        got = tip_condition_residuals(coeffs, curve, material, 0.7)
        want = np.array(_tip_rows(
            curve, material.kappa, 0.7, (g1 + 1j * g2)[None],
            q_coefficients(curve, material, 1.0, g1, g2,
                           MONOMIALS)[None]))[:, 0] \
            / solver._sup_gprime(coeffs, curve)
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(got) - want)) \
            <= 1e-13 * np.max(np.abs(want))

    def test_gamma1_must_be_the_densitys_own(self, material, semicircle,
                                             solved_semicircle):
        # the tip rows of another gamma1 would give plausible wrong values
        for gamma1 in (0.0, 0.5, float("nan")):
            with pytest.raises(ValueError, match="density's own"):
                tip_condition_residuals(solved_semicircle, semicircle,
                                        material, gamma1)

    def test_none_at_gamma1_zero(self, material, semicircle, load_h):
        # the solve imposes no tip rows at gamma1 = 0: nothing to report
        coeffs = solve_problem(semicircle, material, load_h, 0.0, N=10)
        assert tip_condition_residuals(coeffs, semicircle, material,
                                       0.0) == ()

    def test_residual_normalization_zero_field(self, material, semicircle):
        coeffs = DensityCoefficients(np.zeros(3), np.zeros(3),
                                     semicircle.length, 1.0)
        assert single_valued_residual(coeffs, semicircle) == 0.0


def test_dump_text_roundtrip(material, semicircle, load_h):
    disc = Discretization(8, semicircle.length)
    system = assemble(semicircle, material, load_h, 1.0, disc)
    text = system.dump_text()
    assert text.startswith("n_rows")
    assert "condition_estimate" in text
    assert len([ln for ln in text.splitlines() if ln.startswith("row ")]) \
        == system.matrix.shape[0]


@pytest.mark.parametrize("N,gamma1", [(16, 1.0), (20, 0.0), (30, 1.0)])
def test_trust_fields_match_a_direct_svd(material, semicircle, load_h, N,
                                         gamma1):
    # each half's unclipped condition and its count of singular values
    # under the shared lambda, against the singular values of its reduced
    # block on a null basis of scipy's; N = 20 and 30 damp some directions
    from scipy.linalg import null_space
    system = assemble(semicircle, material, load_h, gamma1,
                      Discretization(N, semicircle.length))
    coeffs = solve(system)
    A, C, _ = system.halves
    S = [np.linalg.svd(A[p] @ null_space(C[p]), compute_uv=False)
         for p in range(2)]
    lam = solver.LAMBDA_REL * max(s[0] for s in S)
    assert coeffs.reduced_conditions \
        == pytest.approx([s[0] / s[-1] for s in S], rel=1e-6)
    assert coeffs.damped_directions == tuple(int((s < lam).sum())
                                             for s in S)
    assert (N > 16) == any(coeffs.damped_directions)
    bare = DensityCoefficients(coeffs.g1, coeffs.g2, coeffs.length, gamma1)
    assert bare.reduced_conditions is None
    assert bare.damped_directions is None


def test_densities_and_systems_compare_by_identity(material, semicircle,
                                                   load_h):
    # their numpy fields would make a field-wise == ambiguous
    a, b = (DensityCoefficients(np.ones(3), np.ones(3), 1.0, 1.0)
            for _ in range(2))
    assert a == a and a != b
    system = assemble(semicircle, material, load_h, 1.0,
                      Discretization(8, semicircle.length))
    assert system == system and system != replace(system)


def test_system_arrays_are_read_only(material, semicircle, load_h):
    # a write into a system read before would go unseen by the parts it
    # read once (matrix, halves, reduction), so every write raises;
    # replace makes a changed system and leaves the caller's arrays
    # writable
    system = assemble(semicircle, material, load_h, 1.0,
                      Discretization(12, semicircle.length))
    stack, errors = system.tables.systems(load_h, [0.5, 1.0])
    assert errors == [None, None]
    rows = system.rows.copy()
    changed = replace(system, rows=rows)
    for built in (system, stack, changed):
        for name in ("rows", "constraints", "rhs", "row_scale"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(built, name)[...] *= 2.0
    assert rows.flags.writeable


class TestKeptReductions:
    """A table set keeps the scaled system and the reduction of each gamma1
    it factored, and a point's system and solution are the same bytes
    whichever kept entry it reads: cold or warm, alone or in a stack in
    any order, after another load at its gamma1, and after its entry was
    evicted.  A warm point forms its right-hand side alone."""

    GRID = (0.25, 0.5, 1.0, 2.0)

    @pytest.fixture
    def node_side(self, material, semicircle):
        return _NodeSide(semicircle, material, 16)

    @staticmethod
    def _solved(tables, load, gamma1, row_scaling=True):
        coeffs = solve(tables.system(load, gamma1, row_scaling))
        return np.concatenate([coeffs.g1, coeffs.g2]).tobytes()

    @staticmethod
    def _stacked(tables, load, grid):
        stack, errors = tables.systems(load, np.array(grid))
        x, solved = solver._solutions(stack)
        assert errors == solved == [None] * len(grid)
        return [row.tobytes() for row in x]

    @staticmethod
    def _factorizations(monkeypatch):
        """The list that each np.linalg.svd call from solver appends to."""
        calls, svd = [], np.linalg.svd

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == solver.__name__:
                calls.append(1)
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @staticmethod
    def _formations(monkeypatch):
        """The counts of the calls that form a system's load-independent
        part: its rows (`_CollocationTables._operators`), the halves' C,
        a factorization and an SVD from solver."""
        calls = dict.fromkeys(("_operators", "_half_constraints", "_factor"),
                              0)

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        counting(solver._CollocationTables, "_operators")
        counting(solver, "_half_constraints")
        counting(solver, "_factor")
        svds = TestKeptReductions._factorizations(monkeypatch)
        return calls, svds

    @staticmethod
    def _system_bytes(system, point=...):
        """The bytes of a system's rows, constraints, row scales and
        right-hand side, or of one point's of a stack."""
        return [a[point].tobytes() for a in (system.rows, system.constraints,
                                             system.row_scale, system.rhs)]

    def _cold(self, node_side, load, gamma1, row_scaling=True):
        return self._solved(solver._CollocationTables(node_side, 16), load,
                            gamma1, row_scaling)

    def test_cold_warm_alone_and_stacked(self, node_side, load_h):
        want = {g: self._cold(node_side, load_h, g) for g in self.GRID}
        tables = solver._CollocationTables(node_side, 16)
        for _ in range(2):
            assert [self._solved(tables, load_h, g) for g in self.GRID] \
                == [want[g] for g in self.GRID]
        for order in itertools.permutations(self.GRID[:3]):
            tables = solver._CollocationTables(node_side, 16)
            for grid in (order, order[::-1]):
                assert self._stacked(tables, load_h, grid) \
                    == [want[g] for g in grid]
        # a stack of kept and new points
        tables = solver._CollocationTables(node_side, 16)
        assert self._solved(tables, load_h, 0.5) == want[0.5]
        assert self._stacked(tables, load_h, self.GRID[::-1]) \
            == [want[g] for g in self.GRID[::-1]]

    def test_another_load_at_the_same_gamma1(self, node_side, load_h, load_v,
                                             monkeypatch):
        want = {load: self._cold(node_side, load, 1.0)
                for load in (load_h, load_v)}
        tables = solver._CollocationTables(node_side, 16)
        calls = self._factorizations(monkeypatch)
        assert self._solved(tables, load_v, 1.0) == want[load_v]
        assert self._solved(tables, load_h, 1.0) == want[load_h]
        assert len(calls) == 2

    def test_evicted_entry_and_the_bound(self, node_side, load_h,
                                         monkeypatch):
        want = self._cold(node_side, load_h, 1.0)
        tables = solver._CollocationTables(node_side, 16)
        assert self._solved(tables, load_h, 1.0) == want
        for g in np.geomspace(0.3, 3.0, solver.KEPT_REDUCTIONS + 2):
            self._solved(tables, load_h, g)
            assert len(tables._kept) <= solver.KEPT_REDUCTIONS
        tables.systems(load_h, np.geomspace(0.2, 0.4, 20))
        assert len(tables._kept) == solver.KEPT_REDUCTIONS
        calls = self._factorizations(monkeypatch)
        assert self._solved(tables, load_h, 1.0) == want
        assert len(calls) == 2

    def test_row_scaling_keys_apart(self, node_side, load_h, monkeypatch):
        want = {scaled: self._cold(node_side, load_h, 1.0, scaled)
                for scaled in (True, False)}
        tables = solver._CollocationTables(node_side, 16)
        calls = self._factorizations(monkeypatch)
        for scaled in (True, False, True, False):
            assert self._solved(tables, load_h, 1.0, scaled) == want[scaled]
        assert len(calls) == 4 and len(tables._kept) == 2

    def test_replaced_systems_factor_their_own_and_writes_raise(
            self, node_side, load_h, monkeypatch):
        # the kept reduction is read only by the systems the tables built,
        # whose arrays refuse a write
        tables = solver._CollocationTables(node_side, 16)
        system = tables.system(load_h, 1.0)
        calls = self._factorizations(monkeypatch)
        system.reduction
        assert calls == []
        rows = system.rows.copy()
        rows[0, 0, 0] *= 2.0
        changed = replace(system, rows=rows)
        assert changed.kept is None
        changed.reduction
        assert len(calls) == 2
        system = tables.system(load_h, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            system.rows[0, 0, 0] *= 2.0
        assert len(calls) == 2

    def test_warm_solves_form_only_the_load(self, node_side, load_h, load_v,
                                            monkeypatch):
        # a kept gamma1 forms its right-hand side and solves: no rows, no
        # halves' C, no factorization and no SVD, alone or in a stack
        tables = solver._CollocationTables(node_side, 16)
        grid = np.geomspace(0.5, 4.0, 8)
        self._stacked(tables, load_h, grid)
        calls, svds = self._formations(monkeypatch)
        for load in (load_h, load_v):
            self._solved(tables, load, grid[3])
            self._stacked(tables, load, grid)
            self._stacked(tables, load, grid[::-1])
        assert calls == dict.fromkeys(calls, 0) and svds == []
        # a warm system views its entry's arrays
        system = tables.system(load_h, grid[3])
        entry = tables._kept[grid[3:4].view(np.int64).item(), True]
        for name in ("rows", "constraints", "row_scale"):
            assert np.shares_memory(getattr(system, name),
                                    getattr(entry, name))
        # the counts see a cold point
        self._solved(tables, load_h, 3.0)
        assert calls == dict.fromkeys(calls, 1) and len(svds) == 2

    @pytest.mark.parametrize("row_scaling", [True, False])
    def test_warm_systems_are_the_cold_bytes(self, node_side, load_h, load_v,
                                             row_scaling):
        loads = {"h": load_h, "v": load_v}
        grid = self.GRID[:3]
        want = {(name, g): self._system_bytes(solver._CollocationTables(
            node_side, 16).system(load, g, row_scaling))
            for name, load in loads.items() for g in grid}

        def stacked(tables, name, order):
            stack, errors = tables.systems(loads[name], np.array(order),
                                           row_scaling)
            assert errors == [None] * len(order)
            return [self._system_bytes(stack, p) for p in range(len(order))]

        for order in itertools.permutations(grid):
            # a cold stack, a stack of kept and new points, then warm ones
            tables = solver._CollocationTables(node_side, 16)
            assert stacked(tables, "h", order[:2]) \
                == [want["h", g] for g in order[:2]]
            assert stacked(tables, "v", order) \
                == [want["v", g] for g in order]
            for name in loads:
                assert stacked(tables, name, order) \
                    == [want[name, g] for g in order]
                assert [self._system_bytes(tables.system(
                    loads[name], g, row_scaling)) for g in order] \
                    == [want[name, g] for g in order]

    def test_right_hand_side_is_checked_per_call(self, node_side, load_h):
        # a load whose forcing overflows fails at a kept gamma1 as it does
        # cold: the right-hand side's finite check is not kept
        huge = FarFieldLoad(sigma1=1e308, sigma2=0.0)
        tables = solver._CollocationTables(node_side, 16)
        message = "non-finite entries in the collocation system"
        for kept in (False, True):
            assert (len(tables._kept) == 1) == kept
            with pytest.raises(AssemblyError, match=message):
                tables.system(huge, 1.0)
            stack, errors = tables.systems(huge, [1.0])
            assert stack.rows.shape[0] == 0
            assert [str(error) for error in errors] == [message]
            tables.system(load_h, 1.0)
