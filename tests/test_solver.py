import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (AssemblyError, CrackCurve, DensityCoefficients,
                        Discretization, FarFieldLoad, KernelSet, LinearSystem,
                        Material, SolveError, SurfaceParams, assemble,
                        boundary_forcing, make_circular_arc, make_semicircle,
                        make_straight, pv_cauchy_sum, pv_polynomial,
                        single_valued_integral, single_valued_residual, solve,
                        solve_problem, tip_condition_residuals, traction_jump,
                        traction_jump_parts)
from curvecrack import quadrature, solver
from curvecrack.densities import (_times_derivative, basis, cauchy_densities,
                                  poly_derivative, poly_eval, pv_monomials,
                                  q_coefficients, q_polynomial)
from curvecrack.fields import _FaceOperator
from curvecrack.quadrature import gauss_legendre


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
        cases = [(poly_eval(coeffs.g1, s, l), coeffs.g1),
                 (coeffs.gprime(s), coeffs.g1 + 1j * coeffs.g2),
                 (q_poly, q_polynomial(semicircle, material, gamma1, coeffs))]
        for got, c in cases:
            ref = np.polynomial.polynomial.polyval(x, c)
            bound = 1e-13 * np.polynomial.polynomial.polyval(np.abs(x),
                                                             np.abs(c))
            assert np.shape(got) == shape
            assert np.all(np.abs(got - ref) <= bound)


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
        co = solve(system, semicircle)
        co_scaled = solve(assemble(semicircle, material, load_h, 1.0, disc),
                          semicircle)
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
    tips = basis([0.0, curve.length], curve.length, degree).T
    sigma, omega = cauchy_densities(gp @ tips, gamma1 * (q_unit @ tips),
                                    kappa)
    rows = [-omega.imag, 0.5 * sigma.real]
    if curve.constant_curvature == 0.0:
        gpp = poly_derivative(gp) @ tips[:degree]
        rows += [gpp.real, gpp.imag]
    return [row[..., tip] for tip in (0, 1) for row in rows]


def _operator_system(curve, material, gamma1, N):
    """The unscaled system the face operator gives for the basis columns.

    The direct assembly at one gamma1: `_FaceOperator.apply` on all 2N+2
    basis columns with q at this gamma1, then the traction and
    face-curvature rows, the single-valuedness rows and the tip rows.  The
    tabulation as a quadratic in gamma1 must reproduce it.
    """
    kappa, mu = material.kappa, material.mu
    eye, zero = np.eye(N + 1), np.zeros((N + 1, N + 1))
    g1, g2 = np.vstack([eye, zero]), np.vstack([zero, eye])
    gp = g1 + 1j * g2
    q_unit = q_coefficients(curve, material, 1.0, g1, g2)
    disc = Discretization(N, curve.length)
    op = _FaceOperator(curve, kappa, disc.collocation_points, N,
                       derivatives=True)
    sigma, omega, omega1, omega2 = op.apply(gp, gamma1 * q_unit)
    k0 = curve.constant_curvature
    dk = -(k0 * omega.real - omega1.imag) / (2.0 * mu)
    dk1 = -(k0 * omega1.real - omega2.imag) / (2.0 * mu)
    rows = (kappa + 1.0) * np.vstack([sigma.real - gamma1 * k0 * dk,
                                      sigma.imag - gamma1 * dk1])
    ints = solver._single_valued_integrals(curve, N)
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
    op = _FaceOperator(curve, kappa, Discretization(N, curve.length)
                       .collocation_points, N, derivatives=True)
    reg, (a, b), (at0, atl) = op._reg, op._inv_ends, op._ends
    pv = op._pv
    pv1 = _times_derivative(pv) - (atl * a + at0 * b)
    pv2 = _times_derivative(pv1) - (atl * a * a - at0 * b * b)
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
    q_unit = q_coefficients(curve, material, 1.0, g1, g2)
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
    # the blocks and tip rows themselves against the column-for-column
    # route, to rounding of each row's largest entry
    tables = solver._CollocationTables(curve, material, disc)
    for got, want in zip(tables.blocks + tables.tip_rows,
                         _table_blocks(curve, material, N)):
        assert got.shape == want.shape
        tol = 1e-14 * np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)


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
        d = poly_derivative(coef)
        dd = poly_derivative(d)
        v = pv_polynomial(coef, l, s0)
        p_l, p_0 = poly_eval(coef, l, l), poly_eval(coef, 0.0, l)
        d_l, d_0 = poly_eval(d, l, l), poly_eval(d, 0.0, l)
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
            solve(system, semicircle)
        system.condition_estimate = float("nan")
        with pytest.raises(SolveError):
            solve(system, semicircle)

    def test_one_factorization_per_system(self, material, semicircle, load_h,
                                          monkeypatch):
        # the gate, solve and the dump share one null-space reduction: one
        # SVD of the constraint block, one of the reduced block, no lstsq
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
        coeffs = solve(system, semicircle)
        text = system.dump_text()
        assert calls == {"svd": 2, "lstsq": 0}
        line, = [ln for ln in text.splitlines()
                 if ln.startswith("condition_estimate ")]
        assert float(line.split()[1]) == coeffs.condition_estimate

    def test_stack_gates_each_point(self, material, semicircle, load_h):
        # a zero reduced block fails the condition gate of its own point;
        # the other point of the stack solves as it does alone
        disc = Discretization(12, semicircle.length)
        tables = solver._CollocationTables(semicircle, material, disc)
        stack, errors = tables.systems(load_h, [0.5, 1.0])
        assert errors == [None, None]
        stack.matrix[0, : -stack.n_constraints] = 0.0
        x, errors = solver._solutions(stack)
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
        coeffs = solve(system, curve)
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
        disc = Discretization(12, semicircle.length)
        system = assemble(semicircle, material, load_h, 1.0, disc)
        calls = []
        rebuild = solver._jump_table
        monkeypatch.setattr(solver, "_jump_table",
                            lambda *a: calls.append(a) or rebuild(*a))
        coeffs = solve(system, semicircle)
        assert calls == []
        assert coeffs.single_valued_residual \
            == single_valued_residual(coeffs, semicircle)
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
        got = solver._single_valued_integrals(curve, degree)
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
        cells = (wt @ basis(x, curve.length, N))[:, 0]
        want = np.concatenate([np.zeros((1, N + 1)),
                               np.cumsum(cells, axis=0)])
        # the single-valuedness integrals are the same closed form at s = l
        got = np.vstack([solver._jump_table(curve, N),
                         solver._single_valued_integrals(curve, N)])
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
            q_coefficients(curve, material, 1.0, g1, g2)[None]))[:, 0] \
            / solver._sup_gprime(coeffs, curve)
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(got) - want)) \
            <= 1e-13 * np.max(np.abs(want))

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
