import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (DensityCoefficients, FarFieldLoad, KernelSet,
                        Material, SurfaceParams, boundary_forcing,
                        face_field_profile, face_fields,
                        far_field_curvature_change, far_field_potentials,
                        make_circular_arc, make_semicircle, make_straight,
                        pv_polynomial, solve_problem,
                        surface_tension_coefficients, traction_jump)
from curvecrack import fields
from curvecrack.densities import (poly_derivative, poly_eval, q_coefficients,
                                  q_polynomial)
from curvecrack.quadrature import gauss_legendre, regular_rule

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_potentials_reference_values():
    assert far_field_potentials(1.0, 0.0, 0.0) == (0.25, pytest.approx(-0.5))
    assert far_field_potentials(0.0, 1.0, 0.0) == (0.25, pytest.approx(0.5))


@settings(max_examples=50, deadline=None)
@given(p=finite, alpha=st.floats(min_value=-3.2, max_value=3.2))
def test_hydrostatic_load_is_angle_independent(p, alpha):
    phi, psi = far_field_potentials(p, p, alpha)
    assert phi == pytest.approx(p / 2.0)
    assert abs(psi) < 1e-12 * max(abs(p), 1.0)


@settings(max_examples=50, deadline=None)
@given(s1=finite, s2=finite, alpha=st.floats(min_value=-3.2, max_value=3.2))
def test_potentials_structure(s1, s2, alpha):
    phi, psi = far_field_potentials(s1, s2, alpha)
    assert np.imag(phi) == 0.0
    assert phi == pytest.approx((s1 + s2) / 4.0)
    assert abs(psi) == pytest.approx(abs(s2 - s1) / 2.0)


def test_load_consistency_validation():
    load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
    assert load.phi_inf == pytest.approx(0.25)
    with pytest.raises(ValueError):
        FarFieldLoad(sigma1=1.0, sigma2=0.0, phi_inf=0.3, psi_inf=-0.5 + 0j)


def test_material_validation():
    with pytest.raises(ValueError):
        Material(mu=-1.0, kappa=2.5)
    with pytest.raises(ValueError):
        Material(mu=60.0, kappa=3.5)
    with pytest.raises(ValueError):
        Material(mu=60.0, kappa=2.5, mode="plane_chaos")
    assert Material.from_poisson(60.0, 0.125).kappa == pytest.approx(2.5)
    ps = Material.from_poisson(60.0, 0.3, mode="plane_stress")
    assert ps.kappa == pytest.approx((3.0 - 0.3) / 1.3)
    with pytest.raises(ValueError):
        Material.from_poisson(60.0, 0.6)
    # nu must lie in (0, 1/2) and agree with kappa in the mode
    assert Material(mu=60.0, kappa=2.5, nu=0.125).nu == 0.125
    assert Material(mu=60.0, kappa=2.9 / 1.1, mode="plane_stress", nu=0.1)
    for nu in (0.1, 0.6, -0.2, 0.0, 0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="Poisson"):
            Material(mu=60.0, kappa=2.5, nu=nu)
    with pytest.raises(ValueError, match="Poisson"):
        Material(mu=60.0, kappa=2.5, mode="plane_stress", nu=0.125)
    with pytest.raises(ValueError):
        Material.from_poisson(60.0, 0.3, mode="plane_chaos")


def test_surface_params_validation():
    assert SurfaceParams(0.0).gamma1 == 0.0
    with pytest.raises(ValueError):
        SurfaceParams(-0.1)


class TestSurfaceTensionCoefficients:
    def test_straight_crack_all_zero(self):
        curve = make_straight(1.0)
        for s in (0.1, 0.5, 0.9):
            assert all(abs(m) == 0.0
                       for m in surface_tension_coefficients(curve, 1.0, s))

    def test_semicircle_closed_forms(self, semicircle):
        for s in (0.0, 0.7, 2.1):
            m1, m2, m3, m4 = surface_tension_coefficients(semicircle, 1.0, s)
            assert complex(m1) == pytest.approx(2j * np.exp(-1j * s))
            assert abs(complex(m2)) < 1e-15
            assert complex(m3) == pytest.approx(-2.0 * np.exp(-1j * s))
            assert complex(m4) == pytest.approx(np.exp(1j * s))

    def test_scaling_with_gamma1(self, semicircle):
        a = surface_tension_coefficients(semicircle, 1.0, 0.9)
        b = surface_tension_coefficients(semicircle, 2.5, 0.9)
        for x, y in zip(a, b):
            assert complex(y) == pytest.approx(2.5 * complex(x))

    def test_gamma_zero(self, arc_half):
        assert all(abs(complex(m)) == 0.0
                   for m in surface_tension_coefficients(arc_half, 0.0, 0.3))


class TestBoundaryForcing:
    def test_classical_limit_straight_vertical(self, material):
        curve = make_straight(1.0)
        load = FarFieldLoad(sigma1=0.0, sigma2=3.0)
        f = complex(boundary_forcing(curve, material, load, 0.0, 0.4))
        assert f == pytest.approx(-3.0)

    def test_classical_limit_formula(self, material, semicircle):
        load = FarFieldLoad(sigma1=1.2, sigma2=-0.4, alpha=0.7)
        for s0 in (0.3, 1.9):
            f = complex(boundary_forcing(semicircle, material, load, 0.0, s0))
            t1 = complex(semicircle.tangent(s0))
            expected = (-2.0 * np.real(load.phi_inf)
                        - np.conj(load.psi_inf) * np.conj(t1) ** 2)
            assert f == pytest.approx(expected)

    def test_zero_load(self, material, semicircle):
        load = FarFieldLoad(sigma1=0.0, sigma2=0.0)
        assert abs(complex(boundary_forcing(semicircle, material, load,
                                            1.3, 0.8))) == 0.0

    def test_linearity_in_load(self, material, semicircle):
        la = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        lb = FarFieldLoad(sigma1=0.0, sigma2=1.0)
        lab = FarFieldLoad(sigma1=1.0, sigma2=1.0)
        s0 = np.array([0.5, 1.5, 2.5])
        fa = boundary_forcing(semicircle, material, la, 1.0, s0)
        fb = boundary_forcing(semicircle, material, lb, 1.0, s0)
        fab = boundary_forcing(semicircle, material, lab, 1.0, s0)
        assert np.allclose(fa + fb, fab, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("gamma1", [0.5, 1.0, 2.0])
    def test_matches_curvature_change_form(self, material, gamma1):
        # f must equal gamma1 (kappa0 dk + i dk') minus the far-field tail,
        # with dk the curvature change of the uniform far field
        for curve in (make_semicircle(), make_circular_arc(0.5)):
            load = FarFieldLoad(sigma1=1.0, sigma2=-0.3, alpha=0.4)
            s0 = np.linspace(0.2, curve.length - 0.2, 7)
            dk, dkp = far_field_curvature_change(curve, material, load, s0)
            t1 = curve.tangent(s0)
            expected = (gamma1 * (curve.kappa0(s0) * dk + 1j * dkp)
                        - 2.0 * np.real(load.phi_inf)
                        - np.conj(load.psi_inf) * np.conj(t1) ** 2)
            got = boundary_forcing(curve, material, load, gamma1, s0)
            assert np.allclose(got, expected, atol=1e-13)

    def test_curvature_change_derivative(self, material, semicircle):
        load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        h = 1e-6
        for s0 in (0.6, 1.7):
            dk_p, _ = far_field_curvature_change(semicircle, material, load,
                                                 s0 + h)
            dk_m, _ = far_field_curvature_change(semicircle, material, load,
                                                 s0 - h)
            _, dkp = far_field_curvature_change(semicircle, material, load, s0)
            assert float(dkp) == pytest.approx((float(dk_p) - float(dk_m))
                                               / (2.0 * h), abs=1e-7)


def _zero_coeffs(curve, gamma1=1.0, n=6):
    return DensityCoefficients(np.zeros(n), np.zeros(n), curve.length, gamma1)


class TestFaceFields:
    def test_uniform_field_straight_vertical(self, material):
        curve = make_straight(1.0)
        load = FarFieldLoad(sigma1=0.0, sigma2=1.0)
        zero = _zero_coeffs(curve)
        for side in ("plus", "minus"):
            smp = face_fields(curve, material, load, zero, side, 0.43)
            assert smp.sigma_n == pytest.approx(1.0, abs=1e-12)
            assert smp.tau_n == pytest.approx(0.0, abs=1e-12)

    def test_uniform_field_matches_tangent_traction(self, material):
        # with zero densities the face traction equals the far-field value
        # on the tangent line for every load and geometry
        rng = np.random.default_rng(8)
        for curve in (make_semicircle(), make_circular_arc(0.4),
                      make_straight(1.7)):
            zero = _zero_coeffs(curve)
            for _ in range(3):
                s1, s2, alpha = rng.uniform(-2, 2, size=3)
                load = FarFieldLoad(sigma1=s1, sigma2=s2, alpha=alpha)
                s0 = rng.uniform(0.2, 0.8) * curve.length
                smp = face_fields(curve, material, load, zero, "plus", s0)
                t1 = complex(curve.tangent(s0))
                expected = (2.0 * np.real(load.phi_inf)
                            + np.conj(load.psi_inf) * np.conj(t1) ** 2)
                assert smp.sigma_n + 1j * smp.tau_n == pytest.approx(expected,
                                                                     abs=1e-11)

    def test_displacement_same_on_both_faces_when_density_zero(
            self, material, semicircle, load_h):
        zero = _zero_coeffs(semicircle)
        p = face_fields(semicircle, material, load_h, zero, "plus", 1.2)
        m = face_fields(semicircle, material, load_h, zero, "minus", 1.2)
        assert p.du1_ds == pytest.approx(m.du1_ds, abs=1e-14)
        assert p.du2_ds == pytest.approx(m.du2_ds, abs=1e-14)

    def test_traction_jump_identity(self, material, semicircle, load_h):
        rng = np.random.default_rng(11)
        coeffs = DensityCoefficients(rng.normal(size=7), rng.normal(size=7),
                                     semicircle.length, gamma1=1.4)
        for s0 in (0.9, semicircle.length / 2, 2.3):
            p = face_fields(semicircle, material, load_h, coeffs, "plus", s0)
            m = face_fields(semicircle, material, load_h, coeffs, "minus", s0)
            jump = (p.sigma_n - m.sigma_n) + 1j * (p.tau_n - m.tau_n)
            q = complex(traction_jump(semicircle, material, 1.4, coeffs, s0))
            assert jump == pytest.approx(2.0 * q, abs=1e-12)

    def test_displacement_jump_identity(self, material, semicircle, load_h):
        # (du1 + i du2)+ - (du1 + i du2)- = i g'(s0) t'(s0) / (2 mu)
        rng = np.random.default_rng(12)
        coeffs = DensityCoefficients(rng.normal(size=6), rng.normal(size=6),
                                     semicircle.length, gamma1=0.8)
        for s0 in (0.7, 1.9):
            p = face_fields(semicircle, material, load_h, coeffs, "plus", s0)
            m = face_fields(semicircle, material, load_h, coeffs, "minus", s0)
            jump = (p.du1_ds - m.du1_ds) + 1j * (p.du2_ds - m.du2_ds)
            gp = complex(coeffs.gprime(s0))
            t1 = complex(semicircle.tangent(s0))
            assert jump == pytest.approx(1j * gp * t1 / (2.0 * material.mu),
                                         abs=1e-12)

    def test_exact_and_discrete_cauchy_agree_at_midpoints(
            self, material, semicircle, load_h):
        rng = np.random.default_rng(13)
        coeffs = DensityCoefficients(rng.normal(size=5), rng.normal(size=5),
                                     semicircle.length, gamma1=1.0)
        n_quad = 2000
        mids = (2 * np.arange(1, 6) - 1) * semicircle.length / (2 * n_quad) \
            + 0.4 * semicircle.length
        # snap to exact midpoints of the discrete rule
        j = np.round(mids * n_quad / semicircle.length - 0.5)
        mids = (2 * j + 1) * semicircle.length / (2 * n_quad)
        for s0 in mids:
            a = face_fields(semicircle, material, load_h, coeffs, "plus",
                            float(s0), n_quad=n_quad, cauchy="exact")
            b = face_fields(semicircle, material, load_h, coeffs, "plus",
                            float(s0), n_quad=n_quad, cauchy="discrete")
            assert a.sigma_n == pytest.approx(b.sigma_n, abs=5e-3)
            assert a.tau_n == pytest.approx(b.tau_n, abs=5e-3)

    @pytest.mark.parametrize("curvature", [1.0, 0.5])
    def test_exact_tractions_converged_in_quadrature(self, material, load_h,
                                                     curvature):
        # independent route: composite Gauss rule split at s0, 8 panels of
        # 24 points on each side, closed-form principal values
        curve = make_circular_arc(curvature)
        l = curve.length
        coeffs = solve_problem(curve, material, load_h, 1.0, N=20)
        kappa = material.kappa
        kset = KernelSet(curve, kappa)
        gp_poly = coeffs.g1 + 1j * coeffs.g2
        q_poly = q_polynomial(curve, material, 1.0, coeffs)
        got, ref = [], []
        for s0 in (0.013 * l, 0.31 * l, 0.5 * l, 0.77 * l):
            rule = [gauss_legendre(24, a, b) for lo, hi in ((0.0, s0), (s0, l))
                    for a, b in zip(np.linspace(lo, hi, 9)[:-1],
                                    np.linspace(lo, hi, 9)[1:])]
            x = np.concatenate([r[0] for r in rule])
            w = np.concatenate([r[1] for r in rule])
            blk = kset.block(x, s0, derivatives=False)
            gp = coeffs.gprime(x)
            q = traction_jump(curve, material, 1.0, coeffs, x)
            reg = np.sum(w * (blk["k1"] * gp + blk["k2"] * np.conj(gp)
                              - 2j * blk["k3"] * q
                              + 2j * blk["k2"] * np.conj(q)))
            sing = (2.0 * pv_polynomial(gp_poly, l, s0)
                    + 2j * (kappa - 1.0) * pv_polynomial(q_poly, l, s0))
            t1 = complex(curve.tangent(s0))
            far = (2.0 * np.real(load_h.phi_inf)
                   + np.conj(load_h.psi_inf) * np.conj(t1) ** 2)
            q0 = complex(traction_jump(curve, material, 1.0, coeffs, s0))
            for side, sign in (("plus", 1.0), ("minus", -1.0)):
                f = face_fields(curve, material, load_h, coeffs, side, s0)
                got.append(f.sigma_n + 1j * f.tau_n)
                ref.append(sign * q0 + far
                           + (sing + reg) / (2.0 * np.pi * (kappa + 1.0)))
        got, ref = np.array(got), np.array(ref)
        assert np.max(np.abs(got - ref)) < 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cauchy", ["exact", "discrete"])
    def test_batched_face_values_match_pointwise(self, material, semicircle,
                                                 load_h, cauchy):
        rng = np.random.default_rng(17)
        coeffs = DensityCoefficients(rng.normal(size=9), rng.normal(size=9),
                                     semicircle.length, gamma1=1.0)
        n_quad = 400

        def evaluator(points):
            return fields._FieldEvaluator(semicircle, material, load_h,
                                          points, coeffs.degree,
                                          n_quad=n_quad, cauchy=cauchy)

        # cell midpoints of the discrete rule, which never hit its nodes
        j = np.sort(rng.choice(n_quad, size=37, replace=False))
        grid = (2 * j + 1) * semicircle.length / (2 * n_quad)
        traction, du = evaluator(grid).face_values(coeffs)
        assert traction.shape == du.shape == (2, len(grid))
        for k, s0 in enumerate(grid):
            one_t, one_du = evaluator([s0]).face_values(coeffs)
            for got, want in ((traction[:, k], one_t[:, 0]),
                              (du[:, k], one_du[:, 0])):
                assert np.all(np.abs(got - want)
                              <= 1e-13 * np.abs(want) + 1e-13)

    @pytest.mark.parametrize("curve", [make_semicircle(),
                                       make_circular_arc(0.5)],
                             ids=["semicircle", "arc"])
    def test_batched_face_operator_derivatives_match_pointwise(
            self, material, curve):
        # the assembly path: Sigma, omega, omega' and omega'' of several
        # density columns at once
        rng = np.random.default_rng(19)
        g1, g2 = rng.normal(size=(2, 3, 9))
        q = q_coefficients(curve, material, 1.0, g1, g2)

        def apply(points):
            op = fields._FaceOperator(curve, material.kappa, points, 8,
                                      derivatives=True)
            return op.apply(g1 + 1j * g2, q)

        grid = np.sort(rng.uniform(0.005, 0.995, 37)) * curve.length
        batched = apply(grid)
        assert batched.shape == (4, len(grid), 3)
        for k, s0 in enumerate(grid):
            one = apply(np.array([s0]))[:, 0]
            assert np.all(np.abs(batched[:, k] - one)
                          <= 1e-13 * np.abs(one) + 1e-13)

    @pytest.mark.parametrize("curve", [make_semicircle(),
                                       make_circular_arc(0.5)],
                             ids=["semicircle", "arc"])
    def test_apply_matches_all_twelve_kernel_arrays(self, material, curve):
        # the operator drops d2 and dd2 and sums the constant k2 once; an
        # explicit evaluation on the same Gauss rule with every array of
        # KernelSet.block and pointwise principal values agrees
        rng = np.random.default_rng(23)
        g1, g2 = rng.normal(size=(2, 3, 9))
        gp_poly = g1 + 1j * g2
        q_poly = q_coefficients(curve, material, 1.0, g1, g2)
        l, kappa = curve.length, material.kappa
        grid = np.sort(rng.uniform(0.005, 0.995, 21)) * l
        got = fields._FaceOperator(curve, kappa, grid, 8,
                                   derivatives=True).apply(gp_poly, q_poly)

        nodes, w = regular_rule(l)
        blk = KernelSet(curve, kappa).block(nodes, grid[:, None])
        assert len(blk) == 12

        def nodal(p):
            return np.array([poly_eval(c, nodes, l) for c in p]).T

        gp = w[:, None] * nodal(gp_poly)
        wq = -2j * w[:, None] * nodal(q_poly)
        conj = w[:, None] * np.conj(nodal(gp_poly - 2j * q_poly))
        reg = [blk["k1"] @ gp + blk["k3"] @ wq + blk["k2"] @ conj]
        for key in ("k", "d", "dd"):
            reg.append(blk[key + "4"] @ gp + kappa * (blk[key + "1"] @ wq)
                       - blk[key + "2"] @ conj)

        def pv(polys):
            return np.array([pv_polynomial(c, l, grid) for c in polys]).T

        def at(polys, s):
            return np.array([poly_eval(c, s, l) for c in polys])

        omega = (kappa - 1.0) * gp_poly - 4j * kappa * q_poly
        omega1 = poly_derivative(omega)
        a, b = 1.0 / (l - grid)[:, None], 1.0 / grid[:, None]
        sing = [pv(2.0 * gp_poly + 2j * (kappa - 1.0) * q_poly), pv(omega),
                pv(omega1) - at(omega, l) * a - at(omega, 0.0) * b,
                pv(poly_derivative(omega1)) - at(omega1, l) * a
                - at(omega1, 0.0) * b - at(omega, l) * a * a
                + at(omega, 0.0) * b * b]
        want = np.stack([p + r for p, r in zip(sing, reg)]) \
            / (2.0 * np.pi * (kappa + 1.0))
        assert got.shape == want.shape == (4, len(grid), 3)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-13)

    def test_validation_errors(self, material, semicircle, load_h):
        zero = _zero_coeffs(semicircle)
        with pytest.raises(ValueError):
            face_fields(semicircle, material, load_h, zero, "top", 1.0)
        with pytest.raises(ValueError):
            face_fields(semicircle, material, load_h, zero, "plus", -0.1)
        disc_node = semicircle.length * 3 / 10.0
        with pytest.raises(ValueError):
            face_fields(semicircle, material, load_h, zero, "plus",
                        float(disc_node), n_quad=10, cauchy="discrete")

    def test_profile_shape(self, material, semicircle, load_h):
        zero = _zero_coeffs(semicircle)
        prof = face_field_profile(semicircle, material, load_h, zero,
                                  [0.5, 1.0, 1.5])
        assert len(prof) == 6
        assert {p.side for p in prof} == {"plus", "minus"}
