import numpy as np
import pytest

from curvecrack import (CrackCurve, Discretization, FarFieldLoad, KernelSet,
                        boundary_forcing, fredholm_operator, kernels,
                        make_circular_arc, make_semicircle, make_straight)
from curvecrack.densities import basis
from curvecrack.quadrature import midpoint_grid, regular_rule

KAPPA = 2.5

# frozen oracle values from a 50-digit independent evaluation of the kernel
# formulas on the unit semicircle t(s) = exp(i s), kappa = 2.5
SEMI_OFFDIAG = {  # (s, s0) = (1.0, 0.5)
    1: -0.56310817395826289523 + 1.8775825618903727161j,
    2: 0.0 - 1.0j,
    3: 1.2613258230260524219 - 2.9439564047259317903j,
    4: 0.41666356208865807905 - 0.12758256189037271612j,
}
SEMI_NEARDIAG = {  # (s, s0) = (pi/2 + 1e-9, pi/2), inside the series band
    1: -1.1666666666666666e-09 + 2.0j,
    2: -1.0j,
    3: 2.6249999999999999e-09 - 3.25j,
    4: 8.7499999999999998e-10 - 0.25j,
}
ARC_OFFDIAG = {  # curvature 0.5, (s, s0) = (1.5, 0.4)
    1: -0.30740970117089076499 + 0.9262622610297528714j,
    2: 0.0 - 0.5j,
    3: 0.68790860119249484556 - 1.4406556525743821785j,
    4: 0.22679404943615869807 - 0.051262261029752871402j,
}


@pytest.fixture(scope="module")
def kset_semi(semicircle):
    return KernelSet(semicircle, KAPPA)


@pytest.fixture(scope="module")
def kset_arc(arc_half):
    return KernelSet(arc_half, KAPPA)


def test_offdiagonal_against_frozen_oracle(kset_semi, kset_arc):
    for j, ref in SEMI_OFFDIAG.items():
        assert abs(complex(kset_semi.kernel(j, 1.0, 0.5)) - ref) < 1e-13
    for j, ref in ARC_OFFDIAG.items():
        assert abs(complex(kset_arc.kernel(j, 1.5, 0.4)) - ref) < 1e-13


def test_near_diagonal_series_against_frozen_oracle(kset_semi):
    s0 = np.pi / 2
    for j, ref in SEMI_NEARDIAG.items():
        assert abs(complex(kset_semi.kernel(j, s0 + 1e-9, s0)) - ref) < 1e-12


def test_diagonal_value_is_finite_limit(kset_semi):
    s0 = 1.234
    on_diag = {j: complex(kset_semi.kernel(j, s0, s0)) for j in (1, 2, 3, 4)}
    near = {j: complex(kset_semi.kernel(j, s0 + 1e-10, s0))
            for j in (1, 2, 3, 4)}
    for j in (1, 2, 3, 4):
        assert np.isfinite(on_diag[j].real) and np.isfinite(on_diag[j].imag)
        assert abs(on_diag[j] - near[j]) < 1e-9


def test_regularity_cauchy_sequence(kset_semi, semicircle):
    # approaching the diagonal, kernel values settle instead of blowing up
    rng = np.random.default_rng(5)
    for s0 in rng.uniform(0.2, semicircle.length - 0.2, size=20):
        for j in (1, 2, 3, 4):
            vals = [complex(kset_semi.kernel(j, s0 + 10.0**-m, s0))
                    for m in range(2, 9)]
            steps = np.abs(np.diff(vals))
            assert np.all(np.isfinite(np.abs(vals)))
            assert steps[-1] < 1e-5
            assert np.max(np.abs(vals)) < 10.0 * (abs(vals[0]) + 1.0)


def test_straight_crack_annihilation():
    kset = KernelSet(make_straight(1.0), KAPPA)
    s = np.linspace(0.0, 1.0, 20)
    for s0 in np.linspace(0.02, 0.98, 20):
        blk = kset.block(s, s0)
        for key, arr in blk.items():
            assert np.max(np.abs(arr)) <= 1e-13


@pytest.mark.parametrize("which", ["semi", "arc"])
def test_derivatives_match_finite_differences(which, kset_semi, kset_arc):
    kset = kset_semi if which == "semi" else kset_arc
    l = kset.curve.length
    h = 1e-5 * l
    ss = np.linspace(0.05 * l, 0.95 * l, 20)
    for s0 in np.linspace(0.07 * l, 0.93 * l, 20):
        mask = np.abs(ss - s0) > l / 20.0
        s_use = ss[mask]
        for j in (1, 2, 3, 4):
            d1, d2 = kset.kernel_derivatives(j, s_use, s0)
            fd1 = (kset.kernel(j, s_use, s0 + h)
                   - kset.kernel(j, s_use, s0 - h)) / (2.0 * h)
            kp, _ = kset.kernel_derivatives(j, s_use, s0 + h)
            km, _ = kset.kernel_derivatives(j, s_use, s0 - h)
            fd2 = (kp - km) / (2.0 * h)
            # absolute guard covers kernels whose derivative is identically
            # zero (k2 is constant along circular arcs)
            assert np.all(np.abs(d1 - fd1) <= 1e-5 * np.abs(fd1) + 1e-5)
            assert np.all(np.abs(d2 - fd2) <= 1e-5 * np.abs(fd2) + 1e-5)


def test_series_and_closed_form_agree_at_cut():
    # c = cot x - 1/x, c' and c'' switch from the series to the closed
    # form at |x| = 1/2; both sides must give the same values there
    x = np.array([-kernels._CUT, kernels._CUT])
    series = kernels._series_parts(x, derivatives=True)
    closed = kernels._closed_parts(x, derivatives=True)
    for a, b in zip(series, closed):
        assert np.max(np.abs(a - b)) <= 1e-14


def test_kernel_index_validation(kset_semi):
    with pytest.raises(ValueError):
        kset_semi.kernel(5, 1.0, 0.5)
    with pytest.raises(ValueError):
        kset_semi.kernel_derivatives(0, 1.0, 0.5)


ARC_CURVATURES = (1.0, 0.9, 0.5, 0.3)


@pytest.mark.parametrize("k0", ARC_CURVATURES)
def test_arc_k2_is_exactly_constant(k0):
    # on a circular arc k2 = -i kappa0 and its s0-derivatives vanish
    curve = make_circular_arc(k0)
    l = curve.length
    s = np.linspace(0.0, l, 97)
    s0 = np.concatenate([np.linspace(0.01 * l, 0.99 * l, 15),
                         s[[5, 50]] + 1e-9 * l])[:, None]
    blk = KernelSet(curve, KAPPA).block(s, s0)
    assert np.all(blk["k2"] == -1j * k0)
    assert not np.any(blk["d2"]) and not np.any(blk["dd2"])


@pytest.mark.parametrize("k0", ARC_CURVATURES)
def test_kernels_against_mpmath_closed_form(k0):
    # k, dk/ds0 and d2k/ds0^2 from |s - s0| = 1e-5 l to 0.3 l on either
    # side of s0, and just inside and outside the series cut |s - s0| = R
    # (the x-form is analytic in s, so s may leave [0, l] there), against
    # a 40-digit evaluation of the closed form in D = t(s) - t(s0),
    # F = 1/D, G = 1/conj(D) and r = conj(t'(s0))/t'(s0)
    import mpmath as mp

    def t(v):  # the arc's centre cancels in D
        return radius * mp.expj(theta0 + v / radius)

    def t1(v):
        return 1j * mp.expj(theta0 + v / radius)

    def kernel(j, s, s0):
        ds = s - s0
        D = t(s) - t(s0)
        F, G = 1 / D, 1 / mp.conj(D)
        u, r = t1(s), mp.conj(t1(s0)) / t1(s0)
        if j == 1:
            return -2 / ds + u * F + u * r * G
        if j == 3:
            return (KAPPA - 1) / ds + u * F - KAPPA * u * r * G
        return -(KAPPA - 1) / ds + KAPPA * u * F - u * r * G

    kset = KernelSet(make_circular_arc(k0), KAPPA)
    l = kset.curve.length
    s0 = 0.4 * l
    gaps = np.concatenate([np.geomspace(1e-5, 0.3, 6) * l,
                           np.array([0.98, 1.02]) * kset.eps_d])
    s = np.concatenate([s0 - gaps, s0 + gaps])
    blk = kset.block(s, s0)
    with mp.workdps(40):
        radius = 1 / mp.mpf(k0)
        theta0 = mp.pi / 2 - mp.asin(mp.mpf(k0))
        for j in (1, 3, 4):
            # Taylor coefficients in s0: k, dk/ds0 and (d2k/ds0^2)/2
            ref = np.array([
                [complex(c) for c in mp.taylor(
                    lambda v0: kernel(j, mp.mpf(si), v0), mp.mpf(s0), 2)]
                for si in s]) * [1, 1, 2]
            for order, key in enumerate((f"k{j}", f"d{j}", f"dd{j}")):
                scale = np.max(np.abs(ref[:, order]))
                err = np.max(np.abs(blk[key] - ref[:, order]))
                assert err <= 1e-13 * scale, key


@pytest.mark.parametrize("shape", ["semicircle", "arc", "straight"])
def test_batched_block_matches_pointwise(shape):
    curve = {"semicircle": make_semicircle(), "arc": make_circular_arc(0.5),
             "straight": make_straight(2.0)}[shape]
    kset = KernelSet(curve, KAPPA)
    l = curve.length
    s = np.linspace(0.0, l, 97)
    rng = np.random.default_rng(7)
    # random points, points close to a node, and a node
    s0 = np.concatenate([rng.uniform(0.01 * l, 0.99 * l, 20),
                         s[[10, 48, 80]] + 1e-3 * l, s[[30]]])
    batched = kset.block(s, s0[:, None])
    for arr in batched.values():
        assert arr.shape == (len(s0), len(s))
        if shape == "straight":
            assert not np.any(arr)
    for i, point in enumerate(s0):
        single = kset.block(s, float(point))
        assert set(single) == set(batched)
        for key, arr in single.items():
            assert np.all(np.abs(batched[key][i] - arr)
                          <= 1e-13 * np.abs(arr) + 1e-13), key


class TestFredholmOperator:
    def test_zero_densities_give_forcing(self, kset_semi, semicircle, material):
        load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        disc = Discretization(16, semicircle.length)
        zeros = np.zeros(disc.N + 1, dtype=complex)
        s0 = 1.01
        val = fredholm_operator(kset_semi, material, load, 1.0, disc,
                                zeros, zeros, s0)
        f = complex(boundary_forcing(semicircle, material, load, 1.0, s0))
        assert abs(val - (material.kappa + 1.0) * f) < 1e-14

    def test_straight_crack_reduction(self, material):
        curve = make_straight(1.5)
        kset = KernelSet(curve, material.kappa)
        load = FarFieldLoad(sigma1=0.0, sigma2=2.0)
        disc = Discretization(12, curve.length)
        rng = np.random.default_rng(2)
        gp = rng.normal(size=disc.N + 1) + 1j * rng.normal(size=disc.N + 1)
        q = rng.normal(size=disc.N + 1) + 1j * rng.normal(size=disc.N + 1)
        s0 = 0.8
        val = fredholm_operator(kset, material, load, 1.0, disc, gp, q, s0)
        f = complex(boundary_forcing(curve, material, load, 1.0, s0))
        # all kernels vanish, so only the forcing block survives
        assert abs(val - (material.kappa + 1.0) * f) < 1e-13

    def test_node_collision_rejected(self, kset_semi, semicircle, material):
        load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        disc = Discretization(10, semicircle.length)
        zeros = np.zeros(disc.N + 1, dtype=complex)
        with pytest.raises(ValueError):
            fredholm_operator(kset_semi, material, load, 1.0, disc,
                              zeros, zeros, float(disc.nodes[3]))

    def test_against_adaptive_quadrature(self, kset_semi, semicircle, material):
        # unit density, no traction jump, compared with an independent
        # adaptive integration of the same operator blocks
        from scipy.integrate import quad

        load = FarFieldLoad(sigma1=1.0, sigma2=0.0)
        gamma1 = 1.0
        kappa = material.kappa
        mu = material.mu
        s0 = np.pi / 2
        l = semicircle.length

        def cquad(f):
            re = quad(lambda x: np.real(f(x)), 0.0, l, limit=200)[0]
            im = quad(lambda x: np.imag(f(x)), 0.0, l, limit=200)[0]
            return re + 1j * im

        k = kset_semi
        i_a = cquad(lambda s: k.kernel(1, s, s0) + k.kernel(2, s, s0))
        i_b = (cquad(lambda s: k.kernel(4, s, s0) - k.kernel(2, s, s0))
               / (2.0 * np.pi))
        i_c = cquad(lambda s: 1j * (k.kernel_derivatives(4, s, s0)[0]
                                    - k.kernel_derivatives(2, s, s0)[0]))
        i_d = (cquad(lambda s: (k.kernel_derivatives(4, s, s0)[1]
                                - k.kernel_derivatives(2, s, s0)[1]))
               / (2.0 * np.pi))
        k0 = 1.0
        expected = (-i_a / (2.0 * np.pi)
                    - (gamma1 / (2.0 * mu)) * k0 * k0 * np.real(i_b)
                    - (gamma1 / (4.0 * np.pi * mu)) * k0 * i_c
                    + 1j * (gamma1 / (2.0 * mu)) * np.imag(i_d))
        expected += (kappa + 1.0) * complex(
            boundary_forcing(semicircle, material, load, gamma1, s0))

        # odd node count keeps pi/2 strictly between nodes
        disc = Discretization(39999, l)
        ones = np.ones(disc.N + 1, dtype=complex)
        zeros = np.zeros(disc.N + 1, dtype=complex)
        val = fredholm_operator(kset_semi, material, load, gamma1, disc,
                                ones, zeros, s0)
        assert abs(val - expected) <= 1e-4 * abs(expected)


# curves of the kernel tables: |kappa0| l/2 runs from 0.30 (arc0.3) through
# pi/2 (semicircle) to 0.9 pi, near the pi at which an arc closes
CURVES = {"semicircle": make_semicircle(),
          "arc0.3": make_circular_arc(0.3),
          "arc0.9": make_circular_arc(0.9),
          "arc-0.5": CrackCurve(length=2.0 * np.pi / 3.0, shape="arc",
                                constant_curvature=-0.5),
          "arc3pi/4": CrackCurve(length=1.5 * np.pi, shape="arc",
                                 constant_curvature=1.0),
          "arc0.9pi": CrackCurve(length=1.8 * np.pi, shape="arc",
                                 constant_curvature=1.0),
          "straight": make_straight(2.0)}


@pytest.mark.parametrize("N", [8, 20, 60, 80])
@pytest.mark.parametrize("derivatives", [False, True])
@pytest.mark.parametrize("shape", CURVES)
def test_integrated_matches_block_times_basis(shape, derivatives, N):
    # the tables from the separable series and trigonometric moments against
    # the pointwise kernels summed over the weighted basis of the rule
    curve = CURVES[shape]
    kset = KernelSet(curve, KAPPA)
    l = curve.length
    nodes, w = regular_rule(l)
    wbasis = w[:, None] * basis(nodes, l, N)
    s0 = midpoint_grid(l, N)
    blk = kset.block(nodes, s0[:, None], derivatives=derivatives)
    got = kset.integrated(s0, nodes, wbasis, list(blk))
    assert set(got) == set(blk)
    for key, arr in blk.items():
        want = arr @ wbasis
        assert got[key].shape == want.shape == (N, N + 1)
        if shape == "straight":
            assert not np.any(got[key]), key
        else:
            assert np.max(np.abs(got[key] - want)) \
                <= 1e-13 * np.max(np.abs(want)), key


@pytest.mark.parametrize("shape", ["semicircle", "arc0.9", "arc3pi/4"])
def test_cotangent_tables_against_mpmath(shape):
    # the node sums of c = cot x - 1/x, c' and c'' against the weighted
    # basis at the N = 20 collocation points, from a 40-digit evaluation at
    # every (point, node) pair, to 1e-14 of each table's largest entry
    import mpmath as mp

    curve = CURVES[shape]
    l, a = curve.length, 0.5 * curve.constant_curvature
    nodes, w = regular_rule(l)
    wbasis = w[:, None] * basis(nodes, l, 20)
    s0 = midpoint_grid(l, 20)
    got = KernelSet(curve, KAPPA)._cot_tables(s0, nodes, wbasis, True)
    pairs = np.empty((3, s0.size, nodes.size))
    with mp.workdps(40):
        for m, point in enumerate(s0):
            for k, node in enumerate(nodes):
                x = mp.mpf(a) * (mp.mpf(node) - mp.mpf(point))
                cot = mp.cot(x)
                csc2 = 1 + cot * cot
                pairs[:, m, k] = [float(cot - 1 / x), float(1 / x**2 - csc2),
                                  float(2 * (csc2 * cot - 1 / x**3))]
    for order, (table, ref) in enumerate(zip(got, pairs)):
        want = ref @ wbasis
        assert np.max(np.abs(table - want)) \
            <= 1e-14 * np.max(np.abs(want)), order


def test_integrated_evaluates_no_pair(monkeypatch):
    # the tables come from products of small matrices: the pointwise
    # cotangent of `block` is never evaluated
    calls = []
    cot_parts = kernels._cot_parts
    monkeypatch.setattr(kernels, "_cot_parts",
                        lambda *a: calls.append(a) or cot_parts(*a))
    curve = make_circular_arc(0.6)
    kset = KernelSet(curve, KAPPA)
    nodes, w = regular_rule(curve.length)
    wbasis = w[:, None] * basis(nodes, curve.length, 20)
    s0 = midpoint_grid(curve.length, 20)
    kset.integrated(s0, nodes, wbasis, list(kernels._KEYS[True]))
    assert calls == []
    kset.block(nodes, s0[:, None])
    assert len(calls) == 1


def test_integrated_rejects_a_divergent_series():
    # max|u| + max|v| >= pi: points off the arc, past where the series of
    # c converges
    curve = CURVES["arc0.9pi"]
    nodes, w = regular_rule(curve.length)
    wbasis = w[:, None] * basis(nodes, curve.length, 4)
    with pytest.raises(ValueError, match="pi"):
        KernelSet(curve, KAPPA).integrated(np.array([-0.2 * curve.length]),
                                           nodes, wbasis, ["k1"])
