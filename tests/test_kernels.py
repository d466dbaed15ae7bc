import numpy as np
import pytest

from curvecrack import (Discretization, FarFieldLoad, KernelSet,
                        boundary_forcing, fredholm_operator,
                        make_circular_arc, make_semicircle, make_straight)

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


def test_series_direct_agree_inside_band(semicircle):
    # evaluate the same point through the series path (wide band) and the
    # closed-form path (narrow band)
    wide = KernelSet(semicircle, KAPPA)
    narrow = KernelSet(semicircle, KAPPA, eps_d=0.2 * wide.eps_d)
    s0 = 1.1
    s = s0 + 0.9 * wide.eps_d
    for j in (1, 2, 3, 4):
        v_series = complex(wide.kernel(j, s, s0))
        v_direct = complex(narrow.kernel(j, s, s0))
        assert abs(v_series - v_direct) < 1e-6
        d1_s, d2_s = wide.kernel_derivatives(j, s, s0)
        d1_d, d2_d = narrow.kernel_derivatives(j, s, s0)
        assert abs(d1_s - d1_d) < 1e-4 * (1.0 + abs(d1_d))
        # the series second derivative is first-order accurate in the band
        # width: only derivatives of t up to fourth order are available
        assert abs(d2_s - d2_d) < 2e-2 * (1.0 + abs(d2_d))


def test_kernel_index_validation(kset_semi):
    with pytest.raises(ValueError):
        kset_semi.kernel(5, 1.0, 0.5)
    with pytest.raises(ValueError):
        kset_semi.kernel_derivatives(0, 1.0, 0.5)


def test_custom_band_width(semicircle):
    custom = KernelSet(semicircle, KAPPA, eps_d=0.05)
    default = KernelSet(semicircle, KAPPA)
    assert custom.eps_d == 0.05
    # a point inside the custom band goes through the series path there but
    # through the closed form by default; both must agree
    v_series = complex(custom.kernel(1, 1.04, 1.0))
    v_direct = complex(default.kernel(1, 1.04, 1.0))
    assert abs(v_series - v_direct) < 1e-3


@pytest.mark.parametrize("shape", ["semicircle", "arc", "straight"])
def test_batched_block_matches_pointwise(shape):
    curve = {"semicircle": make_semicircle(), "arc": make_circular_arc(0.5),
             "straight": make_straight(2.0)}[shape]
    kset = KernelSet(curve, KAPPA)
    l = curve.length
    s = np.linspace(0.0, l, 97)
    rng = np.random.default_rng(7)
    # random points, points inside the series band of a node, and a node
    s0 = np.concatenate([rng.uniform(0.01 * l, 0.99 * l, 20),
                         s[[10, 48, 80]] + 0.4 * kset.eps_d, s[[30]]])
    assert np.count_nonzero(np.abs(s - s0[:, None]) < kset.eps_d) >= 4
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
