import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (CrackCurve, GeometryError, make_circular_arc,
                        make_semicircle, make_straight)

ALL_CURVES = [make_semicircle(), make_circular_arc(0.5),
              make_circular_arc(0.25), make_straight(2.0)]


def test_semicircle_endpoints():
    c = make_semicircle()
    assert c.length == pytest.approx(np.pi)
    assert complex(c.point(0.0)) == pytest.approx(1.0 + 0.0j)
    assert complex(c.point(np.pi)) == pytest.approx(-1.0 + 0.0j, abs=1e-14)


def test_semicircle_unit_speed_samples():
    c = make_semicircle()
    for s in (0.0, np.pi / 4, np.pi / 2):
        assert abs(abs(complex(c.tangent(s))) - 1.0) < 1e-15


def test_semicircle_curvature_is_one():
    c = make_semicircle()
    s = np.linspace(0.0, np.pi, 17)
    assert np.allclose(c.kappa0(s), 1.0, atol=1e-14)


def test_arc_unit_curvature_equals_semicircle():
    arc = make_circular_arc(1.0)
    semi = make_semicircle()
    s = np.linspace(0.0, np.pi, 9)
    assert np.allclose(arc.point(s), semi.point(s))
    assert arc.length == semi.length


def test_unit_arc_derivatives_are_the_semicircles():
    # theta0 = pi/2 - arcsin(1) is exactly 0, so the arc formula gives the
    # semicircle's derivatives; only t differs, by the centre's rounding
    s = np.linspace(0.0, np.pi, 97)
    arc = make_circular_arc(1.0).derivatives(s)
    semi = make_semicircle().derivatives(s)
    for a, b in zip(arc[1:], semi[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("curvature", [None, np.nan, np.inf, -np.inf, "1.0",
                                       1j])
def test_curve_rejects_bad_curvature(curvature):
    with pytest.raises(GeometryError, match="curvature"):
        CrackCurve(length=1.0, shape="arc", constant_curvature=curvature)


@pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf, None])
def test_curve_rejects_bad_length(length):
    with pytest.raises(GeometryError, match="length"):
        CrackCurve(length=length, shape="straight", constant_curvature=0.0)


@pytest.mark.parametrize("field, value", [
    ("theta0", np.nan), ("theta0", np.inf), ("theta0", -np.inf),
    ("theta0", None), ("theta0", "0.0"), ("center", np.nan),
    ("center", complex(np.nan, 0.0)), ("center", complex(0.0, np.inf)),
    ("center", -np.inf), ("center", None), ("center", "0j")])
def test_curve_rejects_bad_placement(field, value):
    # a non-finite start angle or center would reach the solver (theta0 =
    # nan as non-finite matrix entries) or the curve's points (center = nan)
    with pytest.raises(GeometryError, match=field):
        CrackCurve(length=1.0, shape="arc", constant_curvature=1.0,
                   **{field: value})


@pytest.mark.parametrize("length, curvature", [(2.0 * np.pi, 1.0),
                                               (7.0, 1.0), (7.0, -1.0),
                                               (20.0, 1.0)])
def test_curve_rejects_closed_arcs(length, curvature):
    # an arc is a Jordan arc only for |kappa0| l < 2 pi
    with pytest.raises(GeometryError, match="Jordan"):
        CrackCurve(length=length, shape="arc", constant_curvature=curvature)
    CrackCurve(length=0.999 * 2.0 * np.pi, shape="arc",
               constant_curvature=curvature)


def test_curve_is_a_record_of_floats():
    c = CrackCurve(length=2, shape="straight", constant_curvature=0)
    assert type(c.length) is float and type(c.constant_curvature) is float
    arc = CrackCurve(length=1.0, shape="arc", constant_curvature=1.0,
                     theta0=np.float64(1), center=np.complex128(2j))
    assert type(arc.theta0) is float and type(arc.center) is complex
    assert not any(callable(getattr(c, f)) for f in c.__dataclass_fields__)


def test_arc_half_curvature_geometry():
    arc = make_circular_arc(0.5)
    assert arc.length == pytest.approx(2.0 * np.pi / 3.0)
    assert complex(arc.point(0.0)) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert complex(arc.point(arc.length)) == pytest.approx(-1.0 + 0.0j,
                                                           abs=1e-13)


def test_arc_length_continuous_at_unit_curvature():
    assert make_circular_arc(1.0 - 1e-8).length == pytest.approx(np.pi,
                                                                 abs=1e-3)


def test_arc_center_distance():
    for kappa0 in (0.25, 0.5, 0.9):
        arc = make_circular_arc(kappa0)
        radius = 1.0 / kappa0
        center = -1j * np.sqrt(radius**2 - 1.0)
        s = np.linspace(0.0, arc.length, 50)
        assert np.max(np.abs(np.abs(arc.point(s) - center) - radius)) < 1e-12


def test_arc_domain_errors():
    for bad in (0.0, -0.5, 1.2, np.inf):
        with pytest.raises(GeometryError):
            make_circular_arc(bad)


def test_straight_basics():
    c = make_straight(2.0)
    s = np.linspace(0.0, 2.0, 11)
    assert np.allclose(c.tangent(s), 1.0)
    assert np.allclose(c.derivatives(s)[2], 0.0)
    assert c.kappa0(np.asarray(0.3)) == 0.0
    assert complex(c.point(2.0)) == 2.0 + 0.0j


def test_straight_domain_errors():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(GeometryError):
            make_straight(bad)


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.shape + str(c.constant_curvature))
def test_unit_speed_everywhere(curve):
    s = np.linspace(0.0, curve.length, 100)
    assert np.max(np.abs(np.abs(curve.derivatives(s)[1]) - 1.0)) <= 1e-10


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.shape + str(c.constant_curvature))
def test_derivative_chain_consistency(curve):
    # each derivative matches a central difference of the next lower one
    l = curve.length
    h = 1e-5 * l
    s = np.linspace(0.05 * l, 0.95 * l, 100)
    d_plus = curve.derivatives(s + h)
    d_minus = curve.derivatives(s - h)
    d_mid = curve.derivatives(s)
    for order in (1, 2, 3, 4):
        fd = (d_plus[order - 1] - d_minus[order - 1]) / (2.0 * h)
        scale = np.maximum(np.abs(d_mid[order]), 1e-8)
        assert np.max(np.abs(d_mid[order] - fd) / scale) < 1e-6


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.shape + str(c.constant_curvature))
def test_curvature_identity(curve):
    # kappa0 = Im(conj(t') t'') for unit-speed curves
    s = np.linspace(0.0, curve.length, 100)
    _, t1, t2, _, _ = curve.derivatives(s)
    assert np.max(np.abs(curve.kappa0(s) - np.imag(np.conj(t1) * t2))) <= 1e-10


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.shape + str(c.constant_curvature))
def test_curvature_derivative_consistency(curve):
    l = curve.length
    h = 1e-5 * l
    s = np.linspace(0.05 * l, 0.95 * l, 50)
    fd = (curve.kappa0(s + h) - curve.kappa0(s - h)) / (2.0 * h)
    assert np.max(np.abs(curve.kappa0_prime(s) - fd)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(kappa0=st.floats(min_value=0.05, max_value=1.0),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_arc_properties_hypothesis(kappa0, frac):
    arc = make_circular_arc(kappa0)
    s = frac * arc.length
    assert abs(abs(complex(arc.tangent(s))) - 1.0) < 1e-12
    assert float(arc.kappa0(np.asarray(s))) == pytest.approx(kappa0)
    assert complex(arc.point(0.0)) == pytest.approx(1.0 + 0j, abs=1e-12)
    assert complex(arc.point(arc.length)) == pytest.approx(-1.0 + 0j, abs=1e-12)
