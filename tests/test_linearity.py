"""Properties of the whole pipeline in the load: solve, face fields, opening.

At a fixed principal-axis angle the far-field potentials are linear in the
remote stresses, and so are the forcing, the solved density, the face
fields (density part plus far field) and the opening.  A zero load has the
zero density, with no rounding at all.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecrack import (FarFieldLoad, Material, make_circular_arc,
                        make_semicircle, make_straight, opening_profile,
                        solve_problem)
from curvecrack.fields import _FieldEvaluator
from curvecrack.quadrature import midpoint_grid

MATERIAL = Material(mu=60.0, kappa=2.5)
# multiples of 1/8 in [-2, 2], so that a L1 + b L2 is formed exactly: with
# any floats one load's share can vanish in the sum (0.78 + 1e-234 rounds
# to 0.78), and the outputs are then linear only to the size of the sum
stress = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8.0)


@st.composite
def problems(draw):
    """(curve, N, gamma1, alpha): the semicircle, an arc with kappa0 in
    [0.2, 1] or the straight crack of length 3, N <= 24 (at least 6, so
    the straight crack's ten constraint rows leave free unknowns)."""
    kind = draw(st.sampled_from(["semicircle", "arc", "straight"]))
    if kind == "semicircle":
        curve = make_semicircle()
    elif kind == "arc":
        curve = make_circular_arc(draw(st.floats(min_value=0.2,
                                                 max_value=1.0)))
    else:
        curve = make_straight(3.0)
    return (curve, draw(st.integers(min_value=6, max_value=24)),
            draw(st.floats(min_value=0.0, max_value=2.0)),
            draw(st.floats(min_value=-np.pi, max_value=np.pi)))


def _outputs(curve, N, gamma1, load):
    """g' at 201 points, both faces' traction and du/ds at 41 points and
    the complex opening jump, for one load."""
    coeffs = solve_problem(curve, MATERIAL, load, gamma1, N=N)
    ev = _FieldEvaluator(curve, MATERIAL, load,
                         midpoint_grid(curve.length, 41), N)
    traction, du = ev.face_values(coeffs)
    return (coeffs.gprime(np.linspace(0.0, curve.length, 201)), traction,
            du, opening_profile(coeffs, curve, MATERIAL).jump)


@settings(max_examples=30, deadline=None)
@given(problem=problems(), s1=stress, s2=stress, t1=stress, t2=stress,
       a=stress, b=stress)
def test_outputs_are_linear_in_the_load(problem, s1, s2, t1, t2, a, b):
    curve, N, gamma1, alpha = problem
    one = _outputs(curve, N, gamma1, FarFieldLoad(s1, s2, alpha))
    two = _outputs(curve, N, gamma1, FarFieldLoad(t1, t2, alpha))
    both = _outputs(curve, N, gamma1,
                    FarFieldLoad(a * s1 + b * t1, a * s2 + b * t2, alpha))
    for x, y, z in zip(one, two, both):
        scale = max(np.max(np.abs(a * x)), np.max(np.abs(b * y)),
                    np.max(np.abs(z)))
        assert np.max(np.abs(z - (a * x + b * y))) <= 1e-8 * scale


@settings(max_examples=20, deadline=None)
@given(problem=problems())
def test_zero_load_gives_exactly_zero(problem):
    curve, N, gamma1, alpha = problem
    load = FarFieldLoad(0.0, 0.0, alpha)
    coeffs = solve_problem(curve, MATERIAL, load, gamma1, N=N)
    assert not np.any(coeffs.g1) and not np.any(coeffs.g2)
    ev = _FieldEvaluator(curve, MATERIAL, load,
                         midpoint_grid(curve.length, 41), N)
    traction, du = ev.face_values(coeffs)
    assert not np.any(traction) and not np.any(du)
