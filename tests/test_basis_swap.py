"""The density basis is an interface that `densities` alone owns.

Replacing only the four basis primitives of `densities` (the basis table,
the derivative matrix D, the principal-value table and the tangent
integrals) by those of the scaled monomials ((s - l/2)/(l/2))^k, and
patching no other module, must give the same solve: the same g', the same
opening and the same largest face traction, to 1e-9 relative.  The solve
runs without row scaling and with the Tikhonov weight `solver.LAMBDA_REL`
at 1e-15, so that neither the row weights nor the damping, which depend on
the scale of the columns, tells the two bases apart.
"""

import numpy as np
import pytest

from curvecrack import (Discretization, FarFieldLoad, Material, densities,
                        make_circular_arc, make_semicircle, make_straight,
                        max_face_traction, opening_profile, solver)

MATERIAL = Material(mu=60.0, kappa=2.5)
LOAD = FarFieldLoad(sigma1=1.0, sigma2=0.5, alpha=0.3)
CURVES = {"semicircle": make_semicircle(), "arc0.5": make_circular_arc(0.5),
          "straight3": make_straight(3.0)}
PRIMITIVES = ("basis", "_derivative_matrix", "pv_monomials",
              "_tangent_integrals")


def _scaled_primitives():
    """The primitives of phi_k = ((s - l/2)/L)^k, L = l/2, from the
    parent's: the basis table, the principal values and the tangent
    integrals are the parent's times L^-k, and D[k - 1, k] = k/L.

    The parent's functions look each other up in the module's namespace,
    so each runs with the parent's primitives put back for its call.
    """
    parent = {name: getattr(densities, name) for name in PRIMITIVES}

    def with_parent(fn):
        def call(*args):
            swapped = {name: getattr(densities, name) for name in parent}
            vars(densities).update(parent)
            try:
                return fn(*args)
            finally:
                vars(densities).update(swapped)
        return call

    def scale(length, degree):
        return (0.5 * length) ** -np.arange(degree + 1.0)

    basis, pv, tangent = (with_parent(parent[name]) for name in (
        "basis", "pv_monomials", "_tangent_integrals"))
    return {
        "basis": lambda s, length, degree:
            basis(s, length, degree) * scale(length, degree),
        "_derivative_matrix": lambda length, degree:
            np.diag(np.arange(1.0, degree + 1) / (0.5 * length), 1),
        "pv_monomials": lambda length, s0, kmax:
            pv(length, s0, kmax) * scale(length, kmax),
        "_tangent_integrals": lambda curve, degree, s:
            tangent(curve, degree, s) * scale(curve.length, degree),
    }


def _outputs(curve, gamma1, N):
    """The coefficients, g' at 201 points, the opening jump and the
    largest face traction of one unscaled solve."""
    disc = Discretization(N, curve.length)
    coeffs = solver.solve(solver.assemble(curve, MATERIAL, LOAD, gamma1,
                                          disc, row_scaling=False), curve)
    return (coeffs.g1, coeffs.gprime(np.linspace(0.0, curve.length, 201)),
            opening_profile(coeffs, curve, MATERIAL).jump,
            max_face_traction(curve, MATERIAL, LOAD, coeffs))


@pytest.mark.parametrize("N", [8, 12, 16, 20])
@pytest.mark.parametrize("shape", CURVES)
def test_scaled_monomials_give_the_same_solve(monkeypatch, shape, N):
    monkeypatch.setattr(solver, "LAMBDA_REL", 1e-15)
    curve = CURVES[shape]
    gammas = (0.0, 0.25, 1.0)
    want = [_outputs(curve, gamma1, N) for gamma1 in gammas]
    for name, fn in _scaled_primitives().items():
        monkeypatch.setattr(densities, name, fn)
    for gamma1, (g1, *parent) in zip(gammas, want):
        scaled_g1, *got = _outputs(curve, gamma1, N)
        # the swap took: the coefficients are those of another basis
        assert not np.allclose(scaled_g1, g1)
        for x, y in zip(got, parent):
            assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y)), \
                gamma1
