"""The density basis is one value, `densities.Basis`, that a solve is given.

A solve on a node side of the scaled monomials ((s - l/2)/(l/2))^k, a
`Basis` built here from the primitives of `densities.MONOMIALS`, must give
what the centered monomials give, in the same process: the same g', the
same opening and the same largest face traction, to 1e-9 relative.  The
solve runs without row scaling and with the Tikhonov weight
`solver.LAMBDA_REL` at 1e-15, so that neither the row weights nor the
damping, which depend on the scale of the columns, tells the two bases
apart.

The contract tests below hold every basis the program may use to what the
rest of the program assumes of it: each primitive of degree N is the first
N+1 columns of a higher degree, phi_k(l - s) = (-1)^k phi_k(s)
(`densities._mirror_signs`), the table times D is the derivative of the
table, and the principal values and tangent integrals match mpmath
quadrature.
"""

import functools

import numpy as np
import pytest

from curvecrack import (Discretization, FarFieldLoad, Material,
                        make_circular_arc, make_semicircle, make_straight,
                        max_face_traction, opening_profile, solver)
from curvecrack.densities import MONOMIALS, Basis
from curvecrack.fields import _face_rows, _face_values, _NodeSide

MATERIAL = Material(mu=60.0, kappa=2.5)
LOAD = FarFieldLoad(sigma1=1.0, sigma2=0.5, alpha=0.3)
CURVES = {"semicircle": make_semicircle(), "arc0.5": make_circular_arc(0.5),
          "straight3": make_straight(3.0)}


def _scale(length, degree):
    return (0.5 * length) ** -np.arange(degree + 1.0)


# phi_k = ((s - l/2)/L)^k, L = l/2: the table, the principal values and the
# tangent integrals are those of the monomials times L^-k, and D[k - 1, k]
# = k/L
SCALED = Basis(
    table=lambda s, length, degree:
        MONOMIALS.table(s, length, degree) * _scale(length, degree),
    derivative_matrix=lambda length, degree:
        np.diag(np.arange(1.0, degree + 1) / (0.5 * length), 1),
    pv_table=lambda length, s0, kmax:
        MONOMIALS.pv_table(length, s0, kmax) * _scale(length, kmax),
    tangent_integrals=lambda curve, degree, s:
        MONOMIALS.tangent_integrals(curve, degree, s)
        * _scale(curve.length, degree),
)
BASES = {"monomials": MONOMIALS, "scaled": SCALED}


def _outputs(curve, gamma1, N, basis):
    """The coefficients, g' at 201 points, the opening jump and the
    largest face traction of one unscaled solve in the basis."""
    disc = Discretization(N, curve.length)
    node_side = _NodeSide(curve, MATERIAL, N, basis=basis)
    coeffs = solver.solve(solver.assemble(curve, MATERIAL, LOAD, gamma1,
                                          disc, row_scaling=False,
                                          node_side=node_side))
    assert coeffs.basis is basis
    return (coeffs.g1, coeffs.gprime(np.linspace(0.0, curve.length, 201)),
            opening_profile(coeffs, curve, MATERIAL).jump,
            max_face_traction(curve, MATERIAL, LOAD, coeffs))


@pytest.mark.parametrize("N", [8, 12, 16, 20])
@pytest.mark.parametrize("shape", CURVES)
def test_scaled_monomials_give_the_same_solve(monkeypatch, shape, N):
    monkeypatch.setattr(solver, "LAMBDA_REL", 1e-15)
    curve = CURVES[shape]
    gammas = (0.0, 0.25, 1.0)
    want = [_outputs(curve, gamma1, N, MONOMIALS) for gamma1 in gammas]
    for gamma1, (g1, *parent) in zip(gammas, want):
        scaled_g1, *got = _outputs(curve, gamma1, N, SCALED)
        # the swap took: the coefficients are those of another basis
        assert not np.allclose(scaled_g1, g1)
        for x, y in zip(got, parent):
            assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y)), \
                gamma1


def test_face_values_read_the_density_basis(monkeypatch):
    """The face fields of a density come from the rows of its own basis,
    so the unscaled solves of the two bases give one field.

    The rows of one basis applied to the coefficients of another gave
    finite, wrong fields: a scaled-monomial density on the semicircle at
    N = 12 and gamma1 = 1 has sigma_n + i tau_n = -0.540 - 0.274i at
    s = 0.5 on its own node side, and the monomial rows gave
    -2357.7 + 2747.4i there.  `fields._face_values` builds the node side
    from the density's basis, so no density meets the rows of another.
    """
    monkeypatch.setattr(solver, "LAMBDA_REL", 1e-15)
    curve, N, s0 = CURVES["semicircle"], 12, [0.5]
    got = {}
    for name, basis in BASES.items():
        side = _NodeSide(curve, MATERIAL, N, basis=basis)
        coeffs = solver.solve(solver.assemble(
            curve, MATERIAL, LOAD, 1.0, Discretization(N, curve.length),
            row_scaling=False, node_side=side))
        got[name] = _face_values(curve, MATERIAL, LOAD, coeffs, s0)
        sigma, tau, du1, du2 = _face_rows(side, s0, 4).apply(
            np.concatenate([coeffs.g1, coeffs.g2])[None], 1.0, LOAD)[..., 0]
        for x, y in zip(got[name], (sigma + 1j * tau, du1 + 1j * du2)):
            assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))
    for x, y in zip(*got.values()):
        assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y))


# ---------------------------------------------------------------------------
# The basis contract

N_CONTRACT = 12


def _peaks(table):
    """The largest |entry| of each column (the last axis) of a table."""
    table = np.asarray(table)
    return np.max(np.abs(table.reshape(-1, table.shape[-1])), axis=0)


def _assert_columns_close(got, want, tol, scale=None):
    """|got - want| <= tol times scale, by default the largest |want| of
    each column, over all the other axes."""
    scale = _peaks(want) if scale is None else scale
    error = np.abs(np.asarray(got) - want)
    assert np.all(error <= tol * scale), np.max(error - tol * scale)


def _primitives(basis, curve, degree):
    """Every primitive of the basis on the curve at degree, at fixed
    points, each with its coefficient index last."""
    length = curve.length
    s = np.linspace(0.0, length, 9)
    return (basis.table(s, length, degree),
            basis.derivative_matrix(length, degree),
            basis.pv_table(length, s[1:-1], degree),
            basis.tangent_integrals(curve, degree, s))


@pytest.mark.parametrize("shape", CURVES)
@pytest.mark.parametrize("name", BASES)
def test_basis_degree_is_a_prefix(name, shape):
    # degree N reads the first N+1 columns of a node side's tables
    curve = CURVES[shape]
    low = _primitives(BASES[name], curve, N_CONTRACT)
    high = _primitives(BASES[name], curve, N_CONTRACT + 7)
    for got, table in zip(low, high):
        # the rows too for D, which is square
        _assert_columns_close(got, table[: len(got), ..., : N_CONTRACT + 1],
                              1e-14)


@pytest.mark.parametrize("shape", CURVES)
@pytest.mark.parametrize("name", BASES)
def test_basis_mirror_parity(name, shape):
    length = CURVES[shape].length
    s = np.linspace(0.0, length, 17)
    table = BASES[name].table
    _assert_columns_close(table(length - s, length, N_CONTRACT),
                          table(s, length, N_CONTRACT)
                          * (-1.0) ** np.arange(N_CONTRACT + 1), 1e-14)


@pytest.mark.parametrize("shape", CURVES)
@pytest.mark.parametrize("name", BASES)
def test_basis_derivative_matrix(name, shape):
    # the table times D against the derivative of the table's interpolant
    # of degree N on N+1 Chebyshev points, which is the table itself
    basis, length = BASES[name], CURVES[shape].length
    cheb = 0.5 * length * (1.0 - np.cos(np.pi * (np.arange(N_CONTRACT + 1)
                                                 + 0.5) / (N_CONTRACT + 1)))
    s = np.linspace(0.0, length, 23)
    want = np.column_stack([
        np.polynomial.Chebyshev.fit(cheb, column, N_CONTRACT,
                                    domain=[0.0, length]).deriv()(s)
        for column in basis.table(cheb, length, N_CONTRACT).T])
    table = basis.table(s, length, N_CONTRACT)
    got = table @ basis.derivative_matrix(length, N_CONTRACT)
    # on the scale of phi_k/l: phi_0' = 0
    _assert_columns_close(got, want, 1e-10, _peaks(table) / length)


def _cached_table(basis, length):
    """The basis table at a point, cached by the point: mpmath integrates
    one column at a time over the same nodes."""
    return functools.lru_cache(maxsize=None)(
        lambda x: basis.table(x, length, N_CONTRACT))


@pytest.mark.parametrize("shape", CURVES)
@pytest.mark.parametrize("name", BASES)
def test_basis_principal_values_against_mpmath(name, shape):
    # PV int phi_k/(s - s0) ds = int (phi_k(s) - phi_k(s0))/(s - s0) ds
    # + phi_k(s0) ln((l - s0)/s0), the regular part by Gauss-Legendre
    # quadrature split at s0
    import mpmath as mp

    basis, length = BASES[name], CURVES[shape].length
    at = _cached_table(basis, length)
    s0 = np.array([0.013, 0.37, 0.5, 0.81]) * length
    got = basis.pv_table(length, s0, N_CONTRACT)
    want = np.empty(got.shape)
    for i, point in enumerate(s0.tolist()):
        for k in range(N_CONTRACT + 1):
            regular = mp.quad(lambda x: (at(float(x))[k] - at(point)[k])
                              / (float(x) - point),
                              [0.0, point, length], method="gauss-legendre")
            want[i, k] = float(regular) \
                + at(point)[k] * np.log((length - point) / point)
    _assert_columns_close(got, want, 1e-12)


@pytest.mark.parametrize("shape", CURVES)
@pytest.mark.parametrize("name", BASES)
def test_basis_tangent_integrals_against_mpmath(name, shape):
    import mpmath as mp

    basis, curve = BASES[name], CURVES[shape]
    at = _cached_table(basis, curve.length)
    s = np.array([0.0, 0.2, 0.55, 1.0]) * curve.length
    got = basis.tangent_integrals(curve, N_CONTRACT, s)
    want = np.array([[complex(mp.quad(
        lambda x: at(float(x))[k] * complex(curve.tangent(float(x))),
        [0.0, point], method="gauss-legendre")) if point else 0.0
        for k in range(N_CONTRACT + 1)] for point in s.tolist()])
    _assert_columns_close(got, want, 1e-13)
