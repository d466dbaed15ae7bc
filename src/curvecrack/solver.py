"""Collocation solver for the singular integro-differential crack system.

The unknown density g'(s) is expanded in the centered Taylor basis
(s - l/2)^k, k = 0..N, with real coefficient pairs (g1_k, g2_k).  The
traction-jump density q is eliminated through the surface-tension closure
(see densities.py), so the unknown vector has 2N+2 real entries.

Rows 1..N of the collocation block are the real parts of the boundary
equation at the midpoints s_j, rows N+1..2N the imaginary parts.  All
density-dependent terms sit in the matrix; only the load forcing
(kappa+1) f(s_j) enters the right-hand side.  Appended to the block are
equality constraints: the single-valuedness condition
int_0^l g'(s) t'(s) ds = 0, and (for gamma1 > 0) four tip rows, two per
tip.  They zero the log coefficients (`postprocess.tip_log_coefficients`)
of sigma_n and of the normal component of du/ds, the component along the
normal i t'; at s = 0 on the semicircle that component is -du1/ds, not
du2/ds.  Times +-gamma1/(4 pi mu), the normal-component row is also the
coefficient of the (s0 - tip)^-2 term of the imaginary collocation rows.

With 2N collocation rows and 6 constraint rows for 2N + 2 unknowns the
constrained system has no exact solution: the least-squares density meets
the boundary equation at the collocation midpoints but not between them,
least of all near the tips (see the tests/test_acceptance.py docstring).

Integral evaluation: the collocation rows come from the face-field
operator (`fields._FaceOperator`) applied to the 2N+2 basis columns at the
collocation points, 16 collocation points per kernel block.  Per column it
gives the face-average traction Sigma and the face function omega with its
first two s0-derivatives; the real row is (kappa+1)(Re Sigma - gamma1
kappa0 dk) and the imaginary row (kappa+1)(Im Sigma - gamma1 dk'), where
dk = -(kappa0 Re omega - Im omega')/2mu is the face-curvature change and
dk' = -(kappa0' Re omega + kappa0 Re omega' - Im omega'')/2mu.  The face
fields of a solved density are the same operator on one column, so the
assembly and the field evaluation share one code path.  The principal
values (and their s0-derivatives, boundary terms included) are in closed
form (`quadrature.pv_monomials`) and the regular kernels use
`quadrature.regular_rule`.  The flat node rule of `quadrature` is kept
only for the oracles; feeding its O(1/N) errors into this strongly
amplifying system destroys convergence.

The constrained system is solved by least squares in the constraint null
space with a light Tikhonov term (relative weight 1e-8) that suppresses
the residual boundary-layer content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import (DensityCoefficients, poly_derivative, poly_eval,
                        q_coefficients, traction_jump)
from .fields import _FaceOperator, boundary_forcing
from .geometry import CrackCurve
from .quadrature import Discretization, gauss_legendre

CONDITION_LIMIT = 1e14
LAMBDA_REL = 1e-8


class AssemblyError(RuntimeError):
    """Non-finite entries or invalid geometry during system assembly."""


class SolveError(RuntimeError):
    """Singular or unacceptably ill-conditioned collocation system."""


@dataclass
class LinearSystem:
    """Row-scaled collocation block stacked over the equality constraints.

    The first 2N rows collocate the boundary equation; the trailing
    n_constraints rows hold the single-valuedness condition and, for
    gamma1 > 0, the tip rows.  condition_estimate is the 2-norm
    condition number of the collocation block restricted to the constraint
    null space (the operator the least-squares solve actually inverts).
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n_constraints: int
    condition_estimate: float
    row_scale: np.ndarray
    disc: Discretization
    gamma1: float

    @property
    def collocation_block(self):
        return self.matrix[: -self.n_constraints]

    @property
    def constraint_block(self):
        return self.matrix[-self.n_constraints:]

    def dump_text(self) -> str:
        """Plain-text dump of the matrix and right-hand side."""
        lines = [f"n_rows {self.matrix.shape[0]}",
                 f"n_cols {self.matrix.shape[1]}",
                 f"n_constraints {self.n_constraints}"]
        lines.append("row_scale " + " ".join(repr(float(v)) for v in self.row_scale))
        for i, row in enumerate(self.matrix):
            lines.append(f"row {i} " + " ".join(repr(float(v)) for v in row))
        lines.append("rhs " + " ".join(repr(float(v)) for v in self.rhs))
        lines.append(f"condition_estimate {self.condition_estimate!r}")
        return "\n".join(lines) + "\n"


def _single_valued_row_integrals(curve: CrackCurve, N: int):
    """I_k = int_0^l t'(s) (s - l/2)^k ds, k = 0..N, by composite Gauss rule."""
    edges = np.linspace(0.0, curve.length, max(8, N // 2) + 1)[:, None]
    x, w = gauss_legendre(24, edges[:-1], edges[1:])
    x, w = x.ravel(), w.ravel()
    basis = (x - 0.5 * curve.length)[None, :] ** np.arange(N + 1)[:, None]
    return basis @ (w * curve.tangent(x))


def assemble(curve: CrackCurve, material, load, gamma1: float,
             disc: Discretization, row_scaling: bool = True,
             eps_d: float | None = None) -> LinearSystem:
    """Assemble the constrained collocation system."""
    if not np.isfinite(gamma1) or gamma1 < 0:
        raise AssemblyError(
            f"gamma1 must be finite and nonnegative, got {gamma1}")
    if curve.constant_curvature is None:
        raise AssemblyError(
            "assembly requires a constant-curvature curve; built-in "
            "shapes only")
    N = disc.N
    kappa, mu = material.kappa, material.mu

    # column c of the system is the unknown g1_c (c <= N) or g2_(c-N-1):
    # its g' and q as centered coefficient rows, shape (2N+2, N+1)
    eye, zero = np.eye(N + 1), np.zeros((N + 1, N + 1))
    g1, g2 = np.vstack([eye, zero]), np.vstack([zero, eye])
    gp = g1 + 1j * g2
    q = q_coefficients(curve, material, gamma1, g1, g2)

    # the boundary equation (kappa+1)[Sigma - gamma1 (kappa0 dk + i dk')]
    # = (kappa+1) f, with the face-curvature change dk built from omega
    colloc = disc.collocation_points
    op = _FaceOperator(curve, kappa, gp, q, eps_d=eps_d)
    sigma, omega, omega1, omega2 = op.values(colloc, derivatives=True)
    k0 = curve.kappa0(colloc)[:, None]
    k0p = curve.kappa0_prime(colloc)[:, None]
    dk = -(k0 * omega.real - omega1.imag) / (2.0 * mu)
    dk1 = -(k0p * omega.real + k0 * omega1.real - omega2.imag) / (2.0 * mu)
    f_c = boundary_forcing(curve, material, load, gamma1, colloc)
    rows = (kappa + 1.0) * np.vstack([sigma.real - gamma1 * k0 * dk,
                                      sigma.imag - gamma1 * dk1])
    rhs = (kappa + 1.0) * np.concatenate([f_c.real, f_c.imag])

    ints = _single_valued_row_integrals(curve, N)
    con_rows = [np.concatenate([ints.real, -ints.imag]),
                np.concatenate([ints.imag, ints.real])]
    if gamma1 > 0.0:
        # Tip rows: zero the log coefficients of the normal component of
        # du/ds (first row) and of sigma_n (second row) at each tip.  For a
        # straight crack these degenerate (the channels decouple and the
        # first reduces to Im g' = 0), which
        # leaves the boundary-layer modes exp(+-s/sqrt(gamma1(kappa-1)/4mu))
        # of the homogeneous system unpinned; pinning the tip values of g''
        # there restores a uniquely resolved density without touching the
        # log-singular structure of the curved problem.
        for tip in (0.0, curve.length):
            basis = (tip - 0.5 * curve.length) ** np.arange(N + 1)
            gp_t, q_t = gp @ basis, q @ basis
            con_rows += [-(kappa - 1.0) * gp_t.imag + 4.0 * kappa * q_t.real,
                         gp_t.real - (kappa - 1.0) * q_t.imag]
            if curve.constant_curvature == 0.0:
                gpp_t = poly_derivative(gp) @ basis[:N]
                con_rows += [gpp_t.real, gpp_t.imag]
    A = np.vstack([rows] + con_rows)
    b = np.concatenate([rhs, np.zeros(len(con_rows))])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise AssemblyError("non-finite entries in the collocation system")

    if row_scaling:
        scale = np.max(np.abs(A), axis=1)
        if np.any(scale == 0.0):
            raise AssemblyError("zero row encountered during scaling")
    else:
        scale = np.ones(A.shape[0])
    A = A / scale[:, None]
    b = b / scale

    system = LinearSystem(matrix=A, rhs=b, n_constraints=len(con_rows),
                          condition_estimate=np.nan, row_scale=scale,
                          disc=disc, gamma1=gamma1)
    system.condition_estimate = _condition_estimate(system)
    return system


def _reduced_parts(system: LinearSystem):
    """Constraint particular solution, null basis, and reduced block."""
    A = system.collocation_block
    b = system.rhs[: -system.n_constraints]
    T = system.constraint_block
    t = system.rhs[-system.n_constraints:]
    x0, *_ = np.linalg.lstsq(T, t, rcond=None)
    _, _, Vt = np.linalg.svd(T)
    Z = Vt[T.shape[0]:].T
    return A, b, T, t, x0, Z


def _condition_estimate(system: LinearSystem) -> float:
    A, _, _, _, _, Z = _reduced_parts(system)
    sv = np.linalg.svd(A @ Z, compute_uv=False)
    lam = LAMBDA_REL * sv[0] if sv[0] > 0 else 0.0
    smallest = max(sv[-1], lam)
    if smallest == 0.0:
        return float("inf")
    return float(sv[0] / smallest)


def solve(system: LinearSystem, curve: CrackCurve | None = None) -> DensityCoefficients:
    """Constrained least-squares solve with light Tikhonov regularization.

    The equality constraints are eliminated exactly; in their null space the
    collocation block is inverted through its SVD with singular values
    damped by lambda = 1e-8 * sigma_max, which suppresses the boundary-layer
    null family while leaving resolved directions untouched.  Raises
    SolveError when the effective conditioning still exceeds 1e14: the
    underlying operator has a unique solution except on the discrete
    spectrum of its compact part, and parameters near such a point (or a
    degenerate geometry) land here.
    """
    if not np.all(np.isfinite(system.matrix)):
        raise SolveError("system matrix contains non-finite entries")
    if not np.isfinite(system.condition_estimate) \
            or system.condition_estimate > CONDITION_LIMIT:
        raise SolveError(
            f"condition estimate {system.condition_estimate:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; parameters may sit near the discrete "
            "spectrum of the integral operator")

    A, b, T, t, x0, Z = _reduced_parts(system)
    G = A @ Z
    h = b - A @ x0
    U, S, Vt = np.linalg.svd(G, full_matrices=False)
    lam = LAMBDA_REL * S[0] if S[0] > 0 else 0.0
    damped = S / (S * S + lam * lam)
    y = Vt.T @ (damped * (U.T @ h))
    x = x0 + Z @ y

    # solver-level residual of the damped normal equations
    lhs = G.T @ (G @ y) + lam * lam * y
    rhs_n = G.T @ h
    residual = np.max(np.abs(lhs - rhs_n))
    bound = 1e-10 * (np.max(np.abs(G)) ** 2 * max(np.max(np.abs(y)), 1.0)
                     + np.max(np.abs(rhs_n)) + 1e-300)
    if residual > bound:
        raise SolveError(
            f"normal-equation residual {residual:.3e} exceeds {bound:.3e}")

    N = system.disc.N
    coeffs = DensityCoefficients(
        g1=x[: N + 1], g2=x[N + 1:], length=system.disc.length,
        gamma1=system.gamma1,
        condition_estimate=system.condition_estimate,
        classical_limit=(system.gamma1 == 0.0),
    )
    if curve is not None:
        coeffs.single_valued_residual = single_valued_residual(coeffs, curve)
    return coeffs


def solve_problem(curve: CrackCurve, material, load, gamma1: float, N: int = 20,
                  row_scaling: bool = True,
                  eps_d: float | None = None) -> DensityCoefficients:
    """Assemble and solve in one call."""
    disc = Discretization(N, curve.length)
    system = assemble(curve, material, load, gamma1, disc, row_scaling, eps_d)
    return solve(system, curve)


def single_valued_integral(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> complex:
    """int_0^l g'(s) t'(s) ds with the same Gauss rule as the constraint rows."""
    ints = _single_valued_row_integrals(curve, coeffs.degree)
    return complex(np.sum((coeffs.g1 + 1j * coeffs.g2) * ints))


def single_valued_residual(coeffs: DensityCoefficients,
                           curve: CrackCurve) -> float:
    """|int g' t' ds| normalized by sup|g'| times the arc length."""
    value = abs(single_valued_integral(coeffs, curve))
    samples = np.linspace(0.0, curve.length, 512)
    sup = float(np.max(np.abs(coeffs.gprime(samples))))
    if sup == 0.0:
        return 0.0
    return value / (sup * curve.length)


def tip_condition_residuals(coeffs: DensityCoefficients, curve: CrackCurve,
                            material, gamma1: float):
    """Residuals of the crack-tip solvability conditions at both tips.

    For curved cracks these are the two bracketed combinations whose
    vanishing removes the log term at the tip from the normal component of
    du/ds, the component along i t' (at s = 0 on the semicircle -du1/ds;
    du2/ds keeps its log term), and from sigma_n.  For a straight crack the
    reported combinations are Im g' and Im g'' at the tips.  Values are
    normalized by the maximum interior |g'|; the solve imposes the tip rows
    as equality constraints, so the residuals vanish to rounding.
    """
    samples = np.linspace(0.0, curve.length, 512)
    sup = float(np.max(np.abs(coeffs.gprime(samples))))
    norm = sup if sup > 0.0 else 1.0

    tips = np.array([0.0, curve.length])
    if curve.constant_curvature == 0.0:
        im_gp = poly_eval(coeffs.g2, tips, coeffs.length)
        im_gpp = poly_eval(poly_derivative(coeffs.g2), tips, coeffs.length)
        r = (im_gp[0], im_gpp[0], im_gp[1], im_gpp[1])
    else:
        kappa = material.kappa
        re_gp = poly_eval(coeffs.g1, tips, coeffs.length)
        im_gp = poly_eval(coeffs.g2, tips, coeffs.length)
        q = traction_jump(curve, material, gamma1, coeffs, tips)
        r_a = -(kappa - 1.0) * im_gp + 4.0 * kappa * np.real(q)
        r_b = re_gp - (kappa - 1.0) * np.imag(q)
        r = (r_a[0], r_b[0], r_a[1], r_b[1])
    return tuple(float(v) / norm for v in r)
