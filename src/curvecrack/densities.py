"""Polynomial density representation shared by the solver and field evaluators.

The unknown displacement-jump density is approximated by a Taylor polynomial
in the centered variable x = s - l/2,

    g'(s) = sum_k (g1_k + i g2_k) x^k,

with real coefficient vectors g1, g2.  The traction-jump density q is never
an independent unknown: the surface-tension closure determines it from g'.
Writing P(s) = kappa0(s) Im g'(s) + Re g''(s),

    q(s) + conj(q(s))   = (gamma1 / 2 mu) kappa0(s) P(s),
    i (q(s) - conj(q(s))) = -(gamma1 / 2 mu) P'(s),

so Re q = (gamma1/4mu) kappa0 P and Im q = (gamma1/4mu) P'.  For the built-in
constant-curvature shapes P is itself a polynomial, which the assembly and
the face-field evaluator exploit for exact principal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CrackCurve


def poly_derivative(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of d/ds of a polynomial in (s - l/2)^k.

    The coefficient index is the last axis, so a (C, N+1) array
    differentiates C polynomials at once.
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[-1]
    if n <= 1:
        return np.zeros(coeffs.shape[:-1] + (1,), dtype=coeffs.dtype)
    return coeffs[..., 1:] * np.arange(1, n)


def poly_eval(coeffs: np.ndarray, s, length: float):
    """Evaluate a polynomial given in the centered basis (s - l/2)^k."""
    x = np.asarray(s, dtype=float) - 0.5 * length
    out = np.zeros_like(x, dtype=np.result_type(coeffs.dtype, float))
    for c in np.asarray(coeffs)[::-1]:
        out = out * x + c
    return out


@dataclass
class DensityCoefficients:
    """Taylor coefficients of the displacement-jump density g'.

    g1 and g2 hold the real and imaginary coefficient vectors (degree N each).
    gamma1 is carried along because the closure to the traction-jump density
    q depends on it.  Diagnostics are attached by the solver.
    """

    g1: np.ndarray
    g2: np.ndarray
    length: float
    gamma1: float
    condition_estimate: float = float("nan")
    single_valued_residual: float = float("nan")
    classical_limit: bool = False

    def __post_init__(self):
        self.g1 = np.asarray(self.g1, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        if self.g1.shape != self.g2.shape or self.g1.ndim != 1:
            raise ValueError("g1 and g2 must be equal-length 1-D coefficient vectors")

    @property
    def degree(self) -> int:
        return len(self.g1) - 1

    def gprime(self, s):
        """Reconstructed complex density g'(s)."""
        return (poly_eval(self.g1, s, self.length)
                + 1j * poly_eval(self.g2, s, self.length))


def _p_values(curve: CrackCurve, coeffs: DensityCoefficients, s):
    """P(s) = kappa0 Im g' + Re g'' and its derivative P'(s), pointwise."""
    s = np.asarray(s, dtype=float)
    k0 = curve.kappa0(s)
    k0p = curve.kappa0_prime(s)
    im_g = poly_eval(coeffs.g2, s, coeffs.length)
    im_gp = poly_eval(poly_derivative(coeffs.g2), s, coeffs.length)
    re_gpp = poly_eval(poly_derivative(coeffs.g1), s, coeffs.length)
    re_gppp = poly_eval(poly_derivative(poly_derivative(coeffs.g1)), s,
                        coeffs.length)
    P = k0 * im_g + re_gpp
    Pp = k0p * im_g + k0 * im_gp + re_gppp
    return P, Pp


def traction_jump_parts(curve: CrackCurve, material, gamma1: float,
                        coeffs: DensityCoefficients, s):
    """The two real traction-jump combinations (q + conj q, i(q - conj q))."""
    P, Pp = _p_values(curve, coeffs, s)
    scale = gamma1 / (2.0 * material.mu)
    k0 = curve.kappa0(np.asarray(s, dtype=float))
    return scale * k0 * P, -scale * Pp


def traction_jump(curve: CrackCurve, material, gamma1: float,
                  coeffs: DensityCoefficients, s):
    """Complex traction-jump density q(s) recovered from the closure."""
    q_plus, iq_minus = traction_jump_parts(curve, material, gamma1, coeffs, s)
    return 0.5 * q_plus - 0.5j * iq_minus


def q_coefficients(curve: CrackCurve, material, gamma1: float, g1, g2):
    """Complex coefficients of q for equal-shape real coefficient arrays.

    The closure above, with P = kappa0 Im g' + Re g'' in the centered
    basis, over the last axis: (C, N+1) arrays g1, g2 give one q polynomial
    per row.  Constant curvature only, where P is itself a polynomial.
    """
    if curve.constant_curvature is None:
        raise ValueError("P is polynomial only for constant-curvature curves")
    k0 = curve.constant_curvature
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    d1 = poly_derivative(g1)
    P = k0 * g2
    P[..., : d1.shape[-1]] += d1
    Pp = poly_derivative(P)
    out = k0 * P + 0j
    out[..., : Pp.shape[-1]] += 1j * Pp
    return (gamma1 / (4.0 * material.mu)) * out


def q_polynomial(curve: CrackCurve, material, gamma1: float,
                 coeffs: DensityCoefficients) -> np.ndarray:
    """Complex coefficient vector of q(s); constant curvature only."""
    return q_coefficients(curve, material, gamma1, coeffs.g1, coeffs.g2)
