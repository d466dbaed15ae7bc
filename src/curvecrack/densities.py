"""Polynomial density representation shared by the solver and field evaluators.

The unknown displacement-jump density is approximated by a Taylor polynomial
in the centered variable x = s - l/2,

    g'(s) = sum_k (g1_k + i g2_k) x^k,

with real coefficient vectors g1, g2.  Only this module forms the basis
(`basis`, `poly_eval`, `pv_monomials`).  The traction-jump density q is
never an independent unknown: the surface-tension closure determines it
from g'.  Writing P(s) = kappa0 Im g'(s) + Re g''(s),

    q(s) + conj(q(s))   = (gamma1 / 2 mu) kappa0 P(s),
    i (q(s) - conj(q(s))) = -(gamma1 / 2 mu) P'(s),

so Re q = (gamma1/4mu) kappa0 P and Im q = (gamma1/4mu) P'.  Every curve
has constant curvature (`geometry.CrackCurve`), so P and q are
polynomials, written once in coefficient form (`q_coefficients`).
`cauchy_densities` is the one definition of the face fields'
principal-value densities and tip log terms.
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


def _times_derivative(table):
    """table @ D for a real table and the derivative matrix D of the basis:
    column c of the result is c table[..., c - 1], column 0 is zero."""
    out = np.zeros(table.shape)
    out[..., 1:] = table[..., :-1] * np.arange(1, table.shape[-1])
    return out


def basis(s, length: float, degree: int) -> np.ndarray:
    """Centered monomials (s - l/2)^k, k = 0..degree, on a new last axis."""
    x = np.asarray(s, dtype=float) - 0.5 * length
    return np.vander(x.ravel(), degree + 1, increasing=True).reshape(
        x.shape + (degree + 1,))


def poly_eval(coeffs: np.ndarray, s, length: float):
    """Evaluate a polynomial given in the centered basis (s - l/2)^k at s."""
    return basis(s, length, len(coeffs) - 1) @ coeffs


def pv_monomials(length: float, s0, kmax: int) -> np.ndarray:
    """PV int_0^l (s - l/2)^k / (s - s0) ds for k = 0..kmax.

    Writing x = s - l/2 and x0 = s0 - l/2,

        PV int x^k/(x - x0) dx = sum_{i even, i<k} x0^(k-1-i) * 2 L^(i+1)/(i+1)
                                 + x0^k * log((l - s0)/s0),   L = l/2.

    Expanding this way (difference quotient plus log term) keeps every term
    bounded by L^k; the binomial expansion about s0 cancels catastrophically
    for high degree and is not used.  The sum is one product of the powers
    x0^m with a constant upper-triangular Toeplitz matrix, whose entry
    (m, k) is 2 L^d / d for odd d = k - m and 0 otherwise.  s0 may be an
    array of shape (M,); the result then has shape (M, kmax+1), one row per
    point.
    """
    s0 = np.asarray(s0, dtype=float)
    if not np.all((0.0 < s0) & (s0 < length)):
        raise ValueError(f"s0 must lie strictly inside (0, {length}), got {s0}")
    d = np.arange(kmax + 1)
    diagonals = np.zeros(kmax + 1)
    diagonals[1::2] = 2.0 * (0.5 * length) ** d[1::2] / d[1::2]
    toeplitz = diagonals[np.maximum(d - d[:, None], 0)]
    x0p = basis(s0, length, kmax)
    return x0p * np.log((length - s0) / s0)[..., None] + x0p @ toeplitz


def pv_polynomial(coeffs, length: float, s0):
    """Exact principal value of int_0^l p(s)/(s - s0) ds for a polynomial p.

    p is given by coefficients in the centered basis (s - l/2)^k; see
    `pv_monomials`.  s0 may be an array; the result then has its shape.
    """
    return pv_monomials(length, s0, len(coeffs) - 1) @ np.asarray(coeffs)


class _OnFirstRead:
    """A float field that may be set to a function of the object instead:
    the function runs on the first read, and its value is kept."""

    def __set_name__(self, owner, name):
        self._name = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return float("nan")  # the dataclass default
        value = obj.__dict__[self._name]
        if callable(value):
            value = obj.__dict__[self._name] = float(value(obj))
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._name] = value


@dataclass
class DensityCoefficients:
    """Taylor coefficients of the displacement-jump density g'.

    g1 and g2 hold the real and imaginary coefficient vectors (degree N each).
    gamma1 is carried along because the closure to the traction-jump density
    q depends on it.  Diagnostics are attached by the solver.  It sets
    single_valued_residual to the function that computes it from the
    density, which runs on first read, so a run that never reads the
    residual never pays for it.
    """

    g1: np.ndarray
    g2: np.ndarray
    length: float
    gamma1: float
    condition_estimate: float = float("nan")
    single_valued_residual: float = _OnFirstRead()

    def __post_init__(self):
        self.g1 = np.asarray(self.g1, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        if self.g1.shape != self.g2.shape or self.g1.ndim != 1:
            raise ValueError("g1 and g2 must be equal-length 1-D coefficient vectors")

    @property
    def classical_limit(self) -> bool:
        """True at gamma1 = 0, the classical traction-free limit."""
        return self.gamma1 == 0.0

    @property
    def degree(self) -> int:
        return len(self.g1) - 1

    def gprime(self, s):
        """Reconstructed complex density g'(s)."""
        return poly_eval(self.g1 + 1j * self.g2, s, self.length)


def q_coefficients(curve: CrackCurve, material, gamma1: float, g1, g2):
    """Complex coefficients of q for equal-shape real coefficient arrays.

    The closure above, with P = kappa0 Im g' + Re g'' in the centered
    basis, over the last axis: (C, N+1) arrays g1, g2 give one q polynomial
    per row.
    """
    k0 = curve.constant_curvature
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    d1 = poly_derivative(g1)
    P = k0 * g2
    P[..., : d1.shape[-1]] += d1
    Pp = poly_derivative(P)
    out = k0 * P + 0j
    out[..., : Pp.shape[-1]] += 1j * Pp
    return (gamma1 / (4.0 * material.mu)) * out


def q_rows_to_unknowns(re_rows, im_rows, curve: CrackCurve, material):
    """Rows on the coefficients g1 and g2 of rows on those of Re q and Im q.

    The closure of `q_coefficients` at gamma1 = 1 in banded form: q =
    (kappa0 P + i P')/4mu with P = D g1 + kappa0 g2 for the derivative
    matrix D, so rows (a, b) on (Re q, Im q) are W P with W = (kappa0 a +
    b D)/4mu: W D on g1 and kappa0 W on g2.  D acts on the last axis.
    """
    k0 = curve.constant_curvature
    w = (k0 * re_rows + _times_derivative(im_rows)) / (4.0 * material.mu)
    return _times_derivative(w), k0 * w


def q_polynomial(curve: CrackCurve, material, gamma1: float,
                 coeffs: DensityCoefficients) -> np.ndarray:
    """Complex coefficient vector of q(s)."""
    return q_coefficients(curve, material, gamma1, coeffs.g1, coeffs.g2)


def traction_jump(curve: CrackCurve, material, gamma1: float,
                  coeffs: DensityCoefficients, s):
    """Complex traction-jump density q(s): `q_polynomial` evaluated at s."""
    return poly_eval(q_polynomial(curve, material, gamma1, coeffs), s,
                     coeffs.length)


def traction_jump_parts(curve: CrackCurve, material, gamma1: float,
                        coeffs: DensityCoefficients, s):
    """The two real traction-jump combinations (q + conj q, i(q - conj q))."""
    q = traction_jump(curve, material, gamma1, coeffs, s)
    return 2.0 * q.real, -2.0 * q.imag


def cauchy_densities(gp, q, kappa: float):
    """Principal-value densities (sigma, omega) of the face fields.

    sigma = 2g' + 2i(kappa-1)q and omega = (kappa-1)g' - 4i kappa q.  The
    face-average traction holds PV int sigma/(s - s0) ds / (2 pi (kappa+1))
    and the face-average du/ds is t'/2mu times that integral of omega.  gp
    and q may be coefficient arrays or point values alike.  Near a tip the
    integral goes like -+p(tip) ln|s0 - tip| (minus at s = 0), so the log
    coefficients there are -+sigma(tip)/(2 pi (kappa+1)) for sigma_n +
    i tau_n and -+t'(tip) omega(tip)/(4 pi mu (kappa+1)) for du1/ds +
    i du2/ds.  The solver's tip rows zero two of them.
    """
    return (2.0 * gp + 2j * (kappa - 1.0) * q,
            (kappa - 1.0) * gp - 4j * kappa * q)
