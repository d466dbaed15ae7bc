"""Polynomial density representation shared by the solver and field evaluators.

The unknown displacement-jump density is g'(s) = sum_k (g1_k + i g2_k)
phi_k(s), k = 0..N, with real coefficient vectors g1, g2 over a basis
phi_k, one value of four primitives (`Basis`).  All else derives from the
primitives of a basis it is given: a density carries its own
(`DensityCoefficients.basis`), a table that of the node side it was built
on (`fields._NodeSide`), so two bases live side by side in one process.
`MONOMIALS`, the centered monomials (s - l/2)^k, is the one the program
uses.  Any basis whose phi_k has degree k and parity (-1)^k about l/2 will
do: a degree-N table is the first N+1 columns of a higher one, D is
strictly upper triangular and the mirror s -> l - s acts by signs alone
(`_mirror_signs`, which split the unknowns into the two parity halves the
solver solves apart, `_parity_columns`).  The traction-jump density q is
never an independent unknown: the surface-tension closure determines it
from g'.  Writing P(s) = kappa0 Im g'(s) + Re g''(s),

    q(s) + conj(q(s))   = (gamma1 / 2 mu) kappa0 P(s),
    i (q(s) - conj(q(s))) = -(gamma1 / 2 mu) P'(s),

so Re q = (gamma1/4mu) kappa0 P and Im q = (gamma1/4mu) P'.  Every curve
has constant curvature (`geometry.CrackCurve`), so P and q are
polynomials, written once in coefficient form (`q_coefficients`).
`cauchy_densities` is the one definition of the face fields'
principal-value densities and tip log terms, whose rows on [g1; g2] the
solver's tip rows (`_tip_blocks`) and the reported log coefficients
(`_tip_log_rows`) share.  The single-valuedness integrals are closed
forms over the basis too (the tangent integrals at s = l; at the opening
points the opening's jump table, `_jump_table`, built per call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import CrackCurve


@dataclass(frozen=True)
class Basis:
    """A density basis phi_k, k = 0..N, as its four primitives (a basis per
    channel, Re g' and Im g' weighted apart, would be a pair on the density):

    - table(s, length, degree), phi_k(s) on a new last axis;
    - derivative_matrix(length, degree), D with phi_k' = sum_j D[j, k]
      phi_j: a table times D is the table of the derivatives (`_pv_tables`,
      `_tip_blocks`), coefficients times D^T those of the derivative
      (`poly_derivative`);
    - pv_table(length, s0, kmax), PV int_0^l phi_k(s)/(s - s0) ds, (M,
      kmax + 1) at (M,) points s0;
    - tangent_integrals(curve, degree, s), int_0^s phi_k(x) t'(x) dx.
    """

    table: Callable
    derivative_matrix: Callable
    pv_table: Callable
    tangent_integrals: Callable


def _monomials(s, length: float, degree: int) -> np.ndarray:
    """Centered monomials (s - l/2)^k, k = 0..degree, on a new last axis."""
    x = np.asarray(s, dtype=float) - 0.5 * length
    return np.vander(x.ravel(), degree + 1, increasing=True).reshape(
        x.shape + (degree + 1,))


def _derivative_matrix(length: float, degree: int) -> np.ndarray:
    """The derivative matrix D of the monomials, (degree + 1, degree + 1):
    d/ds phi_k = sum_j D[j, k] phi_j, so D[k - 1, k] = k, all else 0."""
    return np.diag(np.arange(1.0, degree + 1), 1)


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
    x0p = _monomials(s0, length, kmax)
    return x0p * np.log((length - s0) / s0)[..., None] + x0p @ toeplitz


def _tangent_integrals(curve: CrackCurve, degree: int, s):
    """M[k, n] = int_0^{s_k} (x - l/2)^n t'(x) dx, n = 0..degree, closed form.

    With L = l/2, t'(x) = t'(L) exp(i kappa0 (x - L)) on every curve, so

        M[k, n] = t'(L) sum_m (i kappa0)^m / m! * P[k, n + m],
        P[k, p - 1] = ((s_k - L)^p - (-L)^p) / p:

    a sliding sum over the differences of the Vandermonde matrix of the
    s_k - L, real over even m and imaginary over odd m.  Each entry sums
    the same terms in the same order at any degree, so the table of a
    degree is bit for bit the first columns of a higher one.  The terms
    fall below 2^-56 of the first after m = `_exp_terms(|kappa0| L)`.
    """
    L = 0.5 * curve.length
    k0 = curve.constant_curvature
    terms = _exp_terms(abs(k0) * L)
    top = degree + terms
    powers = (_monomials(s, curve.length, top)[..., 1:]
              - _monomials(0.0, curve.length, top)[1:]) / np.arange(1, top + 1)
    # entry (n, m) of the window is P[..., n + m]
    window = np.lib.stride_tricks.sliding_window_view(
        powers, terms, axis=-1)[..., : degree + 1, :]
    coef = np.cumprod(np.concatenate([[1.0], 1j * k0 / np.arange(1, terms)]))
    re = np.einsum("...nm,m->...n", window[..., ::2], coef.real[::2])
    im = np.einsum("...nm,m->...n", window[..., 1::2], coef.imag[1::2])
    return curve.tangent(L) * (re + 1j * im)


def _exp_terms(x):
    """How many terms of sum_m x^m/m! to keep: the first left out is below
    2^-56."""
    m, term = 1, x
    while term >= 2.0 ** -56:
        m += 1
        term *= x / m
    return m


MONOMIALS = Basis(_monomials, _derivative_matrix, pv_monomials,
                  _tangent_integrals)


def poly_derivative(coeffs, length: float, basis) -> np.ndarray:
    """Coefficients of d/ds of polynomials in the basis: coeffs times D^T.

    The coefficient index is the last axis, so a (C, N+1) array
    differentiates C polynomials at once; the result has the same shape,
    its last coefficient zero.
    """
    coeffs = np.asarray(coeffs)
    return coeffs @ basis.derivative_matrix(length, coeffs.shape[-1] - 1).T


def _mirror_signs(degree: int) -> np.ndarray:
    """The diagonal P of the mirror s -> l - s on the unknowns [g1; g2].

    The mirror maps the collocation system onto itself with its unknowns
    times P (see `solver`): P takes g'(x) to conj(g'(-x)), x = s - l/2, so
    it multiplies g1_k by (-1)^k and g2_k by -(-1)^k.
    """
    signs = (-1.0) ** np.arange(degree + 1)
    return np.concatenate([signs, -signs])


def _parity_columns(degree: int) -> np.ndarray:
    """(2, degree + 1) column indices of the unknowns [g1; g2] that the
    mirror keeps (g1 at even k, g2 at odd k) and of those it negates."""
    signs = _mirror_signs(degree)
    return np.array([np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)])


def poly_eval(coeffs: np.ndarray, s, length: float, basis):
    """Evaluate a polynomial given by its coefficients in the basis at s."""
    return basis.table(s, length, len(coeffs) - 1) @ coeffs


def pv_polynomial(coeffs, length: float, s0):
    """Exact principal value of int_0^l p(s)/(s - s0) ds for a polynomial p.

    p is given by coefficients in the centered basis (s - l/2)^k; see
    `pv_monomials`.  s0 may be an array; the result then has its shape.
    """
    return pv_monomials(length, s0, len(coeffs) - 1) @ np.asarray(coeffs)


def _pv_tables(length: float, s0, degree: int, basis,
               derivatives: bool = False):
    """The principal values of the basis at the points s0, (1, M,
    degree+1), and with derivatives also their first two s0-derivatives,
    (3, M, degree+1).

    d/ds0 PV int p/(s - s0) ds = PV int p'/(s - s0) ds - p(l)/(l - s0)
    - p(0)/s0, so each derivative is the table before times D less the
    end terms of its own derivative.
    """
    s0 = np.asarray(s0, dtype=float)
    pv = basis.pv_table(length, s0, degree)
    if not derivatives:
        return pv[None]
    D = basis.derivative_matrix(length, degree)
    a, b = 1.0 / (length - s0)[:, None], 1.0 / s0[:, None]
    at0, atl = basis.table([0.0, length], length, degree)
    pv1 = pv @ D - (atl * a + at0 * b)
    pv2 = pv1 @ D - (atl * a * a - at0 * b * b)
    return np.stack([pv, pv1, pv2])


class _OnFirstRead:
    """A field that may be set to a function of the object instead: the
    function runs on the first read, and its value, made a float (or by
    convert), is kept.  default is the dataclass default."""

    def __init__(self, default=float("nan"), convert=float):
        self._default, self._convert = default, convert

    def __set_name__(self, owner, name):
        self._name = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self._default
        value = obj.__dict__[self._name]
        if callable(value):
            value = obj.__dict__[self._name] = self._convert(value(obj))
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._name] = value


@dataclass(eq=False)
class DensityCoefficients:
    """The displacement-jump density g' by its coefficients in a basis.

    g1 and g2 hold the real and imaginary coefficient vectors (degree N
    each, finite, read-only) over basis, the one it was solved in.  gamma1
    is carried along because the closure to the traction-jump density q
    depends on it.  curve is the curve it was solved on, or None for a
    density built by hand, which carries its length alone.  Diagnostics and
    the curve are attached by the solver.  It sets single_valued_residual to
    the function that computes it from the density, which runs on first
    read, so a run that never reads the residual never pays for it, and so
    the trust fields, read from the solve's singular values: per parity
    half (`solver.LinearSystem.halves`), reduced_conditions, the condition
    number of its reduced block, not clipped at the damping floor as
    condition_estimate is, and damped_directions, the count of its
    singular values below the damping lambda the halves share.  Both are
    None on a density built by hand.  Densities compare by identity: `==`
    of two densities is `is`.
    """

    g1: np.ndarray
    g2: np.ndarray
    length: float
    gamma1: float
    condition_estimate: float = float("nan")
    single_valued_residual: float = _OnFirstRead()
    basis: Basis = MONOMIALS
    curve: CrackCurve | None = None
    reduced_conditions: tuple | None = _OnFirstRead(None, tuple)
    damped_directions: tuple | None = _OnFirstRead(None, tuple)

    def __post_init__(self):
        self.g1 = np.asarray(self.g1, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        if self.g1.shape != self.g2.shape or self.g1.ndim != 1:
            raise ValueError("g1 and g2 must be equal-length 1-D coefficient vectors")
        for name, part in (("g1", self.g1), ("g2", self.g2)):
            if not np.isfinite(part).all():
                raise ValueError(f"{name} must hold finite coefficients, got "
                                 f"{part}")
        # views, so the checks hold and the caller's arrays keep their flags
        self.g1, self.g2 = (_read_only(p.view()) for p in (self.g1, self.g2))
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.curve is not None:
            self.check_curve(self.curve)
        check_gamma1(self.gamma1)

    @property
    def classical_limit(self) -> bool:
        """True at gamma1 = 0, the classical traction-free limit."""
        return self.gamma1 == 0.0

    @property
    def degree(self) -> int:
        return len(self.g1) - 1

    def gprime(self, s):
        """Reconstructed complex density g'(s)."""
        return poly_eval(self.g1 + 1j * self.g2, s, self.length, self.basis)

    def check_curve(self, curve: CrackCurve):
        """Raise ValueError unless the curve is the density's own or, for a
        density without one, has its arc length."""
        if self.curve is not None and curve != self.curve:
            raise ValueError(f"a density solved on {self.curve!r} paired "
                             f"with {curve!r}")
        if curve.length != self.length:
            raise ValueError(f"a density on an arc of length {self.length!r} "
                             f"paired with a curve of length {curve.length!r}")


def check_gamma1(gamma1, error=ValueError):
    """Raise error unless gamma1 is finite and nonnegative."""
    if not np.isfinite(gamma1) or gamma1 < 0:
        raise error(f"gamma1 must be finite and nonnegative, got {gamma1}")


def q_coefficients(curve: CrackCurve, material, gamma1: float, g1, g2, basis):
    """Complex coefficients of q for equal-shape real coefficient arrays.

    The closure above, with P = kappa0 Im g' + Re g'' in the basis, over
    the last axis: (C, N+1) arrays g1, g2 give one q polynomial per row.
    """
    k0, length = curve.constant_curvature, curve.length
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    P = poly_derivative(g1, length, basis) + k0 * g2
    return (gamma1 / (4.0 * material.mu)) * (
        k0 * P + 1j * poly_derivative(P, length, basis))


def q_rows_to_unknowns(re_rows, im_rows, curve: CrackCurve, material, basis):
    """Rows on the coefficients g1 and g2 of rows on those of Re q and Im q.

    The closure of `q_coefficients` at gamma1 = 1 in banded form: q =
    (kappa0 P + i P')/4mu with P = D g1 + kappa0 g2 for the derivative
    matrix D, so rows (a, b) on (Re q, Im q) are W P with W = (kappa0 a +
    b D)/4mu: W D on g1 and kappa0 W on g2.  D acts on the last axis.
    The collocation tables and the face-field rows take their q rows to
    the unknowns this way, once, so no run forms q per density.
    """
    k0 = curve.constant_curvature
    D = basis.derivative_matrix(curve.length, re_rows.shape[-1] - 1)
    w = (k0 * re_rows + im_rows @ D) / (4.0 * material.mu)
    return w @ D, k0 * w


def q_polynomial(curve: CrackCurve, material, gamma1: float,
                 coeffs: DensityCoefficients) -> np.ndarray:
    """Complex coefficient vector of q(s), in the density's basis."""
    coeffs.check_curve(curve)
    return q_coefficients(curve, material, gamma1, coeffs.g1, coeffs.g2,
                          coeffs.basis)


def traction_jump(curve: CrackCurve, material, gamma1: float,
                  coeffs: DensityCoefficients, s):
    """Complex traction-jump density q(s): `q_polynomial` evaluated at s."""
    return poly_eval(q_polynomial(curve, material, gamma1, coeffs), s,
                     coeffs.length, coeffs.basis)


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


def _single_valued_integrals(curve: CrackCurve, degree: int, basis):
    """I_n = int_0^l phi_n(x) t'(x) dx, n = 0..degree.

    The integrals of the single-valuedness rows: the basis's tangent
    integrals at s = l.
    """
    return basis.tangent_integrals(curve, degree, [curve.length])[0]


def _jump_table(curve: CrackCurve, degree: int, basis, n_samples: int):
    """M[k, n] = int_0^{s_k} phi_n(x) t'(x) dx on equispaced s_k in [0, l].

    The basis's tangent integrals at the points of the opening profile,
    which is this table applied to the density; read-only.
    """
    return _read_only(basis.tangent_integrals(
        curve, degree, np.linspace(0.0, curve.length, n_samples)))


def _read_only(array):
    """The array, marked read-only: a table kept between runs raises on an
    in-place write instead of changing the runs after it."""
    array.setflags(write=False)
    return array


def _tip_blocks(curve: CrackCurve, material, degree: int, basis):
    """T0 and T1 of the tip rows, (rows, 2 degree + 2): the rows of a
    density [g1; g2] at gamma1 are (T0 + gamma1 T1) [g1; g2], in
    constraint order, the rows of the first tip first.

    Per tip: -Im omega and Re sigma / 2 of `cauchy_densities`, which zero
    the log terms of the normal component of du/ds and of sigma_n
    (`_density_rows`).  On a straight crack these degenerate (the first
    reduces to Im g' = 0) and leave the boundary-layer modes
    exp(+-s/sqrt(gamma1(kappa-1)/4mu)) unpinned; the rows Re g'' and
    Im g'' at each tip, b' on g1 and on g2, pin them.
    """
    b = basis.table([0.0, curve.length], curve.length, degree)
    # -Im omega = Re(i omega), then Re sigma / 2
    t0, t1 = zip(*(_density_rows(w, p, b, curve, material, basis)
                   for w, p in ((1j, 1), (0.5, 0))))
    if curve.constant_curvature == 0.0:
        b1 = b @ basis.derivative_matrix(curve.length, degree)
        zero = np.zeros(b.shape)
        t0 += (np.hstack([b1, zero]), np.hstack([zero, b1]))
        t1 += (np.zeros(t0[0].shape),) * 2
    return tuple(np.stack(t, axis=1).reshape(-1, 2 * degree + 2)
                 for t in (t0, t1))


def _tip_log_rows(curve: CrackCurve, material, degree: int, basis):
    """T0 and T1 of the log coefficients A = -p(0) / (2 pi (kappa+1)) at
    s = 0 of sigma_n, tau_n (p = sigma), du1/ds and du2/ds (p = t'(0)
    omega / 2mu), (4, 2 degree + 2), as `_tip_blocks` of the tip rows."""
    b = basis.table([0.0], curve.length, degree)
    scale = -1.0 / (2.0 * np.pi * (material.kappa + 1.0))
    du = scale * complex(curve.tangent(0.0)) / (2.0 * material.mu)
    # Re(w p), then Im(w p) = Re(-i w p)
    rows = [_density_rows(w, p, b, curve, material, basis)
            for p, c in enumerate((scale, du)) for w in (c, -1j * c)]
    return tuple(np.concatenate(t) for t in zip(*rows))


def _density_rows(w, p, b, curve: CrackCurve, material, basis):
    """T0 and T1 of Re(w sigma) (p = 0) or Re(w omega) (p = 1) of
    `cauchy_densities`, Re(z g' + z_q q), on [g1; g2] at the points of the
    basis table b: Re(z x) = Re z Re x - Im z Im x, g' is b on g1 and i b
    on g2, and q comes from the closure at gamma1 = 1."""
    z, zq = (w * cauchy_densities(g, q, material.kappa)[p]
             for g, q in ((1.0, 0.0), (0.0, 1.0)))
    return (np.hstack([z.real * b, -z.imag * b]),
            np.hstack(q_rows_to_unknowns(zq.real * b, -zq.imag * b,
                                         curve, material, basis)))
