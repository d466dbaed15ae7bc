"""Regular kernels of the crack integral representations and their s0-derivatives.

Four kernels k_j(s, s0), j = 1..4, remain after the Cauchy singularity
1/(s - s0) is split off the face-field representations.  Each is a finite,
smooth function that extends continuously onto the diagonal s = s0, and each
vanishes identically on a straight crack.

Every curve (`geometry.CrackCurve`) is straight or a circular arc of
signed radius R = 1/kappa0, so by rotation invariance the kernels depend
on s and s0 only through x = (s - s0)/2R.  With c = cot x - 1/x and
E = exp(2ix) they are

    2R k1 = 2c - 2 sin 2x + 4i cos^2 x
    2R k3 = (1 - kappa) c + 2 kappa sin 2x + i(1 - 3 kappa + 4 kappa sin^2 x)
    2R k4 = (kappa - 1) c + 2 sin 2x + i(kappa - 3 + 4 sin^2 x)
       k2 = -i/R

and, since d/ds0 = -(1/2R) d/dx, their s0-derivatives d_j and dd_j are

    -4R^2 d1 = 2c' - 4E               8R^3 dd1 = 2c'' - 8iE
    -4R^2 d3 = (1 - kappa) c' + 4kE   8R^3 dd3 = (1 - kappa) c'' + 8ikE
    -4R^2 d4 = (kappa - 1) c' + 4E    8R^3 dd4 = (kappa - 1) c'' + 8iE

with k = kappa and d2 = dd2 = 0 exactly.  The only cancellation is in c,
c' and c'' near the diagonal x = 0.  For |x| < 1/2 they come from the series
cot x = 1/x - sum_n b_n x^(2n-1), b_n = 2^(2n) |B_2n| / (2n)!, whose eleven
terms reach double precision there; above the cut the closed forms lose at
most about two digits.

Since 2i cos^2 x = i + iE and 2 sin^2 x = 1 - Re E, every form above is
scale_p (alpha c_p + i gamma + eps E): p = 0, 1, 2 is the order of the
s0-derivative, c_p is c, c' or c'', scale_p is a, -a^2 or a^3 with
a = 1/2R, alpha and gamma are real and eps is complex.  `_coefficients`
holds (p, alpha, gamma, eps) for all twelve kernels, and both evaluators
read it:

- `KernelSet.block` evaluates the kernels at pairs (s, s0) that broadcast
  against each other.  It is the pointwise evaluation behind `kernel`,
  `kernel_derivatives` and `fredholm_operator`.
- `KernelSet.integrated` gives what the face operator tabulates: each
  kernel summed over quadrature nodes against a weighted basis, one row per
  point s0.  Only c, c' and c'' are evaluated per (point, node) pair, each
  followed by one real matrix product.  The constant part is the column
  sums of the weighted basis, and E = exp(i kappa0 s) exp(-i kappa0 s0)
  splits into one moment over the nodes and one phase per point.

The operator assembled from these kernels (`fredholm_operator`) is the
regular, compact part of the collocation system; its first and second
kernel-derivative blocks use the closed-form differentiated expressions,
never finite differences.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyval

from .geometry import CrackCurve

# c = cot x - 1/x and its derivatives come from the series below |x| = _CUT
_CUT = 0.5
_TERMS = 11


def _cot_series():
    """Coefficients in y = x^2 of c/x, c' and c''/x, ascending in y.

    b_n follows from x cot x = 1 - sum_n b_n x^(2n), which solves
    x f' - f = -x^2 - f^2: (2n + 1) b_n = [n = 1] + sum_{i<n} b_i b_(n-i).
    """
    b = [Fraction(0)]
    for n in range(1, _TERMS + 1):
        b.append((int(n == 1) + sum(b[i] * b[n - i] for i in range(1, n)))
                 / (2 * n + 1))
    n = np.arange(1, _TERMS + 1)
    b = -np.array([float(v) for v in b[1:]])
    return b, (2 * n - 1) * b, ((2 * n - 1) * (2 * n - 2) * b)[1:]


_SERIES = _cot_series()


def _series_parts(x, derivatives):
    """[c] or [c, c', c''] at x from the series; accurate for |x| <= 1/2."""
    y = x * x
    out = [x * polyval(y, _SERIES[0])]
    if derivatives:
        out += [polyval(y, _SERIES[1]), x * polyval(y, _SERIES[2])]
    return out


def _closed_parts(x, derivatives):
    """[c] or [c, c', c''] at x in closed form; x = 0 gives inf or nan."""
    cot = 1.0 / np.tan(x)
    inv = 1.0 / x
    out = [cot - inv]
    if derivatives:
        csc2 = 1.0 + cot * cot
        out += [inv * inv - csc2, 2.0 * (csc2 * cot - inv * inv * inv)]
    return out


def _cot_parts(x, derivatives):
    """[c] or [c, c', c''] at x, with c = cot x - 1/x and |x| < pi."""
    near = np.abs(x) < _CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = _closed_parts(x, derivatives)
    return [np.where(near, a, b)
            for a, b in zip(_series_parts(x, derivatives), closed)]


def _complex(re, im):
    """re + i im, without the two complex temporaries of re + 1j * im."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


# Points per cotangent block while KernelSet.integrated fills its tables.
# Larger blocks save little time and raise peak memory: a block holds up to
# three real (points x nodes) arrays, c, c' and c'', and their temporaries.
_BLOCK = 16
_KEYS = {False: ("k1", "k2", "k3", "k4"),
         True: ("k1", "k2", "k3", "k4", "d1", "d2", "d3", "d4",
                "dd1", "dd2", "dd3", "dd4")}


def _coefficients(kappa: float):
    """(p, alpha, gamma, eps) of each kernel, as in the module docstring.

    The kernel is scale_p (alpha c_p + i gamma + eps E): p is the order of
    its s0-derivative, c_p is c, c' or c'' and scale_p is a, -a^2 or a^3,
    with a = 1/2R and E = exp(2ix).  eps is a float where it is real.
    """
    return {
        "k1": (0, 2.0, 2.0, 2j),
        "k2": (0, 0.0, -2.0, 0.0),
        "k3": (0, 1.0 - kappa, 1.0 - kappa, -2j * kappa),
        "k4": (0, kappa - 1.0, kappa - 1.0, -2j),
        "d1": (1, 2.0, 0.0, -4.0),
        "d2": (1, 0.0, 0.0, 0.0),
        "d3": (1, 1.0 - kappa, 0.0, 4.0 * kappa),
        "d4": (1, kappa - 1.0, 0.0, 4.0),
        "dd1": (2, 2.0, 0.0, -8j),
        "dd2": (2, 0.0, 0.0, 0.0),
        "dd3": (2, 1.0 - kappa, 0.0, 8j * kappa),
        "dd4": (2, kappa - 1.0, 0.0, 8j),
    }


class KernelSet:
    """Evaluator for the four regular kernels tied to one curve and material.

    The kernels are evaluated in the x-form of the module docstring, from
    one table of coefficients (`_coefficients`) that `block` and
    `integrated` both read.  On a straight crack every kernel and
    derivative is exactly zero.

    Parameters
    ----------
    curve : CrackCurve
    kappa : float
        Kolosov constant of the material.

    Attributes
    ----------
    eps_d : float
        Half-width 2R * 1/2 = R of the band |s - s0| < eps_d inside which
        c, c' and c'' come from the series; 0.0 on a straight crack.
    """

    def __init__(self, curve: CrackCurve, kappa: float):
        self.curve = curve
        self.kappa = float(kappa)
        self._k0 = curve.constant_curvature
        self._coef = _coefficients(self.kappa)
        a = 0.5 * self._k0
        self._scale = (a, -a * a, a * a * a)

    @property
    def eps_d(self) -> float:
        return 0.0 if self._k0 == 0.0 else 2.0 * _CUT / abs(self._k0)

    def kernel(self, j: int, s, s0: float):
        """k_j(s, s0); s may be an array, s0 is a scalar in [0, l]."""
        self._check_index(j)
        out = self.block(np.atleast_1d(s), s0, derivatives=False)[f"k{j}"]
        return out[0] if np.ndim(s) == 0 else out

    def kernel_derivatives(self, j: int, s, s0: float):
        """(dk_j/ds0, d^2 k_j/ds0^2); s may be an array, s0 a scalar."""
        self._check_index(j)
        blk = self.block(np.atleast_1d(s), s0)
        d1, d2 = blk[f"d{j}"], blk[f"dd{j}"]
        return (d1[0], d2[0]) if np.ndim(s) == 0 else (d1, d2)

    def block(self, s, s0, derivatives: bool = True):
        """All kernels (and optionally both s0-derivatives) at pairs (s, s0).

        s and s0 may be arrays; they broadcast against each other, so an
        s0 of shape (M, 1) against nodes s of shape (n,) gives (M, n)
        blocks, one row per evaluation point.  Returns a dict with keys
        k1..k4 and, when derivatives is set, d1..d4 and dd1..dd4.  This is
        the pointwise evaluation; the operator tables use `integrated`.
        """
        ds = np.asarray(s, dtype=float) - np.asarray(s0, dtype=float)
        keys = _KEYS[derivatives]
        if self._k0 == 0.0:
            return {key: np.zeros(ds.shape, dtype=complex) for key in keys}
        x = 0.5 * self._k0 * ds
        c = _cot_parts(x, derivatives)
        sin2, cos2 = np.sin(2.0 * x), np.cos(2.0 * x)
        out = {}
        for key in keys:
            p, alpha, gamma, eps = self._coef[key]
            scale = self._scale[p]
            # eps E = (Re eps cos 2x - Im eps sin 2x)
            #         + i (Im eps cos 2x + Re eps sin 2x)
            out[key] = _complex(
                scale * (alpha * c[p] + (eps.real * cos2 - eps.imag * sin2)),
                scale * (gamma + (eps.imag * cos2 + eps.real * sin2)))
        return out

    def integrated(self, s0, nodes, wbasis, keys):
        """Each kernel summed against a weighted basis over the nodes.

        s0 has shape (M,), nodes (n,) and wbasis (n, C); returns a dict of
        complex (M, C) tables, one per key of `keys` (names as in `block`).
        Equal to block(nodes, s0[:, None]) @ wbasis for each key, but only
        the real c, c' and c'' are evaluated per (point, node) pair, _BLOCK
        points at a time, each followed by one real product with wbasis.
        The constant term is i gamma times the column sums of wbasis, and
        E = exp(i kappa0 (s - s0)) splits into a phase exp(-i kappa0 s0)
        per point times one moment, the sum of exp(i kappa0 s) wbasis over
        the nodes.
        """
        s0 = np.asarray(s0, dtype=float)
        nodes = np.asarray(nodes, dtype=float)
        shape = (s0.size, wbasis.shape[1])
        if self._k0 == 0.0:
            return {key: np.zeros(shape, dtype=complex) for key in keys}
        derivatives = any(self._coef[key][0] for key in keys)
        cparts = [np.empty(shape) for _ in range(3 if derivatives else 1)]
        a = 0.5 * self._k0
        for start in range(0, s0.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            x = a * (nodes - s0[part, None])
            for table, c in zip(cparts, _cot_parts(x, derivatives)):
                table[part] = c @ wbasis
        k0s = self._k0 * nodes
        moment = _complex(np.cos(k0s) @ wbasis, np.sin(k0s) @ wbasis)
        trig = np.exp(-1j * self._k0 * s0)[:, None] * moment
        wsum = wbasis.sum(axis=0)
        out = {}
        for key in keys:
            p, alpha, gamma, eps = self._coef[key]
            out[key] = self._scale[p] * (alpha * cparts[p] + eps * trig
                                         + 1j * gamma * wsum)
        return out

    @staticmethod
    def _check_index(j):
        if j not in (1, 2, 3, 4):
            raise ValueError(f"kernel index must be 1..4, got {j}")


def fredholm_operator(kset: KernelSet, material, load, gamma1: float,
                      disc, gprime_nodes, q_nodes, s0: float) -> complex:
    """Regular (compact) operator of the collocation system at s0.

    Takes the density g' and traction-jump density q sampled at the
    discretization nodes and returns the full operator value, consisting of
    the plain kernel block, the curvature-weighted real-part block, the
    first-kernel-derivative block, the imaginary second-derivative block,
    and the load forcing (kappa+1)*f(s0).  s0 must not be a node.
    """
    from .fields import boundary_forcing

    nodes = disc.nodes
    if np.any(nodes == s0):
        raise ValueError(f"operator evaluation point {s0} is a quadrature node")
    w = disc.weight
    kappa = kset.kappa
    mu = material.mu
    gp = np.asarray(gprime_nodes, dtype=complex)
    q = np.asarray(q_nodes, dtype=complex)
    gpc = np.conj(gp)
    qc = np.conj(q)

    blk = kset.block(nodes, s0)
    k0 = float(kset.curve.kappa0(s0))
    k0p = float(kset.curve.kappa0_prime(s0))

    i_a = w * np.sum(blk["k1"] * gp + blk["k2"] * gpc
                     - 2j * blk["k3"] * q + 2j * blk["k2"] * qc)
    i_b = (w / (2.0 * np.pi)) * np.sum(blk["k4"] * gp - blk["k2"] * gpc) \
        + (w / (np.pi * 1j)) * np.sum(kappa * blk["k1"] * q + blk["k2"] * qc)
    i_c = w * np.sum(1j * blk["d4"] * gp - 1j * blk["d2"] * gpc
                     + 2.0 * kappa * blk["d1"] * q + 2.0 * blk["d2"] * qc)
    i_d = (w / (2.0 * np.pi)) * np.sum(blk["dd4"] * gp - blk["dd2"] * gpc) \
        + (w / (np.pi * 1j)) * np.sum(kappa * blk["dd1"] * q + blk["dd2"] * qc)

    value = (-i_a / (2.0 * np.pi)
             - (gamma1 / (2.0 * mu)) * (k0 * k0 + 1j * k0p) * np.real(i_b)
             - (gamma1 / (4.0 * np.pi * mu)) * k0 * i_c
             + 1j * (gamma1 / (2.0 * mu)) * np.imag(i_d))
    value += (kappa + 1.0) * boundary_forcing(kset.curve, material, load,
                                              gamma1, s0)
    return complex(value)
