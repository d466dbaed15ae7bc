"""Regular kernels of the crack integral representations and their s0-derivatives.

Four kernels k_j(s, s0), j = 1..4, remain after the Cauchy singularity
1/(s - s0) is split off the face-field representations.  Each is a finite,
smooth function that extends continuously onto the diagonal s = s0, and each
vanishes identically on a straight crack.

Every built-in curve is straight or a circular arc of signed radius
R = 1/kappa0, so by rotation invariance the kernels depend on s and s0 only
through x = (s - s0)/2R.  With c = cot x - 1/x and E = exp(2ix) they are

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

`KernelSet.block` takes arrays of s and s0 that broadcast against each
other, so one call evaluates a whole block of evaluation points against the
quadrature nodes as array arithmetic over all pairs at once.

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


class KernelSet:
    """Evaluator for the four regular kernels tied to one curve and material.

    The kernels are evaluated in the x-form of the module docstring, so the
    curve must have constant curvature (every built-in shape does); a curve
    with constant_curvature None raises ValueError.  On a straight crack
    every kernel and derivative is exactly zero.

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
        if curve.constant_curvature is None:
            raise ValueError("the kernels need a constant-curvature curve")
        self.curve = curve
        self.kappa = float(kappa)
        self._k0 = float(curve.constant_curvature)

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
        k1..k4 and, when derivatives is set, d1..d4 and dd1..dd4.
        """
        ds = np.asarray(s, dtype=float) - np.asarray(s0, dtype=float)
        keys = ["k1", "k2", "k3", "k4"]
        if derivatives:
            keys += ["d1", "d2", "d3", "d4", "dd1", "dd2", "dd3", "dd4"]
        if self._k0 == 0.0:
            return {key: np.zeros(ds.shape, dtype=complex) for key in keys}
        # the module docstring's forms, scaled by a = 1/2R, -a^2 = -1/4R^2
        # and a^3 = 1/8R^3, with real and imaginary parts built apart
        a = 0.5 * self._k0
        x = a * ds
        kappa = self.kappa
        c = _cot_parts(x, derivatives)
        sin2, cos2 = np.sin(2.0 * x), np.cos(2.0 * x)
        out = {
            "k1": _complex(a * (2.0 * c[0] - 2.0 * sin2),
                           a * (2.0 + 2.0 * cos2)),
            "k2": np.full(x.shape, -1j * self._k0),
            "k3": _complex(a * ((1.0 - kappa) * c[0] + 2.0 * kappa * sin2),
                           a * (1.0 - kappa - 2.0 * kappa * cos2)),
            "k4": _complex(a * ((kappa - 1.0) * c[0] + 2.0 * sin2),
                           a * (kappa - 1.0 - 2.0 * cos2)),
        }
        if not derivatives:
            return out
        a1, a2 = -a * a, a * a * a
        out.update({
            "d1": _complex(a1 * (2.0 * c[1] - 4.0 * cos2), a1 * -4.0 * sin2),
            "d2": np.zeros(x.shape, dtype=complex),
            "d3": _complex(a1 * ((1.0 - kappa) * c[1] + 4.0 * kappa * cos2),
                           a1 * 4.0 * kappa * sin2),
            "d4": _complex(a1 * ((kappa - 1.0) * c[1] + 4.0 * cos2),
                           a1 * 4.0 * sin2),
            "dd1": _complex(a2 * (2.0 * c[2] + 8.0 * sin2), a2 * -8.0 * cos2),
            "dd2": np.zeros(x.shape, dtype=complex),
            "dd3": _complex(a2 * ((1.0 - kappa) * c[2] - 8.0 * kappa * sin2),
                            a2 * 8.0 * kappa * cos2),
            "dd4": _complex(a2 * ((kappa - 1.0) * c[2] - 8.0 * sin2),
                            a2 * 8.0 * cos2),
        })
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
