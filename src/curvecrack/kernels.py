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

with k = kappa and d2 = dd2 = 0 exactly.  c = sum_j beta_j x^(2j-1),
beta_j = -2^(2j) |B_2j| / (2j)!, converges for |x| < pi; on a Jordan arc
(|kappa0| l < 2 pi, `CrackCurve`) every pair of points has |x| < pi.

Since 2i cos^2 x = i + iE and 2 sin^2 x = 1 - Re E, every form above is
scale_p (alpha c_p + i gamma + eps E): p = 0, 1, 2 is the order of the
s0-derivative, c_p is c, c' or c'', scale_p is a, -a^2 or a^3 with
a = 1/2R, alpha and gamma are real and eps is complex.  `_coefficients`
holds (p, alpha, gamma, eps) for all twelve kernels, and both evaluators
read it:

- `KernelSet.block` evaluates the kernels at pairs (s, s0) that broadcast
  against each other.  It is the pointwise evaluation behind `kernel`,
  `kernel_derivatives` and `fredholm_operator`, the reference of the
  tables.  The only cancellation is in c, c' and c'' near the diagonal
  x = 0: below the cut |x| = 1/2 they come from eleven terms of the
  series, which reach double precision there; above it the closed forms
  lose at most about two digits.
- `KernelSet.raw_tables` gives six real tables over the nodes, one row per
  point s0, with no (point, node) pair evaluated, from the node side
  `KernelSet.node_tables`, which needs no point; each kernel summed
  against a weighted basis is a complex combination of them
  (`table_rows`), which the face operator folds into its real map
  (`fields._NodeSide.rows_maps`) without forming the kernel tables.
  With u = a (s - l/2), v = a (s0 - l/2) and a = kappa0/2, the series of
  c(u - v) is separable, sum_{r,i} H[r, i] v^r u^i, so the table of c is
  V(v) H U(u)^T wbasis with the Vandermonde matrices V and U, and those
  of c' and c'' differ only in V, differentiated in v.  The number of
  terms follows from rho = |kappa0| l/2 < pi, which bounds max|u| +
  max|v| on the arc.  E = exp(i kappa0 s) exp(-i kappa0 s0) splits into
  one moment over the nodes and one phase per point, and the constant
  part is the column sums of the weighted basis.

The operator assembled from these kernels (`fredholm_operator`) is the
regular, compact part of the collocation system; its first and second
kernel-derivative blocks use the closed-form differentiated expressions,
never finite differences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .geometry import CrackCurve

# Series terms of c = cot x - 1/x: _TERMS for the pointwise evaluation below
# |x| = _CUT, at most _MAX_TERMS for the separable tables of `node_tables`
_CUT = 0.5
_TERMS = 11
_MAX_TERMS = 512


def _cot_coefficients():
    """beta_j pi^(2j-1), j = 1.._MAX_TERMS, where c = sum_j beta_j x^(2j-1).

    beta_j = -b_j, b_j = 2^(2j) |B_2j| / (2j)! = 2 zeta(2j) / pi^(2j).  The
    first _TERMS are exact rationals from x cot x = 1 - sum_j b_j x^(2j),
    which solves x f' - f = -x^2 - f^2: (2j + 1) b_j = [j = 1] + sum_{i<j}
    b_i b_(j-i).  The rest are -2 zeta(2j)/pi, with zeta(2j) summed to
    k = 16, whose remainder is below 1e-29 there.  Scaled by pi^(2j-1) the
    coefficients tend to -2/pi, so none underflows.
    """
    b = [Fraction(0)]
    for n in range(1, _TERMS + 1):
        b.append((int(n == 1) + sum(b[i] * b[n - i] for i in range(1, n)))
                 / (2 * n + 1))
    exact = [-float(v) * np.pi ** (2 * n - 1) for n, v in enumerate(b) if n]
    # row j - 1 holds k^(-2j) for k = 16..1
    powers = np.cumprod(np.tile(np.arange(16, 0, -1.0) ** -2,
                                (_MAX_TERMS, 1)), axis=0)
    zeta = powers[_TERMS:].sum(axis=1)
    return np.concatenate([exact, -2.0 * zeta / np.pi])


_BETA = _cot_coefficients()


def _cot_series():
    """Coefficients in y = x^2 of c/x, c' and c''/x, ascending in y."""
    n = np.arange(1, _TERMS + 1)
    beta = _BETA[:_TERMS] / np.pi ** (2 * n - 1)
    return beta, (2 * n - 1) * beta, ((2 * n - 1) * (2 * n - 2) * beta)[1:]


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


def _series_terms(rho):
    """Fewest terms J of the series of c for c, c' and c'' at |x| <= rho.

    Every term of c'' has the sign of x, so its tail past J terms, relative
    to its first term 6 beta_2 x, is largest at x = rho: the sum over j > J
    of (2j-1)(2j-2)/6 (beta_j/beta_2) rho^(2j-4).  J is the first count that
    brings it below 2^-56, and at most _MAX_TERMS, which suffices up to
    rho = 0.95 pi; the tails of c and c' are smaller still.
    """
    j = np.arange(2, _MAX_TERMS + 1)
    terms = ((2 * j - 1) * (j - 1) / 3.0 * (_BETA[1:] / _BETA[1])
             * (rho / np.pi) ** (2 * j - 4))
    tails = np.cumsum(terms[::-1])[::-1]
    small = np.flatnonzero(tails[1:] <= 2.0 ** -56)
    return int(j[small[0]]) if small.size else _MAX_TERMS


@lru_cache(maxsize=8)
def _separable(terms):
    """The (K, K) matrix H, K = 2 terms, of the separable series of c.

    With z = 2u/pi and w = 2v/pi, the first `terms` terms of the series
    give c(u - v) = sum_{r,i} w^r H[r, i] z^i: (u - v)^n = (pi/2)^n sum_i
    C(n, i) z^i (-w)^(n-i), so H[r, i] = (-1)^r beta_j pi^n C(n, i)/2^n for
    odd n = r + i = 2j - 1 < K, and 0 otherwise.  Both factors are at most
    one, and the binomials, from Pascal's triangle, stay below 2^1023; they
    are exact while below 2^53, up to n = 56.  Read-only, built once per
    number of terms.
    """
    K = 2 * terms
    pascal = np.zeros((K, K))
    pascal[:, 0] = 1.0
    for n in range(1, K):
        pascal[n, 1:] = pascal[n - 1, 1:] + pascal[n - 1, :-1]
    r, i = np.indices((K, K))
    n = r + i
    odd = (n % 2 == 1) & (n < K)
    r, i, n = r[odd], i[odd], n[odd]
    H = np.zeros((K, K))
    H[odd] = (np.where(r % 2, -1.0, 1.0) * _BETA[n // 2]
              * np.ldexp(pascal[n, i], -n))
    H.flags.writeable = False
    return H


def _complex(re, im):
    """re + i im, without the two complex temporaries of re + 1j * im."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


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
    `table_rows` both read.  On a straight crack every kernel and
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
        the pointwise evaluation; the operator tables use `raw_tables`.
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

    def node_tables(self, nodes, wbasis):
        """The node side of `raw_tables`, (B, cos, sin, wsum), with one
        column per column of wbasis: B = H Z(z)^T wbasis of `_cot_tables`,
        the moments of cos(kappa0 s) and sin(kappa0 s), and the column sums.
        B keeps the series terms of rho = |kappa0| l/2, which no two points
        of [0, l] exceed, so no point s0 is needed."""
        nodes = np.asarray(nodes, dtype=float)
        z = (self._k0 / np.pi) * (nodes - 0.5 * self.curve.length)
        terms = _series_terms(0.5 * abs(self._k0) * self.curve.length)
        B = _separable(terms) @ (np.vander(z, 2 * terms, increasing=True).T
                                 @ wbasis)
        k0s = self._k0 * nodes
        return (B, np.cos(k0s) @ wbasis, np.sin(k0s) @ wbasis,
                wbasis.sum(axis=0))

    def raw_tables(self, s0, tables, derivatives):
        """The real tables that the kernel tables combine, (R, M, C).

        From the first C columns of `node_tables`: C_p = sum_k c_p(x_k)
        wbasis_k for c (and c', c'' with derivatives, `_cot_tables`), Re
        and Im of sum_k E_k wbasis_k, and the column sums of wbasis in
        every row: R is 4, or 6 with derivatives.
        """
        B, cos, sin, wsum = tables
        s0 = np.asarray(s0, dtype=float)
        orders = 3 if derivatives else 1
        out = np.zeros((orders + 3, s0.size, wsum.size))
        out[-1] = wsum
        if self._k0 != 0.0:
            out[:orders] = self._cot_tables(s0, B, derivatives)
            phase = self._k0 * s0[:, None]
            cos0, sin0 = np.cos(phase), np.sin(phase)
            out[orders] = cos0 * cos + sin0 * sin
            out[orders + 1] = cos0 * sin - sin0 * cos
        return out

    def table_rows(self, keys, derivatives):
        """Complex (K, R): each key's table is its row times `raw_tables`.

        scale_p (alpha c_p + i gamma + eps E) puts scale_p alpha on C_p,
        scale_p eps and i scale_p eps on Re E and Im E, and i scale_p gamma
        on the column sums."""
        orders = 3 if derivatives else 1
        rows = np.zeros((len(keys), orders + 3), dtype=complex)
        for row, key in zip(rows, keys):
            p, alpha, gamma, eps = self._coef[key]
            scale = self._scale[p]
            row[p] = scale * alpha
            row[orders:] = scale * eps, 1j * scale * eps, 1j * scale * gamma
        return rows

    def _cot_tables(self, s0, B, derivatives):
        """[C] or [C, C', C''] with C_p = sum_k c_p(x_k) wbasis_k, (M, C).

        x_k = a (nodes_k - s0) = u - v with u = a (s - l/2), v = a (s0 -
        l/2) and a = kappa0/2.  In z = 2u/pi and w = 2v/pi the series of c
        is separable, c = sum_{r,i} w^r H[r, i] z^i (`_separable`), so C =
        V(w) B with the Vandermonde matrix V of the points and B = H Z(z)^T
        wbasis of the nodes (`node_tables`).  c' = -dc/dv and c'' =
        d^2c/dv^2 take the same product with V differentiated.  The series
        converges for rho = max|u| + max|v| < pi; B holds the terms that
        reach double precision at rho = |kappa0| l/2, which bounds rho for
        points s0 of [0, l], on every Jordan arc (`CrackCurve`) below pi.
        """
        half = 0.5 * self.curve.length
        if not np.all(np.abs(s0 - half) <= half):
            raise ValueError("the kernel series needs max|u| + max|v| < pi "
                             "and points s0 of [0, l], got s0 from "
                             f"{s0.min()!r} to {s0.max()!r}")
        w = (self._k0 / np.pi) * (s0 - half)
        K = len(B)
        V = np.vander(w, K, increasing=True)
        out = [V @ B]
        if derivatives:
            # d/dv w^r = (2/pi) r w^(r-1)
            r = (2.0 / np.pi) * np.arange(1, K)[:, None]
            B1 = r * B[1:]
            out += [-(V[:, :-1] @ B1), V[:, :-2] @ (r[:-1] * B1[1:])]
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
