"""Regular kernels of the crack integral representations and their s0-derivatives.

Four kernels k_j(s, s0), j = 1..4, remain after the Cauchy singularity
1/(s - s0) is split off the face-field representations.  Each is a finite,
smooth function that extends continuously onto the diagonal s = s0, and each
vanishes identically on a straight crack.

Direct evaluation of the closed forms loses roughly |s - s0|^-1 digits to
cancellation near the diagonal, so inside a band |s - s0| < eps_d the kernels
are evaluated from a Taylor expansion of t about s0 through fourth order,
which makes the 0/0 cancellation explicit.  The expansion is composed at
runtime with truncated series arithmetic over jet coefficients (value plus
s0-derivatives), so the same machinery also supplies the near-diagonal first
and second s0-derivatives.

`KernelSet.block` takes arrays of s and s0 that broadcast against each
other, so one call evaluates a whole block of evaluation points against the
quadrature nodes; the closed forms and the series path both run as array
arithmetic over all pairs at once, the series over every near pair of the
block together.

The operator assembled from these kernels (`fredholm_operator`) is the
regular, compact part of the collocation system; its first and second
kernel-derivative blocks use the closed-form differentiated expressions,
never finite differences.
"""

from __future__ import annotations

import numpy as np

from .geometry import CrackCurve

_BINOM = ((1.0,), (1.0, 1.0), (1.0, 2.0, 1.0))


def _jet_mul(a, b):
    return np.array([sum(_BINOM[k][i] * a[i] * b[k - i] for i in range(k + 1))
                     for k in range(len(a))])


def _jet_div(a, b):
    q = []
    for k in range(len(a)):
        acc = a[k]
        for i in range(k):
            acc = acc - _BINOM[k][i] * q[i] * b[k - i]
        q.append(acc / b[0])
    return np.array(q)


def _series_mul(A, B, nterms):
    out = []
    for n in range(nterms):
        acc = None
        for i in range(n + 1):
            if i < len(A) and (n - i) < len(B):
                term = _jet_mul(A[i], B[n - i])
                acc = term if acc is None else acc + term
        out.append(acc if acc is not None else np.zeros_like(A[0]))
    return out


def _series_div(A, B, nterms):
    q = []
    for n in range(nterms):
        acc = A[n].astype(complex) if n < len(A) else np.zeros_like(A[0])
        for i in range(n):
            acc = acc - _jet_mul(q[i], B[n - i])
        q.append(_jet_div(acc, B[0]))
    return q


def _bracket_series(tder, kappa, p, m):
    """Series coefficients (jets of order p) of delta*k_j about the diagonal.

    tder is (t, t', t'', t''', t'''') at s0, each an array over the near
    pairs.  A jet is an array of shape (p+1, ...): the value, then the
    s0-derivatives.  Returns {j: [c_0..c_{m-1}]} with
    delta*k_j = sum_n c_n delta^n; the n = 0 coefficient vanishes
    identically (that is the explicit 0/0 cancellation) and is dropped by
    callers.
    """
    _, t1, t2, t3, t4 = (np.asarray(v, dtype=complex) for v in tder)
    # order 5 never multiplies a retained term
    tall = (t1, t2, t3, t4, np.zeros_like(t1))

    def jet(idx):
        # jet of t^{(idx)}(s0): components t^{(idx)}, t^{(idx+1)}, ...
        return np.array([tall[idx - 1 + q] for q in range(p + 1)])

    fact = (1.0, 1.0, 2.0, 6.0, 24.0)
    d_ser = [jet(n + 1) / fact[n + 1] for n in range(m)]   # (t(s)-t(s0))/delta
    u_ser = [jet(n + 1) / fact[n] for n in range(m)]       # t'(s)
    db_ser = [np.conj(c) for c in d_ser]
    ubar_ser = [np.conj(c) for c in u_ser]

    r = _jet_div(np.conj(jet(1)), jet(1))
    one = np.zeros_like(r)
    one[0] = 1.0

    Aq = _series_div(u_ser, d_ser, m)
    Bq = _series_div(u_ser, db_ser, m)
    Cq = _series_div(ubar_ser, db_ser, m)
    Wq = _series_div(_series_mul(d_ser, ubar_ser, m),
                     _series_mul(db_ser, db_ser, m), m)

    km1 = (kappa - 1.0) * one
    out = {1: [], 2: [], 3: [], 4: []}
    for n in range(m):
        rB = _jet_mul(r, Bq[n])
        rW = _jet_mul(r, Wq[n])
        c1 = Aq[n] + rB
        c2 = Cq[n] - rW
        c3 = Aq[n] - kappa * rB
        c4 = kappa * Aq[n] - rB
        if n == 0:
            c1 = c1 - 2.0 * one
            c3 = c3 + km1
            c4 = c4 - km1
        out[1].append(c1)
        out[2].append(c2)
        out[3].append(c3)
        out[4].append(c4)
    return out


def _near_values(curve, kappa, s, s0):
    """Kernel values k_j(s, s0) via the diagonal series (|s - s0| small).

    s and s0 are arrays of one shape, an entry per near pair.
    """
    delta = s - s0
    br = _bracket_series(curve.derivatives(s0), kappa, p=0, m=4)
    return {j: br[j][1][0] + br[j][2][0] * delta + br[j][3][0] * delta**2
            for j in (1, 2, 3, 4)}


def _near_derivatives(curve, kappa, s, s0):
    """(d/ds0, d^2/ds0^2) of each kernel via the diagonal series."""
    delta = s - s0
    tder = curve.derivatives(s0)
    br_val = _bracket_series(tder, kappa, p=0, m=4)
    br_j1 = _bracket_series(tder, kappa, p=1, m=3)
    br_j2 = _bracket_series(tder, kappa, p=2, m=2)
    first, second = {}, {}
    for j in (1, 2, 3, 4):
        c1, c2 = br_j1[j][1], br_j1[j][2]  # jets: (value, d/ds0)
        c3 = br_val[j][3][0]
        first[j] = (c1[1] - c2[0]) + (c2[1] - 2.0 * c3) * delta
        c1_j2 = br_j2[j][1]  # jet: (value, d, d2)
        second[j] = c1_j2[2] - 2.0 * c2[1] + 2.0 * c3
    return first, second


def _direct_block(curve, kappa, s, s0, derivatives=True):
    """Closed-form kernels (and s0-derivatives) for well-separated s, s0.

    s and s0 are arrays that broadcast against each other.  The values at
    s0 are held as arrays even for a scalar s0: numpy rounds a product of
    complex scalars differently from its array loops, and a scalar s0 must
    give the same entries as the same point in a batched call.
    """
    s = np.asarray(s, dtype=float)
    t_s, u, _, _, _ = curve.derivatives(s)
    t0, t01, t02, t03, _ = (np.atleast_1d(np.asarray(v, dtype=complex))
                            for v in curve.derivatives(s0))
    u01, u02, u03 = np.conj(t01), np.conj(t02), np.conj(t03)

    ds = s - s0
    e1 = 1.0 / ds
    D = t_s - t0
    Db = np.conj(D)
    F = 1.0 / D
    G = 1.0 / Db
    r = u01 / t01
    ubar = np.conj(u)
    H = D * G * G

    out = {
        "k1": -2.0 * e1 + u * F + u * r * G,
        "k2": ubar * G - ubar * H * r,
        "k3": (kappa - 1.0) * e1 + u * F - kappa * u * r * G,
        "k4": -(kappa - 1.0) * e1 + kappa * u * F - u * r * G,
    }
    if not derivatives:
        return out

    e2 = e1 * e1
    e3 = e2 * e1
    F2_ = F * F
    F3_ = F2_ * F
    G2_ = G * G
    G3_ = G2_ * G
    f1 = t01 * F2_
    f2 = t02 * F2_ + 2.0 * t01 * t01 * F3_
    g1 = u01 * G2_
    g2 = u02 * G2_ + 2.0 * u01 * u01 * G3_
    r1 = (u02 - r * t02) / t01
    r2 = (u03 - 2.0 * u02 * t02 / t01 - u01 * t03 / t01
          + 2.0 * u01 * t02 * t02 / (t01 * t01)) / t01
    h1 = -t01 * G2_ + 2.0 * D * u01 * G3_
    h2 = (-t02 * G2_ - 4.0 * t01 * u01 * G3_ + 2.0 * D * u02 * G3_
          + 6.0 * D * u01 * u01 * G2_ * G2_)

    gr1 = g1 * r + G * r1
    gr2 = g2 * r + 2.0 * g1 * r1 + G * r2
    out.update({
        "d1": -2.0 * e2 + u * f1 + u * gr1,
        "d2": ubar * (g1 - h1 * r - H * r1),
        "d3": (kappa - 1.0) * e2 + u * f1 - kappa * u * gr1,
        "d4": -(kappa - 1.0) * e2 + kappa * u * f1 - u * gr1,
        "dd1": -4.0 * e3 + u * f2 + u * gr2,
        "dd2": ubar * (g2 - h2 * r - 2.0 * h1 * r1 - H * r2),
        "dd3": 2.0 * (kappa - 1.0) * e3 + u * f2 - kappa * u * gr2,
        "dd4": -2.0 * (kappa - 1.0) * e3 + kappa * u * f2 - u * gr2,
    })
    return out


class KernelSet:
    """Evaluator for the four regular kernels tied to one curve and material.

    Parameters
    ----------
    curve : CrackCurve
    kappa : float
        Kolosov constant of the material.
    eps_d : float, optional
        Half-width of the near-diagonal band switched to the series path.
        Defaults to 1e-3 times the arc length.
    """

    def __init__(self, curve: CrackCurve, kappa: float, eps_d: float | None = None):
        self.curve = curve
        self.kappa = float(kappa)
        self.eps_d = float(eps_d) if eps_d is not None else 1e-3 * curve.length
        # On a straight crack every kernel cancels identically; returning the
        # exact zeros avoids leaving O(eps/|s-s0|^3) roundoff residue.
        self._is_straight = curve.constant_curvature == 0.0

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
        Near-diagonal pairs are patched through the series path, all at
        once.
        """
        s_arr = np.asarray(s, dtype=float)
        s0_arr = np.asarray(s0, dtype=float)
        keys = ["k1", "k2", "k3", "k4"]
        if derivatives:
            keys += ["d1", "d2", "d3", "d4", "dd1", "dd2", "dd3", "dd4"]
        if self._is_straight:
            shape = np.broadcast_shapes(s_arr.shape, s0_arr.shape)
            return {key: np.zeros(shape, dtype=complex) for key in keys}
        near = np.abs(s_arr - s0_arr) < self.eps_d
        if not near.any():
            return _direct_block(self.curve, self.kappa, s_arr, s0_arr,
                                 derivatives=derivatives)
        # the closed form is evaluated everywhere and overwritten on the
        # near pairs, where it is inaccurate or 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _direct_block(self.curve, self.kappa, s_arr, s0_arr,
                                derivatives=derivatives)
        s_near = np.broadcast_to(s_arr, near.shape)[near]
        s0_near = np.broadcast_to(s0_arr, near.shape)[near]
        vals = _near_values(self.curve, self.kappa, s_near, s0_near)
        for j in (1, 2, 3, 4):
            out[f"k{j}"][near] = vals[j]
        if derivatives:
            first, second = _near_derivatives(self.curve, self.kappa,
                                              s_near, s0_near)
            for j in (1, 2, 3, 4):
                out[f"d{j}"][near] = first[j]
                out[f"dd{j}"][near] = second[j]
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
