"""Elastic constants, far-field loading, boundary forcing, and face fields.

Tractions are reported in the local frame of the crack: sigma_n is the
tensile and tau_n the shear component of the stress vector acting on the
tangent line, seen from the positive-normal side (the normal is i*t', which
points toward the "+" face).  Displacement derivatives du1/ds, du2/ds are
global Cartesian components differentiated along the arc.

The face fields integrate the regular kernels with `regular_rule`, the
composite Gauss-Legendre rule of the assembly, and take the Cauchy
principal values in closed form.  The flat node rule survives only in the
discrete oracle mode, face_fields(..., cauchy="discrete").

The evaluator takes its points s0 as an array and works through them in
blocks of 16: one kernel block, one closed-form principal value per density
and one traction-jump evaluation per block of points serve both faces and
both fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import DensityCoefficients, q_polynomial, traction_jump
from .geometry import CrackCurve
from .kernels import KernelSet
from .quadrature import (Discretization, pv_cauchy_sum, pv_polynomial,
                         regular_rule)


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material in plane strain or plane stress.

    kappa is the Kolosov constant: 3 - 4 nu in plane strain,
    (3 - nu)/(1 + nu) in plane stress.
    """

    mu: float
    kappa: float
    mode: str = "plane_strain"
    nu: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if not 1.0 < self.kappa < 3.0:
            raise ValueError(
                f"Kolosov constant must lie in (1, 3), got {self.kappa}")
        if self.mode not in ("plane_strain", "plane_stress"):
            raise ValueError(f"unknown material mode {self.mode!r}")

    @classmethod
    def from_poisson(cls, mu: float, nu: float, mode: str = "plane_strain"):
        if not 0.0 < nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in (0, 1/2), got {nu}")
        if mode == "plane_strain":
            kappa = 3.0 - 4.0 * nu
        elif mode == "plane_stress":
            kappa = (3.0 - nu) / (1.0 + nu)
        else:
            raise ValueError(f"unknown material mode {mode!r}")
        return cls(mu=mu, kappa=kappa, mode=mode, nu=nu)


def far_field_potentials(sigma1: float, sigma2: float, alpha: float = 0.0):
    """Constant values of the complex potentials induced by the remote load.

    sigma1 and sigma2 are the principal stresses at infinity acting along
    directions at angles alpha and alpha + pi/2 to the x-axis.
    """
    phi_inf = (sigma1 + sigma2) / 4.0
    psi_inf = 0.5 * (sigma2 - sigma1) * np.exp(-2j * alpha)
    return phi_inf, psi_inf


@dataclass(frozen=True)
class FarFieldLoad:
    """Remote principal stresses and the derived potential constants."""

    sigma1: float
    sigma2: float
    alpha: float = 0.0
    phi_inf: float = None  # type: ignore[assignment]
    psi_inf: complex = None  # type: ignore[assignment]

    def __post_init__(self):
        if not np.all(np.isfinite([self.sigma1, self.sigma2, self.alpha])):
            raise ValueError("remote stresses and angle must be finite, got "
                             f"{self.sigma1}, {self.sigma2}, {self.alpha}")
        phi, psi = far_field_potentials(self.sigma1, self.sigma2, self.alpha)
        if self.phi_inf is None:
            object.__setattr__(self, "phi_inf", phi)
        if self.psi_inf is None:
            object.__setattr__(self, "psi_inf", psi)
        if not (abs(self.phi_inf - phi) <= 1e-12
                and abs(self.psi_inf - psi) <= 1e-12):
            raise ValueError("potential constants inconsistent with the load")


@dataclass(frozen=True)
class SurfaceParams:
    """Surface-tension model parameter: gamma1 scales the curvature change."""

    gamma1: float

    def __post_init__(self):
        if not np.isfinite(self.gamma1) or self.gamma1 < 0:
            raise ValueError(
                f"gamma1 must be finite and nonnegative, got {self.gamma1}")


def surface_tension_coefficients(curve: CrackCurve, gamma1: float, s):
    """Complex coefficients (m1, m2, m3, m4) of the traction boundary condition.

    They multiply the first and second arc-length derivatives of
    (u1 + i u2) and (u1 - i u2) in the linearized curvature-dependent
    surface-tension condition; all four scale with gamma1 and vanish on a
    straight crack.
    """
    s = np.asarray(s, dtype=float)
    _, t1, t2, t3, _ = curve.derivatives(s)
    k0 = curve.kappa0(s)
    k0p = curve.kappa0_prime(s)
    t1c, t2c, t3c = np.conj(t1), np.conj(t2), np.conj(t3)
    m1 = -0.5 * gamma1 * (t3c + 2j * t2c * k0 + 3j * t1c * k0p + 3.0 * t1c * k0**2)
    m2 = 0.5 * gamma1 * (t3 - 4j * t2 * k0 - 3j * t1 * k0p - 3.0 * t1 * k0**2)
    m3 = -2j * gamma1 * t1c * k0
    m4 = -1j * gamma1 * t1 * k0
    return m1, m2, m3, m4


def boundary_forcing(curve: CrackCurve, material: Material, load: FarFieldLoad,
                     gamma1: float, s0):
    """Load-dependent forcing f(s0) of the boundary condition.

    Collects the action of the surface-tension terms on the uniform far
    field plus the remote traction constants; every surface term scales
    with gamma1 (carried inside the m-coefficients), so for gamma1 = 0 only
    the far-field tail survives.  The 1/(2 mu) prefactor is fixed by the
    Young-Laplace form of the condition, sigma_n + i tau_n =
    gamma1 (kappa0 dk + i dk'), evaluated on the uniform far field.
    """
    s0 = np.asarray(s0, dtype=float)
    _, t1, t2, t3, _ = curve.derivatives(s0)
    m1, m2, m3, m4 = surface_tension_coefficients(curve, gamma1, s0)
    kappa = material.kappa
    phi = load.phi_inf
    psi = load.psi_inf
    c1 = kappa * phi - np.conj(phi)
    c2 = kappa * np.conj(phi) - phi
    psic = np.conj(psi)

    m_terms = (
        m1 * (c1 * t1 - psic * np.conj(t1))
        + m2 * (c2 * np.conj(t1) - psi * t1)
        + m3 * (c1 * t2 - psic * np.conj(t2))
        + m4 * (c2 * np.conj(t2) - psi * t2)
    )
    third = 2j * np.imag(np.conj(t1) * (c1 * t3 - psic * np.conj(t3)))
    return m_terms / (2.0 * material.mu) \
        + gamma1 * third / (4.0 * material.mu) \
        - 2.0 * np.real(phi) - psic * np.conj(t1) ** 2


def far_field_curvature_change(curve: CrackCurve, material: Material,
                               load: FarFieldLoad, s):
    """Linearized face-curvature change induced by the uniform far field.

    Returns (dk, dk') where dk(s) is the curvature perturbation produced by
    the displacement field of the uncracked plate under the remote load:
    dk = -Im(conj(t'') u') - 3 kappa0 Re(conj(t') u') + Im(conj(t') u'').
    The boundary forcing equals gamma1 (kappa0 dk + i dk') minus the
    far-field traction tail, and the surface tension carried by each face is
    gamma1 times the total curvature change.
    """
    s = np.asarray(s, dtype=float)
    _, t1, t2, t3, _ = curve.derivatives(s)
    k0 = curve.kappa0(s)
    k0p = curve.kappa0_prime(s)
    c1 = material.kappa * load.phi_inf - np.conj(load.phi_inf)
    psic = np.conj(load.psi_inf)
    two_mu = 2.0 * material.mu
    up = (c1 * t1 - psic * np.conj(t1)) / two_mu
    upp = (c1 * t2 - psic * np.conj(t2)) / two_mu
    uppp = (c1 * t3 - psic * np.conj(t3)) / two_mu
    t1c, t2c, t3c = np.conj(t1), np.conj(t2), np.conj(t3)
    dk = (-np.imag(t2c * up) - 3.0 * k0 * np.real(t1c * up)
          + np.imag(t1c * upp))
    dkp = (-np.imag(t3c * up + t2c * upp)
           - 3.0 * k0p * np.real(t1c * up)
           - 3.0 * k0 * np.real(t2c * up + t1c * upp)
           + np.imag(t2c * upp + t1c * uppp))
    return dk, dkp


@dataclass(frozen=True)
class FaceFieldSample:
    """Stresses and displacement derivatives at one point of one crack face."""

    s: float
    side: str
    sigma_n: float
    tau_n: float
    du1_ds: float
    du2_ds: float


_SIDES = ("plus", "minus")
_SIGNS = np.array([1.0, -1.0])[:, None]
# Points per kernel block in _FieldEvaluator.face_values.  Larger blocks
# save little time and raise peak memory: a block holds four complex
# (points x quadrature nodes) kernel arrays and their temporaries.
_BLOCK = 16


class _FieldEvaluator:
    """Face fields of one solved density at many points.

    The Cauchy principal-value blocks act on the polynomial densities.  In
    the default exact mode (constant-curvature curves) they are computed in
    closed form and the regular-kernel blocks use `regular_rule`, the
    Gauss-Legendre rule of the assembly.  The discrete mode is the flat-rule
    oracle: both blocks are node sums over the n_quad + 1 nodes of the
    collocation rule, with its flat weight.
    """

    def __init__(self, curve, material, load, densities, n_quad=400,
                 cauchy="auto"):
        if cauchy not in ("auto", "exact", "discrete"):
            raise ValueError(f"unknown cauchy mode {cauchy!r}")
        if cauchy == "auto":
            cauchy = "exact" if curve.constant_curvature is not None else "discrete"
        if cauchy == "exact" and curve.constant_curvature is None:
            raise ValueError("exact principal values need constant curvature")
        self.curve = curve
        self.material = material
        self.load = load
        self.coeffs = densities
        self.cauchy = cauchy
        self.gamma1 = densities.gamma1
        self.kset = KernelSet(curve, material.kappa)
        if cauchy == "exact":
            self._nodes, self._weights = regular_rule(curve.length)
            self._gp_poly = densities.g1 + 1j * densities.g2
            self._q_poly = q_polynomial(curve, material, self.gamma1, densities)
        else:
            disc = Discretization(n_quad, curve.length)
            self._nodes, self._weights = disc.nodes, disc.weight
        gp = densities.gprime(self._nodes)
        q = traction_jump(curve, material, self.gamma1, densities, self._nodes)
        self._gp_nodes, self._q_nodes = gp, q
        # weighted densities: every regular integral is one dot product
        w = self._weights
        self._wgp, self._wgpc = w * gp, w * np.conj(gp)
        self._wq, self._wqc = w * q, w * np.conj(q)

    def _pv(self, s0):
        """Principal values (PV[g'], PV[q]) at the points s0."""
        if self.cauchy == "exact":
            return (pv_polynomial(self._gp_poly, self.curve.length, s0),
                    pv_polynomial(self._q_poly, self.curve.length, s0))
        w = self._weights
        return (pv_cauchy_sum(self._gp_nodes, self._nodes, w, s0),
                pv_cauchy_sum(self._q_nodes, self._nodes, w, s0))

    def face_values(self, s0):
        """sigma_n + i tau_n and d(u1 + i u2)/ds on both faces at points s0.

        s0 is a 1-D array of interior points.  Returns two complex arrays
        of shape (2, M), "+" face first.  The points go through the kernels
        _BLOCK at a time; one kernel block serves both fields and both
        faces of its points.
        """
        s0 = np.asarray(s0, dtype=float)
        traction = np.empty((2, s0.size), dtype=complex)
        du = np.empty((2, s0.size), dtype=complex)
        for start in range(0, s0.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            traction[:, part], du[:, part] = self._block_values(s0[part])
        return traction, du

    def _block_values(self, s0):
        kappa = self.material.kappa
        blk = self.kset.block(self._nodes, s0[:, None], derivatives=False)
        k1, k2, k3, k4 = blk["k1"], blk["k2"], blk["k3"], blk["k4"]
        gp, gpc, q, qc = self._wgp, self._wgpc, self._wq, self._wqc
        pv_g, pv_q = self._pv(s0)
        scale = 2.0 * np.pi * (kappa + 1.0)
        phi, psi = self.load.phi_inf, self.load.psi_inf
        t1 = self.curve.tangent(s0)

        reg = k1 @ gp + k2 @ gpc - 2j * (k3 @ q) + 2j * (k2 @ qc)
        sing = 2.0 * pv_g + 2j * (kappa - 1.0) * pv_q
        far = 2.0 * np.real(phi) + np.conj(psi) * np.conj(t1) ** 2
        q_here = traction_jump(self.curve, self.material, self.gamma1,
                               self.coeffs, s0)
        traction = _SIGNS * q_here + (sing + reg) / scale + far

        # omega is the face function whose jump is i g'(s0).  Its jump
        # coefficient is i/2, not i(kappa+1)/2: the face limits of the
        # potentials fix it so that the displacement-jump derivative equals
        # i g' t'/(2 mu), consistent with the density definition (checked
        # against a direct bulk evaluation of the potentials).
        reg = k4 @ gp - k2 @ gpc - 2j * kappa * (k1 @ q) - 2j * (k2 @ qc)
        sing = (kappa - 1.0) * pv_g - 4j * kappa * pv_q
        omega = _SIGNS * 0.5j * self.coeffs.gprime(s0) + (sing + reg) / scale
        du = (t1 * omega + (kappa * phi - np.conj(phi)) * t1
              - np.conj(psi) * np.conj(t1)) / (2.0 * self.material.mu)
        return traction, du

    def samples(self, s0):
        """FaceFieldSample lists at the points s0: ("+" face, "-" face)."""
        s0 = np.asarray(s0, dtype=float)
        traction, du = self.face_values(s0)
        return tuple([FaceFieldSample(s=float(s), side=side,
                                      sigma_n=float(np.real(traction[i, k])),
                                      tau_n=float(np.imag(traction[i, k])),
                                      du1_ds=float(np.real(du[i, k])),
                                      du2_ds=float(np.imag(du[i, k])))
                      for k, s in enumerate(s0)]
                     for i, side in enumerate(_SIDES))


def face_fields(curve: CrackCurve, material: Material, load: FarFieldLoad,
                densities: DensityCoefficients, side: str, s0: float,
                n_quad: int = 400, cauchy: str = "auto") -> FaceFieldSample:
    """Face stresses and displacement derivatives at one interior point.

    side is "plus" (left of increasing s) or "minus".  cauchy="discrete"
    selects the flat-rule oracle on n_quad + 1 nodes; s0 must then not
    coincide with a node.  The exact mode ignores n_quad.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if not 0.0 < s0 < curve.length:
        raise ValueError(f"s0 must lie strictly inside (0, {curve.length})")
    ev = _FieldEvaluator(curve, material, load, densities, n_quad, cauchy)
    return ev.samples([s0])[_SIDES.index(side)][0]


def face_field_profile(curve, material, load, densities, s_values,
                       sides=("plus", "minus")):
    """Face fields over a grid, all points of the first side first.

    Returns a list of FaceFieldSample.
    """
    ev = _FieldEvaluator(curve, material, load, densities)
    faces = ev.samples(s_values)
    return [sample for side in sides for sample in faces[_SIDES.index(side)]]
