"""Elastic constants, far-field loading, boundary forcing, and face fields.

Tractions are reported in the local frame of the crack: sigma_n is the
tensile and tau_n the shear component of the stress vector acting on the
tangent line, seen from the positive-normal side (the normal is i*t', which
points toward the "+" face).  Displacement derivatives du1/ds, du2/ds are
global Cartesian components differentiated along the arc.

The face fields integrate the regular kernels with `regular_rule`, the
composite Gauss-Legendre rule of the assembly, and take the Cauchy
principal values in closed form.  The flat node rule survives only in the
discrete oracle mode, face_fields(..., cauchy="discrete").  Both modes need
a constant-curvature curve, because the kernels (`KernelSet`) are evaluated
as functions of s - s0 on a circular arc or a straight line.

One operator, `_FaceOperator`, evaluates the density parts of the face
fields for a set of density columns: the face-average traction and the face
function omega, and on request omega's first two s0-derivatives.  It takes
its points s0 as an array and works through them 16 at a time: one kernel
block and one table of closed-form principal values per block of points
serve every column.  The field evaluator applies it to the solved density
and adds the +-jump terms and the far field; the assembly
(`solver.assemble`) applies it to the 2N+2 basis columns at the N
collocation points, so the collocation rows and the face fields come from
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import (DensityCoefficients, poly_derivative, q_polynomial,
                        traction_jump)
from .geometry import CrackCurve
from .kernels import KernelSet
from .quadrature import (Discretization, pv_cauchy_sum, pv_monomials,
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
# Points per kernel block in _FaceOperator.values.  Larger blocks save
# little time and raise peak memory: a block holds up to twelve complex
# (points x quadrature nodes) kernel arrays and their temporaries.
_BLOCK = 16


class _FaceOperator:
    """Density parts of the face fields for C density columns at many points.

    gp_poly and q_poly are (C, N+1) complex coefficient matrices of g' and
    q in the centered basis.  values(s0) returns the face-average traction
    Sigma (the traction without the far field and the +-q jump) and the
    face-average omega, each (M, C); with derivatives also omega' and
    omega''.  The regular kernels are integrated with `regular_rule` and
    the Cauchy principal values are taken in closed form, so the curve must
    have constant curvature.  Both faces follow from these by the jump
    terms; the assembly applies the operator to the 2N+2 basis columns.
    """

    def __init__(self, curve, kappa, gp_poly, q_poly):
        self.length = curve.length
        nodes, weights = regular_rule(curve.length)
        basis = (nodes - 0.5 * curve.length)[:, None] \
            ** np.arange(gp_poly.shape[-1])
        self._set_rule(KernelSet(curve, kappa), nodes, weights,
                       basis @ gp_poly.T, basis @ q_poly.T)
        # the principal-value parts of Sigma and omega act on these
        self._sigma_poly = 2.0 * gp_poly + 2j * (kappa - 1.0) * q_poly
        omega = (kappa - 1.0) * gp_poly - 4j * kappa * q_poly
        omega1 = poly_derivative(omega)
        self._omega_polys = (omega, omega1, poly_derivative(omega1))
        # values at s = 0 and s = l, shape (2, C)
        ends = np.array([-0.5, 0.5])[:, None] * curve.length
        self._omega_ends = [(ends ** np.arange(p.shape[-1])) @ p.T
                            for p in (omega, omega1)]

    def _set_rule(self, kset, nodes, weights, gp, q):
        """Weighted (n, C) node values; every regular integral is a product."""
        self.kset, self.nodes = kset, nodes
        w = np.reshape(weights, (-1, 1))
        self._wgp = w * gp
        self._wq = -2j * w * q
        self._wconj = w * np.conj(gp - 2j * q)

    def values(self, s0, derivatives=False):
        """(Sigma, omega[, omega', omega'']) stacked, shape (2 or 4, M, C).

        The points go through the kernels _BLOCK at a time.
        """
        s0 = np.asarray(s0, dtype=float)
        out = np.empty((4 if derivatives else 2, s0.size, self._wgp.shape[1]),
                       dtype=complex)
        for start in range(0, s0.size, _BLOCK):
            part = slice(start, start + _BLOCK)
            out[:, part] = self._block(s0[part], derivatives)
        return out

    def _block(self, s0, derivatives):
        kappa = self.kset.kappa
        blk = self.kset.block(self.nodes, s0[:, None], derivatives=derivatives)
        gp, q, conj = self._wgp, self._wq, self._wconj
        reg = [blk["k1"] @ gp + blk["k3"] @ q + blk["k2"] @ conj]
        # omega and its s0-derivatives: kernels k, d = dk/ds0, dd
        for key in ("k", "d", "dd") if derivatives else ("k",):
            reg.append(blk[key + "4"] @ gp + kappa * (blk[key + "1"] @ q)
                       - blk[key + "2"] @ conj)
        scale = 2.0 * np.pi * (kappa + 1.0)
        return [(pv + r) / scale
                for pv, r in zip(self._principal_values(s0, derivatives), reg)]

    def _principal_values(self, s0, derivatives):
        """Closed-form PV parts, each (M, C).

        d/ds0 PV int p/(s - s0) = PV int p'/(s - s0) - p(l)/(l - s0) - p(0)/s0.
        """
        l = self.length
        J = pv_monomials(l, s0, self._sigma_poly.shape[-1] - 1)
        out = [J @ self._sigma_poly.T, J @ self._omega_polys[0].T]
        if derivatives:
            _, o1, o2 = self._omega_polys
            (v0, vl), (d0, dl) = self._omega_ends
            a, b = 1.0 / (l - s0)[:, None], 1.0 / s0[:, None]
            out.append(J[:, : o1.shape[-1]] @ o1.T - vl * a - v0 * b)
            out.append(J[:, : o2.shape[-1]] @ o2.T - dl * a - d0 * b
                       - vl * a * a + v0 * b * b)
        return out


class _FlatRuleOperator(_FaceOperator):
    """The discrete oracle of _FaceOperator, without s0-derivatives.

    Both the regular and the Cauchy parts are node sums over the nodes of
    disc with its flat weight; gp and q are (n, C) density values there.
    """

    def __init__(self, curve, kappa, gp, q, disc):
        self._set_rule(KernelSet(curve, kappa), disc.nodes, disc.weight,
                       gp, q)
        self._weight = disc.weight
        self._sigma_nodes = (2.0 * gp + 2j * (kappa - 1.0) * q).T
        self._omega_nodes = ((kappa - 1.0) * gp - 4j * kappa * q).T

    def _principal_values(self, s0, derivatives):
        return [pv_cauchy_sum(values, self.nodes, self._weight, s0[:, None])
                for values in (self._sigma_nodes, self._omega_nodes)]


class _FieldEvaluator:
    """Face fields of one solved density at many points.

    The density parts come from _FaceOperator with one column (the solved
    density); this adds the +-jump terms and the far field.  In the default
    exact mode the principal values are in closed form and the regular
    kernels use `regular_rule`.  The discrete mode is the flat-rule oracle
    (_FlatRuleOperator): node sums over the n_quad + 1 nodes of the
    collocation rule, with its flat weight.  Both modes need a
    constant-curvature curve, since KernelSet does; with constant_curvature
    None, "auto" selects the discrete mode and KernelSet raises ValueError.
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
        kappa = material.kappa
        if cauchy == "exact":
            gp = densities.g1 + 1j * densities.g2
            q = q_polynomial(curve, material, self.gamma1, densities)
            self._op = _FaceOperator(curve, kappa, gp[None], q[None])
        else:
            disc = Discretization(n_quad, curve.length)
            gp = densities.gprime(disc.nodes)
            q = traction_jump(curve, material, self.gamma1, densities,
                              disc.nodes)
            self._op = _FlatRuleOperator(curve, kappa, gp[:, None],
                                         q[:, None], disc)

    def face_values(self, s0):
        """sigma_n + i tau_n and d(u1 + i u2)/ds on both faces at points s0.

        s0 is a 1-D array of interior points.  Returns two complex arrays
        of shape (2, M), "+" face first.
        """
        s0 = np.asarray(s0, dtype=float)
        kappa = self.material.kappa
        sigma, omega = self._op.values(s0)[:, :, 0]
        phi, psi = self.load.phi_inf, self.load.psi_inf
        t1 = self.curve.tangent(s0)

        far = 2.0 * np.real(phi) + np.conj(psi) * np.conj(t1) ** 2
        q_here = traction_jump(self.curve, self.material, self.gamma1,
                               self.coeffs, s0)
        traction = _SIGNS * q_here + sigma + far

        # omega is the face function whose jump is i g'(s0).  Its jump
        # coefficient is i/2, not i(kappa+1)/2: the face limits of the
        # potentials fix it so that the displacement-jump derivative equals
        # i g' t'/(2 mu), consistent with the density definition (checked
        # against a direct bulk evaluation of the potentials).
        omega = _SIGNS * 0.5j * self.coeffs.gprime(s0) + omega
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
