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

The density parts of the face fields are linear in the density, so they
are split into a table and its application.  `_FaceOperator` tabulates,
once per set of points s0, everything that does not depend on the density:
the kernels integrated against each monomial of the centered basis
(`densities.basis`, `KernelSet.raw_tables`), the closed-form principal
values of the monomials and the end factors of their s0-derivatives.  Its
apply() then gives the face-average traction and the face function omega
(and omega's first two s0-derivatives) of any number of density columns by
matrix products alone; the field evaluator applies it to the solved
densities, one or a sweep's stack of them as columns, and adds the +-jump
terms and the far field.  The assembly (`solver._CollocationTables`)
needs real rows of combinations of these fields per unit density
coefficient at the N collocation points, so it reads the operator through
rows() instead: one real map, composed from the small coefficient arrays
of the kernels and the fields, applied to the nine real tables of the
principal values and the raw kernel integrals, with no product over the
coefficients.  A sweep builds both operators once, so the
collocation rows and the face fields come from one tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import (DensityCoefficients, _times_derivative, basis,
                        cauchy_densities, poly_derivative, pv_monomials,
                        q_polynomial)
from .geometry import CrackCurve
from .kernels import KernelSet
from .quadrature import Discretization, pv_cauchy_sum, regular_rule


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material in plane strain or plane stress.

    kappa is the Kolosov constant: 3 - 4 nu in plane strain,
    (3 - nu)/(1 + nu) in plane stress.  A Poisson ratio nu, when given,
    must lie in (0, 1/2) and give kappa in the mode, to 1e-12.
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
        if self.nu is not None and not (
                abs(_kolosov(self.nu, self.mode) - self.kappa) <= 1e-12):
            raise ValueError(f"Poisson ratio {self.nu} disagrees with "
                             f"kappa = {self.kappa} in {self.mode}")

    @classmethod
    def from_poisson(cls, mu: float, nu: float, mode: str = "plane_strain"):
        if mode not in ("plane_strain", "plane_stress"):
            raise ValueError(f"unknown material mode {mode!r}")
        return cls(mu=mu, kappa=_kolosov(nu, mode), mode=mode, nu=nu)


def _kolosov(nu, mode):
    """The Kolosov constant of Poisson ratio nu in (0, 1/2) in the mode."""
    if not 0.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in (0, 1/2), got {nu}")
    return 3.0 - 4.0 * nu if mode == "plane_strain" else (3.0 - nu) / (1.0 + nu)


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
    return _surface_tension_terms(curve, gamma1, s, curve.derivatives(s))


def _surface_tension_terms(curve, gamma1, s, derivatives):
    """surface_tension_coefficients from the curve's derivatives at s."""
    _, t1, t2, t3, _ = derivatives
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
    derivatives = curve.derivatives(s0)
    _, t1, t2, t3, _ = derivatives
    m1, m2, m3, m4 = _surface_tension_terms(curve, gamma1, s0, derivatives)
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
# the kernel tables an operator keeps, without and with s0-derivatives
_KERNELS = {False: ("k1", "k3", "k4"),
            True: ("k1", "k3", "k4", "d1", "d4", "dd1", "dd4")}


class _FaceOperator:
    """Density parts of the face fields, tabulated once at fixed points s0.

    Construction does all the work that does not depend on the density, for
    polynomial densities of degree up to `degree` in the centered basis: it
    integrates the regular kernels against each basis monomial with
    `regular_rule` (k1, k3, k4, and with derivatives also the first and
    second s0-derivatives of k1 and k4, all that apply() reads), tabulates
    the closed-form principal values of the monomials (`pv_monomials`) and
    the end factors 1/s0 and 1/(l - s0) of their s0-derivatives.  It keeps
    the real raw tables of `KernelSet.raw_tables`: those of c = cot x -
    1/x and its derivatives, products of small matrices from its separable
    Taylor series, the trigonometric moment and the basis column sums;
    apply() combines its complex kernel tables from them on first use
    (`KernelSet.kernel_tables`).  On every curve k2 = -i kappa0 is constant
    and d2 = dd2 = 0, so k2 enters as -i kappa0 times the weighted sum of
    the conjugate density and d2, dd2 not at all.

    apply() then evaluates any number of density columns by matrix
    products alone; the field evaluator applies it to all the solved
    densities of a solve or a sweep at once.  rows() gives real
    combinations of the same fields per unit density coefficient, from
    which the assembly builds its rows for the 2N+2 basis columns at the
    collocation points.
    """

    def __init__(self, curve, kappa, s0, degree, derivatives=False):
        s0 = np.asarray(s0, dtype=float)
        l = curve.length
        self._tabulate(KernelSet(curve, kappa), s0, degree, derivatives,
                       *regular_rule(l))
        self._pv = pv_monomials(l, s0, degree)
        if derivatives:
            self._inv_ends = (1.0 / (l - s0)[:, None], 1.0 / s0[:, None])
            self._ends = basis([0.0, l], l, degree)

    def _tabulate(self, kset, s0, degree, derivatives, nodes, weights):
        """The raw tables of the kernels summed against the weighted basis,
        (R, M, degree+1) (`KernelSet.raw_tables`); the last holds the
        column sums of the weighted basis in every row."""
        self.kappa = kset.kappa
        self.derivatives = derivatives
        self._kset = kset
        self._k2 = -1j * kset.curve.constant_curvature
        wbasis = np.reshape(weights, (-1, 1)) \
            * basis(nodes, kset.curve.length, degree)
        self._raw = kset.raw_tables(s0, nodes, wbasis, derivatives)

    @cached_property
    def _reg(self):
        """The kernel tables of apply(), combined on first use."""
        keys = _KERNELS[self.derivatives]
        return dict(zip(keys, self._kset.kernel_tables(self._raw, keys)))

    def apply(self, gp_poly, q_poly):
        """(Sigma, omega[, omega', omega'']) stacked, shape (2 or 4, M, C).

        gp_poly and q_poly are (C, n) complex coefficient matrices of g'
        and q, n <= degree + 1.  Sigma is the face-average traction without
        the far field and the +-q jump, omega the face-average face
        function; omega' and omega'' come when the operator was tabulated
        with derivatives.
        """
        n = gp_poly.shape[-1]
        kappa = self.kappa
        reg = {key: k[:, :n] for key, k in self._reg.items()}
        gp, wq = gp_poly.T, -2j * q_poly.T
        k2 = self._k2 * (self._raw[-1, 0, :n] @ np.conj(gp + wq))
        sigma, omega = cauchy_densities(gp_poly, q_poly, kappa)
        J = self._pv
        out = [J[:, :n] @ sigma.T + (reg["k1"] @ gp + reg["k3"] @ wq + k2),
               J[:, :n] @ omega.T
               + (reg["k4"] @ gp + kappa * (reg["k1"] @ wq) - k2)]
        if self.derivatives:
            # d/ds0 PV int p/(s - s0) = PV int p'/(s - s0)
            #                           - p(l)/(l - s0) - p(0)/s0
            omega1 = poly_derivative(omega)
            omega2 = poly_derivative(omega1)
            n1, n2 = omega1.shape[-1], omega2.shape[-1]
            a, b = self._inv_ends
            v0, vl = self._ends[:, :n] @ omega.T
            d0, dl = self._ends[:, :n1] @ omega1.T
            out.append(J[:, :n1] @ omega1.T - vl * a - v0 * b
                       + (reg["d4"] @ gp + kappa * (reg["d1"] @ wq)))
            out.append(J[:, :n2] @ omega2.T - dl * a - d0 * b
                       - vl * a * a + v0 * b * b
                       + (reg["dd4"] @ gp + kappa * (reg["dd1"] @ wq)))
        return np.stack(out) / (2.0 * np.pi * (kappa + 1.0))

    def rows(self, combine):
        """Real rows Re(sum_f combine[r, f] F_f) per unit density coefficient.

        F_f are the fields of apply() (Sigma, omega, omega', omega''), and
        combine is complex (R, 4).  Returns real (2, R, 2, M, degree+1): for
        the coefficients c of g' or of q, per row r, the columns of Re c
        and of Im c.  The operator must have been tabulated with
        derivatives.  The fields are complex combinations T c + K conj(c)
        of nine real tables, the principal values with their s0-derivatives
        (shifted columns minus the end terms) and `KernelSet.raw_tables`;
        K is on the column sums alone (k2 enters as the weighted sum of
        conj(g' - 2i q), in Sigma and in -omega).  The real part of t c +
        k conj(c) is Re(t + k) Re c + Im(k - t) Im c, so one real product
        of a (4R, 9) map with the tables gives the rows.
        """
        kappa = self.kappa
        a, b = self._inv_ends
        at0, atl = self._ends
        # PV int x^c/(s - s0) ds and its two s0-derivatives, as in apply()
        pv = self._pv
        pv1 = _times_derivative(pv) - (atl * a + at0 * b)
        pv2 = _times_derivative(pv1) - (atl * a * a - at0 * b * b)
        raw = np.concatenate([[pv, pv1, pv2], self._raw])
        # the fields per unit g' (rows 0-3) and per unit q (rows 4-7) over
        # the principal values and the kernels of _KERNELS[True]: the
        # densities of `cauchy_densities` times the principal values, and
        # the kernels, which take wq = -2i q
        (sg, og), (sq, oq) = (cauchy_densities(1.0, 0.0, kappa),
                              cauchy_densities(0.0, 1.0, kappa))
        wq, wk = -2j, -2j * kappa
        coef = np.array([
            [sg, 0., 0., 1., 0., 0., 0., 0., 0., 0.],  # Sigma
            [og, 0., 0., 0., 0., 1., 0., 0., 0., 0.],  # omega
            [0., og, 0., 0., 0., 0., 0., 1., 0., 0.],  # omega'
            [0., 0., og, 0., 0., 0., 0., 0., 0., 1.],  # omega''
            [sq, 0., 0., 0., wq, 0., 0., 0., 0., 0.],  # Sigma
            [oq, 0., 0., wk, 0., 0., 0., 0., 0., 0.],  # omega
            [0., oq, 0., 0., 0., 0., wk, 0., 0., 0.],  # omega'
            [0., 0., oq, 0., 0., 0., 0., 0., wk, 0.]])  # omega''
        scale = 1.0 / (2.0 * np.pi * (kappa + 1.0))
        T = scale * np.hstack([coef[:, :3], coef[:, 3:] @ self._kset
                               .table_rows(_KERNELS[True], True)])
        K = np.zeros(T.shape, dtype=complex)
        K[:, -1] = (scale * self._k2) * np.array([1, -1, 0, 0, 2j, -2j, 0, 0])
        t, k = (combine @ x.reshape(2, 4, -1) for x in (T, K))
        real = np.stack([t.real + k.real, k.imag - t.imag], axis=2)
        out = real.reshape(-1, len(raw)) @ raw.reshape(len(raw), -1)
        return out.reshape(real.shape[:3] + pv.shape)


class _FlatRuleOperator(_FaceOperator):
    """The discrete oracle of _FaceOperator, without s0-derivatives.

    Both the regular and the Cauchy parts are node sums over the nodes of
    disc with its flat weight; the Cauchy part is `pv_cauchy_sum` of each
    basis monomial, so no point s0 may coincide with a node.
    """

    def __init__(self, curve, kappa, s0, degree, disc):
        s0 = np.asarray(s0, dtype=float)
        nodes = disc.nodes
        self._pv = pv_cauchy_sum(basis(nodes, curve.length, degree).T,
                                 nodes, disc.weight, s0[:, None])
        self._tabulate(KernelSet(curve, kappa), s0, degree, False, nodes,
                       np.full(nodes.shape, disc.weight))


class _FieldEvaluator:
    """Face fields at fixed points s0, for any density of degree <= degree.

    Construction tabulates the operator (_FaceOperator) and the far field
    at the points; apply() applies the operator to any number of solved
    densities as columns and adds the +-jump terms and the far field, so
    one evaluator serves every density of a sweep, and face_values is its
    one-density case.  The default exact mode integrates the
    regular kernels with `regular_rule` and takes the principal values in
    closed form.  The discrete mode is the flat-rule oracle
    (_FlatRuleOperator): node sums over the n_quad + 1 nodes of the
    collocation rule, with its flat weight.
    """

    def __init__(self, curve, material, load, s0, degree, n_quad=400,
                 cauchy="exact"):
        if cauchy not in ("exact", "discrete"):
            raise ValueError(f"unknown cauchy mode {cauchy!r}")
        self.curve = curve
        self.material = material
        self.s0 = np.asarray(s0, dtype=float)
        kappa = material.kappa
        if cauchy == "discrete":
            disc = Discretization(n_quad, curve.length)
            self._op = _FlatRuleOperator(curve, kappa, self.s0, degree, disc)
        else:
            self._op = _FaceOperator(curve, kappa, self.s0, degree)
        self._basis = basis(self.s0, curve.length, degree)
        phi, psi = load.phi_inf, load.psi_inf
        t1 = curve.tangent(self.s0)
        self._t1 = t1
        self._far = 2.0 * np.real(phi) + np.conj(psi) * np.conj(t1) ** 2
        self._du_far = (kappa * phi - np.conj(phi)) * t1 \
            - np.conj(psi) * np.conj(t1)

    def face_values(self, densities):
        """sigma_n + i tau_n and d(u1 + i u2)/ds on both faces at the points.

        Returns two complex arrays of shape (2, M), "+" face first: apply()
        on the one density.
        """
        gp = densities.g1 + 1j * densities.g2
        q = q_polynomial(self.curve, self.material, densities.gamma1,
                         densities)
        traction, du = self.apply(gp[None], q[None])
        return traction[..., 0], du[..., 0]

    def apply(self, gp_poly, q_poly):
        """face_values of C densities, (2, M, C) each.

        gp_poly and q_poly are (C, n) complex coefficient matrices of g' and
        q, as for `_FaceOperator.apply`; column c of the results belongs to
        row c.
        """
        sigma, omega = self._op.apply(gp_poly, q_poly)
        mono = self._basis[:, : gp_poly.shape[-1]]
        signs = _SIGNS[..., None]
        traction = signs * (mono @ q_poly.T) + sigma + self._far[:, None]

        # omega is the face function whose jump is i g'(s0).  Its jump
        # coefficient is i/2, not i(kappa+1)/2: the face limits of the
        # potentials fix it so that the displacement-jump derivative equals
        # i g' t'/(2 mu), consistent with the density definition.  Checked
        # by test_displacement_jump_identity (the face values' jump) and
        # test_jump_derivative_consistency (the slope of the opening, the
        # integral of g' t' by the jump table).
        omega = signs * 0.5j * (mono @ gp_poly.T) + omega
        du = (self._t1[:, None] * omega + self._du_far[:, None]) \
            / (2.0 * self.material.mu)
        return traction, du

    def samples(self, densities):
        """FaceFieldSample lists at the points: ("+" face, "-" face)."""
        traction, du = self.face_values(densities)
        return tuple([FaceFieldSample(s=float(s), side=side,
                                      sigma_n=float(np.real(traction[i, k])),
                                      tau_n=float(np.imag(traction[i, k])),
                                      du1_ds=float(np.real(du[i, k])),
                                      du2_ds=float(np.imag(du[i, k])))
                      for k, s in enumerate(self.s0)]
                     for i, side in enumerate(_SIDES))


def face_fields(curve: CrackCurve, material: Material, load: FarFieldLoad,
                densities: DensityCoefficients, side: str, s0: float,
                n_quad: int = 400, cauchy: str = "exact") -> FaceFieldSample:
    """Face stresses and displacement derivatives at one interior point.

    side is "plus" (left of increasing s) or "minus".  cauchy is "exact"
    (closed-form principal values) or "discrete", the flat-rule oracle on
    n_quad + 1 nodes, where s0 must not coincide with a node.  The exact
    mode ignores n_quad.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if not 0.0 < s0 < curve.length:
        raise ValueError(f"s0 must lie strictly inside (0, {curve.length})")
    ev = _FieldEvaluator(curve, material, load, [s0], densities.degree,
                         n_quad, cauchy)
    return ev.samples(densities)[_SIDES.index(side)][0]


def face_field_profile(curve, material, load, densities, s_values,
                       sides=("plus", "minus")):
    """Face fields over a grid, all points of the first side first.

    Returns a list of FaceFieldSample.
    """
    ev = _FieldEvaluator(curve, material, load, s_values, densities.degree)
    faces = ev.samples(densities)
    return [sample for side in sides for sample in faces[_SIDES.index(side)]]
