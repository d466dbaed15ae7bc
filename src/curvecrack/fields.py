"""Elastic constants, far-field loading, boundary forcing, and face fields.

The load side of the boundary condition sigma_n + i tau_n = gamma1
(kappa0 dk + i dk') is one formula: `_far_field` states the uniform far
field once, its traction, du/ds and face-curvature change, and the
forcing (`boundary_forcing`, the collocation tables' `_forcing_table`),
`far_field_curvature_change` and the face fields' far-field rows read it.

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
are split into a table and its application.  The operator is one object,
`_NodeSide`, the one carrier of a run's curve, material, density basis
(`densities.Basis`) and largest degree: a process builds it once per
curve, material, degree and basis while the key is among the 8 most
recent (`_node_side`, the one table cache: a node side keeps every table
built from it, `_NodeSide.derived`), and the collocation tables and the
face-field rows read all four from it.
The node side tabulates everything that depends neither on the density
nor on the points s0: the rule's weighted basis and the kernels' node
tables.  It is read one way only, through rows(s0, degree, derivatives):
the kernels integrated against each function of the density basis at the
points (`KernelSet.raw_tables`) and the closed-form principal values of
the basis functions, with their s0-derivatives for the assembly
(`densities._pv_tables`), times one real map composed from the small
coefficient arrays of the kernels and the fields, give real combinations
of the fields per unit real and imaginary part of each coefficient of g'
and of q.  The assembly (`solver._CollocationTables`) reads the traction
and the face-curvature change, which need the s0-derivatives, at the
first ceil(N/2) collocation points (the mirror gives the rest).  The face
fields have one path, `_face_rows`: it checks the points, reads the
face-average traction and the face function omega there, and builds
from them, once, the rows of sigma_n and tau_n, and of du1/ds and du2/ds
unless a sweep asks for the tractions alone, on both faces on the
unknowns x = [g1; g2] (a `_FieldRows`): the +-jump terms and t'/2mu
folded in, and the q rows taken through the closure at gamma1 = 1, as
the collocation tables take theirs.  The fields of a density are then
F0 x + gamma1 F1 x plus the far field, rows on the load's potential
constants: one product for one density or a sweep's stack of them, with
no q coefficients formed per call.  The public functions build the rows
on each call at their own points (`_face_values`), on the node side of
the density's own degree and basis, and take the load per call; the
sweeps and solve mode keep theirs (`postprocess._SweepTables`).  A node
side on a flat node rule is the discrete oracle: its principal values
are node sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .densities import (MONOMIALS, DensityCoefficients, _pv_tables,
                        _read_only, _single_valued_integrals, _tip_blocks,
                        cauchy_densities, check_gamma1, q_rows_to_unknowns)
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
        # finite stresses near the largest double overflow the constants
        with np.errstate(over="ignore", invalid="ignore"):
            phi, psi = far_field_potentials(self.sigma1, self.sigma2,
                                            self.alpha)
        if not (np.isfinite(phi) and np.isfinite(psi)):
            raise ValueError(
                f"remote stresses {self.sigma1}, {self.sigma2} overflow the "
                f"potential constants: phi_inf = {phi}, psi_inf = {psi}")
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
        check_gamma1(self.gamma1)


def _on_crack(curve, s):
    """The points s as floats; ValueError, naming them, unless every one is
    finite and on the crack, in [0, l] (tips included)."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s) & (s >= 0.0) & (s <= curve.length)):
        raise ValueError("points must be finite and lie in "
                         f"[0, {curve.length}], got {s}")
    return s


def surface_tension_coefficients(curve: CrackCurve, gamma1: float, s):
    """Complex coefficients (m1, m2, m3, m4) of the expanded surface-tension
    term at the points s of [0, l], a reference: the program evaluates the
    compact form (`boundary_forcing`).

    For a displacement u = u1 + i u2, gamma1 (kappa0 dk + i dk') = m1 u' +
    m2 conj(u') + m3 u'' + m4 conj(u'') + i gamma1 Im(conj(t') u'''): the
    m-coefficients carry the first and second arc-length derivatives, and
    the third enters outside them.  All four scale with gamma1 and vanish
    on a straight crack.  Raises ValueError unless gamma1 is finite and
    nonnegative and the points are finite points of [0, l].
    """
    check_gamma1(gamma1)
    _, t1, t2, t3, _ = curve.derivatives(_on_crack(curve, s))
    k0 = curve.constant_curvature
    t1c, t2c, t3c = np.conj(t1), np.conj(t2), np.conj(t3)
    m1 = -0.5 * gamma1 * (t3c + 2j * k0 * t2c + 3.0 * k0**2 * t1c)
    m2 = 0.5 * gamma1 * (t3 - 4j * k0 * t2 - 3.0 * k0**2 * t1)
    m3 = -2j * gamma1 * k0 * t1c
    m4 = -1j * gamma1 * k0 * t1
    return m1, m2, m3, m4


# the unit potential constants of the forcing table and the far-field
# rows, phi = 1, i and psi = 1, i: (phi, psi) per column
_UNIT_LOADS = ((1.0, 1j, 0.0, 0.0), (0.0, 0.0, 1.0, 1j))


def _far_field(curve, material, phi, psi, s):
    """The one statement of the uniform far field of the potential
    constants phi, psi, at the points s, broadcast: its traction sigma_n +
    i tau_n on the tangent line, du/ds and the face-curvature change dk
    and dk'.  The displacement is 2mu u = c t - conj(psi) conj(t), with
    c = kappa phi - conj(phi), so u_k = (c t_k - conj(psi) conj(t_k))/2mu
    for the k-th arc-length derivatives, and dk = Im(conj(t') u'' -
    conj(t'') u') - 3 kappa0 Re(conj(t') u'), with dk' its derivative at
    constant kappa0.
    """
    _, t1, t2, t3, _ = curve.derivatives(s)
    c, psic = material.kappa * phi - np.conj(phi), np.conj(psi)
    u1, u2, u3 = ((c * t - psic * np.conj(t)) / (2.0 * material.mu)
                  for t in (t1, t2, t3))
    k0, (t1c, t2c, t3c) = curve.constant_curvature, np.conj([t1, t2, t3])
    dk = np.imag(t1c * u2 - t2c * u1) - 3.0 * k0 * np.real(t1c * u1)
    dkp = (np.imag(t1c * u3 - t3c * u1)
           - 3.0 * k0 * np.real(t2c * u1 + t1c * u2))
    return 2.0 * np.real(phi) + psic * t1c**2, u1, dk, dkp


def boundary_forcing(curve: CrackCurve, material: Material, load: FarFieldLoad,
                     gamma1: float, s0):
    """Load-dependent forcing f(s0) of the boundary condition at the points
    s0 of [0, l]: the condition sigma_n + i tau_n = gamma1 (kappa0 dk +
    i dk') on the uniform far field (`far_field_curvature_change`), less
    its traction, f = gamma1 (kappa0 dk + i dk') - (2 Re phi + conj(psi)
    conj(t')^2).

    Raises ValueError unless gamma1 is finite and nonnegative and the
    points are finite points of [0, l].
    """
    check_gamma1(gamma1)
    traction, _, dk, dkp = _far_field(curve, material, load.phi_inf,
                                      load.psi_inf, _on_crack(curve, s0))
    return gamma1 * (curve.constant_curvature * dk + 1j * dkp) - traction


def _forcing_table(curve, material, s0):
    """The read-only (2, M, 4) forcing of `boundary_forcing` at the M
    points s0, unchecked, per unit v = (Re phi, Im phi, Re psi, Im psi) of
    the load (`_UNIT_LOADS`): minus the far-field traction, then kappa0 dk
    + i dk', so that the forcing is (table[0] + gamma1 table[1]) v."""
    traction, _, dk, dkp = _far_field(curve, material, *np.array(_UNIT_LOADS),
                                      np.asarray(s0)[:, None])
    return _read_only(np.stack(
        [-traction, curve.constant_curvature * dk + 1j * dkp]))


def far_field_curvature_change(curve: CrackCurve, material: Material,
                               load: FarFieldLoad, s):
    """Linearized face-curvature change induced by the uniform far field.

    Returns (dk, dk') at the points s of [0, l], where dk(s) is the
    curvature perturbation produced by the displacement field u of the
    uncracked plate under the remote load:
    dk = -Im(conj(t'') u') - 3 kappa0 Re(conj(t') u') + Im(conj(t') u'').
    The surface tension carried by each face is gamma1 times the total
    curvature change.  Raises ValueError unless the points are finite
    points of [0, l].
    """
    _, _, dk, dkp = _far_field(curve, material, load.phi_inf, load.psi_inf,
                               _on_crack(curve, s))
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
# the kernels of the face fields, in the columns of `_NodeSide.rows_maps`
_KERNELS = ("k1", "k3", "k4", "d1", "d4", "dd1", "dd4")


def _side_index(side):
    """The index of the face side in _SIDES; ValueError naming any other."""
    if side not in _SIDES:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return _SIDES.index(side)


class _NodeSide:
    """The face operator of one curve and material in one density basis
    (by default the centered monomials), for degrees up to `degree`.

    Construction tabulates what does not depend on the points s0: the
    weighted basis of the rule and the kernels' node tables
    (`KernelSet.node_tables`); on first use come the real maps of rows(),
    the tip rows and the single-valuedness integrals.  The rule is
    `regular_rule`, or, when a `Discretization` disc is given, its flat
    node rule, whose principal values are then the `pv_cauchy_sum` node
    sums of the discrete oracle (without s0-derivatives).  A column of
    each table depends only on its own basis function and lower ones, so
    degree N reads the first N+1.  Every table it keeps is read-only, and
    so is every table built from it that it keeps (`derived`).
    """

    def __init__(self, curve, material, degree, disc=None, basis=MONOMIALS):
        self.curve, self.material, self.degree = curve, material, degree
        self._derived = {}
        self.kset = KernelSet(curve, material.kappa)
        self.disc, self.basis = disc, basis
        nodes, weights = (regular_rule(curve.length) if disc is None
                          else (disc.nodes, disc.weight))
        wbasis = np.reshape(weights, (-1, 1)) * basis.table(
            nodes, curve.length, degree)
        self._kernel = tuple(map(_read_only,
                                 self.kset.node_tables(nodes, wbasis)))

    def derived(self, build, *key):
        """build(self, *key), built once per node side and key and kept:
        the one memo of the tables built from the node side."""
        memo = self._derived
        if (build, key) not in memo:
            memo[build, key] = build(self, *key)
        return memo[build, key]

    def columns(self, degree):
        """The kernels' node tables of the basis functions up to degree."""
        _check_degree(degree, self.degree, "the node side")
        return tuple(table[..., : degree + 1] for table in self._kernel)

    def rows(self, s0, degree, derivatives=False):
        """Real fields per unit coefficient at the points s0, (2, 4, 2, M,
        degree+1): the one read of the operator.

        For the coefficients c of g' or of q, per kind of row, the columns
        of Re c and of Im c.  The kinds are Re Sigma, Im Sigma, -kappa0 dk
        and -dk' with s0-derivatives, and Re Sigma, Im Sigma, Re omega and
        Im omega without: Sigma is the face-average traction without the
        far field and the +-q jump, omega the face-average face function.
        One product of `rows_maps` with the principal values of the basis
        functions and `KernelSet.raw_tables`.  On every curve k2 = -i
        kappa0 is constant and d2 = dd2 = 0, so k2 enters through the
        column sums and d2, dd2 not at all.
        """
        if self.disc is None:
            pv = _pv_tables(self.curve.length, s0, degree, self.basis,
                            derivatives)
        else:
            nodes = self.disc.nodes
            pv = pv_cauchy_sum(
                self.basis.table(nodes, self.curve.length, degree).T, nodes,
                self.disc.weight, np.asarray(s0, dtype=float)[:, None])[None]
        raw = np.concatenate([pv, self.kset.raw_tables(
            s0, self.columns(degree), derivatives)])
        out = self.rows_maps[derivatives] @ raw.reshape(len(raw), -1)
        return out.reshape((2, 4, 2) + raw.shape[1:])

    @cached_property
    def tip_rows(self):
        """T0 and T1 of `_tip_blocks`, g1 columns then g2 columns."""
        return tuple(map(_read_only, _tip_blocks(
            self.curve, self.material, self.degree, self.basis)))

    @cached_property
    def single_valued(self):
        """I_n = int_0^l phi_n(x) t'(x) dx, n = 0..degree."""
        return _read_only(_single_valued_integrals(self.curve, self.degree,
                                                   self.basis))

    @cached_property
    def rows_maps(self):
        """The real maps of rows(): {True: (16, 9), False: (16, 5)}, with
        and without s0-derivatives.

        The fields Sigma, omega, omega', omega'' are complex combinations
        T c + K conj(c) of the nine tables (the principal values and their
        two s0-derivatives, then `KernelSet.raw_tables`), K on the column
        sums alone (k2 enters as the weighted sum of conj(g' - 2i q), in
        Sigma and in -omega).  Each kind of row is the real part of a
        combination of the fields, and Re(t c + k conj(c)) = Re(t + k) Re c
        + Im(k - t) Im c.  Without derivatives the kinds read Sigma and
        omega alone, which lie on five of the tables: the principal values,
        C, the two parts of the moment and the column sums.
        """
        kappa = self.kset.kappa
        k0, two_mu = self.curve.constant_curvature, 2.0 * self.material.mu
        # with derivatives Re Sigma, Im Sigma, -kappa0 dk and -dk' are the
        # real parts of Sigma, -i Sigma, kappa0 (kappa0 omega + i omega')/2mu
        # and (kappa0 omega' + i omega'')/2mu; without, Re Sigma, Im Sigma,
        # Re omega and Im omega those of Sigma, -i Sigma, omega, -i omega
        combine = {True: np.array([[1, 0, 0, 0], [-1j, 0, 0, 0],
                                   [0, k0 * k0 / two_mu, 1j * k0 / two_mu, 0],
                                   [0, 0, k0 / two_mu, 1j / two_mu]]),
                   False: np.array([[1, 0, 0, 0], [-1j, 0, 0, 0],
                                    [0, 1, 0, 0], [0, -1j, 0, 0]])}
        # the fields per unit g' (rows 0-3) and per unit q (rows 4-7) over
        # the principal values and the kernels of _KERNELS: the densities
        # of `cauchy_densities` times the principal values, and the
        # kernels, which take wq = -2i q
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
        T = scale * np.hstack([coef[:, :3], coef[:, 3:] @ self.kset
                               .table_rows(_KERNELS, True)])
        K = np.zeros(T.shape, dtype=complex)
        K[:, -1] = (-1j * k0 * scale) * np.array([1, -1, 0, 0, 2j, -2j, 0, 0])
        maps = {}
        for derivatives, cols in ((True, slice(None)),
                                  (False, [0, 3, 6, 7, 8])):
            t, k = (combine[derivatives] @ x.reshape(2, 4, -1)
                    for x in (T, K))
            maps[derivatives] = _read_only(np.stack(
                [t.real + k.real, k.imag - t.imag],
                axis=2).reshape(-1, T.shape[1])[:, cols])
        return maps


def _check_degree(degree, built, what):
    """Raise ValueError, naming both degrees, when degree exceeds the one
    what was built for."""
    if degree > built:
        raise ValueError(f"degree {degree} exceeds the {built} {what} was "
                         "built for")


@lru_cache(maxsize=8)
def _node_side(curve, material, degree, basis):
    """The node side of the curve, material, degree and basis on
    `regular_rule`, built once per process while the key is among the 8
    most recent: the one table cache of the program.

    The key is frozen values alone, and the node side's tables, with those
    it keeps (`_NodeSide.derived`), are read-only, so every run on the key
    shares them.  Its collocation tables keep the scaled systems and
    factorizations of their last 16 gamma1 values
    (`solver._CollocationTables`), which every load shares.
    cache_clear() empties them all, kept systems included.
    """
    return _NodeSide(curve, material, degree, basis=basis)


class _FieldRows:
    """Real fields on the unknowns x = [g1; g2] of densities, affine in
    gamma1 and in the load: rows (2, ..., K) and far (..., 4) give the
    fields rows[0] x + gamma1 rows[1] x + far v, v = (Re phi, Im phi,
    Re psi, Im psi) of the load's potential constants.

    rows[0] holds the rows of g', rows[1] those of q at gamma1 = 1 through
    the closure (`q_rows_to_unknowns`), as the collocation tables do; the
    axes between (`shape`) are the fields' own.  Both are read-only.
    """

    def __init__(self, rows, far):
        self.rows, self.far = _read_only(rows), _read_only(far)
        self.shape = far.shape[:-1]

    def apply(self, x, gamma1, load):
        """The fields of P densities x (P, K) at gamma1 ((P,) or a scalar)
        under the load, shape + (P,)."""
        # one matrix per part, a view of the contiguous rows
        K = self.rows.shape[-1]
        g, q = (self.rows.reshape(2, -1, K) @ np.ascontiguousarray(x.T)
                ).reshape((2,) + self.shape + (-1,))
        v = np.array([load.phi_inf, load.psi_inf], dtype=complex).view(float)
        q *= gamma1
        q += g
        q += (self.far @ v)[..., None]
        return q


def _face_rows(side, s0, fields):
    """The `_FieldRows` of the first `fields` of sigma_n, tau_n, du1/ds and
    du2/ds on both faces at the points s0, of shape (field, face, point),
    "+" face first: the one builder of face-field rows, for any density of
    the node side's degree and basis, whose curve and material it reads.
    fields is 2 (the tractions, all a sweep reads) or 4.

    Raises ValueError, naming s0, unless the points form a non-empty 1-D
    array of finite values strictly inside (0, l).  It reads the node
    side's rows there at its degree (`_NodeSide.rows` without
    s0-derivatives), (g' or q, kind, Re or Im, point, coefficient) of the
    face averages Re Sigma, Im Sigma, Re omega and Im omega: du/ds =
    c omega, c = t'/2mu, takes the omega rows to du1/ds and du2/ds.  Per
    face come the +-jumps per unit coefficient, q in sigma_n and tau_n
    (Re q, Im q) and (i/2) g' in omega, so z g' in du/ds; the q rows go
    to the unknowns through the closure.  The far-field rows are those of
    `_far_field` at the unit potential constants.  A node side on a flat
    node rule gives the discrete oracle.
    """
    curve, material = side.curve, side.material
    s0 = np.asarray(s0, dtype=float)
    if not (s0.ndim == 1 and s0.size and np.all(
            np.isfinite(s0) & (s0 > 0.0) & (s0 < curve.length))):
        raise ValueError("s0 must be a non-empty 1-D array of finite points "
                         f"strictly inside (0, {curve.length}), got {s0}")
    rows = side.rows(s0, side.degree)[:, :fields]
    n = rows.shape[-1]
    t1 = curve.tangent(s0)
    c = (t1 / (2.0 * material.mu))[:, None]
    if fields == 4:
        re_w, im_w = rows[:, 2], rows[:, 3]
        rows[:, 2], rows[:, 3] = (c.real * re_w - c.imag * im_w,
                                  c.imag * re_w + c.real * im_w)
    fold = partial(q_rows_to_unknowns, curve=curve, material=material,
                   basis=side.basis)
    out = np.empty((2, fields, 2, len(s0), 2 * n))
    for part, (re, im) in enumerate((rows[0].swapaxes(0, 1),
                                     fold(rows[1, :, 0], rows[1, :, 1]))):
        out[part] = np.concatenate([re, im], axis=-1)[:, None]
    # omega is the face function whose jump is i g'(s0).  Its jump
    # coefficient is i/2, not i(kappa+1)/2: the face limits of the
    # potentials fix it so that the displacement-jump derivative equals
    # i g' t'/(2 mu), consistent with the density definition.  Checked by
    # test_displacement_jump_identity (the face values' jump) and
    # test_jump_derivative_consistency (the slope of the opening, the
    # integral of g' t' by the jump table).
    table = side.basis.table(s0, curve.length, n - 1)
    z, zero = 0.5j * c * table, np.zeros(table.shape)
    jumps = [(1, slice(2), fold(np.stack([table, zero]),
                                np.stack([zero, table]))),
             (0, slice(2, 4), (np.stack([z.real, z.imag]),
                               np.stack([-z.imag, z.real])))]
    for part, kinds, (re, im) in jumps[: fields // 2]:
        jump = np.concatenate([re, im], axis=-1)
        out[part, kinds, 0] += jump
        out[part, kinds, 1] -= jump
    traction, du, _, _ = _far_field(curve, material, *np.array(_UNIT_LOADS),
                                    s0[:, None])
    far = np.stack([traction.real, traction.imag, du.real, du.imag])[:fields]
    return _FieldRows(out, np.broadcast_to(far[:, None],
                                           (fields, 2) + far.shape[1:]))


def _face_values(curve, material, load, densities, s0, disc=None):
    """sigma_n + i tau_n and d(u1 + i u2)/ds of one density under the load
    on both faces at the points s0, (2, M) each, "+" face first.

    The face-field rows (`_face_rows`) on a node side of the density's own
    degree and basis, the cached one on `regular_rule` (`_node_side`) or,
    with disc, a new one on its flat node rule, applied to its unknowns.
    Raises ValueError unless the curve is the density's.
    """
    densities.check_curve(curve)
    degree, basis = densities.degree, densities.basis
    side = (_node_side(curve, material, degree, basis) if disc is None
            else _NodeSide(curve, material, degree, disc, basis))
    sigma, tau, du1, du2 = _face_rows(side, s0, 4).apply(
        np.concatenate([densities.g1, densities.g2])[None],
        densities.gamma1, load)
    return (sigma + 1j * tau)[..., 0], (du1 + 1j * du2)[..., 0]


def _samples(s0, traction, du):
    """FaceFieldSample lists of the face values at the points s0: ("+"
    face, "-" face)."""
    return tuple([FaceFieldSample(s=float(s), side=side,
                                  sigma_n=float(np.real(traction[i, k])),
                                  tau_n=float(np.imag(traction[i, k])),
                                  du1_ds=float(np.real(du[i, k])),
                                  du2_ds=float(np.imag(du[i, k])))
                  for k, s in enumerate(np.asarray(s0, dtype=float))]
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
    face = _side_index(side)
    if cauchy not in ("exact", "discrete"):
        raise ValueError(f"unknown cauchy mode {cauchy!r}")
    disc = None if cauchy == "exact" else Discretization(n_quad, curve.length)
    values = _face_values(curve, material, load, densities, [s0], disc)
    return _samples([s0], *values)[face][0]


def face_field_profile(curve, material, load, densities, s_values,
                       sides=("plus", "minus")):
    """Face fields over a grid, all points of the first side first.

    Returns a list of FaceFieldSample.
    """
    order = [_side_index(side) for side in sides]
    faces = _samples(s_values, *_face_values(curve, material, load,
                                             densities, s_values))
    return [sample for face in order for sample in faces[face]]
