"""Complex-product route to the face fields: the reference of the real rows.

The program reads the face operator only through `fields._NodeSide.rows`,
one real map applied to real tables.  This module keeps the route it
replaced, in which the kernels are complex tables over the density
coefficients and the fields come from complex matrix products with the
coefficient columns of g' and q:

- `kernel_tables` combines the raw tables of `KernelSet.raw_tables` into
  one complex table per kernel, with `KernelSet.table_rows`;
- `FaceOperator` tabulates, from a node side's kernel columns, its own
  raw tables (`_raw`) and closed-form principal values (`_pv`), combines
  the kernel tables (`_reg`) and gives, through `apply`, Sigma and omega
  (and omega', omega'' with s0-derivatives) of density columns,
  differentiating omega's coefficients with `times_derivative`, the
  column shift of the centered monomials, not with the derivative matrix
  of `densities`.  It shares no code with the program's read beyond the
  raw and principal-value tables;
- `coefficient_face_values` gives both faces' fields from the node side's
  rows (`_NodeSide.rows`) applied to the coefficients of g' and q, with
  the jump terms and the far field added per call: the evaluation that
  the face-field rows on the unknowns [g1; g2] (`fields._face_rows`)
  replaced.

It also keeps the expanded form of the load forcing that the program's
one far-field formula (`fields._far_field`) replaced: `expanded_forcing`,
the surface-tension coefficients m1..m4 of the public
`surface_tension_coefficients` on the first and second derivatives of the
far-field displacement, plus its third-derivative term.
"""

from functools import cached_property

import numpy as np

from curvecrack import surface_tension_coefficients
from curvecrack.densities import _pv_tables, cauchy_densities

# the kernel tables apply() reads, without and with s0-derivatives
KERNELS = {False: ("k1", "k3", "k4"),
           True: ("k1", "k3", "k4", "d1", "d4", "dd1", "dd4")}


def times_derivative(table):
    """table @ D for the centered monomials: column c of the result is
    c table[..., c - 1], column 0 is zero."""
    out = np.zeros(table.shape, dtype=table.dtype)
    out[..., 1:] = table[..., :-1] * np.arange(1, table.shape[-1])
    return out


def derivative(coeffs):
    """Coefficients of d/ds of polynomials in (s - l/2)^k, one shorter."""
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[-1]
    if n <= 1:
        return np.zeros(coeffs.shape[:-1] + (1,), dtype=coeffs.dtype)
    return coeffs[..., 1:] * np.arange(1, n)


def kernel_tables(kset, raw, keys):
    """The complex tables of `keys` from `raw_tables`, (K, M, C): raw is
    real, so one real product with `table_rows` per part."""
    rows = kset.table_rows(keys, len(raw) > 4)
    flat = raw.reshape(len(raw), -1)
    return (rows.real @ flat + 1j * (rows.imag @ flat)).reshape(
        (len(keys),) + raw.shape[1:])


class FaceOperator:
    """The face operator with the complex route: `_reg` and apply()."""

    def __init__(self, side, s0, degree, derivatives=False):
        s0 = np.asarray(s0, dtype=float)
        l = side.curve.length
        self.derivatives = derivatives
        self._side = side
        self._raw = side.kset.raw_tables(s0, side.columns(degree),
                                         derivatives)
        self._pv = _pv_tables(l, s0, degree, side.basis, derivatives)
        self.kappa = side.kset.kappa
        self._k2 = -1j * side.curve.constant_curvature
        self._inv_ends = (1.0 / (l - s0)[:, None], 1.0 / s0[:, None])
        self._ends = side.basis.table([0.0, l], l, degree)

    @cached_property
    def _reg(self):
        """The kernel tables of apply(), combined on first use."""
        keys = KERNELS[self.derivatives]
        return dict(zip(keys, kernel_tables(self._side.kset, self._raw,
                                            keys)))

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
        J = self._pv[0]
        out = [J[:, :n] @ sigma.T + (reg["k1"] @ gp + reg["k3"] @ wq + k2),
               J[:, :n] @ omega.T
               + (reg["k4"] @ gp + kappa * (reg["k1"] @ wq) - k2)]
        if self.derivatives:
            # d/ds0 PV int p/(s - s0) = PV int p'/(s - s0)
            #                           - p(l)/(l - s0) - p(0)/s0
            omega1 = derivative(omega)
            omega2 = derivative(omega1)
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


def coefficient_face_values(side, s0, degree, gp_poly, q_poly, load):
    """sigma_n + i tau_n and du/ds on both faces at s0, (2, M, C) each, "+"
    face first, of the C densities whose g' and q have the (C, n)
    coefficient rows gp_poly and q_poly, n <= degree + 1.

    The node side's rows of Re Sigma, Im Sigma, Re omega and Im omega per
    unit real and imaginary part of each coefficient of g' and of q, times
    those parts, plus the jumps (+-q in the traction, +-(i/2) g' in omega)
    and the uniform far field of the load; du/ds = t' omega / 2mu.
    """
    s0 = np.asarray(s0, dtype=float)
    n = gp_poly.shape[-1]
    length, material = side.curve.length, side.material
    rows = side.rows(s0, degree)[..., :n]
    parts = np.array([[gp_poly.real.T, gp_poly.imag.T],
                      [q_poly.real.T, q_poly.imag.T]])[:, None]
    re_s, im_s, re_w, im_w = (rows @ parts).sum(axis=(0, 2))
    phi = side.basis.table(s0, length, degree)[:, :n]
    signs = np.array([1.0, -1.0])[:, None, None]
    t1 = side.curve.tangent(s0)[:, None]
    p_inf, s_inf = load.phi_inf, load.psi_inf
    far = 2.0 * np.real(p_inf) + np.conj(s_inf) * np.conj(t1) ** 2
    du_far = (material.kappa * p_inf - np.conj(p_inf)) * t1 \
        - np.conj(s_inf) * np.conj(t1)
    traction = signs * (phi @ q_poly.T) + (re_s + 1j * im_s) + far
    omega = signs * 0.5j * (phi @ gp_poly.T) + (re_w + 1j * im_w)
    return traction, (t1 * omega + du_far) / (2.0 * material.mu)


def expanded_forcing(curve, material, load, gamma1, s0):
    """boundary_forcing in the expanded form: m1 u' + m2 conj(u') + m3 u''
    + m4 conj(u'') + i gamma1 Im(conj(t') u''') - (2 Re phi + conj(psi)
    conj(t')^2), with u_k = (c t_k - conj(psi) conj(t_k))/2mu, c = kappa
    phi - conj(phi), the derivatives of the uniform far field's
    displacement and m from `surface_tension_coefficients`."""
    _, t1, t2, t3, _ = curve.derivatives(np.asarray(s0, dtype=float))
    phi, psic = load.phi_inf, np.conj(load.psi_inf)
    c = material.kappa * phi - np.conj(phi)
    u1, u2, u3 = ((c * t - psic * np.conj(t)) / (2.0 * material.mu)
                  for t in (t1, t2, t3))
    m1, m2, m3, m4 = surface_tension_coefficients(curve, gamma1, s0)
    return (m1 * u1 + m2 * np.conj(u1) + m3 * u2 + m4 * np.conj(u2)
            + 1j * gamma1 * np.imag(np.conj(t1) * u3)
            - 2.0 * np.real(phi) - psic * np.conj(t1) ** 2)
