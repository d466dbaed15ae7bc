"""Crack geometries of constant curvature: circular arcs and straight segments.

A crack is a Jordan arc t(s) = x1(s) + i*x2(s) with s the arc length,
s in [0, l].  The boundary condition needs t', t'' and t''', and the
kernels (x = (s - s0)/2R), the closure q and the operator tables all rely
on constant curvature, so a curve is a record of a few numbers and its
derivatives are computed in closed form.  `CrackCurve` checks those numbers
once, at construction; no other module validates a curve.  An arc of
curvature kappa0 and length l is a Jordan arc only while |kappa0| l < 2 pi:
at 2 pi it closes, and the kernels' cot((s - s0) kappa0/2) has its pole
at the ends.

Orientation convention: arcs run counterclockwise (the unit semicircle is
t(s) = exp(i*s)), and the "+" face of the crack is the left side with
respect to increasing s.  Curvature is signed, kappa0 = Im(conj(t') t'')
for unit-speed curves, which makes the semicircle kappa0 = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Complex, Real

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric parameters: a length that is not positive, a
    curvature, start angle or center that is not finite, or an arc that
    closes on itself."""


def _finite(value, kind=Real) -> bool:
    return isinstance(value, kind) and bool(np.isfinite(value))


@dataclass(frozen=True)
class CrackCurve:
    """Arc-length parametrized crack of constant curvature.

    Attributes
    ----------
    length : float
        Total arc length l > 0; the parameter domain is [0, l].
    shape : str
        One of "semicircle", "arc", "straight".
    constant_curvature : float
        The curvature kappa0, finite; 0 for a straight crack.
    theta0, center : float, complex
        An arc is t(s) = center + R exp(i (theta0 + s/R)) with R =
        1/kappa0.  A straight crack is t(s) = s and ignores both.
    """

    length: float
    shape: str
    constant_curvature: float
    theta0: float = 0.0
    center: complex = 0j

    def __post_init__(self):
        if not _finite(self.constant_curvature):
            raise GeometryError("curvature must be a finite number, got "
                                f"{self.constant_curvature!r}")
        if not (_finite(self.length) and self.length > 0.0):
            raise GeometryError(
                "crack length must be positive and finite, got "
                f"{self.length!r}")
        if not abs(self.constant_curvature) * self.length < 2.0 * np.pi:
            raise GeometryError(
                "an arc of curvature kappa0 and length l is a Jordan arc "
                "only for |kappa0| l < 2 pi, got "
                f"{abs(self.constant_curvature) * self.length!r}")
        for name, kind in (("theta0", Real), ("center", Complex)):
            if not _finite(getattr(self, name), kind):
                raise GeometryError(f"{name} must be a finite number, got "
                                    f"{getattr(self, name)!r}")
        for name in ("length", "constant_curvature", "theta0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "center", complex(self.center))

    def derivatives(self, s):
        """Return (t, t', t'', t''', t'''') at s (scalar or array)."""
        s = np.asarray(s, dtype=float)
        if self.constant_curvature == 0.0:
            t = s.astype(complex)
            zero = np.zeros_like(t)
            return t, np.ones_like(t), zero, zero, zero
        radius = 1.0 / self.constant_curvature
        phase = np.exp(1j * (self.theta0 + s / radius))
        t1 = 1j * phase
        t2 = (1j / radius) * t1
        t3 = (1j / radius) * t2
        t4 = (1j / radius) * t3
        return self.center + radius * phase, t1, t2, t3, t4

    def point(self, s):
        return self.derivatives(s)[0]

    def tangent(self, s):
        return self.derivatives(s)[1]

    def kappa0(self, s):
        """Signed curvature of the undeformed crack."""
        return np.full(np.shape(s), self.constant_curvature)

    def kappa0_prime(self, s):
        """Arc-length derivative of the curvature: zero."""
        return np.zeros(np.shape(s))


def make_semicircle() -> CrackCurve:
    """Unit semicircle t(s) = exp(i*s), s in [0, pi], from +1 to -1."""
    return CrackCurve(length=np.pi, shape="semicircle", constant_curvature=1.0)


def make_circular_arc(curvature: float) -> CrackCurve:
    """Constant-curvature arc through z = +1 and z = -1 in the upper half plane.

    The arc starts at +1 and ends at -1, traversed counterclockwise, so that
    curvature = 1.0 gives the derivatives of the unit semicircle exactly.
    Admissible range is 0 < curvature <= 1 (use make_straight for the flat
    limit).
    """
    if not np.isfinite(curvature) or curvature <= 0.0 or curvature > 1.0:
        raise GeometryError(
            f"arc curvature must lie in (0, 1], got {curvature!r}; "
            "use make_straight() for curvature 0"
        )
    radius = 1.0 / curvature
    half_angle = np.arcsin(curvature)  # half the subtended angle, chord = 2
    return CrackCurve(length=2.0 * radius * half_angle, shape="arc",
                      constant_curvature=curvature,
                      theta0=np.pi / 2.0 - half_angle,
                      center=-1j * radius * np.cos(half_angle))


def make_straight(length: float) -> CrackCurve:
    """Straight crack t(s) = s on the real axis, s in [0, length]."""
    return CrackCurve(length=length, shape="straight", constant_curvature=0.0)
