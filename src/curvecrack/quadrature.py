"""Discretization grid and quadrature rules for the collocation scheme.

Every regular-kernel integral of the package (the assembled operator rows
and the face fields) uses one composite Gauss-Legendre rule,
`regular_rule`: 12 equal panels of 16 points on [0, l].  The kernels are
smooth, so this rule is converged to about 1e-11 relative.  The unit
Gauss-Legendre rule of each order is computed once per process and shared
read-only.  The integrals of the density against the tangent (the
single-valuedness rows and the opening's jump table) and the principal
values of the densities need no rule: they come in closed form from
`densities`.

The flat node rule is kept only for the oracles: `pv_cauchy_sum`,
`kernels.fredholm_operator` and the discrete face-field mode.  It sums
over the N+1 equispaced nodes tau_k = l*k/N, tips included, with the flat
weight l/(N+1), and collocates at the cell midpoints s_j = (2j-1)*l/(2N),
which interlace the nodes so the Cauchy kernel is never sampled at its
pole.  The rule is first-order accurate; the principal-value oracle below
quantifies it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def midpoint_grid(length: float, n: int) -> np.ndarray:
    """Midpoints (2j-1)*l/(2n), j = 1..n, of n equal cells of [0, l]."""
    j = np.arange(1, n + 1)
    return (2 * j - 1) * length / (2 * n)


@dataclass(frozen=True)
class Discretization:
    """Node/collocation layout of the dense 2N+2 collocation system."""

    N: int
    length: float

    def __post_init__(self):
        if not isinstance(self.N, numbers.Integral) or self.N < 4:
            raise ValueError(
                f"polynomial degree N must be an integer of at least 4, "
                f"got {self.N!r}")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def nodes(self) -> np.ndarray:
        """Quadrature nodes tau_k = l*k/N, k = 0..N (tips included)."""
        return self.length * np.arange(self.N + 1) / self.N

    @property
    def weight(self) -> float:
        """Flat quadrature weight l/(N+1)."""
        return self.length / (self.N + 1)

    @property
    def collocation_points(self) -> np.ndarray:
        """Midpoints s_j = (2j-1)*l/(2N), j = 1..N."""
        return midpoint_grid(self.length, self.N)


def pv_cauchy_sum(values, nodes, weight, s0, on_node: str = "raise"):
    """Discrete principal-value Cauchy sum w * sum values_k / (tau_k - s0).

    s0 may be an array; the result then has its shape.  When s0 coincides
    exactly with a node, on_node selects the behavior: "drop" omits that
    node (the symmetric-limit principal value), "raise" rejects the
    evaluation point; any other mode is refused.
    """
    if on_node not in ("raise", "drop"):
        raise ValueError(f"on_node must be 'raise' or 'drop', got {on_node!r}")
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values)
    s0 = np.asarray(s0, dtype=float)
    d = nodes - s0[..., None]
    hit = d == 0.0
    if hit.any():
        if on_node == "drop":
            terms = np.where(hit, 0.0, values / np.where(hit, 1.0, d))
            return weight * np.sum(terms, axis=-1)
        raise ValueError(f"evaluation point {s0} coincides with a quadrature node")
    return weight * np.sum(values / d, axis=-1)


@lru_cache(maxsize=None)
def _unit_rule(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only.

    Built once per order: leggauss solves an eigenproblem on every call.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a, b):
    """Gauss-Legendre nodes and weights mapped to [a, b].

    a and b may be arrays of shape (P, 1); the result then holds one row per
    interval.
    """
    x, w = _unit_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


_GL_PANELS = 12
_GL_ORDER = 16


def regular_rule(length: float):
    """The regular-kernel rule: 12 panels of 16 Gauss points on [0, l]."""
    edges = np.linspace(0.0, length, _GL_PANELS + 1)[:, None]
    x, w = gauss_legendre(_GL_ORDER, edges[:-1], edges[1:])
    return x.ravel(), w.ravel()
