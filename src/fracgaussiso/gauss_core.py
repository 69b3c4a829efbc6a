"""Scalar special functions, Gauss-Hermite quadrature and the model constants.

Everything is taken with respect to the standard Gaussian probability measure
gamma_1 = (2 pi)^{-1/2} e^{-x^2/2} dx, and the Hermite polynomials are the
orthonormal probabilists' family.  Gamma, the inverse CDF and the Gauss-Hermite
and Gauss-Laguerre roots come from ``scipy.special``; the wrappers here add the
domain checks on outside input.  ``phi`` stays on ``math.erfc``, and
``hermite_eval`` is the plain recurrence that the tests use as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "FractionalOrder",
    "QuadratureRule",
    "hermite_eval",
    "gauss_hermite_rule",
    "laguerre_roots",
    "gamma_fn",
    "phi",
    "phi_inv",
    "iso_function",
    "k_coefficient",
    "beta_coefficient",
    "as_order",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order s, constrained to the open interval (0, 1)."""

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise DomainError(f"fractional order must lie in (0, 1), got {self.s}")


def as_order(s) -> FractionalOrder:
    """Coerce a float (or FractionalOrder) into a validated FractionalOrder."""
    if isinstance(s, FractionalOrder):
        return s
    return FractionalOrder(float(s))


def hermite_eval(n: int, x: float) -> float:
    """Orthonormal probabilists' Hermite polynomial h_n(x).

    Three-term recurrence h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1).
    """
    if n < 0:
        raise DomainError("Hermite index must be nonnegative")
    if n == 0:
        return 1.0
    h_prev, h = 1.0, float(x)
    for k in range(1, n):
        h_prev, h = h, (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1)
    return h


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for integration against gamma_1; equal only to itself."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss rule of order n for gamma_1, exact on polynomials of degree 2n-1.

    The nodes and weights of ``special.roots_hermitenorm``, whose weight
    function e^{-x^2/2} has mass sqrt(2 pi).
    """
    if not (1 <= n <= 500):
        raise DomainError(f"quadrature order must be in [1, 500], got {n}")
    nodes, weights = special.roots_hermitenorm(n)
    return QuadratureRule(n, nodes, weights / SQRT_2PI)


# The 9 keys of a seed-7 perfbench `levelset` run: the profile's 40 and 20 nodes
# at the reference probe's 4 orders, and the Mehler rule's 80 nodes at a = -0.75.
@lru_cache(maxsize=9)
def laguerre_roots(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of ``special.roots_genlaguerre(n, a)``, the n-node
    rule for u^a e^{-u}, shared by the halfline profile and the Mehler rule."""
    u, w = special.roots_genlaguerre(n, a)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def gamma_fn(x: float) -> float:
    """Euler Gamma; a pole raises DomainError."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at {x}")
    return float(special.gamma(x))


def phi(r: float) -> float:
    """Gaussian CDF Phi(r) = gamma_1((-inf, r)); exactly 0 and 1 at -inf and +inf."""
    return 0.5 * math.erfc(-r / math.sqrt(2.0))


def phi_inv(m: float) -> float:
    """Inverse Gaussian CDF."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"phi_inv needs an argument in (0, 1), got {m}")
    return float(special.ndtri(m))


def iso_function(m: float) -> float:
    """Gaussian isoperimetric function I(m) = exp(-Phi^{-1}(m)^2 / 2)."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"iso_function needs an argument in (0, 1), got {m}")
    r = phi_inv(m)
    return math.exp(-0.5 * r * r)


def k_coefficient(a: float) -> float:
    """Boundary-flux constant K_a = a |Gamma(-a/2)| / (2^a Gamma(a/2)), a in (0, 2).

    For the perimeter of order s the relevant value is K_s (a = s); for the
    flux of the order-sigma extension it is K_{2 sigma} (a = 2 sigma).
    """
    if not (0.0 < a < 2.0):
        raise DomainError(f"k_coefficient needs a in (0, 2), got {a}")
    return a * abs(gamma_fn(-a / 2.0)) / (2.0 ** a * gamma_fn(a / 2.0))


def beta_coefficient(a: float) -> float:
    """Semigroup-trace constant beta_a = Gamma(1-a/2) / (2^a K_a Gamma(1+a/2))."""
    if not (0.0 < a < 2.0):
        raise DomainError(f"beta_coefficient needs a in (0, 2), got {a}")
    return gamma_fn(1.0 - a / 2.0) / (2.0 ** a * k_coefficient(a) * gamma_fn(1.0 + a / 2.0))
