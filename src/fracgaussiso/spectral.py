"""Hermite coefficients of characteristic functions and spectral perimeters.

The fractional Gaussian perimeter of a set E of order s is computed from the
Hermite coefficients f_k of chi_E as

    P = factor * sum_{k>=1} k^{s/2} f_k^2,

with factor = K_s/2 in the 'with_constant' convention (the seminorm carries
the flux constant K_s) and factor = 1/2 in the 'remark' convention (the bare
series).  The two differ exactly by K_s; both are exposed and every value
records its convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels_py import coeff_antideriv_table, halfspace_series_sum
from .errors import DomainError
from .gauss_core import FractionalOrder, as_order, k_coefficient
from .sets import GaussianSet, measure

__all__ = [
    "PerimeterValue",
    "CONVENTIONS",
    "coeff_set",
    "perimeter_spectral",
    "halfspace_series",
    "asymptotic_limit",
    "asymptotic_series_value",
    "halfline_perimeter_reference",
]

CONVENTIONS = ("with_constant", "remark")

FOUR_PI = 4.0 * math.pi
# Amplitude of the Hermite envelope (2/pi)^{1/4} squared, used in tail models.
_ENVELOPE_SQ = math.sqrt(2.0 / math.pi)


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


def _factor(convention: str, s: float) -> float:
    return 0.5 * k_coefficient(s) if convention == "with_constant" else 0.5


@dataclass(frozen=True)
class PerimeterValue:
    """A perimeter together with its truncation and normalization metadata."""

    value: float
    s: FractionalOrder
    K: int
    tail_bound: float
    convention: str


@lru_cache(maxsize=4, typed=True)
def coeff_table(E: GaussianSet, K: int) -> np.ndarray:
    """Coefficient vector f_0..f_K of chi_E, read-only.

    f_k for k >= 1 is assembled from the antiderivative of h_k against
    gamma_1: each interval (a, b) contributes A_k(a) - A_k(b), with
    A_k(x) = e^{-x^2/2} h_{k-1}(x)/sqrt(2 pi k) and A_k(+-inf) = 0.

    The table does not depend on the order s, so it is memoized per (E, K):
    a caller checking one set and its symmetrization over several orders
    builds each table once.  The shared array is not writeable.
    """
    if K < 0:
        raise DomainError("truncation index must be nonnegative")
    f = np.zeros(K + 1)
    if K >= 1:
        for a, b in E.intervals:
            if math.isfinite(a):
                f += coeff_antideriv_table(a, K)
            if math.isfinite(b):
                f -= coeff_antideriv_table(b, K)
    f[0] = measure(E)
    f.flags.writeable = False
    return f


def coeff_set(E: GaussianSet, k: int) -> float:
    """k-th Hermite coefficient of chi_E."""
    if k < 0:
        raise DomainError("coefficient index must be nonnegative")
    return float(coeff_table(E, k)[k])


def _calibrated_tail(terms: np.ndarray, s: float, K: int) -> float:
    """Tail estimate C K^{-(1-s)/2} with C from the last retained terms.

    Models term_k ~ c k^{(s-3)/2} (coefficient decay of a jump) and takes the
    max of c over a trailing window wide enough to span a full beat period of
    the multi-endpoint oscillation (phase differences advance like sqrt(k),
    so the window must cover ~4 pi sqrt(K) indices).
    """
    width = max(50, int(13.0 * math.sqrt(K)))
    window = terms[-min(width, terms.shape[0]):]
    if window.size == 0 or not np.any(window > 0.0):
        return 0.0
    ks = np.arange(K - window.size + 1, K + 1, dtype=float)
    c_est = float(np.max(window * ks ** ((3.0 - s) / 2.0)))
    return c_est * (2.0 / (1.0 - s)) * K ** (-(1.0 - s) / 2.0)


def perimeter_spectral(E: GaussianSet, s, K: int = 10_000,
                       convention: str = "with_constant") -> PerimeterValue:
    """Fractional Gaussian perimeter of E from the truncated Hermite series."""
    f = coeff_table(E, K)
    order = as_order(s)
    _check_convention(convention)
    if K < 1:
        raise DomainError("perimeter needs truncation K >= 1")
    ks = np.arange(1, K + 1, dtype=float)
    terms = ks ** (order.s / 2.0) * f[1:] ** 2
    factor = _factor(convention, order.s)
    value = factor * float(np.sum(terms))
    tail = factor * _calibrated_tail(terms, order.s, K)
    return PerimeterValue(value, order, K, tail, convention)


def _envelope(r: float) -> float:
    """Peak of (1/4 pi) e^{-r^2} h_{k-1}^2(r) k^{1/2}, the envelope of the halfline terms."""
    return (_ENVELOPE_SQ / FOUR_PI) * math.exp(-0.5 * r * r)


def _envelope_tail(r: float, s: float, K: float) -> float:
    """Integral from K to inf of the peak envelope times k^{s/2-1}.

    The bare halfline terms oscillate under _envelope(r) k^{(s-3)/2}, so this
    bounds the series' tail past K; the squared envelope's mean is half its
    peak, so half of it estimates that tail.
    """
    return _envelope(r) * (2.0 / (1.0 - s)) * K ** (-(1.0 - s) / 2.0)


def _halfline_partial(r: float, s, K: int, convention: str):
    """(order, bare partial sum (1/4 pi) e^{-r^2} sum_{k=1}^{K} k^{s/2-1} h_{k-1}^2(r))."""
    order = as_order(s)
    _check_convention(convention)
    if K < 1:
        raise DomainError("halfline series needs K >= 1")
    return order, halfspace_series_sum(float(r), order.s / 2.0 - 1.0, K) / FOUR_PI


def _scaled(value: float, bound: float, order: FractionalOrder, K: int,
            convention: str) -> PerimeterValue:
    """A bare-convention value and bound, times K_s in the 'with_constant' convention."""
    if convention == "with_constant":
        ks = k_coefficient(order.s)
        value, bound = ks * value, ks * bound
    return PerimeterValue(value, order, K, bound, convention)


def halfspace_series(r: float, s, K: int = 10_000,
                     convention: str = "with_constant") -> PerimeterValue:
    """Perimeter of the halfline (-inf, r) by its explicit truncated series.

    The value is the partial sum; its tail_bound is the peak-envelope tail.
    """
    order, partial = _halfline_partial(r, s, K, convention)
    return _scaled(partial, _envelope_tail(r, order.s, K), order, K, convention)


def halfline_perimeter_reference(r: float, s, K: int = 1_000_000,
                                 convention: str = "with_constant") -> PerimeterValue:
    """High-accuracy halfline perimeter: partial sum plus mean-envelope tail.

    The completion is half the peak-envelope tail past K + 1.  Against the
    exact semigroup value it is within 3.2e-7 relative at K = 1e5 and 2.9e-8
    at K = 1e6 for 0.25 <= s <= 0.95.  The tail_bound is 1% of the
    completion plus the envelope's own k^{-1/2} correction summed past K.
    """
    order, partial = _halfline_partial(r, s, K, convention)
    tail = 0.5 * _envelope_tail(r, order.s, K + 1.0)
    err = tail * 0.01 + 2.0 * _envelope(r) / math.sqrt(K + 1.0)
    return _scaled(partial + tail, err, order, K, convention)


def asymptotic_limit(r: float) -> float:
    """Limit of (1-s) P_s(H_r) as s -> 1 in the bare convention.

    (1-s) times the mean-envelope completion tends to sqrt(2/pi)/(4 pi)
    e^{-r^2/2}, and (1-s) times any partial sum tends to 0.
    """
    return _envelope(r)


def asymptotic_series_value(r: float, s, K: int = 100_000,
                            convention: str = "remark") -> PerimeterValue:
    """`halfline_perimeter_reference` with the defaults of the s -> 1 study."""
    return halfline_perimeter_reference(r, s, K, convention)
