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


def _halfspace_tail(r: float, s: float, K: int) -> float:
    """Integral-comparison tail of the halfline series in the bare convention."""
    return (_ENVELOPE_SQ / FOUR_PI) * math.exp(-0.5 * r * r) \
        * (2.0 / (1.0 - s)) * K ** (-(1.0 - s) / 2.0)


def halfspace_series(r: float, s, K: int = 10_000,
                     convention: str = "with_constant") -> PerimeterValue:
    """Perimeter of the halfline (-inf, r) by its explicit series.

    Bare convention: (1/4 pi) e^{-r^2} sum_{k=1}^{K} k^{s/2-1} h_{k-1}^2(r).
    """
    order = as_order(s)
    _check_convention(convention)
    if K < 1:
        raise DomainError("halfspace series needs K >= 1")
    raw = halfspace_series_sum(float(r), order.s / 2.0 - 1.0, K) / FOUR_PI
    tail = _halfspace_tail(r, order.s, K)
    if convention == "with_constant":
        ks = k_coefficient(order.s)
        raw, tail = ks * raw, ks * tail
    return PerimeterValue(raw, order, K, tail, convention)


def halfline_perimeter_reference(r: float, s, K: int = 1_000_000,
                                 convention: str = "with_constant") -> PerimeterValue:
    """High-accuracy halfline perimeter: partial sum plus mean-envelope tail.

    The squared Hermite envelope oscillates; its mean is half the envelope
    peak, so the tail of the series is (1/8 pi) sqrt(2/pi) e^{-r^2/2}
    * (2/(1-s)) K^{-(1-s)/2} to leading order.  Empirically this matches
    consecutive partial-sum blocks to about five digits, which is far better
    than any affordable bare truncation.
    """
    order = as_order(s)
    _check_convention(convention)
    if K < 1:
        raise DomainError("reference needs K >= 1")
    partial = halfspace_series_sum(float(r), order.s / 2.0 - 1.0, K) / FOUR_PI
    amp = 0.5 * (_ENVELOPE_SQ / FOUR_PI) * math.exp(-0.5 * r * r)
    value = partial + amp * (2.0 / (1.0 - order.s)) * (K + 1.0) ** (-(1.0 - order.s) / 2.0)
    err = amp * (2.0 / (1.0 - order.s)) * (K + 1.0) ** (-(1.0 - order.s) / 2.0) * 0.01 \
        + amp * 4.0 / math.sqrt(K + 1.0)
    if convention == "with_constant":
        ks = k_coefficient(order.s)
        value, err = ks * value, ks * err
    return PerimeterValue(value, order, K, err, convention)


def asymptotic_limit(r: float) -> float:
    """Approximate limit of (1-s) P_s(H_r) as s -> 1 in the bare convention."""
    return math.sqrt(math.pi / 2.0) / math.pi ** 2 * math.exp(-0.5 * r * r)


def asymptotic_series_value(r: float, s, K: int = 100_000,
                            convention: str = "remark") -> PerimeterValue:
    """Halfline perimeter with the truncated tail completed analytically.

    Near s = 1 the bare partial sums are useless: the tail decays like
    K^{-(1-s)/2}, so no affordable K captures the mass.  Following the same
    integral comparison that produces the s -> 1 limit, the tail is replaced
    by the envelope integral

        (1/4 pi) sqrt(2/pi) e^{-r^2/2} * (2/(1-s)) (K+1)^{-(1-s)/2},

    and the reported tail_bound is the estimated error of that completion
    (the envelope's own relative accuracy decays like k^{-1}, integrated).
    """
    order = as_order(s)
    _check_convention(convention)
    if K < 1:
        raise DomainError("asymptotic series needs K >= 1")
    partial = halfspace_series_sum(float(r), order.s / 2.0 - 1.0, K) / FOUR_PI
    amp = (_ENVELOPE_SQ / FOUR_PI) * math.exp(-0.5 * r * r)
    completion = amp * (2.0 / (1.0 - order.s)) * (K + 1.0) ** (-(1.0 - order.s) / 2.0)
    value = partial + completion
    # Envelope error ~ amp/k per term; integrate k^{s/2-1} * amp/k from K.
    err = amp * (2.0 / (3.0 - order.s)) * (K + 1.0) ** (-(3.0 - order.s) / 2.0) \
        + amp * 4.0 / math.sqrt(K + 1.0)
    if convention == "with_constant":
        ks = k_coefficient(order.s)
        value, err = ks * value, ks * err
    return PerimeterValue(value, order, K, err, convention)
