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
from .gauss_core import check_order, check_truncation, k_coefficient, laguerre_roots
from .sets import GaussianSet, _finite, measure

__all__ = [
    "PerimeterValue",
    "CONVENTIONS",
    "perimeter_spectral",
    "perimeter_of_table",
    "coeff_tables",
    "halfspace_series",
    "halfline_perimeter",
    "asymptotic_limit",
    "asymptotic_series_value",
    "halfline_perimeter_reference",
]

CONVENTIONS = ("with_constant", "remark")

FOUR_PI = 4.0 * math.pi


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")


@dataclass(frozen=True)
class PerimeterValue:
    """A perimeter together with its truncation and normalization metadata."""

    value: float
    s: float
    K: int
    tail_bound: float
    convention: str


def coeff_tables(sets, K: int) -> tuple[np.ndarray, ...]:
    """Coefficient vectors f_0..f_K of chi_E for each set E of ``sets``, read-only.

    f_k for k >= 1 is read from the one form of chi_E,
    open_right + sum_e sign_e chi_(-inf, e) (``GaussianSet.signed_endpoints``):
    the constant has no such coefficient, and chi_(-inf, e) has -A_k(e), with
    A_k(x) = e^{-x^2/2} h_{k-1}(x)/sqrt(2 pi k) the antiderivative of h_k
    against gamma_1.  So each interval (a, b) contributes A_k(a) - A_k(b).

    One kernel call runs the recurrence at the finite endpoints of every set
    and sums each set's A_k with its negated signs, one row per set; each
    table equals the one its set alone gives, bit for bit.  The tables share
    one array, which is not writeable.
    """
    if K < 0:
        raise DomainError("truncation index must be nonnegative")
    x = [e for E in sets for e, _ in E.signed_endpoints]
    signs, j = np.zeros((len(sets), len(x))), 0
    for row, E in zip(signs, sets):
        n = len(E.signed_endpoints)
        row[j:j + n] = [-sign for _, sign in E.signed_endpoints]
        j += n
    f = coeff_antideriv_table(np.array(x, dtype=float), K, signs)
    f[:, 0] = [measure(E) for E in sets]
    f.flags.writeable = False
    return tuple(f)


@lru_cache(maxsize=4, typed=True)
def coeff_table(E: GaussianSet, K: int) -> np.ndarray:
    """The one-set ``coeff_tables``, memoized per (E, K): the table does not depend
    on the order s, so a caller reading one set at several orders builds it once."""
    return coeff_tables((E,), K)[0]


@lru_cache(maxsize=4)
def _order_weights(K: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """k^{s/2} for k = 1..K, and k^{(3-s)/2} over the trailing window of
    `_calibrated_tail`, read-only.

    A check of one set and its symmetrization reads the same (K, s) for both,
    and every set of a run reads the same few orders.
    """
    width = min(max(50, int(13.0 * math.sqrt(K))), K)
    weights = np.arange(1, K + 1, dtype=float) ** (s / 2.0)
    window = np.arange(K - width + 1, K + 1, dtype=float) ** ((3.0 - s) / 2.0)
    weights.flags.writeable = window.flags.writeable = False
    return weights, window


def _calibrated_tail(terms: np.ndarray, window_weights: np.ndarray, s: float, K: int) -> float:
    """Tail estimate C K^{-(1-s)/2} with C from the last retained terms.

    Models term_k ~ c k^{(s-3)/2} (coefficient decay of a jump) and takes the
    max of c over a trailing window wide enough to span a full beat period of
    the multi-endpoint oscillation (phase differences advance like sqrt(k),
    so the window must cover ~4 pi sqrt(K) indices); ``window_weights`` are
    the window's k^{(3-s)/2}.
    """
    window = terms[-window_weights.size:]
    return _tail_past(float(np.max(window * window_weights)), s, K)


def _tail_past(c: float, s: float, K: float) -> float:
    """The sum past K of terms c k^{(s-3)/2}, bounded by c (2/(1-s)) K^{-(1-s)/2}."""
    return c * (2.0 / (1.0 - s)) * K ** (-(1.0 - s) / 2.0)


def perimeter_spectral(E: GaussianSet, s, K: int = 10_000,
                       convention: str = "with_constant") -> PerimeterValue:
    """Fractional Gaussian perimeter of E from the truncated Hermite series; the order,
    the convention and K are checked, in that order, before a table is built."""
    s = check_order(s)
    _check_convention(convention)
    K = check_truncation(K)
    return perimeter_of_table(coeff_table(E, K), s, convention)


def perimeter_of_table(f: np.ndarray, s: float, convention: str) -> PerimeterValue:
    """P_s of the set whose coefficient table is f (``coeff_tables``), at K = len(f) - 1,
    for an order and a convention already checked."""
    K = f.size - 1
    weights, window_weights = _order_weights(K, s)
    terms = weights * f[1:] ** 2
    return _scaled(0.5 * float(np.sum(terms)),
                   0.5 * _calibrated_tail(terms, window_weights, s, K), s, K, convention)


def _scaled(value: float, bound: float, s: float, K: int, convention: str) -> PerimeterValue:
    """A bare-convention value and bound, times K_s in the 'with_constant' convention."""
    if convention == "with_constant":
        ks = k_coefficient(s)
        value, bound = ks * value, ks * bound
    return PerimeterValue(value, s, K, bound, convention)


def halfspace_series(r: float, s, K: int = 10_000,
                     convention: str = "with_constant") -> PerimeterValue:
    """Perimeter of the halfline (-inf, r) by its explicit truncated series.

    The value is the partial sum (1/4 pi) e^{-r^2} sum_{k=1}^{K} k^{s/2-1}
    h_{k-1}^2(r) (bare); its tail_bound is the tail past K of the envelope
    asymptotic_limit(r) k^{(s-3)/2}, under which the terms lie.
    """
    r, s = _finite(r), check_order(s)
    _check_convention(convention)
    K = check_truncation(K)
    partial = halfspace_series_sum(r, s / 2.0 - 1.0, K) / FOUR_PI
    return _scaled(partial, _tail_past(asymptotic_limit(r), s, K), s, K, convention)


def halfline_perimeter(r: float, s, convention: str = "with_constant") -> PerimeterValue:
    """Perimeter of the halfline (-inf, r) from its one-integral profile.

    Subordination and Plackett's identity give, with alpha = s/2, the bare
    value Gamma(1/2-alpha)/(4 pi Gamma(1-alpha)) times the mean of
    g(y) = sqrt(y/(1-e^{-2y})) e^{-r^2/(1+e^{-y})} under y^{-alpha-1/2} e^{-y}:
    a 40-node generalized Gauss-Laguerre sum (K = 40).  Its tail_bound is the
    change from 20 nodes plus 40 eps times the value, the rounding of the
    sum, which the node change (shrinking like 1 - s) misses near s = 1.  The
    weights are normalized, so the rounding of -alpha-1/2 stays out of their
    sum Gamma(1/2-alpha).
    """
    r, s = _finite(r), check_order(s)
    _check_convention(convention)
    alpha = s / 2.0
    scale = math.gamma(0.5 - alpha) / (FOUR_PI * math.gamma(1.0 - alpha))
    means = []
    for n in (40, 20):
        y, w = laguerre_roots(-alpha - 0.5, n)
        g = np.sqrt(y / -np.expm1(-2.0 * y)) * np.exp(-r * r / (1.0 + np.exp(-y)))
        means.append(scale * float(w @ g) / float(np.sum(w)))
    bound = abs(means[0] - means[1]) + 40.0 * np.finfo(float).eps * means[0]
    return _scaled(means[0], bound, s, 40, convention)


def halfline_perimeter_reference(r: float, s, K: int = 1_000_000,
                                 convention: str = "with_constant") -> PerimeterValue:
    """`halfline_perimeter`; K is checked and not read (perfbench passes 10**6)."""
    check_truncation(K)
    return halfline_perimeter(r, s, convention)


def asymptotic_limit(r: float) -> float:
    """Limit of (1-s) P_s(H_r) as s -> 1 in the bare convention.

    The profile's weight mass Gamma(1/2-alpha) ~ 2/(1-s) gathers at y = 0,
    where g(0) = e^{-r^2/2}/sqrt(2), so the limit is sqrt(2/pi)/(4 pi) e^{-r^2/2}.
    """
    r = _finite(r)
    return (math.sqrt(2.0 / math.pi) / FOUR_PI) * math.exp(-0.5 * r * r)


def asymptotic_series_value(r: float, s, convention: str = "remark") -> PerimeterValue:
    """`halfline_perimeter` in the 'remark' convention."""
    return halfline_perimeter(r, s, convention)
