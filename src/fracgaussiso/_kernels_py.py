"""The three Hermite series kernels, in numpy and plain Python.

The sums are Kahan-compensated in a fixed evaluation order.  The scalar
recurrences take their sqrt(n) factors from numpy in chunks of
``SQRT_CHUNK`` indices; IEEE square root is correctly rounded, so these are
the same doubles ``math.sqrt`` gives, at a fraction of the per-step cost.

Two things are computed once per process and reused, each in a bounded
cache: the root chunks (the ``SQRT_CHUNKS_KEPT`` most recent, keyed by
their first index, whatever the order K) and the read-only sqrt(2 pi k)
scale of ``coeff_antideriv_table`` (for the ``SCALES_KEPT`` most recent K).
Every table and sum is freshly computed from them, so a caller cannot
change a later result, and the outputs are bit-identical to one
``math.sqrt`` per factor.

All Hermite polynomials here are the orthonormal probabilists' family
h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1).  Every recurrence starts
from h_{-1} = 0 and h_0 = 1: its step n = 0 gives exactly h_1 = x, so one
loop from n = 0 covers every term.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SQRT_CHUNK = 4096
# Three chunks cover K = 1e4; a larger K streams through the cache.
SQRT_CHUNKS_KEPT = 4
SCALES_KEPT = 4


@lru_cache(maxsize=SQRT_CHUNKS_KEPT)
def _sqrt_chunk(n0: int) -> list[float]:
    """[sqrt(n0), ..., sqrt(n0 + SQRT_CHUNK)] for the steps n0 .. n0 + SQRT_CHUNK - 1.

    The list holds one root more than the chunk has steps, so step n reads
    sqrt(n) and sqrt(n + 1).  It is shared by every caller, which only
    reads it.
    """
    return np.sqrt(np.arange(n0, n0 + SQRT_CHUNK + 1, dtype=float)).tolist()


@lru_cache(maxsize=SCALES_KEPT)
def _antideriv_scale(K: int) -> np.ndarray:
    """sqrt(2 pi k) for k = 1..K, read-only."""
    scale = np.arange(1, K + 1, dtype=float)
    scale *= 2.0 * math.pi
    np.sqrt(scale, out=scale)
    scale.flags.writeable = False
    return scale


def _antideriv_terms(x: float, K: int):
    """0.0, then e^{-x^2/2} h_{k-1}(x) for k = 1..K, in recurrence order."""
    yield 0.0
    g_prev, g = 0.0, math.exp(-0.5 * x * x)  # e^{-x^2/2} h_{-1}(x), e^{-x^2/2} h_0(x)
    # Step n yields h_n = h_{k-1} for k = n + 1, then computes h_{n+1}.
    for n0 in range(0, K, SQRT_CHUNK):
        roots = _sqrt_chunk(n0)
        for rn, rn1 in zip(roots, roots[1:K - n0 + 1]):
            yield g
            g_prev, g = g, (x * g - rn * g_prev) / rn1


def coeff_antideriv_table(x: float, K: int) -> np.ndarray:
    """Antiderivative values A_k(x) = e^{-x^2/2} h_{k-1}(x) / sqrt(2 pi k).

    Returns a new array A of length K+1 with A[0] = 0.0 (the k = 0
    projection is handled by the Gaussian CDF, not by this table).  The
    exponential factor is folded into the recurrence so large |x| cannot
    overflow.
    """
    A = np.fromiter(_antideriv_terms(x, K), dtype=float, count=K + 1)
    A[1:] /= _antideriv_scale(K)
    return A


def hermite_weighted_series(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[k] h_k(x_i) for every grid point, Kahan-compensated in k."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    s, comp = np.zeros(n), np.zeros(n)
    h_prev, h = np.zeros(n), np.ones(n)  # h_{-1}, h_0
    for k in range(c.shape[0]):
        if k:  # h_k from h_{k-1}; no step past the last term, where |x| large can overflow
            h_prev, h = h, (x * h - math.sqrt(float(k - 1)) * h_prev) / math.sqrt(float(k))
        y = c[k] * h - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return s


def halfspace_series_sum(r: float, p: float, K: int) -> float:
    """sum_{k=1}^{K} k^p (e^{-r^2/2} h_{k-1}(r))^2, Kahan-compensated."""
    s = comp = 0.0
    terms = _antideriv_terms(r, K)
    next(terms)  # the k = 0 padding
    for k, g in enumerate(terms, 1):
        y = math.pow(k, p) * g * g - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return s
