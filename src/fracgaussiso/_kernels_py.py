"""The three Hermite series kernels, in numpy and plain Python.

All Hermite polynomials here are the orthonormal probabilists' family
h_{n+1} = (x h_n - sqrt(n) h_{n-1}) / sqrt(n+1).  Every recurrence starts
from h_{-1} = 0 and h_0 = 1: its step n = 0 gives exactly h_1 = x, so one
loop from n = 0 covers every term.

The antiderivative table and the halfline sum read the signed sum
sum_j signs_j g_n(x_j) of g_n(x) = e^{-x^2/2} h_n(x), n < K, over the
endpoints x_j, from one blocked solution of the recurrence (Kogge and Stone,
1973).  The indices are cut into blocks of L = 32.  For every endpoint and
every block at once, L numpy steps run the recurrence from the unit starts
(1, 0) and (0, 1) at the block's indices (n0 - 1, n0), giving solutions u
and w; the divisors sqrt(n) and sqrt(n + 1) of a step are contiguous rows.
One scalar 2x2 step per block carries the true start (g_{n0-1}, g_{n0})
from (0, e^{-x^2/2}), and one ``einsum`` contracts the solutions, the
starts and the signs into the block's signed sum of g_{n0-1} u + g_{n0} w;
the per-endpoint values are never formed.  g is the dominant solution, so
the forward recurrence is stable: the tables stay within 2.7 eps max|A| of
one scalar recurrence at the tested points (``tests/test_backend.py``).
Long K runs in segments of 2^17 / (m + 4) indices over all m endpoints
(26 208 at one endpoint, 10 912 at eight) that carry the start across, so a
table of K = 1e4 with up to eight endpoints is one segment, and the work
arrays beside the table stay near 2 MB whatever K is (1.4 MB of block
solutions at eight endpoints and K = 1e4).

``hermite_weighted_series`` has no caller in the library; it is kept because
the benchmark times it (``perfbench/run.py``, ``kernel_cases``).
"""
from __future__ import annotations

import math

import numpy as np

# A segment takes L numpy steps and m seg / L scalar ones.  With L = 32 the
# first block also holds the growing stretch n < x^2/4 of every |x| < 11,
# where a second block start would add a second chain of rounding.
_BLOCK = 32
# The block solutions take 17 bytes per entry (one index at one endpoint),
# and the arrays of one value per index (divisors, sums, the callers'
# temporaries) about 4 entries' worth, so a segment of 2^17 / (m + 4) indices
# needs about 2 MB at any endpoint count m.
_SEGMENT_ENTRIES = 1 << 17


def _weighted_rows(x: np.ndarray, signs: np.ndarray, K: int):
    """Yield (n0, S) with S[i] = sum_j signs_j e^{-x_j^2/2} h_{n0+i}(x_j),
    segment by segment over n < K."""
    m, L = x.shape[0], _BLOCK
    seg = L * max(1, _SEGMENT_ENTRIES // (L * (m + 4)))
    p = [0.0] * m  # g_{n0-1} and g_{n0} at the start of each segment
    q = [math.exp(-0.5 * v * v) for v in x.tolist()]
    # An endpoint whose weight underflows adds nothing; x = 0 keeps its blocks finite.
    x = np.where(np.array(q) > 0.0, x, 0.0)[:, None]
    # T[i, :, j, b] = (u, w) at index n0 + b L + i - 1, reused by every segment
    T = np.empty((L + 2, 2, m, -(-min(seg, K) // L)))
    T[:2] = np.eye(2)[:, :, None, None]
    for n0 in range(0, K, seg):
        n = min(seg, K - n0)
        B = -(-n // L)
        # sqrt(n0 + b L + i) as contiguous rows i = 0..L over the blocks b
        roots = np.sqrt(np.arange(n0, n0 + B * L, L, dtype=float) + np.arange(L + 1.0)[:, None])
        U = T[..., :B]
        for i in range(2, L + 2):
            U[i] = (x * U[i - 1] - roots[i - 2] * U[i - 2]) / roots[i - 1]
        PQ = np.empty((2, m, B))  # g_{n0+bL-1} and g_{n0+bL} of every block
        for j in range(m):
            (u1, w1), (u2, w2) = U[L:, :, j].tolist()
            a, b = p[j], q[j]
            P, Q = [], []
            for c1, d1, c2, d2 in zip(u1, w1, u2, w2):
                P.append(a)
                Q.append(b)
                a, b = a * c1 + b * d1, a * c2 + b * d2
            PQ[:, j] = P, Q
            p[j], q[j] = a, b
        # the block values g_{n0-1} u + g_{n0} w, summed over endpoints with their signs
        S = np.einsum("icjb,j,cjb->bi", U[1:L + 1], signs, PQ).reshape(B * L)
        yield n0, S[:n]


def coeff_antideriv_table(x, K: int, signs=1.0) -> np.ndarray:
    """Signed antiderivative values sum_j signs_j A_k(x_j), k = 0..K.

    A_k(x) = e^{-x^2/2} h_{k-1}(x) / sqrt(2 pi k) for k >= 1, at one point x
    or at each point of a 1-D array x, with ``signs`` broadcast against x.
    Returns a new array of length K+1 whose entry 0 is 0.0 (the k = 0
    projection is handled by the Gaussian CDF, not by this table).  The
    exponential factor is carried through the recurrence, so large |x|
    cannot overflow.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    signs = np.broadcast_to(np.asarray(signs, dtype=float), x.shape)
    A = np.zeros(K + 1)
    for n0, S in _weighted_rows(x, signs, K):
        scale = np.sqrt(2.0 * math.pi * np.arange(n0 + 1, n0 + 1 + S.size, dtype=float))
        np.divide(S, scale, out=A[n0 + 1:n0 + 1 + S.size])
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
    """sum_{k=1}^{K} k^p (e^{-r^2/2} h_{k-1}(r))^2.

    Numpy sums each segment pairwise and ``math.fsum`` adds the segments.
    """
    parts = []
    for n0, S in _weighted_rows(np.array([float(r)]), np.ones(1), K):
        k = np.arange(n0 + 1, n0 + 1 + S.size, dtype=float)
        parts.append(float(np.sum(k ** p * S ** 2)))
    return math.fsum(parts)
