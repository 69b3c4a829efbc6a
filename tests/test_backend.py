import math

import numpy as np
import pytest

import fracgaussiso
from fracgaussiso import _backend, _kernels_py


def test_backend_selected():
    assert fracgaussiso.BACKEND == _backend.BACKEND == "python"
    assert _backend.kernels is _kernels_py


def _reference_antideriv_table(x, K):
    """The scalar loop the kernels replaced, one math.sqrt per factor."""
    A = np.zeros(K + 1)
    if K < 1:
        return A
    g_prev = math.exp(-0.5 * x * x)  # e^{-x^2/2} h_0(x)
    A[1] = g_prev / math.sqrt(2.0 * math.pi)
    if K == 1:
        return A
    g = x * g_prev  # e^{-x^2/2} h_1(x)
    A[2] = g / math.sqrt(2.0 * math.pi * 2.0)
    for k in range(3, K + 1):
        n = k - 2  # recurrence index: computing h_{n+1} = h_{k-1}
        g_next = (x * g - math.sqrt(float(n)) * g_prev) / math.sqrt(float(n + 1))
        g_prev = g
        g = g_next
        A[k] = g / math.sqrt(2.0 * math.pi * float(k))
    return A


def _reference_halfspace_sum(r, p, K):
    """The scalar Kahan loop the kernels replaced, one math.sqrt per factor."""
    s = 0.0
    comp = 0.0
    g_prev = math.exp(-0.5 * r * r)
    g = r * g_prev
    for k in range(1, K + 1):
        if k == 1:
            gk = g_prev  # e^{-r^2/2} h_0(r)
        elif k == 2:
            gk = g
        else:
            n_rec = k - 2
            g_next = (r * g - math.sqrt(float(n_rec)) * g_prev) / math.sqrt(float(n_rec + 1))
            g_prev = g
            g = g_next
            gk = g
        term = math.pow(float(k), p) * gk * gk
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return s


def _reference_weighted_series(c, x):
    """The scalar Kahan loop over k at one point, one math.sqrt per factor."""
    s = 0.0
    comp = 0.0
    h_prev = 1.0
    h = x
    for k in range(len(c)):
        if k == 0:
            hk = h_prev  # h_0(x)
        elif k == 1:
            hk = h  # h_1(x)
        else:
            n_rec = k - 1
            h_next = (x * h - math.sqrt(float(n_rec)) * h_prev) / math.sqrt(float(n_rec + 1))
            h_prev = h
            h = h_next
            hk = h
        term = c[k] * hk
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
    return s


POINTS = (-9.0, -2.3, 0.0, 0.7, 3.9)
# Orders ending on both sides of the kernels' first sqrt-chunk boundary,
# one spanning three chunks, and one spanning more chunks than are cached.
CHUNK = _kernels_py.SQRT_CHUNK
ORDERS = (0, 1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 10_000, 5 * CHUNK + 3)


def test_antideriv_tables_bit_identical():
    for x in POINTS:
        for K in ORDERS:
            ref = _reference_antideriv_table(x, K).tobytes()
            got = _kernels_py.coeff_antideriv_table(x, K)
            assert got.tobytes() == ref, (x, K)


def test_weighted_series_bit_identical():
    rng = np.random.default_rng(11)
    x = np.linspace(-5.0, 5.0, 101)
    for K in (0, 1, 2, 2000):
        c = rng.standard_normal(K + 1)
        ref = np.array([_reference_weighted_series(c, float(xi)) for xi in x])
        got = _kernels_py.hermite_weighted_series(c, x)
        assert got.tobytes() == ref.tobytes(), K


def test_halfspace_sum_bit_identical():
    for r in POINTS:
        for K in ORDERS:
            ref = np.float64(_reference_halfspace_sum(r, -0.75, K)).tobytes()
            got = _kernels_py.halfspace_series_sum(r, -0.75, K)
            assert np.float64(got).tobytes() == ref, (r, K)



def test_kernels_bit_identical_while_the_caches_evict():
    # 5 * CHUNK + 3 walks six root chunks, more than are kept, so the
    # K = 10_000 calls between them find their chunks evicted
    assert 5 * CHUNK + 3 > _kernels_py.SQRT_CHUNKS_KEPT * CHUNK
    x = 0.7
    for K in (10_000, 5 * CHUNK + 3, 10_000, 5 * CHUNK + 3, 10_000):
        got = _kernels_py.coeff_antideriv_table(x, K)
        assert got.tobytes() == _reference_antideriv_table(x, K).tobytes(), K
        got = _kernels_py.halfspace_series_sum(x, -0.75, K)
        assert np.float64(got).tobytes() == \
            np.float64(_reference_halfspace_sum(x, -0.75, K)).tobytes(), K


def test_tables_are_fresh():
    table = _kernels_py.coeff_antideriv_table(-2.3, 500)
    table[:] = 7.0
    again = _kernels_py.coeff_antideriv_table(-2.3, 500)
    assert again.tobytes() == _reference_antideriv_table(-2.3, 500).tobytes()
