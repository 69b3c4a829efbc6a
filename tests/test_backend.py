import math

import numpy as np
import pytest

import fracgaussiso
from fracgaussiso import _backend, _kernels_py


def test_backend_selected():
    assert fracgaussiso.BACKEND == _backend.BACKEND == "python"
    assert _backend.kernels is _kernels_py


def _reference_antideriv_table(x, K):
    """The sequential recurrence, one math.sqrt per factor: the oracle of the blocked rule."""
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
    """The sequential recurrence and a Kahan sum, one math.sqrt per factor."""
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
EPS = np.finfo(float).eps
BLOCK = _kernels_py._BLOCK


def _segment(m):
    """The segment length at m endpoints, read from the first segment of a long table."""
    return next(_kernels_py._weighted_rows(np.zeros(m), np.ones(m), 10**6))[1].shape[0]


SEGMENT = _segment(1)
# Tables ending at, one short of and one past a block, and 1e4.  The segment
# edges are tested where segments are short, at five and eight endpoints.
ORDERS = (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 10_000)


def _within(got, ref, scale, tol):
    err = float(np.max(np.abs(got - ref), initial=0.0))
    assert err <= tol * EPS * scale, (err / (EPS * scale), tol)


def test_antideriv_tables_match_the_sequential_oracle():
    # The blocked rule rounds differently from one scalar recurrence, but both
    # are a few eps from the exact values, so they agree to 8 eps max|A|.
    for x in POINTS:
        for K in ORDERS:
            ref = _reference_antideriv_table(x, K)
            got = _kernels_py.coeff_antideriv_table(x, K)
            assert got.shape == (K + 1,) and got[0] == 0.0
            _within(got, ref, np.max(np.abs(ref)), 8.0)


def test_tables_match_the_oracle_across_segments():
    # Five and eight points share one call, whose segments are shorter than a
    # single point's; the signed sum keeps each point's sign, and at eight
    # points three segments carry the start twice.
    points = POINTS + (-0.4, 1.6, 6.5)
    signs = np.array([1.0, -1.0] * 4)
    seg5, seg8 = _segment(5), _segment(8)
    assert 10_000 <= seg8 < seg5 < SEGMENT
    refs = [_reference_antideriv_table(x, max(seg5 + 1, 2 * seg8 + 3)) for x in points]
    for m, orders in ((5, (seg5 - 1, seg5, seg5 + 1)),
                      (8, (seg8 - 1, seg8, seg8 + 1, 2 * seg8 + 3))):
        for K in orders:
            got = _kernels_py.coeff_antideriv_table(points[:m], K, signs[:m])
            ref = sum(sign * table[:K + 1] for sign, table in zip(signs[:m], refs))
            _within(got, ref, sum(np.max(np.abs(table[:K + 1])) for table in refs[:m]), 8.0)


@pytest.mark.parametrize("x", [-9.0, -8.0, 8.0, 9.0])
def test_growing_stretch_matches_the_oracle_in_relative_terms(x):
    # For n < x^2/4 the values grow by orders of magnitude, so an error
    # relative to max|A| says nothing about the small ones.
    for K in (2, BLOCK - 1, BLOCK + 1, 10_000):
        n = min(K, math.ceil(x * x / 4.0))
        ref = _reference_antideriv_table(x, K)[1:n + 1]
        got = _kernels_py.coeff_antideriv_table(x, K)[1:n + 1]
        assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.abs(ref)), K


def test_antideriv_spot_values_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x, k in ((-9.0, 20), (-2.3, 1), (0.7, 2), (0.7, BLOCK + 1), (3.9, 1000),
                     (-2.3, 10_000)):
            n, xm = k - 1, mpmath.mpf(x)
            he = mpmath.hermite(n, xm / mpmath.sqrt(2)) / mpmath.sqrt(2) ** n  # He_n(x)
            exact = float(mpmath.exp(-xm * xm / 2) * he
                          / mpmath.sqrt(mpmath.factorial(n) * 2 * mpmath.pi * k))
            table = _kernels_py.coeff_antideriv_table(x, k)
            _within(table[k], exact, np.max(np.abs(table)), 8.0)


def test_weighted_series_bit_identical():
    rng = np.random.default_rng(11)
    x = np.linspace(-5.0, 5.0, 101)
    for K in (0, 1, 2, 2000):
        c = rng.standard_normal(K + 1)
        ref = np.array([_reference_weighted_series(c, float(xi)) for xi in x])
        got = _kernels_py.hermite_weighted_series(c, x)
        assert got.tobytes() == ref.tobytes(), K


def test_halfspace_sum_matches_the_sequential_oracle():
    # An entry error of 8 eps max|g| moves k^p g_k^2 by at most 16 eps max|g| k^p |g_k|.
    # The sum has one endpoint, whose segment is long: one point crosses its edge.
    p = -0.75
    for r, K in [(r, K) for r in POINTS for K in ORDERS] + [(POINTS[1], SEGMENT + 1)]:
        g = np.abs(_reference_antideriv_table(r, K)[1:]
                   * np.sqrt(2.0 * math.pi * np.arange(1, K + 1)))
        scale = float(np.max(g, initial=0.0) * np.sum(np.arange(1, K + 1) ** p * g))
        got = _kernels_py.halfspace_series_sum(r, p, K)
        _within(np.array(got), _reference_halfspace_sum(r, p, K), scale, 16.0)


def test_weights_that_underflow_give_zero_rows():
    # e^{-x^2/2} is 0.0 past |x| = 38.6; such an endpoint adds nothing, even
    # where x^32 overflows the unit-start solutions of its blocks, or x = inf.
    assert not np.any(_kernels_py.coeff_antideriv_table(40.0, 100))
    lone = _kernels_py.coeff_antideriv_table(0.7, 100)
    both = _kernels_py.coeff_antideriv_table([0.7, -math.inf, 1e12], 100, [1.0, -1.0, -1.0])
    assert both.tobytes() == lone.tobytes()
    assert _kernels_py.halfspace_series_sum(40.0, -0.75, 100) == 0.0


def test_tables_are_fresh():
    table = _kernels_py.coeff_antideriv_table(-2.3, 500)
    expected = table.copy()
    assert table.flags.writeable
    table[:] = 7.0
    again = _kernels_py.coeff_antideriv_table(-2.3, 500)
    assert again.tobytes() == expected.tobytes()
