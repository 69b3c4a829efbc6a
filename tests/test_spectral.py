import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fracgaussiso import spectral
from fracgaussiso.errors import DomainError
from fracgaussiso.gauss_core import k_coefficient, phi
from fracgaussiso._kernels_py import coeff_antideriv_table
from fracgaussiso.sets import (GaussianSet, Halfline, complement, halfline, interval, measure,
                               reflect)
from fracgaussiso.spectral import (asymptotic_limit, asymptotic_series_value,
                                   coeff_table,
                                   halfspace_series, halfline_perimeter,
                                   halfline_perimeter_reference,
                                   perimeter_spectral)
from oracles import hermite_eval

SQRT_2PI = math.sqrt(2.0 * math.pi)
INF = math.inf
EPS = np.finfo(float).eps


def _table_by_intervals(E, K):
    """The table as `coeff_table` built it from the intervals: A_k(a) with +1
    and A_k(b) with -1 at every finite endpoint."""
    ends = [(x, sign) for a, b in E.intervals for x, sign in ((a, 1.0), (b, -1.0))
            if math.isfinite(x)]
    x, signs = np.array(ends).reshape(-1, 2).T
    f = coeff_antideriv_table(x, K, signs)
    f[0] = measure(E)
    return f


@pytest.mark.parametrize("pairs", [
    [(0.0, 1.0)], [(-INF, 0.3)], [(-0.2, INF)], [(-INF, INF)],
    [(-1.2, -0.3), (0.4, 2.0)], [(-INF, -1.0), (0.5, INF)],
    [(-INF, -2.0), (-1.0, 0.0), (1.5, 2.5)], [(-2.5, -2.0), (-1.0, 0.0), (0.5, 1.0), (2.0, INF)],
    [(-INF, -2.0), (-1.0, -0.5), (0.0, 1e-9), (2.0, INF)],
])
# 30 000 crosses the first segment edge of the kernel at every endpoint count
# up to 8: the longest segment, at one endpoint, has 26 208 indices.
@pytest.mark.parametrize("K", [0, 1, 57, 30_000])
def test_coeff_table_is_the_interval_sum_bit_for_bit(pairs, K):
    E = GaussianSet.from_intervals(pairs)
    assert len(E.intervals) == len(pairs)
    assert coeff_table(E, K).tobytes() == _table_by_intervals(E, K).tobytes()


def _coeff_oracle(E, k):
    total = 0.0
    for a, b in E.intervals:
        val, _ = integrate.quad(
            lambda x: hermite_eval(k, x) * math.exp(-x * x / 2) / SQRT_2PI,
            a, b, limit=200)
        total += val
    return total


def test_halfline_coefficients_vs_quadrature():
    for r in (-0.7, 0.0, 1.3):
        E = halfline(r)
        for k in (0, 1, 2, 5, 9):
            assert coeff_table(E, k)[k] == pytest.approx(_coeff_oracle(E, k), abs=1e-10)


def test_set_coefficients_vs_quadrature():
    E = GaussianSet.from_intervals([(-1.5, -0.2), (0.4, 1.1)])
    for k in (0, 1, 3, 7):
        assert coeff_table(E, k)[k] == pytest.approx(_coeff_oracle(E, k), abs=1e-10)


TWO_PIECES = GaussianSet.from_intervals([(-1.5, -0.2), (0.4, 1.1)])


def test_coeff_table_built_once_per_set(monkeypatch, cold_caches):
    # The table does not depend on s: three orders build it once, by one
    # kernel call that carries all four endpoints with their signs, one row.
    calls = []
    kernel = spectral.coeff_antideriv_table

    def counted(x, K, signs):
        calls.append((tuple(x.tolist()), K, tuple(map(tuple, signs.tolist()))))
        return kernel(x, K, signs)

    monkeypatch.setattr(spectral, "coeff_antideriv_table", counted)
    for s in (0.25, 0.5, 0.75):
        perimeter_spectral(TWO_PIECES, s, 2000)
    assert calls == [((-1.5, -0.2, 0.4, 1.1), 2000, ((1.0, -1.0, 1.0, -1.0),))]


def _sets_of_1_to_10_endpoints() -> list:
    """Sets of 1 to 10 finite endpoints; those of 2 and 8 have endpoints whose
    weight e^{-x^2/2} underflows to 0 (|x| >= 39)."""
    rng = np.random.default_rng(5)
    found = []
    for m in range(1, 11):
        pts = sorted(rng.uniform(-3.0, 3.0, m).tolist())
        if m in (2, 8):
            pts[0], pts[-1] = -45.0, 39.0 + (m == 8)
        pts = [-math.inf] * (m % 2) + pts
        found.append(GaussianSet.from_intervals(list(zip(pts[::2], pts[1::2]))))
        assert len(found[-1].finite_endpoints) == m
    return found


@pytest.mark.parametrize("K", [1, 31, 32, 33, 4000, 10_000, 40_000])
def test_tables_of_several_sets_equal_one_call_per_set(K):
    # each set with a halfline, as `verify_orders` pairs a working set with its H
    # (at K = 1e4 the 9-endpoint set alone is one segment and with its halfline
    # two), and all ten sets, 55 endpoints, in one call
    sets = _sets_of_1_to_10_endpoints()
    H = halfline(0.2)
    alone = {E: spectral.coeff_tables((E,), K)[0] for E in (*sets, H)}
    for E, f in alone.items():
        x, signs = np.array(E.signed_endpoints, dtype=float).reshape(-1, 2).T
        one = coeff_antideriv_table(x, K, -signs)  # the 1-D call of one set
        one[0] = measure(E)
        assert f.shape == (K + 1,) and not f.flags.writeable and (f == one).all()
    for group in [(E, H) for E in sets] + [tuple(sets)]:
        tables = spectral.coeff_tables(group, K)
        assert len(tables) == len(group)
        for E, f in zip(group, tables):
            assert not f.flags.writeable and (f == alone[E]).all()
            for s in (0.25, 0.5, 0.75):
                assert (spectral.perimeter_of_table(f, s, "with_constant").value.hex()
                        == spectral.perimeter_of_table(alone[E], s, "with_constant").value.hex())


def test_coeff_table_memory_stays_near_one_table():
    # The kernel works segment by segment, so a long table of eight endpoints
    # needs little more than the table itself.
    E = GaussianSet.from_intervals([(-2.9, -2.1), (-1.3, -0.4), (0.2, 0.9), (1.6, 2.8)])
    tracemalloc.start()
    try:
        f = coeff_table.__wrapped__(E, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(E.finite_endpoints) == 8
    assert peak <= 5 * f.nbytes, peak / f.nbytes


@pytest.mark.parametrize("E, K", [
    (GaussianSet.from_intervals([(-2.9, -2.1), (-1.3, -0.4), (0.2, 0.9), (1.6, 2.8)]), 10_000),
    (halfline(0.3), 200_000)], ids=["eight-endpoints-K1e4", "one-endpoint-K2e5"])
def test_a_table_needs_under_2_mb_beside_itself(E, K):
    # Eight endpoints at K = 1e4 are one segment, whose block solutions take
    # 17 bytes per entry (1.4 MB); at one endpoint the arrays of one value per
    # index dominate, and a long table's segments are sized for them.
    tracemalloc.start()
    try:
        f = coeff_table.__wrapped__(E, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - f.nbytes <= 2_000_000, peak - f.nbytes


@st.composite
def _sets(draw):
    ends = sorted(draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8, unique=True)))
    if len(ends) % 2:  # an odd count gets an unbounded end
        ends = sorted(ends + [draw(st.sampled_from((-INF, INF)))])
    return GaussianSet.from_intervals(zip(ends[::2], ends[1::2]))


def _scale(E, K):
    """sum over the finite endpoints x of E of max_k |A_k(x)|, k <= K: the
    scale of the signed sum's rounding, whose order a reflection reverses."""
    return sum(np.max(np.abs(spectral.coeff_antideriv_table(x, K))) for x in E.finite_endpoints)


@settings(max_examples=40, deadline=None)
@given(_sets(), st.sampled_from((1, 2, 33, 700)))
def test_complement_and_reflection_coefficients(E, K):
    # chi_E + chi_complement = 1 has no k >= 1 coefficients, and h_k(-x) =
    # (-1)^k h_k(x) makes the reflection's |f_k| those of E.
    f, fc = coeff_table.__wrapped__(E, K), coeff_table.__wrapped__(complement(E), K)
    assert np.array_equal(fc[1:], -f[1:])
    fr = coeff_table.__wrapped__(reflect(E), K)
    assert np.max(np.abs(np.abs(fr[1:]) - np.abs(f[1:]))) <= 4.0 * EPS * _scale(E, K)


def test_coeff_table_is_read_only():
    f = coeff_table(TWO_PIECES, 100)
    with pytest.raises(ValueError):
        f[1] = 0.0


def test_cached_coeff_table_equals_fresh_build():
    warm = coeff_table(TWO_PIECES, 3000)
    assert coeff_table(TWO_PIECES, 3000) is warm
    assert warm.tobytes() == coeff_table.__wrapped__(TWO_PIECES, 3000).tobytes()


def test_coeff_table_consistency():
    E = interval(0.0, 1.0)
    f = coeff_table(E, 50)
    for k in (0, 1, 10, 50):
        assert f[k] == pytest.approx(coeff_table(E, k)[k], abs=1e-14)


def test_k1_summand_anchor():
    # first summand of the halfline series at r = 0 is exactly 1/(4 pi)
    pv = halfspace_series(0.0, 0.5, K=1, convention="remark")
    assert pv.value == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-16)


def test_halfline_series_equals_spectral():
    for r in (0.0, 0.7):
        for conv in ("remark", "with_constant"):
            a = perimeter_spectral(halfline(r), 0.5, 20_000, conv).value
            b = halfspace_series(r, 0.5, 20_000, conv).value
            assert a == pytest.approx(b, abs=1e-12)


def test_convention_factor():
    E = interval(-0.5, 0.8)
    s = 0.3
    wc = perimeter_spectral(E, s, 2000, "with_constant").value
    rm = perimeter_spectral(E, s, 2000, "remark").value
    assert wc == pytest.approx(k_coefficient(s) * rm, rel=1e-13)


@pytest.mark.parametrize("K", [30, 2000])
def test_cached_order_weights_give_the_directly_computed_perimeter(K):
    # value and tail_bound bit for bit as if k^{s/2} and the window's
    # k^{(3-s)/2} were computed on the call
    f = coeff_table(TWO_PIECES, K)
    ks = np.arange(1, K + 1, dtype=float)
    width = min(max(50, int(13.0 * math.sqrt(K))), K)
    for s in (0.25, 0.5, 0.75):
        terms = ks ** (s / 2.0) * f[1:] ** 2
        c = float(np.max(terms[-width:] * ks[-width:] ** ((3.0 - s) / 2.0)))
        pv = perimeter_spectral(TWO_PIECES, s, K, "remark")
        assert pv.value == 0.5 * float(np.sum(terms))
        assert pv.tail_bound == 0.5 * c * (2.0 / (1.0 - s)) * K ** (-(1.0 - s) / 2.0)


def test_unknown_convention():
    with pytest.raises(DomainError):
        perimeter_spectral(interval(0, 1), 0.5, 100, "banana")


@pytest.mark.parametrize("s, convention, K", [
    (1.5, "remark", 10**6), (0.0, "with_constant", 100), (0.5, "banana", 10**6),
    (0.5, "remark", 0), (0.5, "with_constant", -1), (0.5, "remark", 4000.0),
    (0.5, "remark", "4000")])
def test_bad_arguments_raise_before_a_table_is_built(monkeypatch, s, convention, K):
    # a bad order, convention or K neither runs the kernel nor touches a cache
    calls = []
    monkeypatch.setattr(spectral, "coeff_antideriv_table", lambda *args: calls.append(args))
    before = coeff_table.cache_info()
    with pytest.raises(DomainError) as exc:
        perimeter_spectral(TWO_PIECES, s, K, convention)
    assert calls == [] and coeff_table.cache_info() == before
    if not isinstance(K, int):
        assert str(exc.value) == f"truncation K must be an integer, got {K!r}"
    elif K < 1:
        assert str(exc.value) == "perimeter needs truncation K >= 1"


def test_perimeter_reflection_invariance():
    E = GaussianSet.from_intervals([(-2.0, -0.5), (0.1, 0.6)])
    R = GaussianSet.from_intervals([(-0.6, -0.1), (0.5, 2.0)])
    a = perimeter_spectral(E, 0.5, 2000).value
    b = perimeter_spectral(R, 0.5, 2000).value
    assert a == pytest.approx(b, rel=1e-12)


def test_perimeter_complement_invariance():
    # f_k(E^c) = -f_k(E) for k >= 1, so the perimeter agrees
    E = interval(-0.4, 1.2)
    C = GaussianSet.from_intervals([(-math.inf, -0.4), (1.2, math.inf)])
    a = perimeter_spectral(E, 0.7, 2000).value
    b = perimeter_spectral(C, 0.7, 2000).value
    assert a == pytest.approx(b, rel=1e-12)


def test_perimeter_monotone_in_K():
    E = interval(0.0, 1.0)
    values = [perimeter_spectral(E, 0.5, K).value for K in (100, 1000, 5000)]
    assert values[0] < values[1] < values[2]


def test_tail_bound_covers_refinement():
    E = interval(0.0, 1.0)
    coarse = perimeter_spectral(E, 0.5, 2000)
    fine = perimeter_spectral(E, 0.5, 50_000)
    assert fine.value - coarse.value <= coarse.tail_bound


def test_asymptotic_limit_value():
    assert asymptotic_limit(0.0) == pytest.approx(math.sqrt(2.0 / math.pi) / (4.0 * math.pi),
                                                  rel=1e-12)


def test_asymptotic_series_near_one():
    pv = asymptotic_series_value(0.0, 0.999)
    scaled = (1.0 - 0.999) * pv.value
    assert scaled == pytest.approx(asymptotic_limit(0.0), rel=0.05)


def test_reference_beats_truncation():
    ref = halfline_perimeter_reference(0.0, 0.5)
    trunc = perimeter_spectral(halfline(0.0), 0.5, 200_000)
    # truncation sits below; the completed reference above it but within tail
    assert trunc.value < ref.value < trunc.value + trunc.tail_bound



@functools.lru_cache(maxsize=None)
def _profile_oracle(r: float, s: float) -> float:
    """Bare P_s(H_r) by a 30-digit mpmath quadrature of the one-integral profile.

    1/(4 pi Gamma(1-alpha)) int_0^inf y^{-alpha-1/2} e^{-y} g(y) dy with
    g(y) = sqrt(y/(1-e^{-2y})) e^{-r^2/(1+e^{-y})}, written as
    g(0) Gamma(1/2-alpha) + int_0^inf y^{-alpha-1/2} e^{-y} (g(y) - g(0)) dy.
    The remaining integrand is O(y^{1/2-alpha}) at 0, bounded for every s < 1,
    so a plain quadrature in y converges even at 1 - s = 1e-10.  Up to
    s = 0.999 it agrees to 1e-19 relative with the quadrature in w, y = w^q,
    q = 1/(1/2 - alpha).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        alpha, r = mpmath.mpf(s) / 2, mpmath.mpf(r)

        def g(y):
            root = mpmath.sqrt(y / -mpmath.expm1(-2 * y)) if y > 0 else mpmath.sqrt(0.5)
            return root * mpmath.exp(-r * r / (1 + mpmath.exp(-y)))

        g0 = g(0)
        rest = mpmath.quad(lambda y: y ** (-alpha - 0.5) * mpmath.exp(-y) * (g(y) - g0),
                           [0, 0.01, 0.1, 1, 10, 100, mpmath.inf])
        total = g0 * mpmath.gamma(0.5 - alpha) + rest
        return float(total / (4 * mpmath.pi * mpmath.gamma(1 - alpha)))


@pytest.mark.parametrize("r, s", [(0.0, 0.25), (0.0, 0.5), (0.0, 0.999), (3.0, 0.25),
                                  (3.0, 0.5), (3.0, 0.999), (0.7, 0.9)]
                         + [(r, 1.0 - gap) for r in (0.0, 0.7) for gap in (1e-6, 1e-8, 1e-10)])
def test_halfline_profile_matches_mpmath_within_its_bound(r, s):
    pv = halfline_perimeter(r, s, "remark")
    assert pv.K == 40
    assert abs(pv.value - _profile_oracle(r, s)) <= pv.tail_bound < 1e-7 * pv.value


# Bare P_{1/2}(H_r) at r = 20 and 30: tanh-sinh and Gauss-Legendre quadrature in
# y = t^p, p = 1/(1/2 - alpha), at 30 digits agree on them to 2e-7 relative.
_FAR_TAIL_S = 0.5
_FAR_TAIL_VALUES = {20.0: 7.2767e-89, 30.0: 1.58697e-197}


def test_halfline_profile_bound_fails_in_the_far_tail():
    # a known defect (ROADMAP item 15; README, "Standing failures"): the node-count
    # difference stops covering the error at |r| = 25 for s = 1/2; this test fails
    # once the profile's budget is a bound
    near = halfline_perimeter(20.0, _FAR_TAIL_S, "remark")
    assert abs(near.value - _FAR_TAIL_VALUES[20.0]) <= near.tail_bound
    far = halfline_perimeter(30.0, _FAR_TAIL_S, "remark")
    assert abs(far.value - _FAR_TAIL_VALUES[30.0]) > far.tail_bound


def test_halfline_profile_keeps_rounding_out_of_the_weight_sum():
    # The 40-node weights sum to Gamma(1/2 - alpha), 2000 at s = 0.999; used
    # as they come, they carry the rounding of -alpha - 1/2 into the value
    # (1.1e-13 relative there, inside the tail_bound of 1.7e-13).
    pv = halfline_perimeter(0.0, 0.999, "remark")
    assert pv.value == pytest.approx(_profile_oracle(0.0, 0.999), rel=1e-14)


def test_halfline_profile_conventions_and_delegates():
    wc = halfline_perimeter(0.7, 0.3)
    rm = halfline_perimeter(0.7, 0.3, "remark")
    assert (wc.value, wc.tail_bound) == (k_coefficient(0.3) * rm.value,
                                         k_coefficient(0.3) * rm.tail_bound)
    assert halfline_perimeter_reference(0.7, 0.3) == wc
    assert asymptotic_series_value(0.7, 0.3) == rm
    with pytest.raises(DomainError):
        halfline_perimeter(0.0, 0.5, "banana")


@pytest.mark.parametrize("r", [-2.5, 0.0, 0.7, 3.5])
@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
def test_halfline_series_and_its_bound_bracket_the_profile(r, s):
    exact = halfline_perimeter(r, s).value
    for K in (1, 100, 2000):
        series = halfspace_series(r, s, K)
        assert series.value < exact < series.value + series.tail_bound


@pytest.mark.parametrize("r", [-1.0, 0.0, 0.7, 3.0])
def test_halfline_profile_tends_to_parseval_as_s_to_zero(r):
    # at s = 0 the bare series is (1/2) sum_{k>=1} f_k^2 = m (1 - m)/2
    m = phi(r)
    for s in (1e-4, 1e-6, 1e-8):
        gap = halfline_perimeter(r, s, "remark").value / (0.5 * m * (1.0 - m)) - 1.0
        assert 0.0 < gap < 2.0 * s


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_halfline_entry_points_reject_a_non_finite_threshold(r):
    # the halfline and every profile entry raise the one message of sets._finite
    calls = (lambda: halfline_perimeter(r, 0.5), lambda: halfspace_series(r, 0.5, 10),
             lambda: halfline_perimeter_reference(r, 0.5),
             lambda: asymptotic_series_value(r, 0.5), lambda: asymptotic_limit(r),
             lambda: Halfline("left", r))
    for call in calls:
        with pytest.raises(DomainError, match=f"^halfline threshold must be finite, got {r}$"):
            call()
