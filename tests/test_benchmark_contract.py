"""The benchmark in perfbench/ still runs against the library.

perfbench calls the library by name (``extension_field``, the ``field=``
keyword, ``level_set_with_budget(F, t, z)``, ``coeff_table``, ...) and wraps
functions such as ``pde.cg`` and ``gauss_core.phi`` where the modules bind
them.  This test installs the benchmark's tracer and runs the first round of
every workload at a small size, so a change in ``src/`` that drops or
renames one of those names fails here instead of in a benchmark run.
"""
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads
    return spans, workloads


def test_every_workload_runs_its_first_round_traced(perfbench):
    spans, workloads = perfbench
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, 0.0, None)
        tracer = spans.Tracer()
        try:
            tracer.install()
            attempted = failed = 0
            for unit in wl.first_rounds(1):
                for cases, bad in wl.run(unit):
                    attempted += cases
                    failed += bad
        finally:
            tracer.remove()
            wl.close()
        assert attempted > 0 and failed == 0, f"{name}: {failed} of {attempted} cases failed"


def test_reference_probe_runs_traced(perfbench):
    # perfbench times reference_pair() as reference_s and wraps both calls by name
    spans, workloads = perfbench
    tracer = spans.Tracer()
    try:
        tracer.install()
        ref, rc = workloads.reference_pair()
    finally:
        tracer.remove()
    assert rc == 0 and math.isfinite(ref.value)
    names = {sp.name for sp in tracer.spans}
    assert {"spectral.halfline_perimeter_reference", "spectral.asymptotic_series_value"} <= names
    # the halfline profile is one quadrature: no K-long series or coefficient table
    assert not names & {"backend.halfspace_series_sum", "backend.coeff_antideriv_table"}


def test_one_levelset_set_builds_six_mehler_rules(perfbench, cold_caches):
    # 3 closeness checks at one height, then bounds checks at z0/2 and z0
    # with 3 thresholds each; every check extracts at 80 and 40 nodes, so
    # 3 heights x 2 orders are 6 rules, inside the cache of 8
    from fracgaussiso import extension

    _, workloads = perfbench
    wl = workloads.Levelset(SEED, 0.0, None)
    try:
        E = wl.first_rounds(1)[0]
        outcomes = list(wl.run(E))
    finally:
        wl.close()
    assert len(outcomes) == 3 + 2 * 3 and not any(bad for _, bad in outcomes)
    info = extension._mehler_rule.cache_info()
    assert info.misses == 6 and info.currsize == 6 and info.maxsize == 8


def test_one_levelset_set_evaluates_the_grid_only_near_its_crossings(perfbench, monkeypatch,
                                                                    cold_caches):
    # the 6 rules of the first set evaluate U on the coarse grid and in the
    # cells near crossings: under a tenth of the 6 x 16 001 points that the
    # whole grid took, while the bisection (its points are off the grid)
    # evaluates exactly the points its prefetch depths ask for
    import numpy as np

    from fracgaussiso import extension

    _, workloads = perfbench
    calls, mehler = [], extension.mehler_extension

    def counting(E, sigma, x, z, n_quad=80):
        calls.append((bool(np.isin(x, extension.LEVELSET_GRID).all()), np.size(x)))
        return mehler(E, sigma, x, z, n_quad)

    monkeypatch.setattr(extension, "mehler_extension", counting)
    wl = workloads.Levelset(SEED, 0.0, None)
    try:
        E = wl.first_rounds(1)[0]
        list(wl.run(E))
    finally:
        wl.close()
    assert extension.LEVELSET_GRID.size not in [n for _, n in calls]
    assert sum(n for on_grid, n in calls if on_grid) < 6 * 16_001 / 10
    assert sum(n for on_grid, n in calls if not on_grid) == 2108


def test_a_levelset_pass_bisects_with_at_most_32_points_per_crossing(perfbench, monkeypatch):
    # 24 bisection steps per crossing; a prefetch of each bracket's whole
    # predicted path took 58 points, most of them past its first mispredicted
    # midpoint
    import numpy as np

    from fracgaussiso import extension

    _, workloads = perfbench
    points, crossings = [], []
    mehler, extract = extension.mehler_extension, extension._extract_level_set

    def counting(E, sigma, x, z, n_quad=80):
        if not np.isin(x, extension.LEVELSET_GRID).all():
            points.append(np.size(x))
        return mehler(E, sigma, x, z, n_quad)

    def extracting(rule, t):
        level_set = extract(rule, t)
        crossings.append(len(level_set.finite_endpoints))
        return level_set

    monkeypatch.setattr(extension, "mehler_extension", counting)
    monkeypatch.setattr(extension, "_extract_level_set", extracting)
    wl = workloads.Levelset(SEED, 25.0, None)
    try:
        for E in wl.units:
            list(wl.run(E))
    finally:
        wl.close()
    assert sum(crossings) > 400 and sum(points) <= 32 * sum(crossings)


def test_the_profile_and_the_mehler_rule_share_one_laguerre_root_cache(perfbench, monkeypatch,
                                                                      cold_caches):
    # the reference probe reads the 40- and 20-node rules at s = 0.5 and at
    # the three orders of `asymptotic`; the first levelset set then builds
    # only the 80-node rule at a = -0.75, since its 40-node rule is the
    # profile's at s = 0.5
    from fracgaussiso import gauss_core

    _, workloads = perfbench
    built, rule = [], gauss_core._gauss_laguerre
    monkeypatch.setattr(gauss_core, "_gauss_laguerre",
                        lambda a, n: built.append((a, n)) or rule(a, n))
    workloads.reference_pair()
    assert gauss_core.laguerre_roots.cache_info().misses == len(built) == 8
    workloads.reference_pair()
    assert gauss_core.laguerre_roots.cache_info().misses == len(built) == 8
    wl = workloads.Levelset(SEED, 0.0, None)
    try:
        E = wl.first_rounds(1)[0]
        list(wl.run(E))
    finally:
        wl.close()
    assert built[8:] == [(-0.75, 80)]
    info = gauss_core.laguerre_roots.cache_info()
    assert info.misses == 9 and info.currsize == info.maxsize == 9


def test_one_deficit_set_builds_each_table_in_one_segment_and_reads_cached_weights(
        perfbench, monkeypatch, cold_caches):
    # a deficit set reads the tables of E and of its symmetrized halfline H at
    # three orders: both tables come from one kernel call over the m endpoints
    # of E and the one of H, which runs one segment at K = 1e4, and the order
    # weights are computed for the three (K, s) keys by the first set alone
    from fracgaussiso import _kernels_py, spectral

    _, workloads = perfbench
    calls, segments = [], []
    kernel, rows = spectral.coeff_antideriv_table, _kernels_py._weighted_rows

    def counted_kernel(x, K, signs):
        calls.append((len(x), K))
        return kernel(x, K, signs)

    def counted_rows(x, signs, K):
        for n0, S in rows(x, signs, K):
            segments.append((n0, S.shape[-1]))
            yield n0, S

    monkeypatch.setattr(spectral, "coeff_antideriv_table", counted_kernel)
    monkeypatch.setattr(_kernels_py, "_weighted_rows", counted_rows)
    wl = workloads.Deficit(SEED, 2 * workloads.Deficit.ROUND_S, None)
    try:
        first, second = wl.first_rounds(2)
        assert not any(bad for _, bad in wl.run(first))
        assert calls == [(len(first.finite_endpoints) + 1, 10_000)]
        assert segments == [(0, 10_000)]
        info = spectral._order_weights.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
        assert not any(bad for _, bad in wl.run(second))
        info = spectral._order_weights.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 9, 3)
    finally:
        wl.close()
    assert len(calls) == 2
    for s in workloads.S_VALUES:
        weights, window = spectral._order_weights(10_000, s)
        assert weights.shape == (10_000,) and not weights.flags.writeable
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0
