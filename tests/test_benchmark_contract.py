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


def test_one_levelset_set_builds_six_mehler_rules(perfbench):
    # 3 closeness checks at one height, then bounds checks at z0/2 and z0
    # with 3 thresholds each; every check extracts at 80 and 40 nodes, so
    # 3 heights x 2 orders are 6 rules, inside the cache of 8
    from fracgaussiso import extension

    _, workloads = perfbench
    wl = workloads.Levelset(SEED, 0.0, None)
    try:
        E = wl.first_rounds(1)[0]
        extension._mehler_rule.cache_clear()
        outcomes = list(wl.run(E))
    finally:
        wl.close()
    assert len(outcomes) == 3 + 2 * 3 and not any(bad for _, bad in outcomes)
    info = extension._mehler_rule.cache_info()
    assert info.misses == 6 and info.currsize == 6 and info.maxsize == 8


def test_the_profile_and_the_mehler_rule_share_one_laguerre_root_cache(perfbench, monkeypatch):
    # the reference probe reads the 40- and 20-node rules at s = 0.5 and at
    # the three orders of `asymptotic`; the first levelset set then builds
    # only the 80-node rule at a = -0.75, since its 40-node rule is the
    # profile's at s = 0.5
    from fracgaussiso import extension, gauss_core

    _, workloads = perfbench
    built, rule = [], gauss_core._gauss_laguerre
    monkeypatch.setattr(gauss_core, "_gauss_laguerre",
                        lambda a, n: built.append((a, n)) or rule(a, n))
    gauss_core.laguerre_roots.cache_clear()
    workloads.reference_pair()
    assert gauss_core.laguerre_roots.cache_info().misses == len(built) == 8
    workloads.reference_pair()
    assert gauss_core.laguerre_roots.cache_info().misses == len(built) == 8
    wl = workloads.Levelset(SEED, 0.0, None)
    try:
        E = wl.first_rounds(1)[0]
        extension._mehler_rule.cache_clear()
        list(wl.run(E))
    finally:
        wl.close()
    assert built[8:] == [(-0.75, 80)]
    info = gauss_core.laguerre_roots.cache_info()
    assert info.misses == 9 and info.currsize == info.maxsize == 9
