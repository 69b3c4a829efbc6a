"""The package's memos: the fixture that clears them, and what they save.

A perimeter is memoized per (set, s, K, convention) in ``spectral._perimeter``
and an asymmetry per set in ``sets.best_halfline``; a GaussianSet keeps its
endpoint tuples once computed.  None of them may move an output.
"""
import importlib
import pkgutil

import fracgaussiso
from fracgaussiso import inequality, sets, spectral
from fracgaussiso.sets import GaussianSet
from levelset_golden import GOLDEN, N_SETS, SEED, SUITES

_ENDPOINT_TUPLES = ("signed_endpoints", "finite_endpoints", "open_right")


def _package_caches() -> list:
    """Every object with ``cache_clear`` that a module of the package defines, at
    module level or in one of its classes (``__main__`` is skipped: importing it runs
    the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(fracgaussiso.__path__, "fracgaussiso."):
        if info.name == "fracgaussiso.__main__":
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == info.name]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)  # staticmethod, classmethod
                if (callable(getattr(value, "cache_clear", None))
                        and getattr(value, "__module__", "").startswith("fracgaussiso")):
                    found[id(value)] = value
    return list(found.values())


def test_the_cache_fixture_clears_every_cache_of_the_package(cold_caches):
    caches = _package_caches()
    assert len(caches) >= 8  # the walk finds the caches it should
    missing = [f"{c.__module__}.{c.__qualname__}" for c in caches
               if not any(c is known for known in cold_caches)]
    assert not missing, f"add {missing} to CACHES in tests/conftest.py"
    assert all(c.cache_info().currsize == 0 for c in caches)


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


def _suite_outputs(monkeypatch) -> tuple[list, str]:
    """The rows of the level-set suites on the golden sets, floats as hex, and
    their level-set records in the golden file's format."""
    rows, lines = [], []
    extract = inequality.level_set_with_budget
    with monkeypatch.context() as patch:
        for name, run in SUITES:
            def record(F, t, z, name=name):
                rec, budget = extract(F, t, z)
                lines.append(" ".join([name, str(F.set)]
                                      + [v.hex() for v in (t, z, rec.mu, budget)]))
                return rec, budget

            patch.setattr(inequality, "level_set_with_budget", record)
            rows += [{k: _hexed(v) for k, v in row.items()} for row in run(N_SETS, SEED)[0]]
    return rows, "".join(line + "\n" for line in lines)


def test_each_perimeter_and_asymmetry_is_evaluated_once(cold_caches, monkeypatch):
    # A cache's misses count the runs of its body.  Each perimeter key and each set
    # is read many times, and its body runs once: misses equal the distinct keys.
    perimeter, best = spectral._perimeter, sets.best_halfline
    keys = {perimeter: [], best: []}
    for owner, name, memo in ((spectral, "_perimeter", perimeter), (sets, "best_halfline", best)):
        monkeypatch.setattr(owner, name,
                            lambda *key, memo=memo: keys[memo].append(key) or memo(*key))
    _suite_outputs(monkeypatch)
    for memo, read in keys.items():
        assert memo.cache_info().misses == len(set(read)) < len(read)
    # the levelset suite reads P_s(E) 4 times per set; the bounds suite, on the same
    # sets, 7 times per set of positive asymmetry (2 of the 4: a halfline has z0 = 0
    # and no rows); asymmetries are read of the 4 sets and of the level sets
    assert len(keys[perimeter]) == 4 * N_SETS + 7 * 2 and len(set(keys[perimeter])) == N_SETS
    assert {E for E, *_ in keys[best]} > {E for E, *_ in keys[perimeter]}


def test_the_memos_move_no_row_and_no_level_set(cold_caches, monkeypatch):
    memoized = _suite_outputs(monkeypatch)
    assert memoized[1] == GOLDEN.read_text(encoding="utf-8")
    perimeter, best = spectral._perimeter, sets.best_halfline
    for owner, name, memo in ((spectral, "_perimeter", perimeter), (sets, "best_halfline", best)):
        monkeypatch.setattr(owner, name,
                            lambda *key, memo=memo: memo.cache_clear() or memo(*key))
    for name in _ENDPOINT_TUPLES:  # a plain property computes on every read
        monkeypatch.setattr(GaussianSet, name, property(vars(GaussianSet)[name].func))
    assert _suite_outputs(monkeypatch) == memoized
    assert perimeter.cache_info().hits == best.cache_info().hits == 0


def test_a_set_keeps_its_endpoint_tuples_and_compares_by_intervals():
    E = GaussianSet.from_intervals([(-float("inf"), -1.0), (0.0, 2.0)])
    F = GaussianSet.from_intervals([(0.0, 2.0), (-float("inf"), -1.0)])
    assert E.signed_endpoints == ((-1.0, 1), (0.0, -1), (2.0, 1))
    assert E.finite_endpoints == (-1.0, 0.0, 2.0) and E.open_right == 0
    assert all(getattr(E, name) is getattr(E, name) for name in _ENDPOINT_TUPLES)
    # F has computed none of them; the cached values are not fields
    assert E == F and hash(E) == hash(F) and vars(F).keys() == {"intervals"}
