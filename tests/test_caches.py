"""The package's caches, the fixture that clears them, and the per-set values.

The level-set checks read each set's P_s(E) and asym(E) from the
ExtensionField they take, which keeps both once read; a GaussianSet keeps its
endpoint tuples.  Neither is a module-level cache, and neither may move an
output.
"""
import importlib
import pkgutil
import sys
from collections import Counter

import fracgaussiso
from fracgaussiso import cli, gauss_core, inequality, sets, spectral
from fracgaussiso.sets import GaussianSet, parse_set
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
    assert len(caches) >= 6  # the walk finds the caches it should
    missing = [f"{c.__module__}.{c.__qualname__}" for c in caches
               if not any(c is known for known in cold_caches)]
    assert not missing, f"add {missing} to CACHES in tests/conftest.py"
    assert all(c.cache_info().currsize == 0 for c in caches)


def test_the_level_set_suites_evaluate_each_perimeter_and_asymmetry_once_per_set(
        cold_caches, monkeypatch):
    # Every binding of perimeter_spectral and asymmetry in the package counts its
    # calls per (suite, function, set).  A suite passes one field per set to its
    # height and to every check, so each set's P_s(E) and asym(E) is evaluated once.
    counts, lines, suite = Counter(), [], [None]
    for name, real in (("perimeter_spectral", spectral.perimeter_spectral),
                       ("asymmetry", sets.asymmetry)):
        def count(E, *args, name=name, real=real):
            counts[suite[0], name, E] += 1
            return real(E, *args)
        bound = [m for key, m in sys.modules.items()
                 if key.startswith("fracgaussiso") and getattr(m, name, None) is real]
        assert len(bound) >= 3  # spectral or sets, extension, inequality
        for module in bound:
            monkeypatch.setattr(module, name, count)
    extract = inequality.level_set_with_budget

    def record(F, t, z):
        rec, budget = extract(F, t, z)
        lines.append(" ".join([suite[0], str(F.set)] + [v.hex() for v in (t, z, rec.mu, budget)]))
        return rec, budget

    monkeypatch.setattr(inequality, "level_set_with_budget", record)
    rows = []
    for title, run in SUITES:
        suite[0] = title
        rows += run(N_SETS, SEED)[0]
    assert "".join(line + "\n" for line in lines) == GOLDEN.read_text(encoding="utf-8")
    drawn = {parse_set(row["set"]) for row in rows}
    assert len(drawn) == N_SETS
    per_set = {key: n for key, n in counts.items() if key[2] in drawn}
    assert max(per_set.values()) == 1
    # the levelset suite reads P_s(E) of every set and no asym(E); the bounds suite
    # reads asym(E) of every set, and P_s(E) of the 2 sets of positive asymmetry
    # (a halfline has z0 = 0 and no rows)
    tally = Counter({(s, f): 0 for s, _ in SUITES for f in ("perimeter_spectral", "asymmetry")})
    for (s, f, _), n in per_set.items():
        tally[s, f] += n
    assert tally == {("levelset", "perimeter_spectral"): N_SETS,
                     ("levelset", "asymmetry"): 0,
                     ("bounds", "perimeter_spectral"): 2,
                     ("bounds", "asymmetry"): N_SETS}


def test_deficit_and_the_main_suite_prepare_each_set_once(monkeypatch, capsys):
    # one kernel call builds the tables of a set and its H, and asym(E) is read
    # once, whatever the number of orders
    counts, real_asymmetry = Counter(), sets.asymmetry
    kernel = spectral.coeff_antideriv_table
    monkeypatch.setattr(spectral, "coeff_antideriv_table",
                        lambda *args: counts.update(["kernel"]) or kernel(*args))

    def asymmetry(E):
        counts["asymmetry", E] += 1
        return real_asymmetry(E)
    for key, module in list(sys.modules.items()):
        if key.startswith("fracgaussiso") and getattr(module, "asymmetry", None) is real_asymmetry:
            monkeypatch.setattr(module, "asymmetry", asymmetry)
    assert cli.main(["deficit", "--set", "(-1.2,-0.3)|(0.4,2)", "--s-grid", "0.25:0.75:0.25"]) == 0
    # of the set's complement, its working set of measure 0.41
    assert counts.pop("kernel") == 1 and list(counts.values()) == [1]
    counts.clear()
    assert cli.main(["verify", "--suite", "main", "--n", "2"]) == 0
    assert counts.pop("kernel") == 2 and list(counts.values()) == [1, 1]
    capsys.readouterr()


def test_deficit_checks_every_order_before_a_kernel_call(monkeypatch, capsys):
    # s = 1.0 is the grid's last order, and it is refused before a table is built
    calls, kernel = [], spectral.coeff_antideriv_table
    monkeypatch.setattr(spectral, "coeff_antideriv_table",
                        lambda *args: calls.append(1) or kernel(*args))
    assert cli.main(["deficit", "--set", "(0,1)", "--s-grid", "0.5:1:0.25"]) == 2
    out, err = capsys.readouterr()
    assert (calls, out) == ([], "") and "fractional order must lie in (0, 1), got 1.0" in err


def test_sweep_builds_each_orders_laguerre_rules_once(cold_caches, monkeypatch, capsys):
    # 9 orders of 2 profile rules each: evaluated r by r, the 18 keys would cycle
    # through the 9-key cache and build 162 rules
    builds, build = [], gauss_core._gauss_laguerre
    monkeypatch.setattr(gauss_core, "_gauss_laguerre", lambda a, n: builds.append(1) or build(a, n))
    assert cli.main(["sweep", "--r-grid=-2:2:0.5", "--s-grid", "0.1:0.9:0.1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + 81 and len(builds) == 18


def test_a_set_keeps_its_endpoint_tuples_and_compares_by_intervals():
    E = GaussianSet.from_intervals([(-float("inf"), -1.0), (0.0, 2.0)])
    F = GaussianSet.from_intervals([(0.0, 2.0), (-float("inf"), -1.0)])
    assert E.signed_endpoints == ((-1.0, 1), (0.0, -1), (2.0, 1))
    assert E.finite_endpoints == (-1.0, 0.0, 2.0) and E.open_right == 0
    assert all(getattr(E, name) is getattr(E, name) for name in _ENDPOINT_TUPLES)
    # F has computed none of them; the cached values are not fields
    assert E == F and hash(E) == hash(F) and vars(F).keys() == {"intervals"}
