"""Seeded randomized verification suites.

Every suite draws its sets from one deterministic family (unions of one to
four intervals with endpoints uniform in [-3, 3], optional unbounded tails,
Gaussian measure kept inside [0.05, 0.95]) and returns plain row dicts in
input order, so runs with the same seed are byte-identical after formatting.
"""
from __future__ import annotations

import random

from .errors import DomainError
from .extension import extension_field
from .inequality import (TRANSFER_FAILS, closeness_z_max, verify_levelset_bounds,
                         verify_levelset_closeness, verify_orders, verify_transfer_lemma,
                         z0_threshold)
from .sets import GaussianSet, interval, measure, symm_diff

__all__ = [
    "SUITES",
    "random_gaussian_set",
    "run_transfer_suite",
    "run_levelset_suite",
    "run_bounds_suite",
    "run_main_suite",
    "row_failed",
]

_MIN_MEASURE = 0.05
_MAX_MEASURE = 0.95
_TAIL_PROB = 0.25
# The order, closeness exponent and level heights of the level-set suites,
# and the orders of the main suite.
_LEVELSET_S = 0.5
_ALPHA = 20.0
_T_VALUES = (0.25, 0.5, 0.75)
_MAIN_S_VALUES = (0.25, 0.5, 0.75)
# The series order of the perimeters that set the level-set suites' heights.
_LEVELSET_K = 4000


def random_gaussian_set(rng: random.Random) -> GaussianSet:
    """One draw from the test family (rejection on the measure window)."""
    while True:
        n = rng.randint(1, 4)
        pts = sorted(rng.uniform(-3.0, 3.0) for _ in range(2 * n))
        pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(n)]
        # Always consume both tail draws to keep the stream position fixed.
        left_tail = rng.random() < _TAIL_PROB
        right_tail = rng.random() < _TAIL_PROB
        if left_tail:
            pairs[0] = (-float("inf"), pairs[0][1])
        if right_tail:
            pairs[-1] = (pairs[-1][0], float("inf"))
        try:
            E = GaussianSet.from_intervals(pairs)
        except DomainError:
            continue
        if _MIN_MEASURE <= measure(E) <= _MAX_MEASURE:
            return E


def row_failed(row: dict) -> bool:
    """A suite or deficit row's verdict: a failed transfer outcome, or a
    false ``ok`` or ``satisfied`` column."""
    return row.get("outcome") == TRANSFER_FAILS or not all(
        row.get(key, True) for key in ("ok", "satisfied"))


def _run(suite: str, n: int, seed: int, rows_of) -> tuple[list[dict], int]:
    """Rows and failure count of n sets drawn from ``random.Random(seed)``; ``rows_of(E, rng)``
    yields one set's rows and may draw more from rng before the next set is drawn."""
    rng = random.Random(seed)
    rows = [{"suite": suite, "case": i, **row}
            for i in range(n) for row in rows_of(random_gaussian_set(rng), rng)]
    return rows, sum(map(row_failed, rows))


def run_transfer_suite(n: int = 500, seed: int = 0) -> tuple[list[dict], int]:
    """Asymmetry-transfer lemma on randomly perturbed pairs (F, E)."""
    def rows_of(F, rng):
        x0 = rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.001, 0.05)
        kappa = rng.uniform(0.05, 0.45)
        E = symm_diff(F, interval(x0, x0 + w))
        yield {"set_F": str(F), "set_E": str(E), "kappa": kappa,
               "outcome": verify_transfer_lemma(E, F, kappa)}
    return _run("transfer", n, seed, rows_of)


def run_levelset_suite(n: int = 50, seed: int = 0) -> tuple[list[dict], int]:
    """Level-set closeness on random sets at 90% of the admissible height."""
    def rows_of(E, rng):
        s, alpha, K = _LEVELSET_S, _ALPHA, _LEVELSET_K
        F = extension_field(E, s, K)
        z = 0.9 * closeness_z_max(E, s, alpha, K, field=F)
        for t in _T_VALUES:
            yield {"set": str(E), "s": s, "t": t, "z": z, "alpha": alpha,
                   "ok": verify_levelset_closeness(E, s, t, z, alpha, K, field=F)}
    return _run("levelset", n, seed, rows_of)


def run_bounds_suite(n: int = 50, seed: int = 0) -> tuple[list[dict], int]:
    """Level-set measure/asymmetry bounds at z in {z0/2, z0}."""
    def rows_of(E, rng):
        s, K = _LEVELSET_S, _LEVELSET_K
        F = extension_field(E, s, K)
        z0 = z0_threshold(E, s, K, field=F)  # z0 = 0 at asym(E) = 0: no rows
        for z in (0.5 * z0, z0) if z0 else ():
            for t in _T_VALUES:
                yield {"set": str(E), "s": s, "t": t, "z": z,
                       "ok": verify_levelset_bounds(E, s, t, z, K, field=F)}
    return _run("bounds", n, seed, rows_of)


def run_main_suite(n: int = 200, seed: int = 0, K: int = 10_000, c: float = 1.0,
                   convention: str = "with_constant") -> tuple[list[dict], int]:
    """Main inequality over the random family, each set checked at all its orders at once."""
    def rows_of(E, rng):
        for rep in verify_orders(E, _MAIN_S_VALUES, c, K, convention):
            yield {"set": str(E), "s": rep.s, **rep.columns()}
    return _run("main", n, seed, rows_of)


# Each suite's runner, in the order ``verify --suite all`` runs them.  Only
# the main suite reads options beyond (n, seed): K, c and convention.
SUITES = {"transfer": run_transfer_suite, "levelset": run_levelset_suite,
          "bounds": run_bounds_suite, "main": run_main_suite}
