"""Seeded randomized verification suites.

Every suite draws its sets from one deterministic family (unions of one to
four intervals with endpoints uniform in [-3, 3], optional unbounded tails,
Gaussian measure kept inside [0.05, 0.95]) and returns plain row dicts in
input order, so runs with the same seed are byte-identical after formatting.
"""
from __future__ import annotations

import random

from .errors import DomainError
from .inequality import (ConstantParams, TRANSFER_FAILS, closeness_z_max,
                         verify_levelset_bounds, verify_levelset_closeness,
                         verify_main, verify_transfer_lemma, z0_threshold)
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


def run_transfer_suite(n: int = 500, seed: int = 0) -> tuple[list[dict], int]:
    """Asymmetry-transfer lemma on randomly perturbed pairs (F, E)."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        F = random_gaussian_set(rng)
        x0 = rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.001, 0.05)
        kappa = rng.uniform(0.05, 0.45)
        E = symm_diff(F, interval(x0, x0 + w))
        rows.append({
            "suite": "transfer", "case": i, "set_F": str(F), "set_E": str(E),
            "kappa": kappa, "outcome": verify_transfer_lemma(E, F, kappa),
        })
    return rows, sum(map(row_failed, rows))


def run_levelset_suite(n: int = 50, seed: int = 0) -> tuple[list[dict], int]:
    """Level-set closeness on random sets at 90% of the admissible height."""
    rng = random.Random(seed)
    s, alpha, K = _LEVELSET_S, _ALPHA, _LEVELSET_K
    rows = []
    for i in range(n):
        E = random_gaussian_set(rng)
        z = 0.9 * closeness_z_max(E, s, alpha, K)
        for t in _T_VALUES:
            rows.append({
                "suite": "levelset", "case": i, "set": str(E), "s": s, "t": t, "z": z,
                "alpha": alpha, "ok": verify_levelset_closeness(E, s, t, z, alpha, K),
            })
    return rows, sum(map(row_failed, rows))


def run_bounds_suite(n: int = 50, seed: int = 0) -> tuple[list[dict], int]:
    """Level-set measure/asymmetry bounds at z in {z0/2, z0}."""
    rng = random.Random(seed)
    s, K = _LEVELSET_S, _LEVELSET_K
    rows = []
    for i in range(n):
        E = random_gaussian_set(rng)
        z0 = z0_threshold(E, s, K)
        if z0 == 0.0:  # asym(E) = 0: no admissible height
            continue
        for z in (0.5 * z0, z0):
            for t in _T_VALUES:
                rows.append({
                    "suite": "bounds", "case": i, "set": str(E), "s": s,
                    "t": t, "z": z, "ok": verify_levelset_bounds(E, s, t, z, K),
                })
    return rows, sum(map(row_failed, rows))


def run_main_suite(n: int = 200, seed: int = 0, K: int = 10_000, c: float = 1.0,
                   convention: str = "with_constant") -> tuple[list[dict], int]:
    """Main inequality over the random family."""
    rng = random.Random(seed)
    params = ConstantParams(c)
    rows = []
    for i in range(n):
        E = random_gaussian_set(rng)
        for s in _MAIN_S_VALUES:
            rep = verify_main(E, s, params, K, convention)
            rows.append({"suite": "main", "case": i, "set": str(E), "s": s,
                         **rep.columns()})
    return rows, sum(map(row_failed, rows))


# Each suite's runner, in the order ``verify --suite all`` runs them.  Only
# the main suite reads options beyond (n, seed): K, c and convention.
SUITES = {"transfer": run_transfer_suite, "levelset": run_levelset_suite,
          "bounds": run_bounds_suite, "main": run_main_suite}
