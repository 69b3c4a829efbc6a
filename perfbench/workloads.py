"""Seeded inputs, closed-loop cases and correctness gates of the workloads.

Each workload draws its inputs from the seed and hands the library only the
generated sets.  One caller runs the units one after another (closed loop);
``run(unit)`` yields ``(cases, failed)`` after each latency sample, so the
caller times the stretch between two yields.

The amount of work is fixed by ``--seconds`` through ``ROUND_S``, the time
one round of units takes at the reference speed of run.SpeedClock (2-core
x86 virtual machine, python backend), so both sides of a comparison run the
same cases and ``wall_s`` is the time to finish them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random

from fracgaussiso import (cli, extension, inequality, pde, sets, spectral,
                          suites)

from spans import rebind, unbind

S_LEVELSET = 0.5
K_LEVELSET = 4000
ALPHA = 20.0
T_VALUES = (0.25, 0.5, 0.75)
LEVELSET_ENDPOINTS = 4

S_GRID = "0.25:0.75:0.25"
S_VALUES = (0.25, 0.5, 0.75)
K_DEFICIT = 10_000

REL_TOL = 1e-12
PDE_MAX_REL_ERR = 0.02


def draw_sets(rng: random.Random, n: int, endpoints: int | None = None) -> list:
    """n draws from the suites family, optionally with a fixed endpoint count."""
    out = []
    while len(out) < n:
        E = suites.random_gaussian_set(rng)
        if endpoints is None or len(E.finite_endpoints) == endpoints:
            out.append(E)
    return out


def reference_pair():
    """The two long-K calls: the K=1e6 halfline reference and `asymptotic` (K=1e5)."""
    ref = spectral.halfline_perimeter_reference(0.0, 0.5, 10**6)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["asymptotic"])
    return ref, rc


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""
    ROUND_S = 1.0
    CASES_PER_UNIT = 1

    def __init__(self, seed: int, seconds: float, stored: dict | None):
        self.rng = random.Random(seed)
        self.stored = stored  # reference outputs when seed is the stored seed
        self.rounds = max(1, round(seconds / self.ROUND_S))
        self.units = self.make_units(self.rounds)

    def make_units(self, rounds: int) -> list:
        raise NotImplementedError

    def first_rounds(self, k: int) -> list:
        """The units of the first k rounds."""
        return self.units[:len(self.units) // self.rounds * k]

    def warm_up(self) -> None:
        """Fill lazy caches so the first timed case pays no one-off cost."""

    def run(self, unit):
        raise NotImplementedError

    def check(self, ref) -> list[str]:
        """Gate messages; empty when every output is correct."""
        return []

    def workload_metrics(self, ref) -> dict:
        """Metrics that exist on this workload only, as name -> (value, unit)."""
        return {}

    def close(self) -> None:
        pass


class Levelset(Workload):
    """Level-set closeness and bounds checks, as the `verify` suites run them.

    Every set has exactly four finite endpoints.  A check bisects each
    crossing with scalar Mehler evaluations, so a set's cost grows about
    with the square of its endpoint count (1 : 3 : 6 for 2, 4 and 6
    endpoints); a fixed count keeps the few sets of a run comparable across
    seeds.
    """

    name = "levelset"
    ROUND_S = 3.75
    CASES_PER_UNIT = 3 * len(T_VALUES)

    def __init__(self, seed, seconds, stored):
        super().__init__(seed, seconds, stored)
        # (set, call index within the set, t, z, mu, budget) per level_set_with_budget call
        self.records = []
        self._current = None
        self._undo = rebind(extension, "level_set_with_budget", self._recorder)

    def _recorder(self, fn):
        def record(F, t, z):
            rec, budget = fn(F, t, z)
            set_text, calls = self._current
            self.records.append((set_text, calls, t, z, rec.mu, budget))
            self._current = (set_text, calls + 1)
            return rec, budget
        return record

    def make_units(self, rounds):
        return draw_sets(self.rng, rounds, LEVELSET_ENDPOINTS)

    def warm_up(self):
        E = sets.interval(0.0, 1.0)
        extension.mehler_extension(E, S_LEVELSET / 2.0, [0.0], 0.1, 80)
        extension.mehler_extension(E, S_LEVELSET / 2.0, [0.0], 0.1, 40)

    def run(self, E):
        self._current = (str(E), 0)
        z = 0.9 * inequality.closeness_z_max(E, S_LEVELSET, ALPHA, K_LEVELSET)
        field = extension.extension_field(E, S_LEVELSET, K_LEVELSET)
        for t in T_VALUES:
            ok = inequality.verify_levelset_closeness(E, S_LEVELSET, t, z, ALPHA,
                                                      K_LEVELSET, field=field)
            yield 1, int(not ok)
        H = sets.ehrhard_symmetrize(E).as_set()
        thr = inequality.z_thresholds(E, S_LEVELSET,
                                      spectral.perimeter_spectral(E, S_LEVELSET, K_LEVELSET),
                                      spectral.perimeter_spectral(H, S_LEVELSET, K_LEVELSET))
        for z in (0.5 * thr.z0, thr.z0):
            for t in T_VALUES:
                ok = inequality.verify_levelset_bounds(E, S_LEVELSET, t, z, K_LEVELSET,
                                                       field=field)
                yield 1, int(not ok)

    def check(self, ref):
        if self.stored is None:
            return []
        errors = []
        for set_text, i, t, z, mu, budget in self.records:
            expected = self.stored.get(set_text)
            if expected is None or i >= len(expected):
                continue
            t_ref, z_ref, mu_ref = expected[i]
            if t != t_ref or _rel(z, z_ref) > REL_TOL or abs(mu - mu_ref) > budget:
                errors.append(f"levelset {set_text} call {i}: (t={t}, z={z}, mu={mu}) vs "
                              f"stored (t={t_ref}, z={z_ref}, mu={mu_ref}), budget {budget}")
        return errors

    def close(self):
        unbind(self._undo)


class Deficit(Workload):
    """`deficit --s-grid 0.25:0.75:0.25` on each set, through the CLI entry point."""

    name = "deficit"
    ROUND_S = 0.105
    CASES_PER_UNIT = len(S_VALUES)

    def __init__(self, seed, seconds, stored):
        super().__init__(seed, seconds, stored)
        self.halfline_r = self.rng.uniform(-2.0, 2.0)
        self.rows = []  # (set, row index within the set, row dict) per output row

    def make_units(self, rounds):
        return draw_sets(self.rng, rounds)

    def _deficit(self, set_text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["deficit", "--set", set_text, "--s-grid", S_GRID])
        lines = out.getvalue().splitlines()
        return rc, list(csv.DictReader(lines[1:]))

    def warm_up(self):
        self._deficit("(0,1)")

    def run(self, E):
        set_text = str(E)
        rc, rows = self._deficit(set_text)
        self.rows += [(set_text, i, row) for i, row in enumerate(rows)]
        failed = len(S_VALUES) if rc != 0 or len(rows) != len(S_VALUES) \
            else sum(row["satisfied"] != "true" for row in rows)
        yield len(S_VALUES), failed

    def check(self, ref):
        errors = []
        r = self.halfline_r
        for s in S_VALUES:
            a = spectral.halfspace_series(r, s, K_DEFICIT).value
            b = spectral.perimeter_spectral(sets.halfline(r), s, K_DEFICIT).value
            if _rel(a, b) > REL_TOL:
                errors.append(f"halfspace_series({r}, {s}) = {a} but the general path gives {b}")
        if self.stored is None:
            return errors
        for set_text, i, row in self.rows:
            expected = self.stored.get(set_text)
            if expected is None or i >= len(expected):
                continue
            s_ref, pe_ref, ph_ref = expected[i]
            pe, ph = float(row["P_E"]), float(row["P_H"])
            if float(row["s"]) != s_ref or _rel(pe, pe_ref) > REL_TOL or _rel(ph, ph_ref) > REL_TOL:
                errors.append(f"deficit {set_text} row {i}: (s={row['s']}, P_E={pe}, P_H={ph}) "
                              f"vs stored (s={s_ref}, P_E={pe_ref}, P_H={ph_ref})")
        return errors

    def workload_metrics(self, ref):
        decided = sum(float(row["deficit"]) - float(row["rhs"]) > float(row["budget"])
                      for _, _, row in self.rows)
        return {"decided_frac": (decided / max(1, len(self.rows)), "ratio")}


def _halfline_256():
    return pde.pde_energy(sets.halfline(0.0), 0.5, mesh=(256, 256))


def _halfline_512():
    return pde.pde_energy(sets.halfline(0.0), 0.5, mesh=(512, 512))


def _interval_256():
    return pde.pde_energy(sets.interval(0.0, 1.0), 0.25, mesh=(256, 256))


def _cylinder():
    return pde.pde_energy_cylinder(sets.halfline(0.0), 0.5, mesh=(32, 64, 64))


PDE_SOLVES = {"halfline_256": _halfline_256, "halfline_512": _halfline_512,
              "interval_256": _interval_256, "cylinder": _cylinder}


class Pde(Workload):
    """Passes over four fixed energy solves; the seed orders each pass.

    In one pass the halfline at 512² takes about 70% of the time, the
    halfline and the interval at 256² about 12% each and the cylinder 4%.
    """

    name = "pde"
    ROUND_S = 4.6

    def __init__(self, seed, seconds, stored):
        super().__init__(seed, seconds, stored)
        self.values: dict[str, list] = {}

    def make_units(self, rounds):
        units = []
        for _ in range(rounds):
            order = sorted(PDE_SOLVES)
            self.rng.shuffle(order)
            units += order
        return units

    def warm_up(self):
        pde.pde_energy(sets.halfline(0.0), 0.5, mesh=(64, 64))
        pde.pde_energy_cylinder(sets.halfline(0.0), 0.5, mesh=(8, 64, 64))

    def run(self, label):
        value = PDE_SOLVES[label]()
        self.values.setdefault(label, []).append(value)
        yield 1, int(not math.isfinite(value))

    def rel_err(self, label, ref):
        vals = self.values.get(label)
        return _rel(vals[0], ref.value) if vals else 1.0  # no energy: 100% error

    def check(self, ref):
        errors = [f"{label} gave different energies across passes: {vals}"
                  for label, vals in sorted(self.values.items()) if len(set(vals)) != 1]
        err_256, err_512 = self.rel_err("halfline_256", ref), self.rel_err("halfline_512", ref)
        if not err_512 < PDE_MAX_REL_ERR:
            errors.append(f"pde_rel_err {err_512} at 512² is not below {PDE_MAX_REL_ERR}")
        if not err_512 < err_256:
            errors.append(f"pde error does not fall from 256² ({err_256}) to 512² ({err_512})")
        return errors

    def workload_metrics(self, ref):
        return {"pde_rel_err": (self.rel_err("halfline_512", ref), "ratio")}


WORKLOADS = {cls.name: cls for cls in (Levelset, Deficit, Pde)}
