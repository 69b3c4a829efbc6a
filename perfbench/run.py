"""Benchmark of fracgaussiso: three seeded closed-loop workloads.

Run from the repository root (the library is imported from ``src/``):

    python3 perfbench/run.py --workload levelset --seed 7 --seconds 25 --trace 0

Workloads (see workloads.py): ``levelset`` (level-set closeness and bounds
checks, dominated by scalar Mehler evaluations), ``deficit`` (the `deficit`
CLI command over many sets, dominated by Hermite coefficient tables) and
``pde`` (sparse energy assembly and solve); ``all`` runs the three in turn.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run whose spans are written to ``perfbench/out/``.  The
last line of standard output is the result object; the process exits 1 when
a correctness gate fails.

End-to-end times are seconds at a reference machine speed (see SpeedClock);
the first line of output also gives the raw wall time and the speed factor.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
STORED = HERE / "reference.json"

SETUP_PROBES = 3
REFERENCE_REPEATS = 5
KERNEL_REPEATS = 3
TAIL_BEYOND = 10
SELF_SUM_TOL = 0.10
# Typical calibration kernel time on a shared 2-core x86 virtual machine
# (its slow state).
SPEED_REF_S = 1.8e-3
_CAL = np.linspace(0.0, 1.0, 50_000)


def _calibration_kernel() -> float:
    """A scalar Hermite-style recurrence plus small and large numpy calls, 1-2 ms."""
    g_prev, g, acc = 1.0, 0.3, 0.0
    for n in range(1, 2500):
        g_prev, g = g, (0.3 * g - math.sqrt(float(n)) * g_prev) / math.sqrt(float(n + 1))
        acc += math.pow(float(n), -0.75) * g * g
    for _ in range(60):
        np.exp(_CAL[:64])
    np.sort(_CAL[::-1])
    np.cumsum(_CAL)
    return acc


class SpeedClock:
    """Measures the machine speed while intervals are timed.

    On a shared virtual machine the CPU runs in a fast state or one about 1.6x
    slower, for seconds at a time, and its speed drifts over minutes; that
    alone spreads run times by 10-25%.  The calibration kernel is timed
    (best of two) before and after each interval, never inside one.  The
    factor SPEED_REF_S over the time-weighted mean calibration time turns
    the run's raw times into times at the reference speed.  One factor per
    run, rather than one per interval, also serves intervals of seconds,
    whose speed a probe at each end samples poorly; a few isolated short
    intervals are better served by a factor each (``scaled_each``).
    """

    def __init__(self):
        self.raw = []  # raw interval times
        self.cal = []  # mean calibration time around each interval
        self._last = None

    @staticmethod
    def _probe() -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            _calibration_kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def start(self) -> None:
        """Calibrate before the first interval after a pause."""
        self._last = self._probe()

    def record(self, raw: float) -> float:
        now = self._probe()
        self.raw.append(raw)
        self.cal.append(0.5 * (self._last + now))
        self._last = now
        return raw

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    def factor(self) -> float:
        return SPEED_REF_S * self.raw_s / sum(r * c for r, c in zip(self.raw, self.cal))

    def scaled(self, raw_times) -> list[float]:
        f = self.factor()
        return [t * f for t in raw_times]

    def scaled_each(self) -> list[float]:
        return [SPEED_REF_S * r / c for r, c in zip(self.raw, self.cal)]


def import_workloads():
    """Put the checkout's ``src/`` first on the path and import workloads.py."""
    if not (SRC / "fracgaussiso" / "__init__.py").is_file():
        sys.exit(f"error: no fracgaussiso package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def make_workload(wl_mod, name: str, seed: int, seconds: float):
    stored = json.loads(STORED.read_text(encoding="utf-8"))
    cls = wl_mod.WORKLOADS[name]
    data = stored.get(name) if seed == stored["seed"] else None
    wl = cls(seed, seconds, data)
    wl.warm_up()
    return wl


def run_cases(wl, units, clock: SpeedClock, tracer=None):
    """Closed loop over ``units``; returns (raw latencies, attempted, failed)."""
    latencies, attempted, failed = [], 0, 0
    clock.start()
    for unit in units:
        done = 0
        mark = time.perf_counter()
        try:
            for cases, bad in wl.run(unit):
                latencies.append(clock.record(time.perf_counter() - mark))
                mark = time.perf_counter()
                done += cases
                attempted += cases
                failed += bad
                if tracer is not None:
                    tracer.case = len(latencies)
        except Exception:  # a raising case counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            left = wl.CASES_PER_UNIT - done
            attempted += left
            failed += left
    return latencies, attempted, failed


def tail(latencies: list[float]) -> tuple[float, dict]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], {"samples": n, "beyond": beyond,
                                "percentile": 100.0 * (n - beyond) / n}


def timed_reference(wl_mod, clock: SpeedClock):
    clock.start()
    t0 = time.perf_counter()
    ref, rc = wl_mod.reference_pair()
    return clock.record(time.perf_counter() - t0), ref, rc


def setup_probe(name: str, seed: int, seconds: float, clock: SpeedClock) -> float:
    """Seconds from launching a fresh interpreter to the first timed case."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    clock.start()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    # perf_counter reads CLOCK_MONOTONIC, which child and parent share.
    return clock.record(float(proc.stdout.split()[-1]) - t0)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(name: str, seed: int, seconds: float, trace: int) -> dict:
    import scipy
    import fracgaussiso
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": git_commit(), "backend": fracgaussiso.BACKEND,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def _m(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl_mod, name, seed, seconds):
    setup_clock = SpeedClock()
    setups = [setup_probe(name, seed, seconds, setup_clock) for _ in range(SETUP_PROBES)]
    wl = make_workload(wl_mod, name, seed, seconds)
    clock, ref_clock = SpeedClock(), SpeedClock()
    latencies, attempted, failed, rcs = [], 0, 0, []
    # The reference pairs are spread over the run, between chunks of cases,
    # so that their mean sees as many machine states as the cases do.
    n = len(wl.units)
    for i in range(REFERENCE_REPEATS):
        chunk = wl.units[n * i // REFERENCE_REPEATS:n * (i + 1) // REFERENCE_REPEATS]
        lat, att, bad = run_cases(wl, chunk, clock)
        latencies += lat
        attempted += att
        failed += bad
        _, ref, rc = timed_reference(wl_mod, ref_clock)
        rcs.append(rc)
    latencies = clock.scaled(latencies)
    wall = sum(latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = [f"asymptotic exited {rc}" for rc in rcs if rc != 0]
    errors += wl.check(ref)
    tail_s, tail_info = tail(latencies)
    extra = {k: _m(v, u) for k, (v, u) in wl.workload_metrics(ref).items()}
    extra["failed_frac"] = _m(failed / attempted, "ratio")
    wl.close()
    metrics = {
        "setup_s": _m(statistics.median(setup_clock.scaled(setups)), "s"),
        "wall_s": _m(wall, "s"),
        "cases_per_s": _m(attempted / wall, "1/s"),
        "case_p50_s": _m(statistics.median(latencies), "s"),
        "case_tail_s": _m(tail_s, "s"),
        "peak_rss_mb": _m(peak_mb, "MB"),
        "reference_s": _m(statistics.mean(ref_clock.scaled_each()), "s"),
    }
    info = {"raw_wall_s": clock.raw_s, "speed_factor": clock.factor(),
            "setup_samples_s": setups, "case_tail": tail_info, "workload_only": extra}
    return metrics, attempted, failed, errors, info


def import_times() -> dict:
    """Cumulative import time of each package, from ``python -X importtime``.

    A package loaded through a lazy ``__getattr__`` gets no line of its own,
    so a package's time is the sum of the cumulative times of its outermost
    lines (the package or its submodules, not nested in another of them).
    A package first imported inside another counts in both.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fracgaussiso"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    wanted = ("fracgaussiso", "scipy.special", "scipy.integrate", "scipy.sparse.linalg")
    totals = dict.fromkeys(wanted, 0)
    ancestors: list[tuple[int, str]] = []
    # Children are printed before their parent, so walk the lines backwards.
    for line in reversed(proc.stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for pkg in wanted:
            inside = (lambda n, p=pkg: n == p or n.startswith(p + "."))
            if inside(name) and not any(inside(a) for _, a in ancestors):
                totals[pkg] += int(parts[1])
        ancestors.append((depth, name))
    return {f"import.{pkg}_s": _m(us * 1e-6, "s") for pkg, us in totals.items()}


def kernel_cases() -> tuple[dict, list[str]]:
    """The three kernels at the sizes of benchmarks/bench_kernels.py.

    When a compiled ``_kernels`` module imports, its outputs must equal the
    numpy fallback bit for bit.
    """
    from fracgaussiso import _backend, _kernels_py
    try:
        from fracgaussiso import _kernels as compiled
    except ImportError:
        compiled = None
    K = 20_000
    x_grid = np.linspace(-8.0, 8.0, 4001)
    c = np.exp(-0.05 * np.arange(K + 1, dtype=float))
    cases = {
        "coeff_antideriv_table": lambda mod: mod.coeff_antideriv_table(0.7, K),
        "hermite_weighted_series": lambda mod: mod.hermite_weighted_series(c, x_grid),
        "halfspace_series_sum": lambda mod: mod.halfspace_series_sum(0.3, -0.75, 50 * K),
    }
    metrics, errors = {}, []
    for name, call in cases.items():
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            call(_backend.kernels)
            times.append(time.perf_counter() - t0)
        metrics[f"kernel.{name}_s"] = _m(statistics.median(times), "s")
        if compiled is not None and not np.array_equal(np.asarray(call(_kernels_py)),
                                                       np.asarray(call(compiled))):
            errors.append(f"compiled {name} differs from the numpy fallback")
    return metrics, errors


def per_layer(wl_mod, name, seed, seconds):
    import spans
    wl = make_workload(wl_mod, name, seed, seconds)
    units = wl.first_rounds(math.ceil(wl.rounds / 2))

    base = SpeedClock()
    run_cases(wl, units, base)

    traced = SpeedClock()
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, attempted, failed = run_cases(wl, units, traced, tracer)
        tracer.case = -1  # the reference pair belongs to no case
        t0 = time.perf_counter()
        ref, rc = wl_mod.reference_pair()
        reference_wall = time.perf_counter() - t0
    finally:
        tracer.remove()
    # Span times are raw, so the sum check uses raw walls; the overhead
    # compares the two passes at the reference speed.
    traced_wall = traced.raw_s
    errors = [f"asymptotic exited {rc}"] if rc != 0 else []
    errors += wl.check(ref)
    only = wl.workload_metrics(ref)
    wl.close()

    stats = spans.layer_stats(tracer.spans)

    def st(span_name):
        return stats.get(span_name, spans.NameStats())

    def notes(span_name, key):
        return [sp.note[key] for sp in tracer.spans if sp.name == span_name and key in sp.note]

    def ratio(a, b):
        return a / b if b else 0.0

    mehler, lswb = st("extension.mehler_extension"), st("extension.level_set_with_budget")
    coeff_keys = notes("spectral.coeff_table", "key")
    crossings = sum(notes("extension.level_set_with_budget", "crossings"))
    solve_s = st("pde.spsolve").busy_s + st("pde.cg").busy_s
    energy_s = st("pde.pde_energy").busy_s + st("pde.pde_energy_cylinder").busy_s
    layers = ("backend", "extension", "spectral", "inequality", "sets", "cli", "pde")
    layer_self = {layer: sum(v.self_s for k, v in stats.items() if k.split(".")[0] == layer)
                  for layer in layers}
    self_sum = sum(layer_self.values())
    self_sum_frac = self_sum / (traced_wall + reference_wall)
    if abs(self_sum_frac - 1.0) > SELF_SUM_TOL:
        errors.append(f"layer self times sum to {self_sum} s, traced wall is "
                      f"{traced_wall} s plus {reference_wall} s for the reference pair")

    metrics = {}
    for kernel in ("coeff_antideriv_table", "halfspace_series_sum"):
        ks = st(f"backend.{kernel}")
        metrics[f"backend.{kernel}.calls"] = _m(ks.calls, "count")
        metrics[f"backend.{kernel}.busy_s"] = _m(ks.busy_s, "s")
        metrics[f"backend.{kernel}.steps"] = _m(sum(notes(f"backend.{kernel}", "steps")), "count")
    points = sum(notes("extension.mehler_extension", "points"))
    metrics.update({
        "extension.mehler_extension.calls": _m(mehler.calls, "count"),
        "extension.mehler_extension.busy_s": _m(mehler.busy_s, "s"),
        "extension.mehler_extension.points": _m(points, "count"),
        "extension.mehler_points_per_call": _m(ratio(points, mehler.calls), "points/call"),
        "extension.level_set_with_budget.calls": _m(lswb.calls, "count"),
        "extension.level_set_with_budget.self_s": _m(lswb.self_s, "s"),
        "extension.crossings": _m(crossings, "count"),
        "extension.mehler_calls_per_crossing": _m(ratio(mehler.calls, crossings), "calls/crossing"),
        "extension.extension_field.busy_s": _m(st("extension.extension_field").busy_s, "s"),
        "spectral.perimeter_spectral.calls": _m(st("spectral.perimeter_spectral").calls, "count"),
        "spectral.perimeter_spectral.self_s": _m(st("spectral.perimeter_spectral").self_s, "s"),
        "spectral.coeff_table.distinct_ratio": _m(ratio(len(set(coeff_keys)), len(coeff_keys)), "ratio"),
        "inequality.verify_main.self_s": _m(st("inequality.verify_main").self_s, "s"),
        "inequality.verify_levelset_closeness.self_s":
            _m(st("inequality.verify_levelset_closeness").self_s, "s"),
        "inequality.verify_levelset_bounds.self_s":
            _m(st("inequality.verify_levelset_bounds").self_s, "s"),
        "inequality.perimeter_calls_per_set":
            _m(ratio(st("spectral.perimeter_spectral").calls, len(units)), "calls/set"),
        "sets.asymmetry.busy_s": _m(st("sets.asymmetry").busy_s, "s"),
        "sets.ehrhard_symmetrize.busy_s": _m(st("sets.ehrhard_symmetrize").busy_s, "s"),
        "cli.main.self_s": _m(st("cli.main").self_s, "s"),
        "pde.pde_energy.busy_s": _m(st("pde.pde_energy").busy_s, "s"),
        "pde.pde_energy_cylinder.busy_s": _m(st("pde.pde_energy_cylinder").busy_s, "s"),
        "pde.solve_s": _m(solve_s, "s"),
        "pde.assemble_s": _m(energy_s - solve_s, "s"),
        "pde.unknowns": _m(sum(notes("pde.spsolve", "unknowns") + notes("pde.cg", "unknowns")), "count"),
        "pde.nnz": _m(sum(notes("pde.spsolve", "nnz") + notes("pde.cg", "nnz")), "count"),
        "gauss_core.phi.calls": _m(tracer.counts["gauss_core.phi.calls"], "count"),
    })
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = _m(value, "s")
    metrics.update({
        "trace.wall_s": _m(traced_wall, "s"),
        "trace.base_wall_s": _m(base.raw_s, "s"),
        "trace.overhead_frac": _m(traced.raw_s * traced.factor() / (base.raw_s * base.factor())
                                  - 1.0, "ratio"),
        "trace.reference_s": _m(reference_wall, "s"),
        "trace.self_sum_frac": _m(self_sum_frac, "ratio"),
        "trace.spans": _m(len(tracer.spans), "count"),
        "deficit.decided_frac": _m(only.get("decided_frac", (0.0,))[0], "ratio"),
        "pde.rel_err": _m(only.get("pde_rel_err", (0.0,))[0], "ratio"),
    })
    metrics.update(import_times())
    kmetrics, kerrors = kernel_cases()
    metrics.update(kmetrics)
    errors += kerrors

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    info = {"trace_file": str(trace_path.relative_to(ROOT)), "traced_units": len(units)}
    return metrics, attempted, failed, errors, info


def run_one(wl_mod, name, seed, seconds, trace) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, attempted, failed, errors, info = measure(wl_mod, name, seed, seconds)
    for msg in errors:
        print(f"gate failed: {msg}", file=sys.stderr)
    print(json.dumps({"meta": metadata(name, seed, seconds, trace), **info}))
    return {"correct": not errors and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("levelset", "deficit", "pde", "all"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl_mod = import_workloads()

    if args.setup_probe:
        make_workload(wl_mod, args.workload, args.seed, args.seconds)
        print(time.perf_counter())
        return 0

    names = ("levelset", "deficit", "pde") if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(wl_mod, name, args.seed, args.seconds, args.trace)
    if len(names) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
