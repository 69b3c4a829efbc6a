"""Fast self-test of the benchmark (about a minute and a half).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json names, each with its declared unit; that a wrong
level-set measure trips the levelset gate; and that the benchmark fails
without printing a result when the library is missing.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metric_names() -> None:
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = _run(run.ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared[trace], (workload, trace, set(got) ^ set(declared[trace]))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_wrong_measure_trips_gate() -> None:
    wl_mod = run.import_workloads()
    from fracgaussiso import extension
    true_measure = extension.measure
    extension.measure = lambda E: true_measure(E) + 1e-3
    try:
        seed = json.loads(run.STORED.read_text(encoding="utf-8"))["seed"]
        levelset = run.make_workload(wl_mod, "levelset", seed, 1)
        run.run_cases(levelset, levelset.units, run.SpeedClock())
        errors = levelset.check(None)
        levelset.close()
    finally:
        extension.measure = true_measure
    assert errors, "a wrong level-set measure passed the levelset gate"
    print(f"ok  wrong level-set measure trips the gate ({len(errors)} mismatches)")


def check_fails_without_library() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "levelset", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  without the library: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    check_fails_without_library()
    check_wrong_measure_trips_gate()
    check_metric_names()
    print("selftest passed")
