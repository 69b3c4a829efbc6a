"""Regenerate reference.json, the stored outputs of the correctness gates.

It holds, for the stored seed and runs of up to STORED_SECONDS, every
level-set measure of the levelset workload and every P_E and P_H of the
deficit workload.  Regenerate it only for a change that is meant to alter
those outputs, and say why in the change.  Run from the repository root:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json

import run

STORED_SEED = 7
STORED_SECONDS = 25


def main() -> None:
    wl_mod = run.import_workloads()
    levelset = wl_mod.Levelset(STORED_SEED, STORED_SECONDS, None)
    run.run_cases(levelset, levelset.units, run.SpeedClock())
    levelset.close()
    deficit = wl_mod.Deficit(STORED_SEED, STORED_SECONDS, None)
    run.run_cases(deficit, deficit.units, run.SpeedClock())

    stored = {"levelset": {}, "deficit": {}}
    for set_text, _, t, z, mu, _ in levelset.records:
        stored["levelset"].setdefault(set_text, []).append([t, z, mu])
    for set_text, _, row in deficit.rows:
        stored["deficit"].setdefault(set_text, []).append(
            [float(row["s"]), float(row["P_E"]), float(row["P_H"])])
    # One set per line keeps the file readable and its diffs small.
    blocks = [f'"seed": {STORED_SEED}']
    for key in ("levelset", "deficit"):
        items = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in stored[key].items())
        blocks.append(f'"{key}": {{\n{items}\n}}')
    run.STORED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
