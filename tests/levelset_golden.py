"""The level-set golden file: every level-set record of a fixed run.

``tests/golden/levelset_records.txt`` holds one line per
``level_set_with_budget`` call that the ``levelset`` and ``bounds`` suites
make on their first four seed-7 sets: the suite, the set, and t, z, mu and
the budget as ``float.hex``.  ``tests/test_suites.py`` compares the file
byte for byte.  Regenerate it only for a change meant to move a level set
or its budget, and say why in that change:

    PYTHONPATH=src python tests/levelset_golden.py
"""
from pathlib import Path

from fracgaussiso import inequality, suites

GOLDEN = Path(__file__).parent / "golden" / "levelset_records.txt"
SEED, N_SETS = 7, 4
SUITES = (("levelset", suites.run_levelset_suite), ("bounds", suites.run_bounds_suite))


def render() -> str:
    """The golden text as this checkout computes it."""
    lines = []
    extract = inequality.level_set_with_budget

    def record(F, t, z):
        rec, budget = extract(F, t, z)
        lines.append(" ".join([name, str(F.set)] + [v.hex() for v in (t, z, rec.mu, budget)]))
        return rec, budget

    inequality.level_set_with_budget = record
    try:
        for name, run in SUITES:
            run(N_SETS, SEED)
    finally:
        inequality.level_set_with_budget = extract
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
