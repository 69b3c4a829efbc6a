import random

import numpy as np
import pytest

from fracgaussiso.sets import measure
from fracgaussiso.suites import (SUITES, random_gaussian_set, row_failed,
                                 run_main_suite, run_transfer_suite)


def test_random_family_measure_window():
    rng = random.Random(5)
    for _ in range(40):
        E = random_gaussian_set(rng)
        assert 0.05 <= measure(E) <= 0.95
        assert 1 <= len(E.intervals) <= 4


def test_random_family_deterministic():
    a = [str(random_gaussian_set(random.Random(9))) for _ in range(1)]
    b = [str(random_gaussian_set(random.Random(9))) for _ in range(1)]
    assert a == b


def test_transfer_suite_rows():
    rows, failures = run_transfer_suite(10, seed=1)
    assert len(rows) == 10
    assert failures == 0
    assert [r["case"] for r in rows] == list(range(10))


def test_main_suite_rows():
    rows, failures = run_main_suite(5, seed=2, K=2000)
    assert len(rows) == 15  # 5 sets x 3 orders
    assert failures == 0
    assert all(r["satisfied"] and r["deficit"] >= -r["budget"] for r in rows)


def test_run_suite_dispatch():
    rows, failures = SUITES["main"](2, 3, K=1000)
    assert rows and failures == 0


@pytest.mark.parametrize("row, failed", [
    ({"suite": "transfer", "outcome": "fails"}, True),
    ({"suite": "transfer", "outcome": "inapplicable"}, False),
    ({"suite": "transfer", "outcome": "holds"}, False),
    ({"suite": "levelset", "ok": False}, True),
    ({"suite": "bounds", "ok": True}, False),
    ({"suite": "main", "satisfied": False}, True),
    ({"suite": "main", "satisfied": np.False_}, True),
    ({"suite": "main", "satisfied": True}, False),
    ({"satisfied": False}, True),  # a deficit row has no suite column
    ({"satisfied": True}, False),
    ({"suite": "bounds", "ok": np.False_}, True),
])
def test_row_failed(row, failed):
    assert row_failed(row) is failed
