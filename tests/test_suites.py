import random

import numpy as np
import pytest

from fracgaussiso.errors import DomainError
from fracgaussiso.sets import GaussianSet, measure
from fracgaussiso.suites import (SUITES, random_gaussian_set, row_failed,
                                 run_main_suite, run_transfer_suite)


def test_levelset_records_match_the_golden_file():
    from levelset_golden import GOLDEN, render

    assert render() == GOLDEN.read_text(encoding="utf-8")


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


@pytest.mark.parametrize("error", [DomainError, TypeError])
def test_random_family_redraws_only_after_a_domain_error(monkeypatch, error):
    # a bad draw (DomainError) is drawn again; any other error is a bug and propagates
    build, raised = GaussianSet.from_intervals, []

    def fail_once(pairs):
        if not raised:
            raised.append(pairs)
            raise error("injected")
        return build(pairs)

    monkeypatch.setattr(GaussianSet, "from_intervals", staticmethod(fail_once))
    if error is DomainError:
        assert 0.05 <= measure(random_gaussian_set(random.Random(7))) <= 0.95
    else:
        with pytest.raises(TypeError, match="injected"):
            random_gaussian_set(random.Random(7))
    assert len(raised) == 1


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


def test_main_suite_names_a_bad_c_before_a_bad_K():
    # verify_main's order: c is checked before K
    with pytest.raises(DomainError, match="constant c must be positive"):
        run_main_suite(1, seed=0, K=0, c=0.0)


def test_run_suite_dispatch():
    rows, failures = SUITES["main"](2, 3, K=1000)
    assert rows and failures == 0


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_rows_follow_the_draw_order(name):
    # each set's rows are made before the next set is drawn, so a shorter run is a prefix
    knobs = {"K": 1000} if name == "main" else {}
    rows, _ = SUITES[name](4, 11, **knobs)
    head, _ = SUITES[name](2, 11, **knobs)
    assert head and [row for row in rows if row["case"] < 2] == head
    assert all(list(row)[:2] == ["suite", "case"] and row["suite"] == name for row in rows)


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
