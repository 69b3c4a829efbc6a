import dataclasses
import math
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest

from fracgaussiso import cli, inequality, sets, suites
from fracgaussiso.errors import DegenerateSetError, DomainError, ResolutionError
from fracgaussiso.extension import LevelSetRecord
from fracgaussiso.inequality import (TRANSFER_FAILS,
                                     TRANSFER_HOLDS, TRANSFER_INAPPLICABLE,
                                     TRANSFER_TRIVIAL, closeness_z_max,
                                     constant_C, sigma_min,
                                     verify_levelset_bounds,
                                     verify_levelset_closeness, verify_main,
                                     verify_orders, verify_transfer_lemma, z0_threshold,
                                     z_thresholds)
from fracgaussiso.gauss_core import iso_function, phi_inv
from fracgaussiso.sets import (EMPTY, GaussianSet, asymmetry, complement,
                               ehrhard_symmetrize, halfline, interval,
                               measure, symm_diff)
from fracgaussiso.spectral import (PerimeterValue, coeff_tables, halfline_perimeter,
                                  perimeter_spectral)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_alpha_must_be_positive_and_finite(alpha):
    E = interval(0.1, 1.2)
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        closeness_z_max(E, 0.5, alpha, 2000)
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        verify_levelset_closeness(E, 0.5, 0.5, 0.01, alpha, 2000)


def test_sigma_min_endpoints():
    # interval entirely left of 1/2: left endpoint wins
    assert sigma_min(0.2) == pytest.approx(iso_function(0.2 / 9 * 5), rel=1e-12)
    # straddling 1/2: direct comparison of the two endpoints
    m = 0.45
    assert sigma_min(m) == min(iso_function(5 * m / 9), iso_function(13 * m / 9))
    # interior values dominate the interval minimum
    assert sigma_min(0.3) <= iso_function(0.3)


def test_sigma_min_domain():
    with pytest.raises(DomainError):
        sigma_min(9.0 / 13.0)
    with pytest.raises(DomainError):
        sigma_min(0.0)


def test_z_thresholds():
    E = GaussianSet.from_intervals([(-math.inf, -0.1), (0.2, 0.5)])
    s = 0.5
    P_E = perimeter_spectral(E, s, 2000)
    H = halfline(0.0)
    P_H = perimeter_spectral(H, s, 2000)
    thr = z_thresholds(E, s, P_E, P_H)
    assert thr.z0 > 0.0 and thr.z1 > 0.0
    if P_E.value <= 2.0 * P_H.value:
        assert thr.z1 < thr.z0


def test_z_thresholds_degenerate():
    E = halfline(0.7)
    P = perimeter_spectral(E, 0.5, 500)
    thr = z_thresholds(E, 0.5, P, P)
    assert thr.z0 == 0.0 and thr.z1 == 0.0


def test_z0_threshold_is_z_thresholds_z0():
    E, s = GaussianSet.from_intervals([(-math.inf, -0.1), (0.2, 0.5)]), 0.5
    P_E = perimeter_spectral(E, s, 2000)
    P_H = perimeter_spectral(ehrhard_symmetrize(E).as_set(), s, 2000)
    assert z0_threshold(E, s, 2000) == z_thresholds(E, s, P_E, P_H).z0 > 0.0
    assert z0_threshold(halfline(0.7), s, 500) == 0.0


def test_the_bounds_checks_never_symmetrize(monkeypatch):
    # z1, the one threshold that reads P_s(H), has no reader in the bounds
    # checks, so neither builds H; verify_main, which reads P_s(H), shows
    # that the count sees every binding of the function.
    calls, real = [], sets.ehrhard_symmetrize
    for name, mod in list(sys.modules.items()):
        if name.startswith("fracgaussiso") and getattr(mod, "ehrhard_symmetrize", None) is real:
            monkeypatch.setattr(mod, "ehrhard_symmetrize", lambda E: calls.append(E) or real(E))
    E = GaussianSet.from_intervals([(-math.inf, -0.3), (0.0, 0.25)])
    assert verify_levelset_bounds(E, 0.5, 0.5, z0_threshold(E, 0.5, 2000) / 2.0, 2000)
    rows, failures = suites.run_bounds_suite(3, 7)
    assert rows and failures == 0 and calls == []
    verify_main(E, 0.5, K=500)
    assert len(calls) == 1


def test_constant_C_positive_and_linear_in_c():
    P_H = perimeter_spectral(halfline(0.0), 0.5, 2000)
    c1 = constant_C(0.5, 0.3, 1.0, P_H)
    c2 = constant_C(0.5, 0.3, 2.0, P_H)
    assert c1 > 0.0
    assert c2 == pytest.approx(c1 / 2.0, rel=1e-14)


def test_constant_C_golden():
    # dual transcription: frozen literal plus an independent mpmath evaluation
    P_H = perimeter_spectral(halfline(0.0), 0.5, 10_000)
    val = constant_C(0.5, 0.5, 1.0, P_H)
    assert val == pytest.approx(3.4391354482574013e-07, rel=1e-12)
    mp.mp.dps = 40
    s = mp.mpf("0.5")
    m = mp.mpf("0.5")

    def iso(mm):
        r = mp.sqrt(2) * mp.erfinv(2 * mm - 1)
        return mp.e ** (-r ** 2 / 2)

    sig = min(iso(5 * m / 9), iso(13 * m / 9))
    Ka = s * abs(mp.gamma(-s / 2)) / (2 ** s * mp.gamma(s / 2))
    beta = mp.gamma(1 - s / 2) / (2 ** s * Ka * mp.gamma(1 + s / 2))
    C = (mp.mpf(3) ** (4 - 4 / s) * 25 / 169) * mp.mpf("0.5") ** (8 / s + 2) \
        * (mp.sqrt(mp.e) / (2 - s)) * sig * m ** (2 / s - 2) \
        / (beta * mp.mpf(repr(P_H.value))) ** (2 / s - 1)
    assert val == pytest.approx(float(C), rel=1e-12)


def _log_C_30(s, m, c, P_H, branch="main"):
    """log C of one report's float inputs, in 30 digits."""
    mp.mp.dps = 30
    sv = mp.mpf(s)
    if branch == "large_perimeter":
        return mp.log(mp.mpf(P_H)) - (2 / sv) * mp.log(2)
    return (4 - 4 / sv) * mp.log(3) + mp.log(mp.mpf(25) / 169) - mp.log(mp.mpf(c)) \
        - (8 / sv + 2) * mp.log(2) + mp.mpf("0.5") - mp.log(2 - sv) \
        + mp.log(sigma_min(m)) + (2 / sv - 2) * mp.log(mp.mpf(m)) \
        - (2 / sv - 1) * mp.log(mp.mpf(P_H) / sv)  # beta_s P_H, beta_s = 1/s


def _rhs_30(log_C, s, asym):
    return mp.exp(log_C + (2 / mp.mpf(s)) * mp.log(mp.mpf(asym))) if asym else mp.mpf(0)


def _case(text, s, convention, kind, c=1.0):
    """One case, with the id "text-s-convention" and c appended when it is not 1."""
    tail = "" if c == 1.0 else f"-{c}"
    return pytest.param(text, s, convention, c, kind, id=f"{text}-{s}-{convention}{tail}")


@pytest.mark.parametrize("text, s, convention, c, kind", [
    _case("(5,inf)", 0.05, "with_constant", "normal"),
    _case("(5,inf)", 0.02, "with_constant", "normal"),
    _case("(6,7)", 0.05, "with_constant", "normal"),
    _case("(0,1)", 0.005, "with_constant", "zero"),
    _case("(0,1)", 0.005, "remark", "zero"),
    _case("(-0.4,0.4)", 0.02, "remark", "zero"),
    _case("(0,1)", 0.5, "with_constant", "inf", c=1e-320),
    _case("(0,1)", 0.5, "with_constant", "subnormal", c=1e308)])
def test_constant_C_survives_the_underflow_of_its_factors(text, s, convention, c, kind):
    # a power in C underflows (or, under remark, the divisor overflows) where
    # C need not: (5,inf) at s = 0.05 has log10 C = -74.3.  C itself lies below
    # the double range at (0,1), s = 0.005 and at (-0.4,0.4), s = 0.02, where
    # asym = 2 still leaves rhs = 2.4e-308; it lies above it at c = 1e-320,
    # and is subnormal at c = 1e308, where 169 c overflows
    rep = verify_main(sets.parse_set(text), s, c, convention=convention)
    assert rep.branch == "main"
    log_C = _log_C_30(s, rep.m, c, rep.P_H.value)
    # a subnormal holds fewer digits: allow one unit of its last place
    assert rep.C == pytest.approx(float(mp.exp(log_C)), rel=1e-10, abs=math.ulp(0.0))
    assert rep.rhs == pytest.approx(float(_rhs_30(log_C, s, rep.asym)), rel=1e-10,
                                    abs=math.ulp(0.0))
    assert kind == ("zero" if rep.C == 0.0 else "inf" if rep.C == math.inf
                    else "subnormal" if rep.C < sys.float_info.min else "normal")


def test_main_suite_C_and_rhs_match_their_30_digit_values():
    rows, _ = suites.run_main_suite(12, 7)
    for row in rows:
        m = row["m"]
        if m > 0.5:  # verify_main reads the complement's own measure
            m = measure(complement(sets.parse_set(row["set"])))
        log_C = _log_C_30(row["s"], m, row["c"], row["P_H"], row["branch"])
        assert row["C"] == pytest.approx(float(mp.exp(log_C)), rel=1e-12, abs=0.0)
        assert row["rhs"] == pytest.approx(float(_rhs_30(log_C, row["s"], row["asym"])),
                                           rel=1e-12, abs=0.0)


def test_rhs_is_the_closed_form_on_the_reduction_height():
    # C asym^{2/s} = (225 sqrt(e) / (10816 c)) sigma_m asym / (m (2-s)) z1^{2-s}, with z1
    # the reduction height of the set verify_main works on
    rows, _ = suites.run_main_suite(12, 7)
    main_rows = [row for row in rows if row["branch"] == "main"]
    assert main_rows
    for row in main_rows:
        E, s = sets.parse_set(row["set"]), row["s"]
        work = complement(E) if row["m"] > 0.5 else E
        m = measure(work)
        P_E, P_H = (PerimeterValue(row[k], s, 10_000, 0.0, "with_constant")
                    for k in ("P_E", "P_H"))
        z1 = z_thresholds(work, s, P_E, P_H).z1
        rhs = (225.0 * math.sqrt(math.e) / (10816.0 * row["c"]) * sigma_min(m) * row["asym"]
               / (m * (2.0 - s)) * z1 ** (2.0 - s))
        assert row["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0.0)


_ORDERS_NEAR_0 = [3e-308, 1e-308, 8e-309, 1e-310, 1e-320]


@pytest.mark.parametrize("s", _ORDERS_NEAR_0)
def test_C_and_rhs_are_numbers_for_s_near_0(s):
    # summed term by term, the 1/s powers of log C would overflow to infinities of
    # both signs below s = 4.5e-308; gathered, 1/s scales log z1^s < 0 alone
    rng = random.Random(3)
    for E in [suites.random_gaussian_set(rng) for _ in range(40)]:
        rep = verify_main(E, s, K=500)
        assert math.isfinite(rep.C) and math.isfinite(rep.rhs), (str(E), rep.C, rep.rhs)
        assert rep.satisfied, str(E)


@pytest.mark.parametrize("s", _ORDERS_NEAR_0)
def test_asym_2_gives_no_nan_on_either_branch(monkeypatch, s):
    # at asym = 2 the large-perimeter exponent carries log(asym/2) = 0 where 2/s
    # overflows; a stand-in that triples P_s(E), read from E's table, sends the
    # row to that branch
    E = interval(-0.4, 0.4)
    rep, = verify_orders(E, (s,), K=500)
    assert (rep.asym, rep.branch, rep.C, rep.rhs, rep.satisfied) == (2.0, "main", 0.0, 0.0, True)
    real, table = inequality.perimeter_of_table, coeff_tables((E,), 500)[0]

    def tripled(f, *args):
        P = real(f, *args)
        return dataclasses.replace(P, value=3.0 * P.value) if np.array_equal(f, table) else P
    monkeypatch.setattr(inequality, "perimeter_of_table", tripled)
    rep, = verify_orders(E, (s,), K=500)
    assert (rep.asym, rep.branch, rep.C, rep.satisfied) == (2.0, "large_perimeter", 0.0, True)
    # rhs = P_H (asym/2)^{2/s} = P_H, through a log and an exp of a subnormal P_H
    assert rep.rhs == pytest.approx(rep.P_H.value, rel=1e-3)


def test_the_constant_exceeds_the_perimeter_of_a_tail_halfline():
    # on the main branch P_E <= 2 P_H, so deficit <= P_s(H): the statement as coded
    # cannot hold there once asym^{2/s} C > P_H, which C / P_H = 2.55e8 at m = 1e-16
    # allows from asym = 0.008 at s = 0.5.  This pins the defect (ROADMAP item 17;
    # README, "Standing failures") until the constant's form for small m is settled
    # against the paper.
    P_H = halfline_perimeter(phi_inv(1e-16), 0.5)
    assert constant_C(0.5, 1e-16, 1.0, P_H) / P_H.value > 1.0


def test_constant_C_needs_small_m():
    P_H = perimeter_spectral(halfline(0.0), 0.5, 500)
    with pytest.raises(DomainError):
        constant_C(0.5, 0.7, 1.0, P_H)


def test_constant_c_is_checked_before_the_set():
    # an empty set with a bad c names c, as the CLI's deficit did before any s
    for c in (0.0, -1.0):
        with pytest.raises(DomainError, match="constant c must be positive and finite"):
            verify_main(EMPTY, 0.5, c)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_verify_main_and_constant_C_reject_c_outside_0_inf(c):
    P_H = perimeter_spectral(halfline(0.0), 0.5, 500)
    with pytest.raises(DomainError, match="constant c"):
        verify_main(interval(0.0, 1.0), 0.5, c, K=500)
    with pytest.raises(DomainError, match="constant c"):
        constant_C(0.5, 0.3, c, P_H)


def test_verify_main_halfline_trivial():
    rep = verify_main(halfline(0.3), 0.5, K=2000)
    assert abs(rep.deficit) < 1e-12
    assert rep.rhs < 1e-12
    assert rep.satisfied


def test_verify_main_complement_invariance():
    E = GaussianSet.from_intervals([(-math.inf, -0.05), (0.1, 0.4)])
    a = verify_main(E, 0.5, K=2000)
    b = verify_main(complement(E), 0.5, K=2000)
    assert a.deficit == pytest.approx(b.deficit, abs=1e-13)
    assert a.asym == pytest.approx(b.asym, abs=1e-13)
    assert a.satisfied and b.satisfied


def test_verify_main_branch_consistency():
    E = GaussianSet.from_intervals([(-math.inf, -0.05), (0.1, 0.4)])
    rep = verify_main(E, 0.5, K=2000)
    assert rep.branch in ("main", "large_perimeter")
    if rep.branch == "large_perimeter":
        expect = rep.P_H.value / 2.0 ** (2.0 / 0.5) * rep.asym ** (2.0 / 0.5)
    else:
        expect = constant_C(0.5, min(rep.m, 1 - rep.m), 1.0, rep.P_H) * rep.asym ** (2.0 / 0.5)
    assert rep.rhs == pytest.approx(expect, rel=1e-12)


def test_verify_main_degenerate():
    with pytest.raises(DegenerateSetError):
        verify_main(EMPTY, 0.5)


_PROPER = interval(0.0, 1.0)
# Every entry point of the lemma chain that takes a set, with the set X in each of
# its set positions; the others get a proper set.
_SET_ENTRY_POINTS = {
    "verify_main": lambda X: verify_main(X, 0.5),
    "verify_orders": lambda X: verify_orders(X, (0.25, 0.5)),
    "verify_transfer_lemma E": lambda X: verify_transfer_lemma(X, _PROPER, 0.3),
    "verify_transfer_lemma F": lambda X: verify_transfer_lemma(_PROPER, X, 0.3),
    "z0_threshold": lambda X: z0_threshold(X, 0.5),
    "verify_levelset_bounds": lambda X: verify_levelset_bounds(X, 0.5, 0.5, 0.1),
    "asymmetry": asymmetry,
    "ehrhard_symmetrize": ehrhard_symmetrize,
}


@pytest.mark.parametrize("X", [sets.FULL_LINE, EMPTY, interval(40.0, 41.0)], ids=str)
@pytest.mark.parametrize("entry", list(_SET_ENTRY_POINTS))
def test_a_degenerate_set_raises_one_error_that_names_the_set_and_no_function(entry, X):
    # (40, 41) has measure 1 - 1 = 0.0 in doubles
    with pytest.raises(DegenerateSetError) as info:
        _SET_ENTRY_POINTS[entry](X)
    message = str(info.value)
    assert f"measure in (0, 1), got {measure(X)}" in message and str(X) in message
    assert not any(name.split()[0] in message for name in _SET_ENTRY_POINTS)


def test_transfer_lemma_identity():
    E = interval(0.0, 1.0)
    assert verify_transfer_lemma(E, E, 0.2) == TRANSFER_HOLDS


def test_transfer_lemma_trivial_for_halfline():
    assert verify_transfer_lemma(interval(0.0, 1.0), halfline(0.0), 0.2) \
        == TRANSFER_TRIVIAL


def test_transfer_lemma_inapplicable():
    F = interval(0.0, 1.0)
    E = interval(1.5, 2.5)  # huge symmetric difference
    assert verify_transfer_lemma(E, F, 0.1) == TRANSFER_INAPPLICABLE


def test_transfer_lemma_perturbation():
    F = GaussianSet.from_intervals([(-1.0, -0.2), (0.3, 0.9)])
    E = symm_diff(F, interval(0.0, 0.01))
    out = verify_transfer_lemma(E, F, 0.3)
    assert out in (TRANSFER_HOLDS, TRANSFER_INAPPLICABLE)
    assert out != TRANSFER_FAILS


def test_transfer_lemma_kappa_domain():
    with pytest.raises(DomainError):
        verify_transfer_lemma(interval(0, 1), interval(0, 1), 0.6)


def test_transfer_lemma_checks_kappa_then_F_then_E():
    E, F = EMPTY, sets.FULL_LINE
    for kappa, error in ((0.6, "kappa must lie in (0, 1/2)"),
                         (0.3, "set (-inf,inf) needs measure in (0, 1), got 1.0")):
        with pytest.raises(DomainError, match=re.escape(error)):
            verify_transfer_lemma(E, F, kappa)


def test_levelset_closeness_cases():
    E = interval(0.1, 1.2)
    s = 0.5
    alpha = 20.0
    from fracgaussiso.inequality import closeness_z_max
    z = 0.9 * closeness_z_max(E, s, alpha, 2000)
    for t in (0.25, 0.75):
        assert verify_levelset_closeness(E, s, t, z, alpha, 2000)


def test_a_height_past_the_double_range_is_inf():
    # (s / (8 alpha P_s(E)))^{1/s} at s = 0.01 lies past the largest double on these
    # tail intervals; every finite z lies below it
    assert closeness_z_max(interval(6, 7), 0.01, 20.0) == math.inf
    assert closeness_z_max(interval(8, 9), 0.01, 20.0) == math.inf
    assert verify_levelset_closeness(interval(6, 7), 0.01, 0.5, 1.0, 20.0) is True


@pytest.mark.parametrize("s", [8e-307, 1e-307, 1e-308])
def test_a_closeness_limit_is_inf_down_to_the_subnormal_s(s):
    # 8 alpha / s overflows here, but s / P_s(E) stays finite and the limit
    # lies past the double range; 0.0 would leave no admissible z
    assert closeness_z_max(interval(-8.0, -7.5), s, 20.0) == math.inf


@pytest.mark.parametrize("s", [1e-16, 1e-17, 1e-308])
def test_an_extension_order_below_the_mehler_rule_raises_resolution_error(s):
    # sigma - 1 rounds to -1 below sigma = 5.6e-17, which made the Mehler
    # rule's weight u^(sigma - 1) the non-integrable 1/u
    with pytest.raises(ResolutionError, match="extension order") as raised:
        verify_levelset_closeness(interval(-8.0, -7.5), s, 0.5, 0.1, 20.0)
    assert "Laguerre" not in str(raised.value)
    assert verify_levelset_closeness(interval(-8.0, -7.5), 2e-16, 0.5, 0.1, 20.0) is True


def test_a_perimeter_that_underflows_to_0_gives_no_height():
    # at s = 1e-310, P_s((-8, -7.5)) underflows to 0.0 and beta_s = 1/s to inf,
    # whose product made every height nan and the closeness check's z-range (0, nan)
    E, s = interval(-8.0, -7.5), 1e-310
    assert perimeter_spectral(E, s, 10_000).value == 0.0
    for check in (lambda: closeness_z_max(E, s, 20.0), lambda: z0_threshold(E, s),
                  lambda: verify_levelset_closeness(E, s, 0.5, 0.1, 20.0),
                  lambda: verify_levelset_bounds(E, s, 0.5, 0.1)):
        with pytest.raises(ResolutionError, match="perimeter is 0"):
            check()


@pytest.mark.parametrize("s", [1e-3, 1e-310])
def test_a_height_that_underflows_to_0_gives_no_height(s):
    # the ratio under the 1/s power is positive but below 1 on (0, 1), and its power
    # rounds to 0.0: the heights were 0.0 and the checks' z-ranges empty
    E = interval(0.0, 1.0)
    P_E = perimeter_spectral(E, s, 10_000)
    P_H = perimeter_spectral(ehrhard_symmetrize(E).as_set(), s, 10_000)
    for check in (lambda: closeness_z_max(E, s, 20.0), lambda: z0_threshold(E, s),
                  lambda: z_thresholds(E, s, P_E, P_H),
                  lambda: verify_levelset_closeness(E, s, 0.5, 0.1, 20.0),
                  lambda: verify_levelset_bounds(E, s, 0.5, 0.1)):
        with pytest.raises(ResolutionError, match=f"height underflows to 0 at s={s}"):
            check()


def test_the_budget_near_s_1_is_vacuous():
    # a known defect (ROADMAP item 10; README, "Standing failures"): at s = 0.99 the
    # K = 1e4 tail bounds exceed the deficit a hundredfold, so the row is satisfied
    # whatever it holds; this test fails once the budget near s = 1 is honest
    rep = verify_main(interval(0.0, 1.0), 0.99)
    assert rep.satisfied and rep.budget > 100.0 * abs(rep.deficit)


def test_each_main_row_fails_below_its_flip_value_of_c():
    # rhs is proportional to 1/c, so a row is satisfied exactly when c >= c_flip =
    # rhs(c = 1) / (deficit + budget): every seed-7 main row with asym > 0 fails
    # at c_flip / 2 and passes at 2 c_flip
    rows, _ = suites.run_main_suite(12, 7)
    flipped = [row for row in rows if row["asym"] > 0.0]
    assert (len(rows), len(flipped)) == (36, 30)
    for row in flipped:
        assert row["branch"] == "main" and row["c"] == 1.0 and row["satisfied"]
        E, c_flip = sets.parse_set(row["set"]), row["rhs"] / (row["deficit"] + row["budget"])
        assert not verify_main(E, row["s"], c_flip / 2.0).satisfied
        assert verify_main(E, row["s"], 2.0 * c_flip).satisfied


def test_levelset_closeness_precondition():
    with pytest.raises(DomainError):
        verify_levelset_closeness(interval(0, 1), 0.5, 0.1, 0.01, 20.0, 500)


# The two level-set checks, called with a set, s, t and alpha; the bounds check
# takes no alpha.
_LEVEL_CHECKS = {
    "verify_levelset_closeness":
        lambda E, s, t, alpha: verify_levelset_closeness(E, s, t, 0.01, alpha, 500),
    "verify_levelset_bounds": lambda E, s, t, alpha: verify_levelset_bounds(E, s, t, 1e-4, 500),
}


@pytest.mark.parametrize("t", [0.2, 0.8, math.nan])
@pytest.mark.parametrize("check", list(_LEVEL_CHECKS))
def test_both_level_set_checks_name_a_bad_t_after_s(check, t):
    call, E = _LEVEL_CHECKS[check], interval(0.0, 1.0)
    message = re.escape(f"t must lie in [1/4, 3/4], got {t}")
    with pytest.raises(DomainError, match=message):
        call(E, 0.5, t, 20.0)
    with pytest.raises(DomainError, match=r"fractional order must lie in \(0, 1\), got 1.5"):
        call(E, 1.5, t, 20.0)
    for X, alpha in ((E, -1.0), (sets.FULL_LINE, 20.0), (EMPTY, 20.0)):
        with pytest.raises(DomainError, match=message):
            call(X, 0.5, t, alpha)


def test_levelset_bounds_case():
    E = GaussianSet.from_intervals([(-math.inf, -0.3), (0.0, 0.25)])
    s = 0.5
    H = halfline(0.0)
    from fracgaussiso.sets import ehrhard_symmetrize
    thr = z_thresholds(E, s, perimeter_spectral(E, s, 2000),
                       perimeter_spectral(ehrhard_symmetrize(E).as_set(), s, 2000))
    assert verify_levelset_bounds(E, s, 0.5, thr.z0 / 2.0, 2000)
    # sandwich (5/9) m < mu < (13/9) m on the same configuration
    from fracgaussiso.extension import extension_field, level_set_with_budget
    from fracgaussiso.sets import measure
    rec = level_set_with_budget(extension_field(E, s, 2000), 0.5, thr.z0 / 2.0)[0]
    m = measure(E)
    assert 5.0 / 9.0 * m < rec.mu < 13.0 / 9.0 * m


def test_levelset_checks_reject_a_field_of_another_set_or_order():
    from fracgaussiso.extension import extension_field
    from fracgaussiso.inequality import closeness_z_max
    from fracgaussiso.sets import ehrhard_symmetrize
    E, s, K = interval(-0.5, 0.8), 0.5, 4000
    z = 0.9 * closeness_z_max(E, s, 20.0, K)
    thr = z_thresholds(E, s, perimeter_spectral(E, s, K),
                       perimeter_spectral(ehrhard_symmetrize(E).as_set(), s, K))
    own = extension_field(E, s, K)
    assert verify_levelset_closeness(E, s, 0.5, z, 20.0, K, field=own)
    assert verify_levelset_bounds(E, s, 0.5, thr.z0, K, field=own)
    # the checks read the given field itself, which keeps what they read of it
    assert vars(own).keys() >= {"perimeter", "asymmetry"}
    for wrong in (extension_field(interval(2.0, 2.5), s, K), extension_field(E, 0.9, K),
                  extension_field(E, s, 2000)):
        named = f"at (sigma, K) = ({wrong.sigma}, {wrong.K}) does not belong"
        with pytest.raises(DomainError, match=re.escape(named)):
            verify_levelset_closeness(E, s, 0.5, z, 20.0, K, field=wrong)
        with pytest.raises(DomainError, match=re.escape(named)):
            verify_levelset_bounds(E, s, 0.5, thr.z0, K, field=wrong)
        with pytest.raises(DomainError, match=re.escape(named)):
            closeness_z_max(E, s, 20.0, K, field=wrong)
        with pytest.raises(DomainError, match=re.escape(named)):
            z0_threshold(E, s, K, field=wrong)
    # the heights read the given field, as the checks do
    assert 0.9 * closeness_z_max(E, s, 20.0, K, field=own) == z
    assert z0_threshold(E, s, K, field=own) == thr.z0
    # z0 is read from the field, so the field is checked first, also where asym(E) = 0
    assert verify_levelset_bounds(halfline(0.3), s, 0.5, 1e-3, K)
    with pytest.raises(DomainError, match="does not belong"):
        verify_levelset_bounds(halfline(0.3), s, 0.5, 1e-3, K, field=own)


def _hexed(rep):
    return {k: v.hex() if isinstance(v, float) else v for k, v in rep.columns().items()}


@pytest.mark.parametrize("text", ["(-inf,0)", "(-inf,-0.4)", "(0.2,inf)", "(-1.2,-0.3)|(0.4,2)",
                                  "(-inf,0.9)|(1.5,2)"])
def test_one_record_serves_every_order_as_verify_main_does(monkeypatch, text):
    # one kernel call builds the read-only tables of the working set and of H; a set
    # that is its own H ((-inf, 0), of measure 1/2 exactly) has one table
    E = sets.parse_set(text)
    built, real = [], inequality.coeff_tables

    def coeff_tables(group, K):
        built.append((group, real(group, K)))
        return built[-1][1]
    monkeypatch.setattr(inequality, "coeff_tables", coeff_tables)
    reports = verify_orders(E, (0.25, 0.5, 0.75), K=2000)
    (group, tables), = built
    work = complement(E) if measure(E) > 0.5 else E
    H = ehrhard_symmetrize(work).as_set()
    assert group == ((work,) if H == work else (work, H))
    assert len(group) == 1 or text != "(-inf,0)"
    assert not any(f.flags.writeable for f in tables)
    for s, a in zip((0.25, 0.5, 0.75), reports, strict=True):
        b = verify_main(E, s, K=2000)
        assert _hexed(a) == _hexed(b) and (a.E, a.P_E, a.P_H) == (b.E, b.P_E, b.P_H)


@pytest.mark.parametrize("text", ["(-inf,0)", "(0.2,inf)", "(-1.2,-0.3)|(0.4,2)",
                                  "(-inf,0.9)|(1.5,2)"])
def test_verify_orders_is_verify_main_at_each_order(text):
    E = sets.parse_set(text)
    orders = (0.25, 0.5, 0.75)
    reports = verify_orders(E, orders)
    assert [rep.s for rep in reports] == list(orders)
    assert list(map(_hexed, reports)) == [_hexed(verify_main(E, s)) for s in orders]


def test_a_report_holds_the_measure_of_E_and_the_asymmetry_of_its_working_set():
    # E has measure 0.827, so the check runs on its complement, whose asymmetry
    # (1.5745) is not that of E (0.3285)
    E = sets.parse_set("(-inf,0.5)|(1,2)")
    rep = verify_main(E, 0.5)
    assert rep.m == measure(E) and rep.asym == asymmetry(complement(E))
    assert (round(rep.m, 3), round(asymmetry(E), 4), round(rep.asym, 4)) == (0.827, 0.3285, 1.5745)


def test_verify_main_checks_c_order_measure_convention_and_K_in_that_order(monkeypatch):
    args = {"c": 0.0, "s": 1.5, "E": EMPTY, "convention": "banana", "K": 0}
    for key, good, error in (("c", 1.0, "constant c must be positive"),
                             ("s", 0.5, "fractional order must lie in (0, 1)"),
                             ("E", interval(0.0, 1.0), "measure in (0, 1), got 0.0"),
                             ("convention", "remark", "unknown convention"),
                             ("K", 500, "perimeter needs truncation K >= 1")):
        with pytest.raises(DomainError, match=re.escape(error)):
            verify_main(args["E"], args["s"], args["c"], args["K"], args["convention"])
        args[key] = good
    assert verify_main(args["E"], args["s"], args["c"], args["K"], args["convention"]).satisfied
    # verify_orders checks every order in the same place, before the measure and
    # before any table is built
    monkeypatch.setattr(inequality, "coeff_tables", lambda *a: pytest.fail("table built"))
    args = {"c": 0.0, "s_values": (0.5, 1.5), "E": EMPTY, "convention": "banana", "K": 0}
    for key, good, error in (("c", 1.0, "constant c"),
                             ("s_values", (0.5, 0.75), "order"),
                             ("E", interval(0.0, 1.0), "measure"),
                             ("convention", "remark", "convention"),
                             ("K", 500, "truncation K")):
        with pytest.raises(DomainError, match=error):
            verify_orders(**args)
        args[key] = good
    monkeypatch.undo()
    assert [rep.s for rep in verify_orders(**args)] == [0.5, 0.75]


def test_an_order_whose_half_rounds_to_0_is_named_as_given():
    # 5e-324 / 2 rounds to 0.0; the field refuses it, so no later error names
    # the order 0.0
    from fracgaussiso.extension import extension_field
    with pytest.raises(DomainError, match=re.escape("s/2 rounds to 0 at s=5e-324")):
        closeness_z_max(interval(-8.0, -7.5), 5e-324, 20.0)
    with pytest.raises(DomainError, match=re.escape("at s=5e-324")):
        extension_field(interval(-8.0, -7.5), 5e-324)
    assert extension_field(interval(-8.0, -7.5), 1e-323).sigma == 5e-324


@pytest.mark.parametrize("text", ["(0.1002,0.1008)", "(-inf,0.1002)|(0.1008,inf)"])
def test_levelset_bounds_hold_within_budget_on_an_empty_or_full_level_set(text):
    # the level set is empty (or the whole line), and the narrow part's mass puts the
    # budget, 2.38e-4, above m = 2.38e-4: both checks hold within it, without the
    # asymmetry of the level set, which a set of measure 0 or 1 lacks
    E, s = sets.parse_set(text), 0.5
    z0 = z0_threshold(E, s)
    for z in (z0, z0 / 2.0):
        for t in (0.25, 0.5, 0.75):
            assert verify_levelset_bounds(E, s, t, z)


def test_levelset_bounds_vacuous_for_halfline():
    assert verify_levelset_bounds(halfline(0.0), 0.5, 0.5, 0.1, 500)


# Fault injection: each verifier must answer no when its inputs say no.
def _level_set_of_the_complement(F, t, z):
    """A `level_set_with_budget` stand-in that returns the complement of the set, budget 0."""
    W = complement(F.set)
    return LevelSetRecord(t, z, W, measure(W)), 0.0


def test_levelset_closeness_fails_on_the_complement(monkeypatch):
    E, s, alpha = interval(0.1, 1.2), 0.5, 20.0
    z = 0.9 * closeness_z_max(E, s, alpha, 2000)
    assert verify_levelset_closeness(E, s, 0.5, z, alpha, 2000)
    monkeypatch.setattr(inequality, "level_set_with_budget", _level_set_of_the_complement)
    assert not verify_levelset_closeness(E, s, 0.5, z, alpha, 2000)


@pytest.mark.parametrize("wrong", ["empty", "halfline"])
def test_levelset_bounds_fail_on_a_wrong_level_set(monkeypatch, wrong):
    # the empty set (mu = 0) breaks the measure bound; the symmetrized
    # halfline (mu = m, asymmetry 0) keeps it and breaks the asymmetry bound
    E, s = GaussianSet.from_intervals([(-math.inf, -0.3), (0.0, 0.25)]), 0.5
    thr = z_thresholds(E, s, perimeter_spectral(E, s, 2000),
                       perimeter_spectral(ehrhard_symmetrize(E).as_set(), s, 2000))
    z = thr.z0 / 2.0
    assert verify_levelset_bounds(E, s, 0.5, z, 2000)
    W = EMPTY if wrong == "empty" else ehrhard_symmetrize(E).as_set()
    monkeypatch.setattr(inequality, "level_set_with_budget",
                        lambda F, t, z: (LevelSetRecord(t, z, W, measure(W)), 0.0))
    assert not verify_levelset_bounds(E, s, 0.5, z, 2000)


def test_transfer_lemma_fails_when_asymmetry_is_lost(monkeypatch):
    F, E, kappa = interval(0.0, 1.0), interval(0.0, 0.999), 0.3
    assert verify_transfer_lemma(E, F, kappa) == TRANSFER_HOLDS
    real = inequality.asymmetry
    monkeypatch.setattr(inequality, "asymmetry", lambda X: 0.0 if X == E else real(X))
    assert verify_transfer_lemma(E, F, kappa) == TRANSFER_FAILS


def test_verify_reports_every_closeness_failure(monkeypatch, capsys):
    monkeypatch.setattr(inequality, "level_set_with_budget", _level_set_of_the_complement)
    assert cli.main(["verify", "--suite", "levelset", "--n", "1", "--seed", "7"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(line.startswith("FAIL {'suite': 'levelset', 'case': 0,")
                                   for line in lines)
