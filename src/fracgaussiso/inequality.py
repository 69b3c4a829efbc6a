"""Isoperimetric deficit, the explicit stability constant, and verifiers.

The quantitative statement under test: for a set E of Gaussian measure m and
H the halfline of the same measure,

    P_s(E) - P_s(H) >= C_{s,m} * asym(E)^{2/s},

with an explicit (tiny) constant C_{s,m}.  The verifiers below check this and
the intermediate lemmas (asymmetry transfer, level-set closeness, level-set
measure and asymmetry bounds) on concrete sets, always carrying an explicit
numerical budget from the series truncations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ResolutionError
from .extension import ExtensionField, extension_field, level_set_with_budget
from .gauss_core import check_order, check_positive, check_truncation, iso_function
from .sets import (GaussianSet, _require_proper, asymmetry, complement, ehrhard_symmetrize,
                   measure, set_minus, symm_diff)
from .spectral import PerimeterValue, _check_convention, coeff_tables, perimeter_of_table

__all__ = [
    "DeficitReport",
    "ZThresholds",
    "sigma_min",
    "z_thresholds",
    "z0_threshold",
    "constant_C",
    "verify_orders",
    "verify_main",
    "verify_transfer_lemma",
    "closeness_z_max",
    "verify_levelset_closeness",
    "verify_levelset_bounds",
    "TRANSFER_HOLDS",
    "TRANSFER_FAILS",
    "TRANSFER_INAPPLICABLE",
    "TRANSFER_TRIVIAL",
]

TRANSFER_HOLDS = "holds"
TRANSFER_FAILS = "fails"
TRANSFER_INAPPLICABLE = "inapplicable"
TRANSFER_TRIVIAL = "trivial"

# Measure-zero branch threshold for the transfer lemma's c_kappa.
_NULL_MEASURE = 1e-14


@dataclass(frozen=True)
class ZThresholds:
    """Height thresholds (z0 for the level-set bounds, z1 for the reduction)."""

    z0: float
    z1: float


@dataclass(frozen=True)
class DeficitReport:
    """One run of the main-inequality check on a single set."""

    E: GaussianSet
    s: float
    m: float
    P_E: PerimeterValue
    P_H: PerimeterValue
    deficit: float
    asym: float
    C: float
    rhs: float
    satisfied: bool
    branch: str
    c: float
    budget: float

    def columns(self) -> dict:
        """The report's output columns, in the order the CLI and suites print them."""
        return {"m": self.m, "P_E": self.P_E.value, "P_H": self.P_H.value,
                "deficit": self.deficit, "asym": self.asym, "C": self.C,
                "rhs": self.rhs, "branch": self.branch, "c": self.c,
                "budget": self.budget, "satisfied": self.satisfied}


def sigma_min(m: float) -> float:
    """min of the isoperimetric profile I over [5m/9, 13m/9].

    I is `iso_function`, exp(-Phi^{-1}(m)^2 / 2) = sqrt(2 pi) phi(Phi^{-1}(m)), so
    sigma_m carries no 1/sqrt(2 pi).  I is unimodal with peak at 1/2, so the
    minimum sits at an endpoint.
    """
    if not (0.0 < m < 9.0 / 13.0):
        raise DomainError(f"sigma_min needs 13m/9 < 1, got m={m}")
    return min(iso_function(5.0 * m / 9.0), iso_function(13.0 * m / 9.0))


def _ratio(A: float, m: float, s: float, P: PerimeterValue, factor: float) -> float:
    """(s/P) (A m / factor), finite where 1/s is not: z0^s with 72 and P_s(E), z1^s with 144
    and P_s(H), and z_max^s with A = m = 1, 8 alpha and P_s(E).  P = 0 raises ResolutionError."""
    if P.value == 0.0:  # no boundary, or K_s P_s underflows for s near 1e-310
        raise ResolutionError(f"perimeter is 0 at s={s}, so the height is undefined")
    return s / P.value * (A * m / factor)


def _height(A: float, m: float, s: float, P: PerimeterValue, factor: float) -> float:
    """`_ratio` to the power 1/s, or inf where that lies past the double range.  A positive
    ratio whose power underflows to 0 admits no z, so it raises ResolutionError; a zero
    ratio (asym(E) = 0) gives 0.0."""
    ratio = _ratio(A, m, s, P, factor)
    try:
        z = ratio ** (1.0 / s)
    except OverflowError:
        return math.inf
    if z == 0.0 and ratio > 0.0:
        raise ResolutionError(f"the height underflows to 0 at s={s}")
    return z


def z_thresholds(E: GaussianSet, s, P_E: PerimeterValue,
                 P_H: PerimeterValue) -> ZThresholds:
    """(z0, z1) = ((s A m / (72 P_E))^{1/s}, (s A m / (144 P_H))^{1/s})."""
    s = check_order(s)
    A, m = asymmetry(E), measure(E)
    return ZThresholds(_height(A, m, s, P_E, 72.0), _height(A, m, s, P_H, 144.0))


def z0_threshold(E: GaussianSet, s, K: int = 10_000, field=None) -> float:
    """z0 of `z_thresholds` with P_E = P_s(E) at truncation K; 0 where asym(E) = 0.
    ``field`` is as in `verify_levelset_closeness`; P_s(E) and asym(E) are read from it."""
    s, m = check_order(s), _require_proper(E)  # asym(E)'s error, named before a bad K
    F = _field_of(E, s, K, field)
    return _height(F.asymmetry, m, s, F.perimeter, 72.0) if F.asymmetry else 0.0


def _exp(x: float) -> float:
    """e^x, or inf where e^x lies past the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_C(s: float, m: float, c: float, P_H: PerimeterValue, A: float) -> float:
    """log(C_{s,m} A^{2/s}); 1/s enters once, as (2 - s) log(q) / s with q = z1^s; -inf at q = 0."""
    if not (0.0 < m <= 0.5):
        raise DomainError(f"constant_C expects m in (0, 1/2] (complement first), got {m}")
    q = _ratio(A, m, s, P_H, 144.0)
    return (math.log(225.0 * sigma_min(m) * A / (10816.0 * m * (2.0 - s))) + 0.5
            - math.log(c) + ((2.0 - s) * math.log(q) / s if q else -math.inf))


def constant_C(s, m: float, c: float, P_H: PerimeterValue) -> float:
    """Explicit stability constant C_{s,m} for measures m <= 1/2:

    C = (225 sqrt(e) / (10816 c)) * sigma_m / (m (2-s)) * (s m / (144 P_H))^{2/s-1},

    the paper's product of powers with its 1/s powers gathered into one (beta_s = 1/s), for
    a positive, finite c.  C is e^{log C}: 0.0 or inf only where C leaves the double range.
    """
    check_positive(c, "constant c")
    return _exp(_log_C(check_order(s), m, c, P_H, 1.0))


def verify_orders(E: GaussianSet, s_values, c: float = 1.0, K: int = 10_000,
                  convention: str = "with_constant") -> list[DeficitReport]:
    """The main-inequality check of E at each order of ``s_values``: deficit >= rhs up to
    the truncation budget.

    c, every order, the measure, the convention and K are checked, in that order,
    before a table is built.  Sets of measure above 1/2 are complemented first, and
    one kernel call builds the tables of the working set and of its halfline H.  Each
    report's m is gamma(E) and its asym, perimeters and deficit are the working set's
    (the complement's above m = 1/2).  When P_E > 2 P_H the reduction branch replaces
    C_{s,m} by P_H / 2^{2/s}, which is what makes the inequality trivial there.
    Main-branch rhs = C asym^{2/s} = (225 sqrt(e) / (10816 c)) sigma_m asym / (m (2-s)) z1^{2-s},
    z1 from `z_thresholds`.  C and rhs are e to one exponent taken at asym = 1 and at
    asym (rhs = 0.0 at asym = 0): 0.0 or inf only where the value leaves the double range.
    c (assumed 1 by default) is recorded.
    """
    check_positive(c, "constant c")
    orders = [check_order(s) for s in s_values]
    m_raw = _require_proper(E)
    _check_convention(convention)
    K = check_truncation(K)
    work = complement(E) if m_raw > 0.5 else E
    H = ehrhard_symmetrize(work).as_set()
    tables = coeff_tables((work,) if H == work else (work, H), K)
    A, m = asymmetry(work), measure(work)
    reports = []
    for s in orders:
        P_E = perimeter_of_table(tables[0], s, convention)
        P_H = perimeter_of_table(tables[-1], s, convention)
        if P_H.value == 0.0:  # K_s P_s(H) underflows for s near 5e-324
            raise ResolutionError(f"P_s(H) underflows to 0 at s={s}, so C_{{s,m}} is undefined")
        deficit = P_E.value - P_H.value
        budget = 2.0 * (P_E.tail_bound + P_H.tail_bound)
        branch = "large_perimeter" if P_E.value > 2.0 * P_H.value else "main"
        log_rhs = ((lambda a: _log_C(s, m, c, P_H, a)) if branch == "main"
                   else lambda a: 2.0 * math.log(a / 2.0) / s + math.log(P_H.value))
        C, rhs = _exp(log_rhs(1.0)), (_exp(log_rhs(A)) if A else 0.0)
        reports.append(DeficitReport(E, s, m_raw, P_E, P_H, deficit, A, C, rhs,
                                     deficit >= rhs - budget, branch, c, budget))
    return reports


def verify_main(E: GaussianSet, s, c: float = 1.0, K: int = 10_000,
                convention: str = "with_constant") -> DeficitReport:
    """`verify_orders` at the one order s: a bad c, order, measure, convention or K
    raises, in that order, before a table is built."""
    return verify_orders(E, (s,), c, K, convention)[0]


def verify_transfer_lemma(E: GaussianSet, F: GaussianSet, kappa: float) -> str:
    """Asymmetry transfer: small relative symmetric difference preserves asymmetry.

    If gamma(F Delta E)/gamma(F) <= kappa * asym(F), then
    asym(E) >= ((1 - 2 kappa)/c_kappa) * asym(F), where c_kappa = 1 when
    gamma(E \\ F) = 0 and 1 + 2 kappa otherwise.  Returns one of 'holds',
    'fails', 'inapplicable' (precondition violated), 'trivial' (asym(F) = 0).
    """
    if not (0.0 < kappa < 0.5):
        raise DomainError(f"kappa must lie in (0, 1/2), got {kappa}")
    mF = _require_proper(F)
    _require_proper(E)
    AF = asymmetry(F)
    if AF == 0.0:
        return TRANSFER_TRIVIAL
    if measure(symm_diff(F, E)) / mF > kappa * AF:
        return TRANSFER_INAPPLICABLE
    c_kappa = 1.0 if measure(set_minus(E, F)) < _NULL_MEASURE else 1.0 + 2.0 * kappa
    ok = asymmetry(E) >= ((1.0 - 2.0 * kappa) / c_kappa) * AF - _NULL_MEASURE
    return TRANSFER_HOLDS if ok else TRANSFER_FAILS


def closeness_z_max(E: GaussianSet, s, alpha: float, K: int = 10_000, field=None) -> float:
    """Upper end of the admissible z-range, (s/(8 alpha P_s(E)))^{1/s}; inf where that
    lies past the double range, as at subnormal s.  ``field`` is as in
    `verify_levelset_closeness`; P_s(E) is read from it."""
    s = check_order(s)
    check_positive(alpha, "alpha")
    return _height(1.0, 1.0, s, _field_of(E, s, K, field).perimeter, 8.0 * alpha)


def _field_of(E: GaussianSet, s: float, K, field) -> ExtensionField:
    """``extension_field(E, s, K)``, or a given ``field`` equal to it, which keeps its values."""
    own = extension_field(E, s, K)
    if field not in (None, own):
        raise DomainError(f"field of {field.set} at (sigma, K) = ({field.sigma}, {field.K}) "
                          f"does not belong to {E} at ({own.sigma}, {own.K})")
    return own if field is None else field


def _check_level(t: float) -> None:
    """Reject a level t outside [1/4, 3/4]; NaN fails the test too."""
    if not (0.25 <= t <= 0.75):
        raise DomainError(f"t must lie in [1/4, 3/4], got {t}")


def verify_levelset_closeness(E: GaussianSet, s, t: float, z: float,
                              alpha: float, K: int = 10_000, field=None) -> bool:
    """Both set differences between E and the level set stay below 1/alpha.  ``field``,
    if given, must be ``extension_field(E, s, K)``; z_max is read from it."""
    s = check_order(s)
    _check_level(t)
    check_positive(alpha, "alpha")
    F = _field_of(E, s, K, field)
    z_max = _height(1.0, 1.0, s, F.perimeter, 8.0 * alpha)
    if not (0.0 < z < z_max):
        raise DomainError(f"z must lie in (0, {z_max}), got {z}")
    rec, budget = level_set_with_budget(F, t, z)
    lo = measure(set_minus(E, rec.set))
    hi = measure(set_minus(rec.set, E))
    bound = 1.0 / alpha + budget
    return lo <= bound and hi <= bound


def verify_levelset_bounds(E: GaussianSet, s, t: float, z: float,
                           K: int = 10_000, field=None) -> bool:
    """Measure closeness and asymmetry retention of the level set at height z.

    Checks |mu_z(t) - m| <= (2/9) m asym(E) and
    asym(E_{t,z}) >= (5/13) asym(E), for t in [1/4, 3/4] and z <= z0, up to the
    level set's budget.  Where that covers (5/13) asym(E) the second holds unread;
    else a level set of measure 0 or 1 fails it.  ``field`` is as in
    `verify_levelset_closeness`; z0 and asym(E) are read from it.
    """
    s = check_order(s)
    _check_level(t)
    m = _require_proper(E)  # the error asym(E) raises, named before a bad K
    F = _field_of(E, s, K, field)
    if (A := F.asymmetry) == 0.0:  # z0 = 0: no z is admissible, and the claim is vacuous
        return True
    z0 = _height(A, m, s, F.perimeter, 72.0)
    if not (0.0 < z <= z0):
        raise DomainError(f"z must lie in (0, z0={z0}], got {z}")
    rec, budget = level_set_with_budget(F, t, z)
    if not abs(rec.mu - m) <= (2.0 / 9.0) * m * A + budget:
        return False
    asym_budget = budget / min(rec.mu, m) if min(rec.mu, m) > 0.0 else math.inf
    least = (5.0 / 13.0) * A - asym_budget
    return least <= 0.0 or (0.0 < rec.mu < 1.0 and asymmetry(rec.set) >= least)
