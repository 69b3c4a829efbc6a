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

from .errors import DegenerateSetError, DomainError, ResolutionError
from .extension import extension_field, level_set_with_budget
from .gauss_core import check_order, check_positive, check_truncation, iso_function
from .sets import (GaussianSet, asymmetry, complement, ehrhard_symmetrize,
                   measure, set_minus, symm_diff)
from .spectral import PerimeterValue, perimeter_spectral

__all__ = [
    "DeficitReport",
    "ZThresholds",
    "sigma_min",
    "z_thresholds",
    "z0_threshold",
    "constant_C",
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

    I is unimodal with peak at 1/2, so the minimum sits at an endpoint.
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
    """`_ratio` to the power 1/s, or inf where that lies past the double range."""
    try:
        return _ratio(A, m, s, P, factor) ** (1.0 / s)
    except OverflowError:
        return math.inf


def z_thresholds(E: GaussianSet, s, P_E: PerimeterValue,
                 P_H: PerimeterValue) -> ZThresholds:
    """(z0, z1) = ((s A m / (72 P_E))^{1/s}, (s A m / (144 P_H))^{1/s})."""
    s = check_order(s)
    A, m = asymmetry(E), measure(E)
    return ZThresholds(_height(A, m, s, P_E, 72.0), _height(A, m, s, P_H, 144.0))


def z0_threshold(E: GaussianSet, s, K: int = 10_000) -> float:
    """z0 of `z_thresholds` with P_E = P_s(E) at truncation K; 0 when asym(E) = 0.

    The level-set bounds read z0 alone, so no symmetrized halfline is built.
    """
    s = check_order(s)
    A, K = asymmetry(E), check_truncation(K)  # K is checked also where A = 0 reads no P
    return _height(A, measure(E), s, perimeter_spectral(E, s, K), 72.0) if A else 0.0


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


def verify_main(E: GaussianSet, s, c: float = 1.0, K: int = 10_000,
                convention: str = "with_constant") -> DeficitReport:
    """Full main-inequality check: deficit >= rhs up to the truncation budget.

    Sets of measure above 1/2 are complemented first; perimeter, deficit and
    the (normalized) asymmetry are invariant under that, so the report is
    unambiguous.  When P_E > 2 P_H the reduction branch replaces C_{s,m} by
    P_H / 2^{2/s}, which is what makes the inequality trivial there.  Main-branch
    rhs = C asym^{2/s} = (225 sqrt(e) / (10816 c)) sigma_m asym / (m (2-s)) z1^{2-s},
    z1 from `z_thresholds`.  C and rhs are e to one exponent taken at asym = 1 and at
    asym (rhs = 0.0 at asym = 0): 0.0 or inf only where the value leaves the double range.
    c (assumed 1 by default) is recorded; a c not positive and finite raises first.
    """
    check_positive(c, "constant c")
    s = check_order(s)
    m_raw = measure(E)
    if not (0.0 < m_raw < 1.0):
        raise DegenerateSetError(f"verify_main needs measure in (0, 1), got {m_raw}")
    work = complement(E) if m_raw > 0.5 else E
    m = measure(work)
    H = ehrhard_symmetrize(work).as_set()
    P_E = perimeter_spectral(work, s, K, convention)
    P_H = perimeter_spectral(H, s, K, convention)
    if P_H.value == 0.0:  # K_s P_s(H) underflows for s near 5e-324
        raise ResolutionError(f"P_s(H) underflows to 0 at s={s}, so C_{{s,m}} is undefined")
    deficit = P_E.value - P_H.value
    A = asymmetry(work)
    budget = 2.0 * (P_E.tail_bound + P_H.tail_bound)
    branch = "large_perimeter" if P_E.value > 2.0 * P_H.value else "main"
    log_rhs = ((lambda a: _log_C(s, m, c, P_H, a)) if branch == "main"
               else lambda a: 2.0 * math.log(a / 2.0) / s + math.log(P_H.value))
    C, rhs = _exp(log_rhs(1.0)), (_exp(log_rhs(A)) if A else 0.0)
    satisfied = deficit >= rhs - budget
    return DeficitReport(E, s, m_raw, P_E, P_H, deficit, A, C, rhs,
                         satisfied, branch, c, budget)


def verify_transfer_lemma(E: GaussianSet, F: GaussianSet, kappa: float) -> str:
    """Asymmetry transfer: small relative symmetric difference preserves asymmetry.

    If gamma(F Delta E)/gamma(F) <= kappa * asym(F), then
    asym(E) >= ((1 - 2 kappa)/c_kappa) * asym(F), where c_kappa = 1 when
    gamma(E \\ F) = 0 and 1 + 2 kappa otherwise.  Returns one of 'holds',
    'fails', 'inapplicable' (precondition violated), 'trivial' (asym(F) = 0).
    """
    if not (0.0 < kappa < 0.5):
        raise DomainError(f"kappa must lie in (0, 1/2), got {kappa}")
    mF = measure(F)
    if mF <= 0.0 or mF >= 1.0 or measure(E) <= 0.0 or measure(E) >= 1.0:
        raise DegenerateSetError("transfer lemma needs proper sets")
    AF = asymmetry(F)
    if AF == 0.0:
        return TRANSFER_TRIVIAL
    if measure(symm_diff(F, E)) / mF > kappa * AF:
        return TRANSFER_INAPPLICABLE
    c_kappa = 1.0 if measure(set_minus(E, F)) < _NULL_MEASURE else 1.0 + 2.0 * kappa
    ok = asymmetry(E) >= ((1.0 - 2.0 * kappa) / c_kappa) * AF - _NULL_MEASURE
    return TRANSFER_HOLDS if ok else TRANSFER_FAILS


def closeness_z_max(E: GaussianSet, s, alpha: float, K: int = 10_000) -> float:
    """Upper end of the admissible z-range, (s/(8 alpha P_s(E)))^{1/s}; inf where that
    lies past the double range, down to the subnormal s."""
    s = check_order(s)
    check_positive(alpha, "alpha")
    return _height(1.0, 1.0, s, perimeter_spectral(E, s, K), 8.0 * alpha)


def _field_of(E: GaussianSet, s: float, field):
    """The ExtensionField of E at order s; a given ``field`` must equal it."""
    own = extension_field(E, s)
    if field not in (None, own):
        raise DomainError(f"field of {field.set} at order {field.sigma} does not belong "
                          f"to {E} at order {own.sigma}")
    return own


def verify_levelset_closeness(E: GaussianSet, s, t: float, z: float,
                              alpha: float, K: int = 10_000, field=None) -> bool:
    """Both set differences between E and the level set stay below 1/alpha.

    ``field``, if given, must be the ExtensionField of E at order s/2; a
    field of another set or order raises DomainError.
    """
    s = check_order(s)
    if not (0.25 <= t <= 0.75):
        raise DomainError(f"t must lie in [1/4, 3/4], got {t}")
    z_max = closeness_z_max(E, s, alpha, K)
    if not (0.0 < z < z_max):
        raise DomainError(f"z must lie in (0, {z_max}), got {z}")
    rec, budget = level_set_with_budget(_field_of(E, s, field), t, z)
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
    `verify_levelset_closeness`.
    """
    s = check_order(s)
    if not (0.25 <= t <= 0.75):
        raise DomainError(f"t must lie in [1/4, 3/4], got {t}")
    m = measure(E)
    A, K = asymmetry(E), check_truncation(K)  # K is checked also where A = 0 reads no P
    if A == 0.0:
        # z0 = 0: the admissible z-range is empty and the claim is vacuous.
        return True
    z0 = z0_threshold(E, s, K)
    if not (0.0 < z <= z0):
        raise DomainError(f"z must lie in (0, z0={z0}], got {z}")
    rec, budget = level_set_with_budget(_field_of(E, s, field), t, z)
    if not abs(rec.mu - m) <= (2.0 / 9.0) * m * A + budget:
        return False
    asym_budget = budget / min(rec.mu, m) if min(rec.mu, m) > 0.0 else math.inf
    least = (5.0 / 13.0) * A - asym_budget
    return least <= 0.0 or (0.0 < rec.mu < 1.0 and asymmetry(rec.set) >= least)
