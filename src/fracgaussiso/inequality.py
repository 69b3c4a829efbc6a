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

from .errors import DegenerateSetError, DomainError
from .extension import extension_field, level_set_with_budget
from .gauss_core import FractionalOrder, as_order, beta_coefficient, iso_function
from .sets import (GaussianSet, asymmetry, complement, ehrhard_symmetrize,
                   measure, set_minus, symm_diff)
from .spectral import PerimeterValue, perimeter_spectral

__all__ = [
    "DeficitReport",
    "ConstantParams",
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
class ConstantParams:
    """Free parameters of the stability constant.

    c is the absolute constant of the halfspace stability input; its true
    value is not numerically known, so c = 1.0 is an assumption and every
    report records the value actually used.
    """

    c: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.c < math.inf):
            raise DomainError(f"constant c must be positive and finite, got {self.c}")


@dataclass(frozen=True)
class ZThresholds:
    """Height thresholds (z0 for the level-set bounds, z1 for the reduction)."""

    z0: float
    z1: float


@dataclass(frozen=True)
class DeficitReport:
    """One run of the main-inequality check on a single set."""

    E: GaussianSet
    s: FractionalOrder
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


def _height(A: float, m: float, order: FractionalOrder, P: PerimeterValue,
            factor: float) -> float:
    """(A m / (factor beta_s P))^{1/s}: z0 with 72 and P_s(E), z1 with 144 and
    P_s(H), and the closeness limit with A = m = 1, 8 alpha and P_s(E)."""
    return (A * m / (factor * beta_coefficient(order.s) * P.value)) ** (1.0 / order.s)


def z_thresholds(E: GaussianSet, s, P_E: PerimeterValue,
                 P_H: PerimeterValue) -> ZThresholds:
    """(z0, z1) = ((A m / (72 beta_s P_E))^{1/s}, (A m / (144 beta_s P_H))^{1/s})."""
    order = as_order(s)
    A, m = asymmetry(E), measure(E)
    return ZThresholds(_height(A, m, order, P_E, 72.0), _height(A, m, order, P_H, 144.0))


def z0_threshold(E: GaussianSet, s, K: int = 10_000) -> float:
    """z0 of `z_thresholds` with P_E = P_s(E) at truncation K; 0 when asym(E) = 0.

    The level-set bounds read z0 alone, so no symmetrized halfline is built.
    """
    order = as_order(s)
    A = asymmetry(E)
    return _height(A, measure(E), order, perimeter_spectral(E, order, K), 72.0) if A else 0.0


def constant_C(s, m: float, params: ConstantParams, P_H: PerimeterValue) -> float:
    """Explicit stability constant C_{s,m} for measures m <= 1/2.

    C = (3^{4-4/s} * 25 / (169 c)) * (1/2)^{8/s+2} * (sqrt(e)/(2-s))
        * sigma_m * m^{2/s-2} / (beta_s * P_H)^{2/s-1}
    """
    order = as_order(s)
    if not (0.0 < m <= 0.5):
        raise DomainError(f"constant_C expects m in (0, 1/2] (complement first), got {m}")
    sv = order.s
    sig = sigma_min(m)
    beta = beta_coefficient(sv)
    return (3.0 ** (4.0 - 4.0 / sv) * 25.0 / (169.0 * params.c)) \
        * 0.5 ** (8.0 / sv + 2.0) \
        * (math.sqrt(math.e) / (2.0 - sv)) \
        * sig * m ** (2.0 / sv - 2.0) \
        / (beta * P_H.value) ** (2.0 / sv - 1.0)


def verify_main(E: GaussianSet, s, params: ConstantParams = ConstantParams(),
                K: int = 10_000, convention: str = "with_constant") -> DeficitReport:
    """Full main-inequality check: deficit >= rhs up to the truncation budget.

    Sets of measure above 1/2 are complemented first; perimeter, deficit and
    the (normalized) asymmetry are invariant under that, so the report is
    unambiguous.  When P_E > 2 P_H the reduction branch replaces C_{s,m} by
    P_H / 2^{2/s}, which is what makes the inequality trivial there.
    """
    order = as_order(s)
    m_raw = measure(E)
    if not (0.0 < m_raw < 1.0):
        raise DegenerateSetError(f"verify_main needs measure in (0, 1), got {m_raw}")
    work = complement(E) if m_raw > 0.5 else E
    m = measure(work)
    H = ehrhard_symmetrize(work).as_set()
    P_E = perimeter_spectral(work, order, K, convention)
    P_H = perimeter_spectral(H, order, K, convention)
    deficit = P_E.value - P_H.value
    A = asymmetry(work)
    budget = 2.0 * (P_E.tail_bound + P_H.tail_bound)
    if P_E.value > 2.0 * P_H.value:
        branch = "large_perimeter"
        C = P_H.value / 2.0 ** (2.0 / order.s)
    else:
        branch = "main"
        C = constant_C(order, m, params, P_H)
    rhs = C * A ** (2.0 / order.s)
    satisfied = deficit >= rhs - budget
    return DeficitReport(E, order, m_raw, P_E, P_H, deficit, A, C, rhs,
                         satisfied, branch, params.c, budget)


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
    """Upper end of the admissible z-range, (1/(8 alpha beta_s P_s(E)))^{1/s}."""
    order = as_order(s)
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    return _height(1.0, 1.0, order, perimeter_spectral(E, order, K), 8.0 * alpha)


def _field_of(E: GaussianSet, order: FractionalOrder, field):
    """The ExtensionField of E at order s, or ``field`` once checked against it."""
    own = extension_field(E, order)
    if field is None:
        return own
    if field.set != E or field.sigma != own.sigma:
        raise DomainError(f"field of {field.set} at order {field.sigma} does not belong "
                          f"to {E} at order {own.sigma}")
    return field


def verify_levelset_closeness(E: GaussianSet, s, t: float, z: float,
                              alpha: float, K: int = 10_000, field=None) -> bool:
    """Both set differences between E and the level set stay below 1/alpha.

    ``field``, if given, must be the ExtensionField of E at order s/2; a
    field of another set or order raises DomainError.
    """
    order = as_order(s)
    if not (0.25 <= t <= 0.75):
        raise DomainError(f"t must lie in [1/4, 3/4], got {t}")
    z_max = closeness_z_max(E, order, alpha, K)
    if not (0.0 < z < z_max):
        raise DomainError(f"z must lie in (0, {z_max}), got {z}")
    rec, budget = level_set_with_budget(_field_of(E, order, field), t, z)
    lo = measure(set_minus(E, rec.set))
    hi = measure(set_minus(rec.set, E))
    bound = 1.0 / alpha + budget
    return lo <= bound and hi <= bound


def verify_levelset_bounds(E: GaussianSet, s, t: float, z: float,
                           K: int = 10_000, field=None) -> bool:
    """Measure closeness and asymmetry retention of the level set at height z.

    Checks |mu_z(t) - m| <= (2/9) m asym(E) and
    asym(E_{t,z}) >= (5/13) asym(E), for t in [1/4, 3/4] and z <= z0.
    ``field`` is as in `verify_levelset_closeness`.
    """
    order = as_order(s)
    if not (0.25 <= t <= 0.75):
        raise DomainError(f"t must lie in [1/4, 3/4], got {t}")
    m = measure(E)
    A = asymmetry(E)
    if A == 0.0:
        # z0 = 0: the admissible z-range is empty and the claim is vacuous.
        return True
    z0 = z0_threshold(E, order, K)
    if not (0.0 < z <= z0):
        raise DomainError(f"z must lie in (0, z0={z0}], got {z}")
    rec, budget = level_set_with_budget(_field_of(E, order, field), t, z)
    if not abs(rec.mu - m) <= (2.0 / 9.0) * m * A + budget:
        return False
    asym_budget = budget / min(rec.mu, m) if min(rec.mu, m) > 0.0 else math.inf
    return asymmetry(rec.set) >= (5.0 / 13.0) * A - asym_budget
