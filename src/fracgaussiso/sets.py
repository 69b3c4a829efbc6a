"""Interval-set algebra on the line under the standard Gaussian measure.

A GaussianSet is a finite union of disjoint open intervals with extended-real
endpoints, kept in a unique canonical form (sorted, merged at touching
endpoints).  Since gamma_1 has no atoms, the open/closed convention is
measure-irrelevant; canonical form just makes equality testable.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DegenerateSetError, DomainError, SetParseError
from .gauss_core import phi, phi_inv

__all__ = [
    "GaussianSet",
    "Halfline",
    "EMPTY",
    "FULL_LINE",
    "parse_set",
    "halfline",
    "interval",
    "measure",
    "complement",
    "intersect",
    "union",
    "symm_diff",
    "set_minus",
    "reflect",
    "ehrhard_symmetrize",
    "asymmetry",
    "best_halfline",
    "indicator",
]

INF = math.inf


@dataclass(frozen=True)
class GaussianSet:
    """Canonical finite union of disjoint open intervals (a_i, b_i).

    ``signed_endpoints``, ``finite_endpoints`` and ``open_right`` are computed
    on first read and kept on the instance: the set is immutable, so they
    cannot go stale, and equality and hashing read only ``intervals``.
    """

    intervals: tuple[tuple[float, float], ...]

    @staticmethod
    def from_intervals(pairs: Iterable[tuple[float, float]]) -> "GaussianSet":
        cleaned = []
        for a, b in pairs:
            a, b = float(a), float(b)
            if math.isnan(a) or math.isnan(b):
                raise DomainError("interval endpoints must not be NaN")
            if not a < b:
                raise DomainError(f"empty or inverted interval ({a}, {b})")
            cleaned.append((a, b))
        cleaned.sort()
        merged: list[tuple[float, float]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                la, lb = merged[-1]
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        return GaussianSet(tuple(merged))

    @cached_property
    def signed_endpoints(self) -> tuple[tuple[float, int], ...]:
        """(e, -1) at each finite left end and (e, +1) at each finite right end, in order.

        With ``open_right`` this is the one form of chi_E that the coefficient
        table and the PDE boundary data read: off the
        endpoints, chi_E = open_right + sum_e sign_e chi_(-inf, e).
        """
        return tuple((e, sign) for ab in self.intervals for e, sign in zip(ab, (-1, 1))
                     if math.isfinite(e))

    @cached_property
    def open_right(self) -> int:
        """The number of intervals open to +inf (0 or 1 in canonical form)."""
        return sum(1 for _, b in self.intervals if b == INF)

    @cached_property
    def finite_endpoints(self) -> tuple[float, ...]:
        return tuple(e for e, _ in self.signed_endpoints)

    def __str__(self) -> str:
        if not self.intervals:
            return "(empty)"
        return "|".join(f"({a!r},{b!r})" for a, b in self.intervals)


EMPTY = GaussianSet(())
FULL_LINE = GaussianSet(((-INF, INF),))

_WS = re.compile(r"\s*")
_BOUND_RE = re.compile(r"[+-]?(?:inf|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)")


def parse_set(text: str) -> GaussianSet:
    """Read the text that ``str(E)`` writes for a non-empty set E.

    set := interval ("|" interval)*; interval := "(" bound "," bound ")";
    bound := [+-](decimal | "inf"). Whitespace may stand around every token.
    A SetParseError carries the character index in ``text`` where reading failed.
    """
    pairs, pos = [], 0
    while True:
        bounds = []
        for token in "(n,n)":
            pos = _WS.match(text, pos).end()
            if token == "n":
                m = _BOUND_RE.match(text, pos)
                if m is None:
                    raise SetParseError("expected a number, 'inf' or '-inf'", pos)
                bounds.append((float(m.group()), pos))
                pos = m.end()
            elif text.startswith(token, pos):
                pos += 1
            else:
                raise SetParseError(f"expected {token!r}", pos)
        (a, a_pos), (b, _) = bounds
        if not a < b:
            raise SetParseError(f"inverted or empty interval ({a}, {b})", a_pos)
        pairs.append((a, b))
        pos = _WS.match(text, pos).end()
        if pos == len(text):
            return GaussianSet.from_intervals(pairs)
        if text[pos] != "|":
            raise SetParseError("expected '|' between intervals", pos)
        pos += 1


def _finite(r: float) -> float:
    if not math.isfinite(r := float(r)):
        raise DomainError(f"halfline threshold must be finite, got {r}")
    return r


@dataclass(frozen=True)
class Halfline:
    """Halfline (-inf, r) for orientation 'left', (r, inf) for 'right'."""

    orientation: str
    threshold: float

    def __post_init__(self):
        if self.orientation not in ("left", "right"):
            raise DomainError(f"orientation must be 'left' or 'right', got {self.orientation!r}")
        _finite(self.threshold)

    def as_set(self) -> GaussianSet:
        if self.orientation == "left":
            return GaussianSet(((-INF, self.threshold),))
        return GaussianSet(((self.threshold, INF),))


def halfline(r: float, orientation: str = "left") -> GaussianSet:
    return Halfline(orientation, r).as_set()


def interval(a: float, b: float) -> GaussianSet:
    return GaussianSet.from_intervals([(a, b)])


def indicator(E: GaussianSet, x: np.ndarray) -> np.ndarray:
    """chi_E at the points x from its one form open_right + sum_e sign_e chi_(-inf, e)
    (``signed_endpoints``): exactly 0 or 1, and 1/2 at a finite endpoint."""
    return sum((sign * np.heaviside(e - x, 0.5) for e, sign in E.signed_endpoints),
               np.full_like(x, E.open_right))


def measure(E: GaussianSet) -> float:
    """gamma_1(E) = sum_i Phi(b_i) - Phi(a_i)."""
    total = math.fsum(phi(b) - phi(a) for a, b in E.intervals)
    return min(1.0, max(0.0, total))


def complement(E: GaussianSet) -> GaussianSet:
    pieces = []
    prev = -INF
    for a, b in E.intervals:
        if prev < a:
            pieces.append((prev, a))
        prev = b
    if prev < INF:
        pieces.append((prev, INF))
    return GaussianSet(tuple(pieces))


def intersect(E: GaussianSet, F: GaussianSet) -> GaussianSet:
    pieces = []
    for a, b in E.intervals:
        for c, d in F.intervals:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                pieces.append((lo, hi))
    return GaussianSet.from_intervals(pieces)


def union(E: GaussianSet, F: GaussianSet) -> GaussianSet:
    pieces = E.intervals + F.intervals
    return GaussianSet.from_intervals(pieces)


def set_minus(E: GaussianSet, F: GaussianSet) -> GaussianSet:
    return intersect(E, complement(F))


def symm_diff(E: GaussianSet, F: GaussianSet) -> GaussianSet:
    return union(set_minus(E, F), set_minus(F, E))


def reflect(E: GaussianSet) -> GaussianSet:
    pieces = [(-b, -a) for a, b in E.intervals]
    return GaussianSet.from_intervals(pieces)


def _require_proper(E: GaussianSet) -> float:
    """gamma(E), for a set E of measure in (0, 1): the one proper-set check."""
    m = measure(E)
    if m <= 0.0 or m >= 1.0:
        raise DegenerateSetError(f"set {E} needs measure in (0, 1), got {m}")
    return m


def ehrhard_symmetrize(E: GaussianSet) -> Halfline:
    """Left halfline of equal Gaussian measure."""
    m = _require_proper(E)
    return Halfline("left", phi_inv(m))


def best_halfline(E: GaussianSet) -> tuple[float, Halfline]:
    """Fraenkel asymmetry together with a minimizing halfline.

    In one dimension the minimum over halfspace orientations collapses to the
    two halflines of measure gamma_1(E); ties go to the left orientation.
    """
    m = _require_proper(E)
    left = Halfline("left", phi_inv(m))
    # Phi^-1(1 - m) = -Phi^-1(m), which holds also where 1 - m rounds to 1
    right = Halfline("right", -left.threshold)
    ratio_left = measure(symm_diff(E, left.as_set())) / m
    ratio_right = measure(symm_diff(E, right.as_set())) / m
    ratio, best = (ratio_left, left) if ratio_left <= ratio_right else (ratio_right, right)
    # phi_inv roundtrip noise leaves ~1e-16 residue on exact halflines
    if ratio < 1e-12:
        ratio = 0.0
    return ratio, best


def asymmetry(E: GaussianSet) -> float:
    """Gaussian Fraenkel asymmetry of E."""
    return best_halfline(E)[0]
