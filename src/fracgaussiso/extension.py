"""The degenerate-elliptic extension U(x, z) of chi_E and its level sets.

At sigma = s/2, U(x, z) = (1/Gamma(sigma)) int_0^inf e^{-u} u^{sigma-1}
(P_{z^2/(4u)} chi_E)(x) du subordinates the Ornstein-Uhlenbeck semigroup P.
Every evaluator sums the one family of rows (P_tau chi_E)(x), exact in x
(``_semigroup_rows``), by one of two rules in u until the level sets move to
the first: ``evaluate_extension`` takes a converged trapezoid in v = -log u,
and ``mehler_extension`` and the level sets {U(., z) > t} of
``level_set_with_budget`` an n_quad-node generalized Gauss-Laguerre rule that
does not resolve small z.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .errors import DomainError, ResolutionError
from .gauss_core import (check_order, check_positive, check_truncation, gamma_fn,
                         laguerre_roots, ndtr)
from .sets import EMPTY, FULL_LINE, GaussianSet, asymmetry, indicator, interval, measure
from .spectral import PerimeterValue, perimeter_spectral

__all__ = [
    "ExtensionField",
    "LevelSetRecord",
    "extension_field",
    "evaluate_extension",
    "mehler_extension",
    "level_set_with_budget",
    "LEVELSET_GRID",
    "LEVELSET_GRID_HALFWIDTH",
    "LEVELSET_GRID_STEP",
]

LEVELSET_GRID_HALFWIDTH = 8.0
LEVELSET_GRID_STEP = 1e-3
# The bracketing grid of every level-set extraction, shared and read-only.
LEVELSET_GRID = np.linspace(-LEVELSET_GRID_HALFWIDTH, LEVELSET_GRID_HALFWIDTH,
                            int(round(2 * LEVELSET_GRID_HALFWIDTH / LEVELSET_GRID_STEP)) + 1)
LEVELSET_GRID.flags.writeable = False
_BISECT_TOL = 1e-10
_FIRST_PREFETCH = 8  # midpoints a bracket prefetches in its first bisection round
# Node x point entries per Mehler block.  A block builds about ten
# (n_quad x points) float temporaries per endpoint; at 16 384 entries each is
# 128 kB and stays in a core's L2 cache.  Larger blocks spill out of it,
# smaller ones pay numpy call overhead per block.
_MEHLER_ENTRIES = 16_384
# Phi is taken as exactly 1.0 at arguments >= _NDTR_FLAT, which is what ndtr
# returns there, and as exactly 0.0 at <= -_NDTR_FLAT, where ndtr is at most
# ndtr(-9) = 1.13e-19.
_NDTR_FLAT = 9.0
# Relative margin of the plateau point thresholds against argument rounding.
_PLATEAU_MARGIN = 1e-9
# Level-set thresholds in [0, _MIN_THRESHOLD) lie below the Mehler rule's resolution.
_MIN_THRESHOLD = 1e-12
# Level sets bracket on every _CELL-th grid point first and skip a cell whose
# ends clear t by its bound plus _CELL_MARGIN, far above the about 1e-14
# rounding of a node sum.
_CELL, _CELL_MARGIN = 16, 1e-11
# The quadrature order of level sets, and the default of mehler_extension.
_LEVELSET_QUAD = 80


@dataclass(frozen=True)
class ExtensionField:
    """Extension of order sigma of chi_E and the record of E that the level-set checks
    read: ``perimeter`` (P_s(E), s = 2 sigma, at truncation K: half of U's minimal
    weighted energy) and ``asymmetry`` are kept once read; ``==`` reads the fields."""

    set: GaussianSet
    sigma: float
    K: int = 10_000

    @cached_property
    def perimeter(self) -> PerimeterValue:
        return perimeter_spectral(self.set, 2.0 * self.sigma, self.K)

    @cached_property
    def asymmetry(self) -> float:
        return asymmetry(self.set)


def extension_field(E: GaussianSet, s, K: int = 10_000) -> ExtensionField:
    """Extension of order s/2 of chi_E, whose perimeter is read at truncation K; an s
    whose half rounds to 0 (s = 5e-324) raises DomainError."""
    s = check_order(s)
    if s / 2.0 == 0.0:
        raise DomainError(f"extension order s/2 rounds to 0 at s={s}")
    return ExtensionField(E, s / 2.0, check_truncation(K))


def evaluate_extension(F: ExtensionField, x, z: float):
    """U(x, z) at finite points x and a finite z >= 0: chi_E at z = 0, with 1/2
    at a finite endpoint (``sets.indicator``), and for z > 0

        U = m + (h/Gamma(sigma)) sum_v exp(-e^{-v} - sigma v) ((P_tau chi_E)(x) - m),

    m = gamma(E), tau = (z^2/4) e^v, over v = -6, -6 + h, ... up to
    8 - log(z^2/4) (U = m if that range is empty).  h starts at 1/16 and
    halves at each point whose sum differs from its every-other-node sum by
    more than 1e-8, at most 8 times, and then raises ResolutionError: x = 1e28
    on (0, 1) converges at the 5th halving
    (tests/test_extension.py::test_far_out_points_converge_within_the_halvings).  A
    point's value reads only its own rows, and lies within 1e-12 of the 30-digit
    values of tests/golden/extension_oracle.txt
    (tests/test_extension.py::test_evaluate_extension_matches_the_30_digit_oracle).
    """
    z = float(z)
    if not 0.0 <= z < math.inf:  # a NaN would pass a ``< 0`` test
        raise DomainError(f"height z must be nonnegative and finite, got {z}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("extension points x must be finite")
    sigma = check_order(F.sigma, "extension order")
    vals = _subordinate(F.set, sigma, x.ravel(), z) if z else indicator(F.set, x.ravel())
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


# The v-rule of evaluate_extension: its range, first step, halving check and halvings.
_V_LO, _V_HI, _V_STEP, _V_CHECK, _V_HALVINGS = -6.0, 8.0, 1.0 / 16.0, 1e-8, 8


def _subordinate(E: GaussianSet, sigma: float, x: np.ndarray, z: float) -> np.ndarray:
    """The v-rule of ``evaluate_extension`` at the finite points x, z > 0."""
    m = measure(E)
    out = np.full(x.size, m)
    log_q = 2.0 * math.log(0.5 * z)  # log(z^2/4), without underflow of z^2
    if _V_HI - log_q < _V_LO:
        return out
    live, h = np.arange(x.size), _V_STEP
    for _ in range(_V_HALVINGS + 1):
        v = _V_LO + h * np.arange(math.floor((_V_HI - log_q - _V_LO) / h) + 1)
        decay, d = _node_constants([math.exp(vi + log_q) for vi in v])
        w = (h / gamma_fn(sigma)) * np.exp(-np.exp(-v) - sigma * v)[:, None]
        fine, coarse = np.empty(live.size), np.empty(live.size)
        step = max(1, _MEHLER_ENTRIES // v.size)
        for start in range(0, live.size, step):
            terms = w * (_semigroup_rows(E, decay, d, x[live[start:start + step]]) - m)
            # In node order, so that a point's sum does not depend on the others.
            fine[start:start + step] = np.add.accumulate(terms, axis=0)[-1]
            coarse[start:start + step] = 2.0 * np.add.accumulate(terms[::2], axis=0)[-1]
        done = np.abs(fine - coarse) <= _V_CHECK
        out[live[done]] += fine[done]
        live, h = live[~done], 0.5 * h
        if not live.size:
            return np.clip(out, 0.0, 1.0, out=out)
    raise ResolutionError(f"U at z={z}, x={x[live[0]]} not converged in {_V_HALVINGS} halvings")


def _node_constants(taus) -> tuple[np.ndarray, np.ndarray]:
    """Columns of e^{-tau} and sqrt(1 - e^{-2 tau}), one row per time tau.

    Both come from math.exp/math.expm1 (np.exp may differ in the last bit), so
    a row does not depend on the other taus or on the points.
    """
    if min(taus) <= 0.0:
        raise DomainError("semigroup time must be positive; a height z below about "
                          "1e-160 underflows it to 0")
    decay = np.array([[math.exp(-tau)] for tau in taus])
    d = np.array([[math.sqrt(-math.expm1(-2.0 * tau))] for tau in taus])
    return decay, d


def _ndtr_plateau(arg: np.ndarray) -> np.ndarray:
    """Phi(arg) flattened to its plateaus: 1.0 at arg >= 9, 0.0 at arg <= -9, and
    the Cephes port ``gauss_core.ndtr`` (scipy.special.ndtr bit for bit) between.
    ndtr is exactly 1.0 from about 8.3 up; below -9 it is at most ndtr(-9) =
    1.13e-19, which the lower plateau drops.  A NaN argument stays NaN."""
    one = arg >= _NDTR_FLAT
    out = one.astype(float)
    live = ~(one | (arg <= -_NDTR_FLAT))
    out[live] = ndtr(arg[live])
    return out


def _phi_terms(E: GaussianSet, decay: np.ndarray, d: np.ndarray, x: np.ndarray) -> dict:
    """Each finite endpoint e -> its Phi terms, one _ndtr_plateau call on all (e - decay x)/d.
    Near the double max an argument overflows to the infinity of its sign, a plateau."""
    e = np.array(E.finite_endpoints, dtype=float).reshape(-1, 1, 1)
    with np.errstate(over="ignore"):
        arg = (e - decay * x) / d
    return dict(zip(E.finite_endpoints, _ndtr_plateau(arg)))


def _semigroup_rows(E: GaussianSet, decay: np.ndarray, d: np.ndarray,
                    x: np.ndarray, phi: dict | None = None) -> np.ndarray:
    """Row i holds (P_tau chi_E)(x) at the i-th node of ``_node_constants``,
    for the 1-D array x, clipped to [0, 1].  Each endpoint's Phi terms are
    read once from ``phi`` (``_phi_terms`` when not given)."""
    phi = _phi_terms(E, decay, d, x) if phi is None else phi
    out = np.zeros((len(decay), x.size))
    for a, b in E.intervals:
        out += (phi[b] if math.isfinite(b) else 1.0) - (phi[a] if math.isfinite(a) else 0.0)
    return np.clip(out, 0.0, 1.0, out=out)


class _MehlerRule:
    """The n_quad-node subordination rule of U(., z) for E at order sigma.

    decay and d are the columns of ``_node_constants`` at the node times
    tau_i = z^2/(4 u_i), w is the column of normalized weights, and w_total
    their sum in node order, the value where every row is 1 (not always 1.0).

    ``grid`` alone reads the plateau limits of the finite endpoints e of E:
    below ``below[j]`` every node's argument (e - decay x)/d at e is at least
    _NDTR_FLAT, so every Phi term is 1, and above ``above[j]`` at most
    -_NDTR_FLAT, where ``_ndtr_plateau`` makes it 0.  Each limit has a margin
    far above the rounding of the arguments.  A node with decay 0 leaves no
    finite point on a plateau, and makes the limits -inf and inf.
    """

    def __init__(self, E: GaussianSet, sigma: float, z: float, n_quad: int):
        check_order(sigma, "extension order")
        if sigma - 1.0 == -1.0:  # below 5.6e-17 the weight u^(sigma - 1) rounds to 1/u
            raise ResolutionError(f"extension order {sigma} lies below the Mehler rule's")
        self.key = (E, sigma, z, n_quad)
        u, w = laguerre_roots(sigma - 1.0, n_quad)
        w = w / np.sum(w)
        self.decay, self.d = _node_constants([z * z / (4.0 * ui) for ui in u])
        self.w, self.w_total = w[:, None], np.add.accumulate(w)[-1]
        c, d = self.decay, self.d  # node columns: below, each limit is node x endpoint
        e = np.array(E.finite_endpoints, dtype=float)
        slack = _PLATEAU_MARGIN * (1.0 + np.abs(e) + _NDTR_FLAT * d)
        # Only nodes with c > 0 are kept.  A tiny c overflows the quotient to the
        # correctly signed infinity, which is the limit rounded to a double.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            self.below = np.where(c > 0.0, (e - _NDTR_FLAT * d - slack) / c, -math.inf).min(axis=0)
            self.above = np.where(c > 0.0, (e + _NDTR_FLAT * d + slack) / c, math.inf).max(axis=0)

    def node_sum(self, x: np.ndarray, phi: dict | None = None) -> np.ndarray:
        """U at the 1-D points x: the weighted node sum of ``_semigroup_rows``."""
        rows = _semigroup_rows(self.key[0], self.decay, self.d, x, phi)
        # In node order: a matmul or a pairwise sum would round differently.
        return np.add.accumulate(self.w * rows, axis=0)[-1]

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """U(., z) on LEVELSET_GRID, NaN at every point not yet evaluated (at
        first all but every _CELL-th), and each coarse cell's bound V (see
        ``level_set_with_budget``).

        A coarse point is live in an endpoint's window: between its plateau
        limits, or one point past either side.  Each endpoint's Phi terms are
        evaluated once, at the live points, for U there (``node_sum``, as in
        ``mehler_extension``) and V on each cell between two of them.  Off every
        window each term is 1 below its limits and 0 above: U is 0.0 or w_total.
        """
        E, x = self.key[0], LEVELSET_GRID[::_CELL]
        live = np.zeros(x.size, dtype=bool)
        for lo, hi in zip(self.below, self.above):
            live[max(np.searchsorted(x, lo) - 1, 0):np.searchsorted(x, hi, "right") + 1] = True
        at = np.flatnonzero(live)
        phi = _phi_terms(E, self.decay, self.d, x[at])
        flat = {e: (x < lo).astype(float) for e, lo in zip(E.finite_endpoints, self.below)}
        # one node's row: off every window all nodes have it
        coarse = self.w_total * _semigroup_rows(E, self.decay[:1], self.d[:1], x, flat)[0]
        coarse[at] = self.node_sum(x[at], phi)
        bound = np.zeros(x.size - 1)
        for terms in phi.values():  # two live points apart lie on one plateau of each term
            bound[at[:-1]] += np.add.accumulate(self.w * np.abs(np.diff(terms, axis=1)))[-1]
        values = np.full(LEVELSET_GRID.size, math.nan)
        values[::_CELL] = coarse
        return values, bound


# A closeness check and the bounds checks at two heights extract at both
# quadrature orders, so one set uses 6 rules.  Each keeps one 128 kB grid
# array, evaluated at the coarse points and in the cells that the
# thresholds extracted so far could cross.
_mehler_rule = lru_cache(maxsize=8, typed=True)(_MehlerRule)


def mehler_extension(E: GaussianSet, sigma: float, x, z: float,
                     n_quad: int = _LEVELSET_QUAD) -> np.ndarray:
    """U(x, z) with the integral over u taken by an ``n_quad``-node generalized
    Gauss-Laguerre rule, normalized so constant data maps to (to rounding) 1.

    The rule does not resolve small z: its smallest node (about 3.5e-3 for
    sigma = 0.25 and 80 nodes) lies far above u = z^2/4, where the
    semigroup time turns large, so the mass below it is missed.

    The value is the node-order weighted sum of the semigroup rows at every
    point, in blocks of ``_MEHLER_ENTRIES // n_quad`` points (at least one);
    a point's value reads only its own column, so the block size changes no
    bit (tests/test_extension.py::test_mehler_extension_does_not_depend_on_the_block_budget).
    The Phi terms are flattened to exactly 1 at arguments >= 9 and 0 at
    <= -9 (``_ndtr_plateau``), which moves U by at most ndtr(-9) = 1.13e-19
    per finite endpoint, plus rounding
    (tests/test_extension.py::test_mehler_extension_is_within_the_dropped_tail_of_plain_ndtr).
    A NaN or infinite x raises DomainError.
    """
    check_positive(z, "mehler_extension height z")
    rule = _mehler_rule(E, sigma, z, n_quad)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise DomainError("mehler_extension points x must be finite")
    acc, step = np.empty(x.size), max(1, _MEHLER_ENTRIES // n_quad)
    for start in range(0, x.size, step):
        acc[start:start + step] = rule.node_sum(x.ravel()[start:start + step])
    return acc.reshape(x.shape)


@dataclass(frozen=True)
class LevelSetRecord:
    """Superlevel set {U(., z) > t} with its Gaussian measure."""

    t: float
    z: float
    set: GaussianSet
    mu: float


def _predicted_path(lo: float, hi: float, guess: float) -> Iterator[float]:
    """Bisection midpoints of [lo, hi] if the crossing lies at ``guess``:
    the bracket keeps its upper half exactly when guess > mid."""
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        yield mid
        if guess > mid:
            lo = mid
        else:
            hi = mid


def _extract_level_set(rule: _MehlerRule, t: float) -> GaussianSet:
    """{U(., z) > t} under the rule (``level_set_with_budget``).  The coarse
    cells that can hold a crossing of t and are still NaN in the rule's grid
    are filled by one Mehler call, and only they are bracketed and bisected,
    over a memo of U - t that each round fills along ``_predicted_path``."""
    E, sigma, z, n_quad = rule.key
    vals, bound = rule.grid
    coarse, reach = vals[::_CELL], bound + _CELL_MARGIN
    cells = np.flatnonzero((bound > 0.0) & (np.minimum(coarse[:-1], coarse[1:]) - t <= reach)
                           & (t - np.maximum(coarse[:-1], coarse[1:]) <= reach))
    empty = cells[np.isnan(vals[_CELL * cells + 1])]
    if empty.size:
        idx = (_CELL * empty[:, None] + np.arange(1, _CELL)).ravel()
        vals[idx] = mehler_extension(E, sigma, LEVELSET_GRID[idx], z, n_quad)
    idx = _CELL * cells[:, None] + np.arange(_CELL + 1)
    sign = vals[idx] > t
    flips = idx[:, :-1][sign[:, 1:] != sign[:, :-1]]
    # one [lo, hi, f_lo, f_hi, prefetch depth] row of Python numbers per bracket
    brackets = [row + [_FIRST_PREFETCH] for row in np.stack(
        [LEVELSET_GRID[flips], LEVELSET_GRID[flips + 1], vals[flips] - t, vals[flips + 1] - t],
        axis=1).tolist()]
    known = {}  # U(x) - t at every bisection point evaluated so far
    while active := [b for b in brackets if b[1] - b[0] > _BISECT_TOL]:
        # one of f_lo, f_hi is > 0 and the other <= 0, so the guess is in [lo, hi]
        x = np.array([mid for lo, hi, f_lo, f_hi, depth in active for mid in islice(
            _predicted_path(lo, hi, lo + (hi - lo) * (f_lo / (f_lo - f_hi))), depth)])
        known.update(zip(x.tolist(), (mehler_extension(E, sigma, x, z, n_quad) - t).tolist()))
        for b in active:  # plain bisection, while the next midpoint is known
            b[4] = 2  # and 2 more per step, the depth of the next round
            while b[1] - b[0] > _BISECT_TOL and (
                    f_mid := known.get(mid := 0.5 * (b[0] + b[1]))) is not None:
                if (f_mid > 0.0) == (b[2] > 0.0):
                    b[0], b[2] = mid, f_mid
                else:
                    b[1], b[3] = mid, f_mid
                b[4] += 2
    # the crossings alternate between entering and leaving the set
    edges = ([-math.inf] if vals[0] > t else []) + [0.5 * (lo + hi) for lo, hi, *_ in brackets] \
        + ([math.inf] if vals[-1] > t else [])
    return GaussianSet.from_intervals(zip(edges[::2], edges[1::2]))


def level_set_with_budget(F: ExtensionField, t: float, z: float) -> tuple[LevelSetRecord, float]:
    """Superlevel set of x -> U(x, z) by grid bracketing plus bisection, with
    a data-driven resolution budget for its measure.

    U is the Mehler rule's node sum, which stays in [0, 1].  The grid
    covers [-8, 8] with step 1e-3; the Gaussian mass outside is below
    1e-15.  U is evaluated first at every 16th grid point, by the rule's
    ``grid``.  Each coarse cell between two of them gets the bound
    V = sum_i w_i sum_e |Phi_ie(right end) - Phi_ie(left end)| over the nodes
    i and finite endpoints e: every plateau-flattened Phi term is monotone in
    x and every weight positive, so U moves by at most V inside the cell.  A
    cell with V = 0 has the same rows at all its points, and one whose ends
    both clear t by V + 1e-11 (far above the rounding of a node sum) keeps
    the sign of its ends; neither can hold a crossing.  The other cells are
    evaluated at every grid point, once per rule: each t fills those of its
    cells that no earlier t of the rule filled.  So the grid signs, and
    every bracket below, are those of the full grid, bit for bit.

    Every grid cell where U - t changes sign is a bracket, bisected to
    width 1e-10 (24 steps from the grid step) by plain bisection over a memo
    of U - t.  Each round, one Mehler call adds to the memo the first
    midpoints that each bracket's linear interpolation guess predicts (8,
    then 2 plus twice the steps it took in the last round), and each bracket
    then bisects while its next midpoint is in the memo; its first midpoint
    always is.  A Mehler value does not depend on the other points of its
    call, so the prefetch changes only the cost: about 4 calls per extraction
    and 31 points per crossing.  A grid without a sign change gives the full
    line or the empty set.

    The budget compares the extraction at the working quadrature order with
    one at half the order (the dominant controllable error), plus the
    neglected mass outside the grid, the bisection tolerance, and the mass of
    each part between consecutive finite endpoints of E (a component or a
    gap) narrower than two grid steps, which one cell can hide.  Since
    0 <= U <= 1, a threshold t >= 1 gives the empty set and t < 0 the full
    line, both with budget 0.  A threshold 0 <= t < 1e-12 raises
    ResolutionError: the crossings of such a level sit where U is made of
    Phi's far tails, which the rule flattens to 0 below 1.13e-19 and ndtr
    underflows to 0 further out, so they say nothing about the set.
    """
    check_positive(z, "level-set height z")
    if not math.isfinite(t):
        raise DomainError(f"level-set threshold must be finite, got {t}")
    if t >= 1.0:
        return LevelSetRecord(t, z, EMPTY, 0.0), 0.0
    if t < 0.0:  # U >= 0 everywhere
        return LevelSetRecord(t, z, FULL_LINE, 1.0), 0.0
    if t < _MIN_THRESHOLD:
        raise ResolutionError(f"level-set threshold t={t} lies below the resolution "
                              f"{_MIN_THRESHOLD} of the Mehler rule")
    E_tz = _extract_level_set(_mehler_rule(F.set, F.sigma, z, _LEVELSET_QUAD), t)
    mu = measure(E_tz)
    mu_half = measure(_extract_level_set(_mehler_rule(F.set, F.sigma, z, _LEVELSET_QUAD // 2), t))
    outside_mass = math.erfc(LEVELSET_GRID_HALFWIDTH / math.sqrt(2.0))
    ends = F.set.finite_endpoints
    narrow = sum(measure(interval(a, b)) for a, b in zip(ends, ends[1:])
                 if b - a < 2.0 * LEVELSET_GRID_STEP)
    budget = 2.0 * abs(mu - mu_half) + outside_mass + 8.0 * _BISECT_TOL + narrow
    return LevelSetRecord(t, z, E_tz, mu), budget
