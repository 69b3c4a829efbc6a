"""The degenerate-elliptic extension U(x, z) of chi_E and its level sets.

At sigma = s/2, U(x, z) = (1/Gamma(sigma)) int_0^inf e^{-u} u^{sigma-1}
(P_{z^2/(4u)} chi_E)(x) du subordinates the Ornstein-Uhlenbeck semigroup P.
Every evaluator sums the one family of rows (P_tau chi_E)(x), exact in x
(``_semigroup_rows``), by one of two rules in u until the level sets move to
the first: ``evaluate_extension`` takes a converged trapezoid in v = -log u,
and ``mehler_extension``, through which ``level_set_with_budget`` extracts
{U(., z) > t}, an n_quad-node generalized Gauss-Laguerre rule that does not
resolve small z (README, "Numerical notes").
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ResolutionError
from .gauss_core import as_order, gamma_fn, laguerre_roots, phi
from .sets import EMPTY, FULL_LINE, GaussianSet, indicator, measure

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
# Node x point entries per Mehler block.  A block builds about ten
# (n_quad x points) float temporaries per endpoint; at 16 384 entries each is
# 128 kB and stays in a core's L2 cache.  Larger blocks spill out of it,
# smaller ones pay numpy call overhead per block (README, "Numerical notes").
_MEHLER_ENTRIES = 16_384
# Phi is taken as exactly 1.0 at arguments >= _NDTR_FLAT, which is what ndtr
# returns there, and as exactly 0.0 at <= -_NDTR_FLAT, where ndtr is at most
# ndtr(-9) = 1.13e-19.
_NDTR_FLAT = 9.0
# Relative margin of the plateau point thresholds against argument rounding.
_PLATEAU_MARGIN = 1e-9
# Level-set thresholds in [0, _MIN_THRESHOLD) lie below the Mehler rule's resolution.
_MIN_THRESHOLD = 1e-12


def _check_sigma(sigma: float) -> None:
    if not (0.0 < sigma < 1.0):
        raise DomainError(f"extension order must lie in (0, 1), got {sigma}")


def _check_positive(value: float, what: str) -> None:
    """Reject NaN, +inf and values <= 0; a NaN would pass a ``<= 0`` test."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{what} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ExtensionField:
    """Extension of order sigma of chi_E."""

    set: GaussianSet
    sigma: float


def extension_field(E: GaussianSet, s, K=None) -> ExtensionField:
    """Extension of order s/2 of chi_E.  K is not read; perfbench passes one."""
    return ExtensionField(E, as_order(s).s / 2.0)


def evaluate_extension(F: ExtensionField, x, z: float):
    """U(x, z) at finite points x and a finite z >= 0: chi_E at z = 0, with 1/2
    at a finite endpoint (``sets.indicator``), and for z > 0

        U = m + (h/Gamma(sigma)) sum_v exp(-e^{-v} - sigma v) ((P_tau chi_E)(x) - m),

    m = gamma(E), tau = (z^2/4) e^v, over v = -6, -6 + h, ... up to
    8 - log(z^2/4) (U = m if that range is empty).  h starts at 1/16 and
    halves at each point whose sum differs from its every-other-node sum by
    more than 1e-8, at most 4 times, and then raises ResolutionError.  A
    point's value reads only its own rows (README, "Numerical notes").
    """
    z = float(z)
    if not 0.0 <= z < math.inf:  # a NaN would pass a ``< 0`` test
        raise DomainError(f"height z must be nonnegative and finite, got {z}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("extension points x must be finite")
    _check_sigma(F.sigma)
    vals = _subordinate(F.set, F.sigma, x.ravel(), z) if z else indicator(F.set, x.ravel())
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


# The v-rule of evaluate_extension: its range, first step, halving check and halvings.
_V_LO, _V_HI, _V_STEP, _V_CHECK, _V_HALVINGS = -6.0, 8.0, 1.0 / 16.0, 1e-8, 4


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
    """Phi(arg) flattened to its plateaus: 1.0 at arg >= 9, 0.0 at arg <= -9,
    and scipy.special.ndtr(arg) in between.

    ndtr is exactly 1.0 from about 8.3 up, so the upper plateau is the value
    ndtr returns there.  Below -9 ndtr is at most ndtr(-9) = 1.13e-19, which
    the lower plateau drops.  A NaN argument stays NaN.
    """
    from scipy.special import ndtr  # imported here: importing the package loads no scipy

    one = arg >= _NDTR_FLAT
    out = one.astype(float)
    live = ~(one | (arg <= -_NDTR_FLAT))
    out[live] = ndtr(arg[live])
    return out


def _semigroup_rows(E: GaussianSet, decay: np.ndarray, d: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Row i holds (P_tau chi_E)(x) at the i-th node of ``_node_constants``,
    for the 1-D array x, clipped to [0, 1]."""
    out = np.zeros((len(decay), x.size))
    for a, b in E.intervals:
        hi = _ndtr_plateau((b - decay * x) / d) if math.isfinite(b) else 1.0
        lo = _ndtr_plateau((a - decay * x) / d) if math.isfinite(a) else 0.0
        out += hi - lo
    return np.clip(out, 0.0, 1.0, out=out)


class _MehlerRule:
    """The n_quad-node subordination rule of U(., z) for E at order sigma.

    decay and d are the columns of ``_node_constants`` at the node times
    tau_i = z^2/(4 u_i), w is the column of normalized weights, and w_total
    their sum in node order, the value at a point where every row is 1 (it
    need not be exactly 1.0).

    The plateau limits run over the finite endpoints e of E, in the one
    form of chi_E (``GaussianSet.signed_endpoints``).  Below
    ``below[j]`` every node's argument (e - decay x)/d at e is at least
    _NDTR_FLAT, so every row's Phi term there is 1; above ``above[j]`` it is
    at most -_NDTR_FLAT and ``_ndtr_plateau`` makes the term 0.  Each limit
    carries a margin far above the rounding of the arguments.  A node with
    decay 0 sees no x, so it leaves no finite point on a plateau; the limits
    are capped at the largest double, so -inf and +inf always lie on one.  A point on a plateau at every endpoint has
    the same row at every node, 0 or 1: base (``open_right``) plus sign
    (+1 at right ends, -1 at left ends) summed over the endpoints it lies
    below, clipped.
    """

    def __init__(self, E: GaussianSet, sigma: float, z: float, n_quad: int):
        _check_sigma(sigma)
        self.key = (E, sigma, z, n_quad)
        u, w = laguerre_roots(sigma - 1.0, n_quad)
        w = w / np.sum(w)
        self.decay, self.d = _node_constants([z * z / (4.0 * ui) for ui in u])
        self.w, self.w_total = w[:, None], np.add.accumulate(w)[-1]
        c, d = self.decay[:, 0], self.d[:, 0]
        ends = E.signed_endpoints
        below, above = [], []
        # Only nodes with c > 0 are kept.  A tiny c overflows the quotient to the
        # correctly signed infinity, which is the limit rounded to a double.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for e, _ in ends:
                slack = _PLATEAU_MARGIN * (1.0 + abs(e) + _NDTR_FLAT * d)
                below.append(np.where(c > 0.0, (e - _NDTR_FLAT * d - slack) / c, -math.inf).min())
                above.append(np.where(c > 0.0, (e + _NDTR_FLAT * d + slack) / c, math.inf).max())
        # No finite x crosses the cap, and +-inf then gets its limit even at a
        # node with decay 0, where decay * x would be NaN.
        largest = np.finfo(float).max
        self.below, self.above = np.maximum(below, -largest), np.minimum(above, largest)
        self.sign = np.array([sign for _, sign in ends], dtype=np.int64)
        self.base = E.open_right

    @cached_property
    def grid_values(self) -> np.ndarray:
        """U(., z) on LEVELSET_GRID, read-only, computed on first use."""
        E, sigma, z, n_quad = self.key
        vals = mehler_extension(E, sigma, LEVELSET_GRID, z, n_quad)
        vals.flags.writeable = False
        return vals


# A closeness check and the bounds checks at two heights extract at both
# quadrature orders, so one set uses 6 rules, each with a 128 kB grid.
_mehler_rule = lru_cache(maxsize=8)(_MehlerRule)


def mehler_extension(E: GaussianSet, sigma: float, x, z: float,
                     n_quad: int = 80) -> np.ndarray:
    """U(x, z) with the integral over u taken by an ``n_quad``-node generalized
    Gauss-Laguerre rule, normalized so constant data maps to (to rounding) 1.

    The rule does not resolve small z: its smallest node (about 3.5e-3 for
    sigma = 0.25 and 80 nodes) lies far above u = z^2/4, where the
    semigroup time turns large, so the mass below it is missed (README,
    "Numerical notes").

    The value is the node-order weighted sum of the semigroup rows, whose
    Phi terms are flattened to exactly 1 at arguments >= 9 and exactly 0 at
    <= -9 (``_ndtr_plateau``).  Against plain ndtr at every node each term
    moves by at most ndtr(-9) = 1.13e-19, so U moves by at most that times
    the number of finite endpoints, plus rounding.  A point far enough from
    every endpoint that each node's argument lies on a plateau gets the sum
    directly, 0.0 or the node-order weight sum, and so do x = -inf and
    +inf, whose value is the limit; only the other points are evaluated, in
    blocks of ``_MEHLER_ENTRIES // n_quad`` points (at least one).  A
    point's value reads only its own column, so the block size changes no
    bit, and the result is bit-identical to evaluating the flattened rows at
    every node and point.  A NaN x raises DomainError.
    """
    _check_positive(z, "mehler_extension height z")
    rule = _mehler_rule(E, sigma, z, n_quad)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat_x = x.ravel()
    if np.isnan(flat_x).any():
        raise DomainError("mehler_extension points x must not be NaN")
    under = flat_x[:, None] < rule.below
    acc = np.where(rule.base + under @ rule.sign > 0, rule.w_total, 0.0)
    live = np.flatnonzero(~(under | (flat_x[:, None] > rule.above)).all(axis=1))
    step = max(1, _MEHLER_ENTRIES // n_quad)
    for start in range(0, live.size, step):
        block = live[start:start + step]
        rows = _semigroup_rows(E, rule.decay, rule.d, flat_x[block])
        # In node order: a matmul or a pairwise sum would round differently.
        acc[block] = np.add.accumulate(rule.w * rows, axis=0)[-1]
    return acc.reshape(x.shape)


@dataclass(frozen=True)
class LevelSetRecord:
    """Superlevel set {U(., z) > t} with its Gaussian measure."""

    t: float
    z: float
    set: GaussianSet
    mu: float


_LEVELSET_QUAD = 80


def _predicted_path(lo: float, hi: float, guess: float) -> list[float]:
    """Bisection midpoints of [lo, hi] if the crossing lies at ``guess``:
    the bracket keeps its upper half exactly when guess > mid."""
    mids = []
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if guess > mid:
            lo = mid
        else:
            hi = mid
    return mids


def _extract_level_set(E: GaussianSet, sigma: float, t: float, z: float,
                       n_quad: int) -> GaussianSet:
    vals = _mehler_rule(E, sigma, z, n_quad).grid_values
    sign = vals > t
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    # one [lo, hi, f_lo, f_hi] row of Python floats per bracket
    brackets = np.stack([LEVELSET_GRID[flips], LEVELSET_GRID[flips + 1],
                         vals[flips] - t, vals[flips + 1] - t], axis=1).tolist()
    while active := [b for b in brackets if b[1] - b[0] > _BISECT_TOL]:
        # one of f_lo, f_hi is > 0 and the other <= 0, so the guess is in [lo, hi]
        guesses = [lo + (hi - lo) * (f_lo / (f_lo - f_hi)) for lo, hi, f_lo, f_hi in active]
        paths = [_predicted_path(b[0], b[1], g) for b, g in zip(active, guesses)]
        f_all = (mehler_extension(E, sigma, np.concatenate(paths), z, n_quad) - t).tolist()
        # Replay each path with the bisection rule up to and including its
        # first mispredicted step; the later midpoints of that path are unused.
        offset = 0
        for b, g, path in zip(active, guesses, paths):
            for mid, f_mid in zip(path, f_all[offset:offset + len(path)]):
                keep_lo = (f_mid > 0.0) == (b[2] > 0.0)
                if keep_lo:
                    b[0], b[2] = mid, f_mid
                else:
                    b[1], b[3] = mid, f_mid
                if keep_lo != (g > mid):
                    break
            offset += len(path)
    # the crossings alternate between entering and leaving the set
    edges = ([-math.inf] if sign[0] else []) + [0.5 * (lo + hi) for lo, hi, _, _ in brackets] \
        + ([math.inf] if sign[-1] else [])
    return GaussianSet.from_intervals(zip(edges[::2], edges[1::2]))


def level_set_with_budget(F: ExtensionField, t: float, z: float) -> tuple[LevelSetRecord, float]:
    """Superlevel set of x -> U(x, z) by grid bracketing plus bisection, with
    a data-driven resolution budget for its measure.

    Evaluation goes through ``mehler_extension``, whose values stay in
    [0, 1].  The grid covers [-8, 8] with step 1e-3; the Gaussian
    mass outside is below 1e-15.  At small z most grid points lie where every
    node's Phi term is exactly 0 or 1, and ``mehler_extension`` gives those
    their value without evaluating them, so the grid costs little more than
    the points near the endpoints of E.

    Every grid cell where U - t changes sign is a bracket, bisected to
    width 1e-10.  The bisection is speculative: a bracket's linear
    interpolation guess predicts every decision of its remaining bisection,
    the predicted midpoints of all brackets go into one Mehler call, and each
    bracket then replays its path with the bisection rule up to and
    including the first step whose decision differs from the prediction.
    That step is resolved too, so each round advances each bracket by at
    least one step, and the crossings are the ones plain bisection gives,
    bit for bit, whatever the guesses (a Mehler value does not depend on the
    other points of its call).  An extraction then takes a few calls after
    the grid instead of one per bisection step (24 from the grid step down
    to the tolerance).  A grid without a sign change gives the full line or
    the empty set.

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
    _check_positive(z, "level-set height z")
    if not math.isfinite(t):
        raise DomainError(f"level-set threshold must be finite, got {t}")
    if t >= 1.0:
        return LevelSetRecord(t, z, EMPTY, 0.0), 0.0
    if t < 0.0:  # U >= 0 everywhere
        return LevelSetRecord(t, z, FULL_LINE, 1.0), 0.0
    if t < _MIN_THRESHOLD:
        raise ResolutionError(f"level-set threshold t={t} lies below the resolution "
                              f"{_MIN_THRESHOLD} of the Mehler rule")
    E_tz = _extract_level_set(F.set, F.sigma, t, z, _LEVELSET_QUAD)
    mu = measure(E_tz)
    mu_half = measure(_extract_level_set(F.set, F.sigma, t, z, _LEVELSET_QUAD // 2))
    outside_mass = math.erfc(LEVELSET_GRID_HALFWIDTH / math.sqrt(2.0))
    ends = F.set.finite_endpoints
    narrow = sum(phi(b) - phi(a) for a, b in zip(ends, ends[1:])
                 if b - a < 2.0 * LEVELSET_GRID_STEP)
    budget = 2.0 * abs(mu - mu_half) + outside_mass + 8.0 * _BISECT_TOL + narrow
    return LevelSetRecord(t, z, E_tz, mu), budget
