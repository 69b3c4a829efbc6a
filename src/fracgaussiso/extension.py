"""Spectral form of the degenerate-elliptic extension of chi_E.

The extension of order sigma acts mode by mode: the Hermite coefficient f_k
picks up the subordination factor psi_sigma(sqrt(k) z), where

    psi_sigma(xi) = (1/Gamma(sigma)) int_0^inf e^{-u - xi^2/(4u)} u^{sigma-1} du.

For perimeters of order s the relevant extension order is sigma = s/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._kernels_py import hermite_weighted_series
from .errors import DomainError, QuadratureError, ResolutionError
from .gauss_core import as_order, gamma_fn, k_coefficient, laguerre_roots
from .sets import EMPTY, GaussianSet, measure
from .spectral import coeff_table

__all__ = [
    "ExtensionField",
    "LevelSetRecord",
    "profile_psi",
    "psi_bulk",
    "extension_field",
    "evaluate_extension",
    "trace_gap",
    "boundary_flux_check",
    "boundary_flux_richardson",
    "mehler_semigroup",
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
_MAX_CROSSINGS = 64
# Points per Mehler block: each (n_quad x block) temporary stays under 1 MB.
_MEHLER_BLOCK = 1024
# ndtr is exactly 1.0 at arguments >= _NDTR_ONE and exactly 0.0 at <= _NDTR_ZERO.
_NDTR_ONE = 9.0
_NDTR_ZERO = -40.0
# Relative margin of the plateau point thresholds against argument rounding.
_PLATEAU_MARGIN = 1e-9
# The heights z whose boundary fluxes boundary_flux_richardson extrapolates.
_FLUX_HEIGHTS = (1e-2, 1e-3, 1e-4)


def _check_sigma(sigma: float) -> None:
    if not (0.0 < sigma < 1.0):
        raise DomainError(f"extension order must lie in (0, 1), got {sigma}")


def _check_positive(value: float, what: str) -> None:
    """Reject NaN, +inf and values <= 0; a NaN would pass a ``<= 0`` test."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{what} must be positive and finite, got {value}")


def profile_psi(sigma: float, xi: float) -> float:
    """Subordination profile by adaptive quadrature, split at the saddle.

    This is the reference evaluator; ``psi_bulk`` is the fast path used for
    whole coefficient vectors and is cross-checked against this one.
    """
    from scipy import integrate  # imported here: this is its only user

    _check_sigma(sigma)
    if xi < 0.0:
        raise DomainError("profile argument must be nonnegative")
    if xi == 0.0:
        return 1.0
    if xi > 600.0:
        return 0.0  # below double-precision underflow of e^{-xi}
    g = gamma_fn(sigma)

    def integrand(u: float) -> float:
        return math.exp(-u - xi * xi / (4.0 * u)) * u ** (sigma - 1.0)

    split = max(sigma, 0.5 * xi)
    total = 0.0
    for lo, hi in ((0.0, split), (split, math.inf)):
        val, err = integrate.quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-12, limit=200)
        if not math.isfinite(val):
            raise QuadratureError(f"profile quadrature failed at sigma={sigma}, xi={xi}")
        total += val
    return total / g


def psi_bulk(sigma: float, xi) -> np.ndarray:
    """Vectorized profile via the scaled modified Bessel function K_sigma.

    psi_sigma(xi) = (2/Gamma(sigma)) (xi/2)^sigma K_sigma(xi); evaluated with
    the exponentially scaled kve for stability at large arguments.
    """
    from scipy.special import kve  # imported here: importing the package loads no scipy

    _check_sigma(sigma)
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    pos = xi > 0.0
    xp = xi[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (2.0 / gamma_fn(sigma)) * (0.5 * xp) ** sigma \
            * np.exp(-xp) * kve(sigma, xp)
    out[pos] = np.where(np.isfinite(vals), vals, 0.0)
    return out


@dataclass(frozen=True)
class ExtensionField:
    """Extension of order sigma of chi_E.  Its Hermite series stops after the
    mode K and reads ``coeff_table(set, K)``; the Mehler form reads no K."""

    set: GaussianSet
    sigma: float
    K: int

    def psi_factors(self, z: float) -> np.ndarray:
        """psi_sigma(sqrt(k) z) for k = 0..K (the k = 0 factor is 1)."""
        z = float(z)
        if not 0.0 <= z < math.inf:  # a NaN would pass a ``< 0`` test
            raise DomainError(f"height z must be nonnegative and finite, got {z}")
        return psi_bulk(self.sigma, np.sqrt(np.arange(self.K + 1, dtype=float)) * z)


def extension_field(E: GaussianSet, s, K: int = 10_000) -> ExtensionField:
    """Extension of order s/2 of chi_E, truncated after the mode K."""
    sigma = as_order(s).s / 2.0
    if K < 0:
        raise DomainError("truncation index must be nonnegative")
    return ExtensionField(E, sigma, K)


def evaluate_extension(F: ExtensionField, x, z: float):
    """Truncated series value U(x, z); at z = 0 this is the Hermite series of chi_E."""
    c = F.psi_factors(z) * coeff_table(F.set, F.K)  # a bad z raises before the table is built
    x = np.asarray(x, dtype=float)
    vals = hermite_weighted_series(c, np.atleast_1d(x))
    return float(vals[0]) if x.ndim == 0 else vals


def trace_gap(E: GaussianSet, s, z: float, K: int = 10_000) -> float:
    """int_E (1 - U_E(., z)) dgamma = sum_{k>=1} f_k^2 (1 - psi_{s/2}(sqrt(k) z))."""
    _check_positive(z, "trace gap height z")
    psi = extension_field(E, s, K).psi_factors(z)
    f = coeff_table(E, K)
    return float(np.sum(f[1:] ** 2 * (1.0 - psi[1:])))


def boundary_flux_check(sigma: float, k: int, z: float) -> tuple[float, float]:
    """(numerical flux -z^{1-2 sigma} d/dz psi_sigma(sqrt(k) z), K_{2 sigma} k^sigma).

    The two entries converge to each other as z -> 0+.
    """
    _check_sigma(sigma)
    if k < 0:
        raise DomainError("mode index must be nonnegative")
    if not (0.0 < z <= 0.1):
        raise DomainError("flux check expects z in (0, 0.1]")
    if k == 0:
        return 0.0, 0.0
    sk = math.sqrt(float(k))
    h = z * 1e-4
    psi_p = float(psi_bulk(sigma, np.array([sk * (z + h)]))[0])
    psi_m = float(psi_bulk(sigma, np.array([sk * (z - h)]))[0])
    dpsi_dz = (psi_p - psi_m) / (2.0 * h)
    left = -(z ** (1.0 - 2.0 * sigma)) * dpsi_dz
    right = k_coefficient(2.0 * sigma) * float(k) ** sigma
    return left, right


def boundary_flux_richardson(sigma: float, k: int) -> tuple[float, float]:
    """Richardson-extrapolated flux limit against the exact K_{2 sigma} k^sigma.

    The finite-z flux deviates like z^{2-2 sigma}; consecutive pairs of the
    heights 1e-2, 1e-3, 1e-4 are combined with that exponent and the deepest
    level is returned.
    """
    vals = [boundary_flux_check(sigma, k, z)[0] for z in _FLUX_HEIGHTS]
    if k == 0:
        return 0.0, 0.0
    q = 2.0 - 2.0 * sigma
    level = list(_FLUX_HEIGHTS)
    while len(vals) > 1:
        new_vals = []
        for i in range(len(vals) - 1):
            rho = (level[i + 1] / level[i]) ** q
            new_vals.append((vals[i + 1] - rho * vals[i]) / (1.0 - rho))
        vals = new_vals
        level = level[1:]
    right = k_coefficient(2.0 * sigma) * float(k) ** sigma
    return vals[0], right


def _node_constants(taus) -> tuple[np.ndarray, np.ndarray]:
    """Columns of e^{-tau} and sqrt(1 - e^{-2 tau}), one row per time tau.

    Both come from math.exp/math.expm1 (np.exp may differ in the last bit), so
    a row does not depend on the other taus or on the points.
    """
    if min(taus) <= 0.0:
        raise DomainError("semigroup time must be positive")
    decay = np.array([[math.exp(-tau)] for tau in taus])
    d = np.array([[math.sqrt(-math.expm1(-2.0 * tau))] for tau in taus])
    return decay, d


def _ndtr_plateau(arg: np.ndarray) -> np.ndarray:
    """scipy.special.ndtr(arg), calling ndtr only where -40 < arg < 9.

    ndtr is exactly 1.0 from about 8.3 up and exactly 0.0 from about -37.7
    down, so the plateau values written at or beyond the limits are the ones
    ndtr returns there.
    """
    from scipy.special import ndtr  # imported here: importing the package loads no scipy

    one = arg >= _NDTR_ONE
    out = one.astype(float)
    live = ~(one | (arg <= _NDTR_ZERO))
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


def mehler_semigroup(E: GaussianSet, tau: float, x: np.ndarray) -> np.ndarray:
    """Ornstein-Uhlenbeck semigroup on an indicator, in closed form.

    (P_tau chi_E)(x) = sum_i Phi((b_i - e^{-tau} x)/d) - Phi((a_i - e^{-tau} x)/d),
    d = sqrt(1 - e^{-2 tau}).
    """
    _check_positive(tau, "semigroup time")
    x = np.asarray(x, dtype=float)
    decay, d = _node_constants((tau,))
    return _semigroup_rows(E, decay, d, x.ravel())[0].reshape(x.shape)


class _MehlerRule:
    """The n_quad-node subordination rule of U(., z) for E at order sigma.

    decay and d are the columns of ``_node_constants`` at the node times
    tau_i = z^2/(4 u_i), w is the column of normalized weights, and w_total
    their sum in node order, the value at a point where every row is 1 (it
    need not be exactly 1.0).

    The plateau limits run over the finite endpoints e of E, in the one
    form of chi_E (``GaussianSet.signed_endpoints``).  Below
    ``below[j]`` every node's argument (e - decay x)/d at e is at least
    _NDTR_ONE, so every row's Phi term there is 1; above ``above[j]`` it is at
    most _NDTR_ZERO and the term is 0.  Each limit carries a margin far above
    the rounding of the arguments.  A node with decay 0 sees no x, so it
    leaves no point on a plateau.  A point on a plateau at every endpoint has
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
                slack = _PLATEAU_MARGIN * (1.0 + abs(e) - _NDTR_ZERO * d)
                below.append(np.where(c > 0.0, (e - _NDTR_ONE * d - slack) / c, -math.inf).min())
                above.append(np.where(c > 0.0, (e - _NDTR_ZERO * d + slack) / c, math.inf).max())
        self.below, self.above = np.array(below), np.array(above)
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
    """Extension U(x, z) by subordination over the Mehler semigroup.

    U(x, z) = (1/Gamma(sigma)) int_0^inf e^{-u} u^{sigma-1}
              (P_{z^2/(4u)} chi_E)(x) du.
    The semigroup term is exact in x; the integral over u is an
    ``n_quad``-node generalized Gauss-Laguerre rule normalized so constant
    data maps to (to rounding) 1.  Unlike the truncated Hermite series this
    stays in [0, 1] for every x, which is what the level-set extraction needs
    far from the set.

    The rule does not resolve small z: its smallest node (about 3.5e-3 for
    sigma = 0.25 and 80 nodes) lies far above u = z^2/4, where the
    semigroup time turns large, so the mass below it is missed (README,
    "Numerical notes").

    The value is the node-order weighted sum of the semigroup rows.  A point
    far enough from every endpoint that each node's Phi argument lies on the
    plateau where ndtr is exactly 0 or 1 gets that sum directly, 0.0 or the
    node-order weight sum; only the other points are evaluated, in blocks.
    The result is bit-identical to evaluating every node at every point.
    """
    _check_positive(z, "mehler_extension height z")
    rule = _mehler_rule(E, sigma, z, n_quad)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat_x = x.ravel()
    under = flat_x[:, None] < rule.below
    acc = np.where(rule.base + under @ rule.sign > 0, rule.w_total, 0.0)
    live = np.flatnonzero(~(under | (flat_x[:, None] > rule.above)).all(axis=1))
    for start in range(0, live.size, _MEHLER_BLOCK):
        block = live[start:start + _MEHLER_BLOCK]
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
    if flips.size > _MAX_CROSSINGS:
        raise ResolutionError(
            f"{flips.size} sign changes at t={t}, z={z}: oscillation "
            f"exceeds the level-set resolution contract")
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

    Evaluation goes through the closed-form Mehler representation (exact in
    x, quadrature only in the subordination variable), so the values stay in
    [0, 1] everywhere and far-field truncation oscillations cannot create
    spurious crossings.  The grid covers [-8, 8] with step 1e-3; the Gaussian
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
    neglected mass outside the grid and the bisection tolerance.  A
    threshold t >= 1 gives the empty set with budget 0.
    """
    _check_positive(z, "level-set height z")
    if not math.isfinite(t):
        raise DomainError(f"level-set threshold must be finite, got {t}")
    if t >= 1.0:
        return LevelSetRecord(t, z, EMPTY, 0.0), 0.0
    E_tz = _extract_level_set(F.set, F.sigma, t, z, _LEVELSET_QUAD)
    mu = measure(E_tz)
    mu_half = measure(_extract_level_set(F.set, F.sigma, t, z, _LEVELSET_QUAD // 2))
    outside_mass = math.erfc(LEVELSET_GRID_HALFWIDTH / math.sqrt(2.0))
    budget = 2.0 * abs(mu - mu_half) + outside_mass + 8.0 * _BISECT_TOL
    return LevelSetRecord(t, z, E_tz, mu), budget
