import ast
import math
import random
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from fracgaussiso import extension, spectral, suites
from fracgaussiso.errors import DomainError, ResolutionError
from fracgaussiso.extension import (_CELL, LEVELSET_GRID, _BISECT_TOL, _LEVELSET_QUAD,
                                    _MEHLER_ENTRIES, ExtensionField,
                                    _extract_level_set, _node_constants,
                                    _semigroup_rows, evaluate_extension,
                                    extension_field, level_set_with_budget,
                                    mehler_extension)
from fracgaussiso.gauss_core import k_coefficient, laguerre_roots, ndtr
from fracgaussiso.sets import (EMPTY, FULL_LINE, GaussianSet, asymmetry, complement,
                               halfline, interval, measure, parse_set, reflect, symm_diff)
from oracles import (boundary_flux_check, boundary_flux_richardson, profile_psi, psi_bulk,
                     trace_gap)

THREE_PIECES = GaussianSet.from_intervals([(-2.5, -1.4), (-0.6, 0.3), (0.9, 1.6)])
TAILED = GaussianSet.from_intervals([(-1.2, -0.3), (0.4, math.inf)])


def test_psi_half_is_exponential():
    for xi in (0.01, 0.1, 1.0, 4.0, 10.0):
        assert profile_psi(0.5, xi) == pytest.approx(math.exp(-xi), abs=1e-9)
        assert psi_bulk(0.5, np.array([xi]))[0] == pytest.approx(math.exp(-xi), abs=1e-11)


def test_psi_at_zero():
    for i in range(1, 21):
        sigma = i / 21.0
        assert profile_psi(sigma, 0.0) == 1.0
        assert psi_bulk(sigma, np.array([0.0]))[0] == 1.0


def test_psi_bulk_matches_quadrature():
    for sigma in (0.2, 0.5, 0.85):
        for xi in (0.05, 0.7, 3.0):
            assert psi_bulk(sigma, np.array([xi]))[0] == pytest.approx(
                profile_psi(sigma, xi), rel=1e-9)


def test_psi_monotone_decreasing():
    xi = np.linspace(0.0, 5.0, 50)
    vals = psi_bulk(0.3, xi)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def test_boundary_flux_limit():
    for sigma in (0.25, 0.5, 0.75):
        for k in (1, 2, 5, 10):
            flux, exact = boundary_flux_richardson(sigma, k)
            assert flux == pytest.approx(exact, rel=0.01)
            assert exact == pytest.approx(k_coefficient(2 * sigma) * k ** sigma, rel=1e-12)


def test_boundary_flux_zero_mode():
    assert boundary_flux_check(0.5, 0, 0.01) == (0.0, 0.0)


def test_trace_gap_bound():
    sets = [halfline(0.0), interval(0.0, 1.0),
            GaussianSet.from_intervals([(-1.0, -0.2), (0.5, math.inf)])]
    from fracgaussiso.spectral import perimeter_spectral
    for E in sets:
        for s in (0.25, 0.5, 0.75):
            P = perimeter_spectral(E, s, 2000).value
            for z in np.geomspace(1e-3, 10.0, 9):
                gap = trace_gap(E, s, float(z), 2000)
                assert gap <= 2.0 / s * z ** s * P * (1 + 1e-12)  # 2 beta_s z^s P, beta_s = 1/s


def test_trace_gap_vanishes_as_z_to_zero():
    E = interval(0.0, 1.0)
    g1 = trace_gap(E, 0.5, 1e-4, 2000)
    g2 = trace_gap(E, 0.5, 1e-2, 2000)
    assert 0.0 < g1 < g2


def test_extension_boundary_values():
    # z -> 0 recovers the trace on the interior of E
    E = interval(-0.5, 0.5)
    F = extension_field(E, 0.5, 4000)
    assert evaluate_extension(F, 0.0, 1e-5) == pytest.approx(1.0, abs=0.03)
    assert evaluate_extension(F, 3.0, 1e-5) == pytest.approx(0.0, abs=0.03)


def test_mehler_semigroup_mass_conservation():
    E = interval(-0.3, 1.1)
    x = np.linspace(-6, 6, 2001)
    vals = _semigroup_rows(E, *_node_constants((0.01, 0.5, 3.0)), x)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # long time: P_tau chi_E -> gamma(E) everywhere
    far = _semigroup_rows(E, *_node_constants((50.0,)), np.array([0.0, 2.0]))
    assert np.allclose(far, measure(E), atol=1e-10)


def test_mehler_matches_series():
    # the Gauss-Laguerre rule in u against the converged v-rule, at heights it resolves
    E = interval(0.1, 1.2)
    F = extension_field(E, 0.5, 10_000)
    xs = np.linspace(-2.0, 3.0, 21)
    for z in (0.5, 1.0):
        a = evaluate_extension(F, xs, z)
        b = mehler_extension(E, 0.25, xs, z)
        assert np.max(np.abs(a - b)) < 5e-3


def test_level_set_recovers_set_at_small_z():
    E = interval(0.1, 1.2)
    F = extension_field(E, 0.5, 2000)
    rec, budget = level_set_with_budget(F, 0.5, 1e-4)
    assert measure(symm_diff(rec.set, E)) < 1e-3
    assert budget < 1e-4
    assert rec.mu == pytest.approx(measure(E), abs=1e-3)


def test_level_set_shrinks_with_t():
    E = interval(-0.5, 0.5)
    F = extension_field(E, 0.5, 2000)
    z = 0.05
    mus = [level_set_with_budget(F, t, z)[0].mu for t in (0.25, 0.5, 0.75)]
    assert mus[0] >= mus[1] >= mus[2]


def test_level_set_degenerate_t():
    E = interval(0.0, 1.0)
    F = extension_field(E, 0.5, 500)
    rec = level_set_with_budget(F, 1.0, 0.1)[0]
    assert rec.mu == 0.0
    with pytest.raises(DomainError):
        level_set_with_budget(F, 0.5, 0.0)


def test_fields_hash_and_compare_without_raising():
    E = interval(0.0, 1.0)
    F = extension_field(E, 0.5)
    assert (F.set, F.sigma, F.K) == (E, 0.25, 10_000)
    assert evaluate_extension(F, np.array([0.5]), 0.0).shape == (1,)
    assert F == ExtensionField(E, 0.25) == extension_field(E, 0.5, np.int64(10_000))
    assert type(extension_field(E, 0.5, np.int64(200)).K) is int
    assert F != extension_field(E, 0.5, 200)  # K sets the perimeter, so it is read
    assert F != extension_field(E, 0.25) and F != extension_field(interval(0.0, 2.0), 0.5)
    assert len({F, extension_field(E, 0.5, 200), extension_field(E, 0.25)}) == 3
    # the perimeter and asymmetry are kept on the field once read, and are not fields
    G = extension_field(E, 0.5)
    assert F.perimeter is F.perimeter
    assert F.perimeter == spectral.perimeter_spectral(E, 0.5, 10_000)
    assert F.asymmetry == asymmetry(E) and vars(G).keys() == {"set", "sigma", "K"}
    assert F == G and hash(F) == hash(G) == hash(ExtensionField(E, 0.25, 10_000))


def test_the_level_set_path_builds_no_coefficient_table(monkeypatch, cold_caches):
    # the extension takes from the Hermite tables (spectral) only the perimeter, which
    # ExtensionField.perimeter alone reads, and nothing from the recurrence (_kernels_py)
    tree = ast.parse(Path(extension.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) for node in imports}
    assert {"errors", "gauss_core", "sets", "spectral"} <= modules and "_kernels_py" not in modules
    assert not {alias.name.rpartition(".")[2] for node in imports for alias in node.names} \
        & {"spectral", "_kernels_py"}
    taken = {alias.name for node in imports if getattr(node, "module", None) == "spectral"
             for alias in node.names}
    assert taken == {"perimeter_spectral", "PerimeterValue"}
    field = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "ExtensionField")
    reader = next(node for node in field.body
                  if isinstance(node, ast.FunctionDef) and node.name == "perimeter")

    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id in taken for n in ast.walk(node))

    assert reads(tree) == reads(reader) == 2
    # and behaviourally: the level sets and both evaluators build no table
    calls, real = [], spectral.coeff_antideriv_table
    monkeypatch.setattr(spectral, "coeff_antideriv_table",
                        lambda *args: calls.append(args) or real(*args))
    F = extension_field(THREE_PIECES, 0.5, 2000)
    assert level_set_with_budget(F, 0.5, 0.1)[0].mu > 0.0
    mehler_extension(F.set, F.sigma, [0.0, 1.0], 0.1)
    evaluate_extension(F, [0.0, 1.0], 0.1)
    assert calls == []
    assert F.perimeter.K == 2000 and len(calls) == 1  # the count sees the one reader


@pytest.mark.parametrize("sigma", [-0.5, 0.0, 1.0, 1.5, math.nan])
def test_level_set_rejects_a_field_of_an_order_outside_0_1(sigma):
    F = ExtensionField(interval(0.0, 1.0), sigma)
    with pytest.raises(DomainError, match="extension order"):
        level_set_with_budget(F, 0.5, 0.1)
    with pytest.raises(DomainError, match="extension order"):
        evaluate_extension(F, 0.5, 0.1)


def _flat_ndtr(arg):
    """The module's array Phi with its tails flattened at +-9, as the Mehler
    rows take it."""
    live = np.abs(arg) < 9.0
    return np.where(live, ndtr(np.where(live, arg, 0.0)), arg >= 9.0)


def _dense_terms(E, tau, x, phi):
    """Per interval (a, b) of E, the terms phi at b and at a of the semigroup
    at time tau (1.0 at b = inf, 0.0 at a = -inf)."""
    decay = math.exp(-tau)
    d = math.sqrt(-math.expm1(-2.0 * tau))
    for a, b in E.intervals:
        yield (phi((b - decay * x) / d) if math.isfinite(b) else 1.0,
               phi((a - decay * x) / d) if math.isfinite(a) else 0.0)


def _dense_rows(E, taus, x, phi=_flat_ndtr):
    """(P_tau chi_E)(x) for each tau: phi at every point, no plateau skip."""
    rows = []
    for tau in taus:
        row = np.zeros(x.size)
        for hi, lo in _dense_terms(E, tau, x, phi):
            row += hi - lo
        rows.append(np.clip(row, 0.0, 1.0))
    return rows


def _node_rule(sigma, z, n_quad):
    """Normalized weights and semigroup times of the n_quad-node rule at z."""
    u, w = laguerre_roots(sigma - 1.0, n_quad)
    return w / np.sum(w), [z * z / (4.0 * ui) for ui in u]


def _node_by_node_extension(E, sigma, x, z, n_quad, phi=_flat_ndtr):
    """Dense oracle of mehler_extension: every node at every point, summed
    node by node."""
    w, taus = _node_rule(sigma, z, n_quad)
    flat = np.asarray(x, dtype=float).ravel()
    acc = np.zeros(flat.size)
    for wi, row in zip(w, _dense_rows(E, taus, flat, phi)):
        acc += wi * row
    return acc.reshape(np.shape(x))


@pytest.mark.parametrize("E", [TAILED, THREE_PIECES], ids=["tailed", "three"])
def test_mehler_extension_matches_node_by_node_sum(E):
    rng = np.random.default_rng(3)
    for sigma, z, n_quad in ((0.25, 0.3, 80), (0.4, 0.05, 40), (0.25, 1e-3, 80)):
        # sizes on both sides of this order's block edge; at z = 0.3 and 0.05
        # every point of [-4, 4] is live, so the block edge falls inside
        step = _MEHLER_ENTRIES // n_quad
        sizes = (1, step - 1, step, step + 1)
        for x in [np.sort(rng.uniform(-4.0, 4.0, n)) for n in sizes] + [LEVELSET_GRID]:
            got = mehler_extension(E, sigma, x, z, n_quad)
            assert got.shape == x.shape
            assert np.array_equal(got, _node_by_node_extension(E, sigma, x, z, n_quad))


def test_mehler_extension_does_not_depend_on_the_block_budget(monkeypatch):
    # unsorted points in and around the three brackets of THREE_PIECES,
    # beyond its ends and on its endpoints
    rng = np.random.default_rng(11)
    scattered = np.concatenate([rng.uniform(-3.5, 2.5, 700), rng.normal(0.3, 0.02, 200),
                                [-2.5, -1.4, -0.6, 0.3, 0.9, 1.6, -9.0, 9.0]])
    rng.shuffle(scattered)
    for x in (LEVELSET_GRID, scattered):
        # few live points at 80 nodes, most of them live at 40 nodes
        for sigma, z, n_quad in ((0.25, 1e-3, 80), (0.4, 0.05, 40)):
            # one-point blocks cost a numpy pass per point: the scattered points alone
            budgets = (_MEHLER_ENTRIES, n_quad * x.size) + ((n_quad,) if x is scattered else ())
            values = []
            for budget in budgets:
                monkeypatch.setattr(extension, "_MEHLER_ENTRIES", budget)
                values.append(mehler_extension(THREE_PIECES, sigma, x, z, n_quad).tobytes())
            assert all(v == values[0] for v in values)


@lru_cache(maxsize=4)
def _full_grid_values(E, sigma, z, n_quad):
    return mehler_extension(E, sigma, LEVELSET_GRID, z, n_quad)


def _scalar_bisection_level_set(E, sigma, t, z, n_quad=_LEVELSET_QUAD):
    """Oracle of _extract_level_set: the whole grid, then one point per bisection call."""
    grid = LEVELSET_GRID
    vals = _full_grid_values(E, sigma, z, n_quad)
    sign = vals > t
    crossings = []
    for i in np.nonzero(sign[1:] != sign[:-1])[0]:
        lo, hi, f_lo = grid[i], grid[i + 1], vals[i] - t
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            f_mid = mehler_extension(E, sigma, np.array([mid]), z, n_quad)[0] - t
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    edges = ([-math.inf] if sign[0] else []) + crossings + ([math.inf] if sign[-1] else [])
    return GaussianSet.from_intervals(zip(edges[0::2], edges[1::2]))


LEVELSET_CASES = ((0.5, 0.05), (0.25, 0.05), (0.75, 0.02), (0.6, 0.002))


def test_batched_level_set_matches_scalar_bisection():
    # 40 nodes is the order level_set_with_budget compares against
    F = extension_field(THREE_PIECES, 0.5, 500)
    for n_quad in (_LEVELSET_QUAD, _LEVELSET_QUAD // 2):
        for t, z in LEVELSET_CASES:
            got = _extract_level_set(extension._mehler_rule(F.set, F.sigma, z, n_quad), t)
            assert len(got.intervals) == 3
            assert got.intervals == _scalar_bisection_level_set(THREE_PIECES, 0.25, t, z,
                                                                 n_quad).intervals
    assert level_set_with_budget(F, 0.5, 0.05)[0].set == _extract_level_set(
        extension._mehler_rule(F.set, F.sigma, 0.05, _LEVELSET_QUAD), 0.5)


@pytest.mark.parametrize("n_quad", [_LEVELSET_QUAD, _LEVELSET_QUAD // 2])
def test_level_set_at_a_threshold_equal_to_a_grid_value(n_quad):
    # t equal to the grid value at the lower end of a rising crossing's bracket
    # makes f_lo == 0.0 there; at the upper end of a falling one, f_hi == 0.0
    z = 0.05
    vals = mehler_extension(THREE_PIECES, 0.25, LEVELSET_GRID, z, n_quad)
    flips = np.nonzero((vals[1:] > 0.5) != (vals[:-1] > 0.5))[0]
    rising = next(i for i in flips if vals[i] < vals[i + 1])
    falling = next(i for i in flips if vals[i] > vals[i + 1])
    for i, t in ((rising, vals[rising]), (falling, vals[falling + 1])):
        assert (vals[i] > t) != (vals[i + 1] > t)
    # and t equal to a coarse point's value, at both ends of each crossing's coarse cell
    coarse = [k for i in (rising, falling) for k in (i - i % _CELL, i - i % _CELL + _CELL)]
    for t in [vals[rising], vals[falling + 1]] + [vals[k] for k in coarse]:
        got = _extract_level_set(extension._mehler_rule(THREE_PIECES, 0.25, z, n_quad), t)
        assert got.intervals == _scalar_bisection_level_set(THREE_PIECES, 0.25, t, z,
                                                             n_quad).intervals


# a tail at each side, a component and a gap narrower than two grid steps
NARROW_AND_TAILED = (
    TAILED,
    GaussianSet.from_intervals([(-math.inf, -0.4), (0.1002, 0.1008), (0.9, 0.9015)]),
    GaussianSet.from_intervals([(-1.0, 0.5), (0.5015, math.inf)]),
)
# thresholds from the resolution up to 1 - 1e-9, inside [1/4, 3/4] and out
RANDOM_SET_THRESHOLDS = (0.25, 0.5, 0.75, 1e-12, 1e-6, 0.99, 1.0 - 1e-9)


def test_level_set_matches_scalar_bisection_on_random_sets():
    # also at heights where every grid point is live, at both quadrature
    # orders, and with the thresholds of one rule in shuffled order, so an
    # extraction meets its rule in every fill state of the coarse cells
    rng = random.Random(2024)
    crossings = 0
    sets = [suites.random_gaussian_set(rng) for _ in range(20)] + list(NARROW_AND_TAILED)
    for E in sets:
        for z in (1e-4, 5e-3, rng.choice((0.05, 0.3, 1.0))):
            sigma, n_quad = rng.choice((0.05, 0.25, 0.49)), rng.choice((_LEVELSET_QUAD, 40))
            for t in rng.sample(RANDOM_SET_THRESHOLDS, len(RANDOM_SET_THRESHOLDS)):
                got = _extract_level_set(extension._mehler_rule(E, sigma, z, n_quad), t)
                assert got.intervals == _scalar_bisection_level_set(E, sigma, t, z,
                                                                     n_quad).intervals
                crossings += len(got.finite_endpoints)
    assert crossings > 1000


def test_a_coarse_cell_bound_holds_at_every_grid_point_inside():
    # U moves by at most the cell's bound V inside each coarse cell, to
    # rounding, and not at all where V = 0: the level sets skip cells by it
    rng = random.Random(5)
    for i in range(30):
        E = NARROW_AND_TAILED[i] if i < len(NARROW_AND_TAILED) else suites.random_gaussian_set(rng)
        sigma, z = rng.uniform(0.01, 0.49), 10.0 ** rng.uniform(-5.0, 0.0)
        n_quad = rng.choice((_LEVELSET_QUAD, 40))
        vals = mehler_extension(E, sigma, LEVELSET_GRID, z, n_quad)
        _, bound = extension._mehler_rule(E, sigma, z, n_quad).grid
        cells = np.lib.stride_tricks.sliding_window_view(vals, _CELL + 1)[::_CELL]
        assert cells.shape == (bound.size, _CELL + 1) == (1000, 17)
        moved = np.maximum(np.abs(cells - cells[:, :1]), np.abs(cells - cells[:, -1:])).max(axis=1)
        assert np.all(moved <= bound + 1e-14)
        assert np.all(moved[bound == 0.0] == 0.0)


def test_level_set_batches_its_bisection(monkeypatch, cold_caches):
    # each rule's coarse grid comes from the rule itself, so the grid calls
    # fill only the inner points of the cells that can hold a crossing of
    # each t: never a coarse point, never the whole grid and no grid point
    # twice over all its thresholds, also when each case runs again; per
    # extraction at most 5 batched bisection calls, where one bisection step
    # per call takes 24 calls from the grid step to the tolerance
    calls = []
    mehler = extension.mehler_extension

    def counting(E, sigma, x, z, n_quad=80):
        calls.append(((z, n_quad), np.array(x, dtype=float)))
        return mehler(E, sigma, x, z, n_quad)

    def on_grid(x):
        return bool(np.isin(x, LEVELSET_GRID).all())

    monkeypatch.setattr(extension, "mehler_extension", counting)
    for t, z in LEVELSET_CASES * 2:
        start = len(calls)
        level_set_with_budget(extension_field(THREE_PIECES, 0.5, 500), t, z)
        assert sum(not on_grid(x) for _, x in calls[start:]) <= 2 * 5
    rules = {key for key, _ in calls}
    assert len(rules) == 3 * 2
    for rule in rules:
        points = np.concatenate([x for key, x in calls if key == rule and on_grid(x)])
        assert np.unique(points).size == points.size
        assert not np.isin(points, LEVELSET_GRID[::_CELL]).any()
    assert LEVELSET_GRID.size not in [x.size for _, x in calls]


def test_a_grid_evaluates_each_endpoint_once_and_calls_no_mehler_extension(monkeypatch):
    # each endpoint's terms once, in one _ndtr_plateau call of shape
    # (endpoints, n_quad, live coarse points): fewer points than the 1 001 at
    # small z, where the windows are narrow
    plateau, shapes = extension._ndtr_plateau, []
    monkeypatch.setattr(extension, "_ndtr_plateau", lambda arg: shapes.append(arg.shape)
                        or plateau(arg))
    monkeypatch.setattr(extension, "mehler_extension",
                        lambda *args: pytest.fail("the grid called mehler_extension"))
    for E in (EMPTY, FULL_LINE, halfline(0.3), TAILED, THREE_PIECES):
        for z, n_quad in ((1e-3, _LEVELSET_QUAD), (0.3, 40)):
            shapes.clear()
            values, bound = extension._MehlerRule(E, 0.25, z, n_quad).grid
            assert len(shapes) == 1 and shapes[0][:2] == (len(E.finite_endpoints), n_quad)
            assert not np.isnan(values[::_CELL]).any() and bound.size == 1000
            if E.finite_endpoints and z < 0.01:
                assert shapes[0][2] < 1001 / 2


@st.composite
def _grid_cases(draw):
    # 0 to 8 finite endpoints; a left tail by choice, a right one by parity,
    # so the empty set, the full line and both halflines are among them
    ends = sorted(draw(st.lists(st.floats(-9.0, 9.0), max_size=8, unique=True)))
    ends = [-math.inf] * draw(st.booleans()) + ends
    ends += [math.inf] * (len(ends) % 2)
    E = GaussianSet.from_intervals(zip(ends[0::2], ends[1::2]))
    z = 10.0 ** draw(st.floats(-4.0, 0.0))
    return E, draw(st.floats(0.01, 0.49)), z, draw(st.sampled_from([40, _LEVELSET_QUAD]))


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_the_coarse_grid_is_mehler_extension_bit_for_bit(case):
    # the grid's own node sums at the live points, and 0.0 or w_total off
    # every plateau window, are mehler_extension's values there
    E, sigma, z, n_quad = case
    values, _ = extension._MehlerRule(E, sigma, z, n_quad).grid
    coarse = LEVELSET_GRID[::_CELL]
    assert values[::_CELL].tobytes() == mehler_extension(E, sigma, coarse, z, n_quad).tobytes()


def _first_midpoint(lo, hi, guess):
    return [0.5 * (lo + hi)]


def _wrong_end_path(lo, hi, guess, path=extension._predicted_path):
    return path(lo, hi, hi if guess <= 0.5 * (lo + hi) else lo)


@pytest.mark.parametrize("prefetch", [_first_midpoint, _wrong_end_path])
def test_level_sets_do_not_depend_on_the_prefetch(monkeypatch, prefetch):
    # the predicted paths only fill the bisection memo: one midpoint per
    # round, or every decision mispredicted, gives the same crossings, bit
    # for bit, as the unpatched extraction and as plain scalar bisection,
    # in one bisection step per round (24 from the grid step to the tolerance)
    cases = [(E, n_quad, t) for E in (THREE_PIECES, NARROW_AND_TAILED[1])
             for n_quad in (_LEVELSET_QUAD, _LEVELSET_QUAD // 2) for t in (0.02, 0.5)]
    z = 0.05
    want = [_extract_level_set(extension._mehler_rule(E, 0.25, z, n_quad), t)
            for E, n_quad, t in cases]
    paths = []
    monkeypatch.setattr(extension, "_predicted_path",
                        lambda *args: paths.append(args) or prefetch(*args))
    for (E, n_quad, t), unpatched in zip(cases, want):
        got = _extract_level_set(extension._mehler_rule(E, 0.25, z, n_quad), t)
        assert got.intervals == unpatched.intervals == _scalar_bisection_level_set(
            E, 0.25, t, z, n_quad).intervals
    assert len(paths) == 24 * sum(len(F.finite_endpoints) for F in want) == 24 * 20


def test_levelset_grid_is_shared_and_read_only():
    assert LEVELSET_GRID.size == 16_001
    assert LEVELSET_GRID[0] == -8.0 and LEVELSET_GRID[-1] == 8.0
    with pytest.raises(ValueError):
        LEVELSET_GRID[0] = 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_heights_and_thresholds_raise(bad):
    E = interval(0.0, 1.0)
    F = extension_field(E, 0.5, 500)
    x = np.array([0.5])
    with pytest.raises(DomainError):
        level_set_with_budget(F, bad, 0.05)
    with pytest.raises(DomainError):
        level_set_with_budget(F, 0.5, bad)
    with pytest.raises(DomainError):
        mehler_extension(E, 0.25, x, bad)
    with pytest.raises(DomainError):
        evaluate_extension(F, 0.5, bad)


def test_level_set_thresholds_below_zero_and_below_the_resolution():
    # U >= 0, so t < 0 gives the full line, as t >= 1 gives the empty set;
    # below 1e-12 the crossings would sit where U is made of Phi's far tails
    F = extension_field(interval(0.0, 1.0), 0.5, 500)
    for t in (-0.5, -1e-300):
        rec, budget = level_set_with_budget(F, t, 0.05)
        assert (rec.t, rec.set, rec.mu, budget) == (t, FULL_LINE, 1.0, 0.0)
    for t in (0.0, 1e-17, 0.999e-12):
        with pytest.raises(ResolutionError, match="resolution"):
            level_set_with_budget(F, t, 0.05)
    lo, hi = level_set_with_budget(F, 1e-12, 0.05)[0].set.intervals[0]
    assert -5.0 < lo < -4.0 and 5.0 < hi < 6.0


def test_a_level_set_of_forty_intervals_is_extracted():
    # 80 crossings, each well inside its own grid cell: no cap on their number
    E = GaussianSet.from_intervals([(-3.0 + 0.15 * i, -2.93 + 0.15 * i) for i in range(40)])
    rec, _ = level_set_with_budget(extension_field(E, 0.5, 100), 0.5, 1e-3)
    assert len(rec.set.intervals) == 40
    got = np.array(rec.set.intervals)
    assert np.max(np.abs(got - np.array(E.intervals))) < 1e-4


def test_non_finite_points():
    # mehler_extension refuses +-inf as evaluate_extension does, also at
    # z = 20, where the largest node times round e^{-tau} to 0
    E = interval(0.0, 1.0)
    F = extension_field(E, 0.5, 200)
    for bad in (math.nan, math.inf, -math.inf):
        for x in (bad, np.array([0.5, bad])):
            with pytest.raises(DomainError, match="points x must be finite"):
                evaluate_extension(F, x, 0.05)
            for z in (0.05, 20.0):
                with pytest.raises(DomainError, match="points x must be finite"):
                    mehler_extension(TAILED, 0.25, x, z)
    for z in (0.05, 20.0):
        got = mehler_extension(TAILED, 0.25, np.array([-8.0, 8.0, 0.0]), z)
        assert got.tobytes() == _node_by_node_extension(TAILED, 0.25, np.array([-8.0, 8.0, 0.0]),
                                                        z, 80).tobytes()


def test_series_height_zero_is_the_trace():
    # z = 0 is accepted: U is chi_E, exactly 1 inside, 1/2 at an endpoint, 0 outside
    E = GaussianSet.from_intervals([(0.0, 1.0), (1.5, math.inf)])
    x = np.array([-2.0, 0.0, 0.5, 1.0, 1.2, 1.5, 40.0])
    F = extension_field(E, 0.5)
    assert evaluate_extension(F, x, 0.0).tolist() == [0.0, 0.5, 1.0, 0.5, 0.0, 0.5, 1.0]
    assert evaluate_extension(F, 0.3, 0.0) == 1.0
    for bad in (math.nan, math.inf, -1e-300):
        with pytest.raises(DomainError):
            evaluate_extension(F, x, bad)


def test_level_set_without_sign_change():
    # far up, U is the constant gamma(E) ~ 0.683 on the whole grid
    F = extension_field(interval(-1.0, 1.0), 0.5, 500)
    assert level_set_with_budget(F, 0.5, 20.0)[0].set == FULL_LINE
    assert level_set_with_budget(F, 0.9, 20.0)[0].set == EMPTY
    assert level_set_with_budget(extension_field(FULL_LINE, 0.5, 500), 0.5, 0.1)[0].set == FULL_LINE
    assert level_set_with_budget(extension_field(EMPTY, 0.5, 500), 0.5, 0.1)[0].set == EMPTY


def test_ndtr_is_exactly_flat_beyond_the_plateau_limits():
    # the Mehler evaluator writes 1.0 and 0.0 there instead of calling ndtr:
    # the upper plateau is exact, the lower one drops at most ndtr(-9)
    rng = np.random.default_rng(5)
    ones = np.concatenate([[9.0, 40.0], np.linspace(9.0, 40.0, 3001), rng.uniform(9.0, 40.0, 5000)])
    tails = np.concatenate([[-9.0, -40.0, -1e3], np.linspace(-1e3, -9.0, 3001),
                            rng.uniform(-1e3, -9.0, 5000)])
    assert np.all(special.ndtr(ones) == 1.0)
    assert 0.0 < special.ndtr(-9.0) < 1.2e-19
    assert np.all((special.ndtr(tails) >= 0.0) & (special.ndtr(tails) <= special.ndtr(-9.0)))
    assert np.array_equal(extension._ndtr_plateau(np.concatenate([ones, tails, [8.9, -8.9]])),
                          np.concatenate([np.ones(ones.size), np.zeros(tails.size),
                                          special.ndtr([8.9, -8.9])]))


def test_mehler_semigroup_matches_dense_rows():
    rng = np.random.default_rng(11)
    x = rng.uniform(-30.0, 30.0, 3000)
    taus = (1e-17, 1e-10, 1e-4, 0.5, 3.0, 50.0, 800.0)
    for E in (TAILED, THREE_PIECES, halfline(0.7), interval(0.3, 0.3 + 1e-9), FULL_LINE):
        rows = _semigroup_rows(E, *_node_constants(taus), x)
        assert np.array_equal(rows, _dense_rows(E, taus, x))


def test_mehler_extension_needs_a_positive_node_time():
    # z^2 underflows to 0, so every node time is 0
    with pytest.raises(DomainError):
        mehler_extension(interval(0.0, 1.0), 0.25, np.array([-1.0, 0.5, 2.0]), 1e-170)
    with pytest.raises(DomainError):
        _node_constants((0.5, 0.0))


def test_plateau_bounds_overflow_silently_at_a_tiny_node_decay():
    # the smallest node has tau = 720, so its decay e^{-720} is subnormal and
    # the plateau limits overflow to infinity
    u_min = laguerre_roots(-0.75, 80)[0].min()
    E, x, z = interval(-0.3, 0.8), np.array([0.0, 0.5]), math.sqrt(4.0 * u_min * 720.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mehler_extension(E, 0.25, x, z, 80)
    assert np.array_equal(got, _node_by_node_extension(E, 0.25, x, z, 80))


def test_plateau_limits_match_a_loop_over_the_endpoints():
    # one array expression gives every endpoint's limits; each is the
    # per-endpoint expression bit for bit, also where a node's decay is 0
    rng = random.Random(3)
    for i in range(60):
        E = NARROW_AND_TAILED[i] if i < len(NARROW_AND_TAILED) else suites.random_gaussian_set(rng)
        rule = extension._MehlerRule(E, rng.uniform(0.01, 0.49), 10.0 ** rng.uniform(-7.0, 3.0),
                                     rng.choice((_LEVELSET_QUAD, 40)))
        c, d, below, above = rule.decay[:, 0], rule.d[:, 0], [], []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for e, _ in E.signed_endpoints:
                slack = extension._PLATEAU_MARGIN * (1.0 + abs(e) + 9.0 * d)
                below.append(np.where(c > 0.0, (e - 9.0 * d - slack) / c, -math.inf).min())
                above.append(np.where(c > 0.0, (e + 9.0 * d + slack) / c, math.inf).max())
        assert rule.below.tobytes() == np.array(below).tobytes()
        assert rule.above.tobytes() == np.array(above).tobytes()


@st.composite
def _plateau_cases(draw):
    ends = sorted(draw(st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=8, unique=True)))
    ends = ends[: len(ends) // 2 * 2]
    if draw(st.booleans()):
        ends[0] = -math.inf
    if draw(st.booleans()):
        ends[-1] = math.inf
    E = GaussianSet.from_intervals(zip(ends[0::2], ends[1::2]))
    z = 10.0 ** draw(st.floats(-7.0, math.log10(40.0)))
    sigma = draw(st.one_of(st.just(0.25), st.floats(0.01, 0.49)))
    n_quad = draw(st.sampled_from([40, 80]))
    # uniform points plus points at every scale around each finite endpoint,
    # where the plateau limits fall
    x = draw(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=60))
    for e in E.finite_endpoints:
        x += [e + v * 10.0 ** k for v, k in draw(st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.integers(-9, 1)), max_size=40))]
    x = np.array(draw(st.permutations(x)))
    if x.size % 2 == 0 and draw(st.booleans()):
        x = x.reshape(2, -1)
    return E, sigma, x, z, n_quad


@settings(max_examples=150, deadline=None)
@given(_plateau_cases())
def test_mehler_extension_matches_dense_oracle(case):
    E, sigma, x, z, n_quad = case
    got = mehler_extension(E, sigma, x, z, n_quad)
    assert got.shape == x.shape
    assert np.array_equal(got, _node_by_node_extension(E, sigma, x, z, n_quad))


@settings(max_examples=150, deadline=None)
@given(_plateau_cases())
def test_mehler_extension_is_within_the_dropped_tail_of_plain_ndtr(case):
    # Each Phi term moves by at most ndtr(-9).  A Phi that rounds otherwise
    # moves by a few ulp of itself, and each row sums such terms, so rounding
    # is allowed in proportion to the nodes' weighted terms, not to U, which
    # may be far smaller where terms cancel.  Bit-identity with scipy's ndtr
    # is test_gauss_core's concern.
    E, sigma, x, z, n_quad = case
    got = mehler_extension(E, sigma, x, z, n_quad)
    plain = _node_by_node_extension(E, sigma, x, z, n_quad, phi=special.ndtr)
    terms = np.zeros(x.size)
    for wi, tau in zip(*_node_rule(sigma, z, n_quad)):
        for hi, lo in _dense_terms(E, tau, x.ravel(), special.ndtr):
            terms += wi * (hi + lo)
    bound = len(E.finite_endpoints) * special.ndtr(-9.0) + 8.0 * np.finfo(float).eps * terms
    assert np.all(np.abs(got - plain).ravel() <= bound)


def _oracle_rows():
    """(set text, s, z) -> [(x, U)] from tests/golden/extension_oracle.txt
    (regenerate with ``python tests/extension_oracle.py``)."""
    groups = {}
    path = Path(__file__).parent / "golden" / "extension_oracle.txt"
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        text, s, z, x, value = line.split(";")
        groups.setdefault((text, float(s), float(z)), []).append((float(x), float(value)))
    return groups


def test_evaluate_extension_matches_the_30_digit_oracle():
    groups = _oracle_rows()
    assert len(groups) == 27 and sum(map(len, groups.values())) == 135
    for (text, s, z), rows in groups.items():
        x, want = np.array(rows).T
        got = evaluate_extension(extension_field(parse_set(text), s), x, z)
        assert np.all(np.abs(got - want) <= 1e-12), (text, s, z, got - want)


@st.composite
def _extension_cases(draw):
    ends = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=8, unique=True)))
    ends = ends[: len(ends) // 2 * 2]
    if draw(st.booleans()):
        ends[0] = -math.inf
    if draw(st.booleans()):
        ends[-1] = math.inf
    E = GaussianSet.from_intervals(zip(ends[0::2], ends[1::2]))
    s = draw(st.floats(0.02, 0.98))
    z = 10.0 ** draw(st.floats(-6.0, 1.0))
    x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)))
    return E, s, z, x


@settings(max_examples=200, deadline=None)
@given(_extension_cases())
def test_extension_lies_in_0_1_and_respects_complement_and_reflection(case):
    E, s, z, x = case
    U = evaluate_extension(extension_field(E, s), x, z)
    assert np.all((U >= 0.0) & (U <= 1.0))
    U_complement = evaluate_extension(extension_field(complement(E), s), x, z)
    assert np.all(np.abs(U_complement - (1.0 - U)) <= 1e-13)
    U_reflected = evaluate_extension(extension_field(reflect(E), s), -x, z)
    assert np.all(np.abs(U_reflected - U) <= 1e-13)


def test_a_part_narrower_than_two_grid_steps_widens_the_budget():
    # both crossings of the level set lie in one grid cell, so the extraction
    # misses the interval and returns mu = 0; the budget now holds its mass
    E, t, z = interval(0.1002, 0.1008), 0.5, 1e-5
    F = extension_field(E, 0.5)
    rec, budget = level_set_with_budget(F, t, z)
    lo, hi = (brentq(lambda x: evaluate_extension(F, x, z) - t, a, b, xtol=1e-14)
              for a, b in ((0.1, 0.1005), (0.1005, 0.101)))
    mu_true = measure(interval(lo, hi))
    assert mu_true == pytest.approx(2.36e-4, rel=1e-2)
    assert rec.mu == 0.0 and abs(rec.mu - mu_true) <= budget < 2.5e-4


def test_points_near_the_double_max_take_the_plateau_values_silently():
    # (e - decay x)/d overflows to the correctly signed infinity there, whose Phi
    # is the plateau value; under the project's warning filter no warning may rise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mehler_extension(interval(0.0, 1.0), 0.25, [1.7e308, -1.7e308], 0.1)
    assert got.tolist() == [0.0, 0.0]


def test_far_out_points_converge_within_the_halvings(monkeypatch):
    # for x >> 1 the rows step from 0 to m near tau = ln x, over a width in v of
    # about 6/ln x: at 1e28 the v-rule resolves it at its 5th halving
    x = np.array([1e20, 1e28, 1e100, 1e300, 1.7e308])
    U = evaluate_extension(extension_field(interval(0.0, 1.0), 0.5), x, 0.1)
    assert np.all(np.diff(U) < 0.0) and 0.0324 < U[0] < 0.0325 and 0.0163 < U[-1] < 0.0164
    reflected = evaluate_extension(extension_field(interval(-1.0, 0.0), 0.5), -x, 0.1)
    assert U.tobytes() == reflected.tobytes()
    monkeypatch.setattr(extension, "_V_HALVINGS", 4)
    with pytest.raises(ResolutionError, match=r"U at z=0.1, x=1e\+28 not converged in 4 halvings"):
        evaluate_extension(extension_field(interval(0.0, 1.0), 0.5), 1e28, 0.1)
