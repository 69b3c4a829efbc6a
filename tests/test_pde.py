import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from fracgaussiso.errors import DomainError
from fracgaussiso.pde import (_axis, _pencil, _planar, _solve_tensor, _transverse, _x_masses,
                              graded_x_mesh, pde_energy, pde_energy_cylinder)
from fracgaussiso.sets import (EMPTY, FULL_LINE, GaussianSet, complement, halfline,
                               indicator, interval)
from fracgaussiso.spectral import halfline_perimeter, perimeter_spectral
from oracles import interval_perimeter_exact


def test_graded_mesh_contains_anchors():
    mesh = graded_x_mesh([0.0, 1.3], 6.0, 128)
    assert 0.0 in mesh
    assert 1.3 in mesh
    assert mesh[0] == -6.0 and mesh[-1] == 6.0
    assert np.all(np.diff(mesh) > 0.0)


def test_graded_mesh_refines_at_anchor():
    mesh = graded_x_mesh([0.0], 6.0, 256)
    i = int(np.searchsorted(mesh, 0.0))
    near = mesh[i + 1] - mesh[i]
    far = np.max(np.diff(mesh))
    assert near < far / 20.0


def test_graded_mesh_refines_between_two_anchors():
    # Every cell between the anchors shrinks like 1/n_x.  Each half of (0, 1)
    # has 11 cells at n_x = 256 and 43 at 1024, hence a third, not a quarter.
    def widest(n_x):
        mesh = graded_x_mesh([0.0, 1.0], 6.0, n_x)
        return np.diff(mesh[(0.0 <= mesh) & (mesh <= 1.0)]).max()

    assert widest(1024) < widest(256) / 3.0


def test_exact_interval_perimeter_matches_the_halfline_reference():
    # Two quadratures of the same semigroup formula; they agree to 2e-14
    # relative.  The profile's own tail_bound is checked against a 30-digit
    # mpmath quadrature in tests/test_spectral.py.
    for r in (0.0, 0.7):
        for s in (0.5, 0.9):
            ref = halfline_perimeter(r, s).value
            assert interval_perimeter_exact(-40.0, r, s) == pytest.approx(ref, rel=1e-10)


def test_pde_interval_converges_to_the_exact_value():
    exact = interval_perimeter_exact(0.0, 1.0, 0.25)
    errs = [abs(exact - pde_energy(interval(0.0, 1.0), 0.25, mesh=(n, n))) / exact
            for n in (256, 512, 1024)]
    assert errs[0] > errs[1] > errs[2] and errs[2] < 1e-3


def test_pde_domain_validation():
    with pytest.raises(DomainError):
        pde_energy(halfline(0.0), 0.5, domain=(2.0, 4.0))
    with pytest.raises(DomainError):
        pde_energy(halfline(0.0), 0.5, mesh=(32, 128))
    with pytest.raises(DomainError):
        pde_energy_cylinder(halfline(0.0), 0.5, domain=(2.0, 1.0), mesh=(8, 16, 16))


# At s = 0.01 the z-grading 2/s = 200 squeezes the first z-cells below
# double precision.
@pytest.mark.parametrize("bad", [dict(domain=(6.0, math.nan)), dict(domain=(6.0, math.inf)),
                                 dict(domain=(math.nan, 4.0)), dict(domain=(math.inf, 4.0)),
                                 dict(s=0.01), dict(domain=(1000.0, 4.0)),
                                 dict(domain=(6.0, 1e300))],
                         ids=["Z-nan", "Z-inf", "L-nan", "L-inf",
                              "s-0.01", "L-1000", "Z-1e300"])
def test_pde_rejects_non_finite_domain_and_bad_grading(bad):
    args = {"s": 0.5, **bad}
    with pytest.raises(DomainError):
        pde_energy(halfline(0.0), mesh=(64, 64), **args)
    with pytest.raises(DomainError):
        pde_energy_cylinder(halfline(0.0), mesh=(2, 64, 64), **args)


@pytest.mark.parametrize("n_y", [0, -3])
def test_pde_cylinder_needs_a_transverse_cell(n_y):
    with pytest.raises(DomainError, match="n_y >= 1"):
        pde_energy_cylinder(halfline(0.0), 0.5, mesh=(n_y, 64, 64))


@pytest.mark.parametrize("bad", [2.5, 64.5, 64.0, math.nan, math.inf])
def test_pde_mesh_counts_must_be_integers(bad):
    for mesh in [(bad, 64), (64, bad)]:
        with pytest.raises(DomainError, match="mesh counts must be integers"):
            pde_energy(halfline(0.0), 0.5, mesh=mesh)
    for mesh in [(bad, 64, 64), (2, bad, 64), (2, 64, bad)]:
        with pytest.raises(DomainError, match="mesh counts must be integers"):
            pde_energy_cylinder(halfline(0.0), 0.5, mesh=mesh)


def test_pde_takes_numpy_integer_mesh_counts():
    n = np.int64(64)
    assert pde_energy(halfline(0.0), 0.5, mesh=(n, n)) == pde_energy(halfline(0.0), 0.5,
                                                                    mesh=(64, 64))
    assert pde_energy_cylinder(halfline(0.0), 0.5, mesh=(np.int32(2), n, n)) == \
        pde_energy_cylinder(halfline(0.0), 0.5, mesh=(2, 64, 64))


def test_pde_halfline_accuracy():
    ref = halfline_perimeter(0.0, 0.5).value
    val = pde_energy(halfline(0.0), 0.5, mesh=(128, 128))
    assert val == pytest.approx(ref, rel=0.03)


def test_pde_interval_vs_spectral():
    E = interval(0.0, 1.0)
    ref = perimeter_spectral(E, 0.5, 200_000)
    val = pde_energy(E, 0.5, mesh=(128, 128))
    # truncated spectral sits below the true value by at most its tail bound
    assert ref.value - 0.05 * ref.value < val < ref.value + ref.tail_bound + 0.05 * ref.value


def test_pde_cylinder_matches_1d():
    v2 = pde_energy_cylinder(halfline(0.0), 0.5, mesh=(32, 64, 64))
    v1 = pde_energy(halfline(0.0), 0.5, mesh=(64, 64))
    assert v2 == pytest.approx(v1, rel=0.005)


# Edge-by-edge assembly of the energy operator, kept as the independent
# reference for the fast-diagonalization solves: one conductance per mesh
# edge, summed into a COO matrix, with the z-weights integrated cell by cell.
# Node order: z slowest, y (in 3-D) fastest.
def _reference_laplacian(a, b, c, n_nodes):
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    data = np.concatenate([c, c, -c, -c])
    return coo_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()


def _reference_z_weights(z, s):
    p = 2.0 - s
    cells = np.array([(z[j + 1] ** p - z[j] ** p) / p for j in range(z.shape[0] - 1)])
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [z[-1]]])
    dual = np.array([(zmid[j + 1] ** p - zmid[j] ** p) / p for j in range(z.shape[0])])
    return cells, dual


def _reference_2d(x, z, s):
    Nx, Nz1 = x.shape[0], z.shape[0]
    omega, mu = _x_masses(x)
    W, m = _reference_z_weights(z, s)
    ii, jj = np.meshgrid(np.arange(Nx - 1), np.arange(Nz1), indexing="ij")
    ax = jj.ravel() * Nx + ii.ravel()
    cx = np.outer(omega / np.diff(x) ** 2, m).ravel()
    ii, jj = np.meshgrid(np.arange(Nx), np.arange(Nz1 - 1), indexing="ij")
    az = jj.ravel() * Nx + ii.ravel()
    cz = np.outer(mu, W / np.diff(z) ** 2).ravel()
    return _reference_laplacian(np.concatenate([ax, az]), np.concatenate([ax + 1, az + Nx]),
                                np.concatenate([cx, cz]), Nx * Nz1)


def _reference_3d(y, x, z, s):
    Ny, Nx, Nz1 = y.shape[0], x.shape[0], z.shape[0]
    omega_y, mu_y = _x_masses(y)
    omega_x, mu_x = _x_masses(x)
    W, m = _reference_z_weights(z, s)

    def nid(iy, ix, j):
        return (j * Nx + ix) * Ny + iy

    iy, ix, jj = np.meshgrid(np.arange(Ny - 1), np.arange(Nx), np.arange(Nz1), indexing="ij")
    iy, ix, jj = iy.ravel(), ix.ravel(), jj.ravel()
    ay = nid(iy, ix, jj)
    cy = (omega_y / np.diff(y) ** 2)[iy] * mu_x[ix] * m[jj]
    iy, ix, jj = np.meshgrid(np.arange(Ny), np.arange(Nx - 1), np.arange(Nz1), indexing="ij")
    iy, ix, jj = iy.ravel(), ix.ravel(), jj.ravel()
    ax = nid(iy, ix, jj)
    cx = mu_y[iy] * (omega_x / np.diff(x) ** 2)[ix] * m[jj]
    iy, ix, jj = np.meshgrid(np.arange(Ny), np.arange(Nx), np.arange(Nz1 - 1), indexing="ij")
    iy, ix, jj = iy.ravel(), ix.ravel(), jj.ravel()
    az = nid(iy, ix, jj)
    cz = mu_y[iy] * mu_x[ix] * (W / np.diff(z) ** 2)[jj]
    return _reference_laplacian(np.concatenate([ay, ax, az]),
                                np.concatenate([ay + 1, ax + Ny, az + Ny * Nx]),
                                np.concatenate([cy, cx, cz]), Ny * Nx * Nz1)


def _boundary_data_by_intervals(E, x):
    """The interval loop `sets.indicator` replaced: 1 inside, 1/2 at a finite endpoint."""
    data = np.zeros_like(x)
    for a, b in E.intervals:
        data[(a < x) & (x < b)] = 1.0
    data[np.isin(x, E.finite_endpoints)] = 0.5
    return data


_ends = st.floats(min_value=-8.0, max_value=8.0)


@st.composite
def _sets_with_tails(draw):
    """1-4 intervals, some endpoints beyond L = 6, perhaps with tails."""
    pairs = sorted(draw(st.lists(st.tuples(_ends, _ends).filter(lambda ab: ab[0] < ab[1]),
                                 min_size=1, max_size=4)))
    if draw(st.booleans()):
        pairs[0] = (-math.inf, pairs[0][1])
    if draw(st.booleans()):
        pairs[-1] = (pairs[-1][0], math.inf)
    return GaussianSet.from_intervals(pairs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([FULL_LINE, EMPTY]), _sets_with_tails()))
def test_boundary_data_is_the_interval_loop_bit_for_bit(E):
    for n_x in (64, 256):
        x = graded_x_mesh(E.finite_endpoints, 6.0, n_x)
        data = indicator(E, x)
        assert data.dtype == np.float64 and data.shape == x.shape
        assert data.tobytes() == _boundary_data_by_intervals(E, x).tobytes()


def test_full_line_and_empty_set_have_zero_energy():
    for E in (FULL_LINE, EMPTY):
        assert pde_energy(E, 0.5, mesh=(64, 64)) == 0.0
        assert pde_energy(E, 0.5) == 0.0
        for mesh in ((8, 64, 64), (48, 64, 64)):
            assert pde_energy_cylinder(E, 0.5, mesh=mesh) == 0.0


def _grid_set(ks):
    """1-3 intervals with endpoints on the 0.1 grid of [-3, 3]."""
    ks = sorted(ks)[: len(ks) // 2 * 2]
    return GaussianSet.from_intervals(
        [(ks[i] / 10.0, ks[i + 1] / 10.0) for i in range(0, len(ks), 2)])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True).map(_grid_set))
@example(_grid_set([-17, -16]))  # sensitive to a zero mode that is not exact (_solve_tensor)
def test_pde_energy_complement_invariant(E):
    # E and its complement share the anchors, hence the mesh, and their
    # boundary data sum to 1: their jumps are equal up to sign, bit for bit,
    # and the zero mode, where they differ, carries no energy.
    assert pde_energy(complement(E), 0.5, mesh=(64, 64)) == pde_energy(E, 0.5, mesh=(64, 64))
    assert pde_energy_cylinder(complement(E), 0.5, mesh=(8, 64, 64)) == \
        pde_energy_cylinder(E, 0.5, mesh=(8, 64, 64))


def _z_nodes(n_z, s):
    return 4.0 * (np.arange(n_z + 1, dtype=float) / n_z) ** (2.0 / s)


def _check_lu(Lap, lu, bottom, energy):
    """A fast solve's energy against sparse LU.

    lu factorizes Lap without the rows and columns of the fixed z = 0 layer.
    """
    k = bottom.shape[0]
    v_lu = np.concatenate([bottom, lu.solve(-(Lap[k:, :k] @ bottom))])
    assert energy == pytest.approx(float(v_lu @ (Lap @ v_lu)), rel=1e-9)


def _check_against_lu(E, s, n):
    x, _ = _planar(E, s, (6.0, 4.0), n, n)
    Lap = _reference_2d(x, _z_nodes(n, s), s)
    k = x.shape[0]
    _check_lu(Lap, splu(Lap[k:, k:].tocsc()), indicator(E, x),
              2.0 * pde_energy(E, s, mesh=(n, n)))


TWO_PIECES = GaussianSet.from_intervals([(-1.2, -0.3), (0.4, 2.0)])


@pytest.mark.parametrize("E, s, n", [
    (halfline(0.0), 0.5, 256), (halfline(0.0), 0.5, 512),
    (interval(0.0, 1.0), 0.25, 256), (interval(0.0, 1.0), 0.25, 512),
    (TWO_PIECES, 0.5, 128)],
    ids=["halfline-256", "halfline-512", "interval-256", "interval-512", "two_pieces-128"])
def test_planar_solve_matches_lu(E, s, n):
    _check_against_lu(E, s, n)


@pytest.mark.parametrize("E, s", [(halfline(0.0), 0.5), (interval(0.0, 1.0), 0.25),
                                  (TWO_PIECES, 0.5)],
                         ids=["halfline", "interval", "two_pieces"])
def test_cylinder_solve_matches_lu(E, s):
    # One LU factorization of the 3-D operator checks the cylinder energy,
    # whose data is constant in y, and the tensor solve of data that is not.
    (n_y, n_x, n_z) = mesh = (4, 64, 64)
    x, axes = _planar(E, s, (6.0, 4.0), n_x, n_z)
    y = np.linspace(-6.0, 6.0, n_y + 1)
    Lap = _reference_3d(y, x, _z_nodes(n_z, s), s)
    k = x.shape[0] * y.shape[0]
    lu = splu(Lap[k:, k:].tocsc())
    data_x = indicator(E, x)
    _check_lu(Lap, lu, np.repeat(data_x, n_y + 1), 2.0 * pde_energy_cylinder(E, s, mesh=mesh))
    product = np.outer(data_x, indicator(interval(-2.0, 0.5), y)).ravel()
    _check_lu(Lap, lu, product, _solve_tensor(axes + [_pencil(*_axis(y, *_x_masses(y)))], product))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True).map(_grid_set),
       st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]))
@example(_grid_set([-16, 0, 1, 18]), 0.05)  # likewise
def test_planar_solve_matches_lu_on_grid_sets(E, s):
    _check_against_lu(E, s, 64)


def test_a_warm_cache_gives_the_cold_energies_bit_for_bit():
    # Every run shares n_x = 96 and L = 6.  halfline(0.3) takes the first
    # entries, so a cache key without the anchors would hand E its x-axis.
    E = interval(0.0, 1.0)
    runs = [(f, s, domain, (*n_y, 96, n_z))
            for f, n_y in ((pde_energy, ()), (pde_energy_cylinder, (4,)))
            for s, domain, n_z in ((0.25, (6.0, 4.0), 64), (0.5, (6.0, 4.0), 64),
                                   (0.75, (6.0, 4.0), 64), (0.5, (6.0, 5.0), 64),
                                   (0.5, (6.0, 4.0), 80))]
    _transverse.cache_clear()
    pde_energy_cylinder(halfline(0.3), 0.5, mesh=(4, 96, 64))
    warm = [f(E, s, domain, mesh).hex() for f, s, domain, mesh in runs]
    assert _transverse.cache_info().misses == 3  # the x-axes of both sets and one y-axis
    # the complement and a set that differs from E only outside [-6, 6] hit E's entry
    hits = _transverse.cache_info().hits
    for same_axis in (complement(E), GaussianSet.from_intervals([(0.0, 1.0), (7.0, 8.0)])):
        assert pde_energy(same_axis, 0.5, mesh=(96, 64)).hex() == warm[1]
    assert _transverse.cache_info().hits == hits + 2
    for (f, s, domain, mesh), energy in zip(runs, warm):
        _transverse.cache_clear()
        assert f(E, s, domain, mesh).hex() == energy


def test_cached_modes_are_read_only_and_a_degenerate_axis_is_not_cached():
    _transverse.cache_clear()
    energy = pde_energy(halfline(0.0), 0.5, mesh=(64, 64))
    for a in _transverse((0.0,), 6.0, 64):  # nodes, lam, w0 and V
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1.0
    size = _transverse.cache_info().currsize
    for _ in range(2):  # at L = 1000 the outer x-cells carry no Gaussian mass
        with pytest.raises(DomainError, match="degenerate"):
            pde_energy(halfline(0.0), 0.5, domain=(1000.0, 4.0), mesh=(64, 64))
    assert _transverse.cache_info().currsize == size
    assert pde_energy(halfline(0.0), 0.5, mesh=(64, 64)) == energy


def test_an_axis_above_1024_cells_is_built_on_every_call():
    # A 1025-cell axis would hold 8 MB; it is not kept, and gives the same energy.
    _transverse.cache_clear()
    energies = {pde_energy(halfline(0.0), 0.5, mesh=(1025, 64)).hex() for _ in range(2)}
    assert len(energies) == 1
    assert _transverse.cache_info().currsize == 0
