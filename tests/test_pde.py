import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from fracgaussiso.errors import DomainError
from fracgaussiso.pde import (_axis, _band_matrix, _boundary_data, _energy_bands, _planar,
                              _solve_energy, _solve_planar, _x_masses, graded_x_mesh,
                              pde_energy, pde_energy_cylinder)
from fracgaussiso.sets import GaussianSet, complement, halfline, interval
from fracgaussiso.spectral import halfline_perimeter_reference, perimeter_spectral


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


def test_pde_domain_validation():
    with pytest.raises(DomainError):
        pde_energy(halfline(0.0), 0.5, domain=(2.0, 4.0))
    with pytest.raises(DomainError):
        pde_energy(halfline(0.0), 0.5, mesh=(32, 128))
    with pytest.raises(DomainError):
        pde_energy_cylinder(halfline(0.0), 0.5, domain=(2.0, 1.0), mesh=(8, 16, 16))


def test_pde_halfline_accuracy():
    ref = halfline_perimeter_reference(0.0, 0.5, 500_000).value
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


# Edge-by-edge assembly of the energy operator, kept as a reference for the
# Kronecker-sum builder: one conductance per mesh edge, summed into a COO
# matrix, with the z-weights integrated cell by cell.
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


def _assert_same_operator(Lap, ref):
    Lap, ref = Lap.tocsr(), ref.tocsr()
    Lap.eliminate_zeros()
    Lap.sort_indices()
    ref.sort_indices()
    assert Lap.shape == ref.shape
    assert np.array_equal(Lap.indptr, ref.indptr)
    assert np.array_equal(Lap.indices, ref.indices)
    tol = 1e-15 * np.max(np.abs(ref.data))
    assert np.max(np.abs(Lap.data - ref.data)) <= tol
    # constants lie in the kernel
    assert np.max(np.abs(Lap.sum(axis=1))) <= tol


def test_energy_operator_matches_edge_assembly_2d():
    E = GaussianSet.from_intervals([(-1.2, -0.3), (0.4, 2.0)])
    s, n = 0.5, 128
    x, axes = _planar(E, s, (6.0, 4.0), n, n, None)
    z = 4.0 * (np.arange(n + 1, dtype=float) / n) ** (2.0 / s)
    _assert_same_operator(_band_matrix(_energy_bands(axes)), _reference_2d(x, z, s))


def test_energy_operator_matches_edge_assembly_cylinder():
    s, (n_y, n_x, n_z) = 0.5, (8, 64, 64)
    x, axes = _planar(halfline(0.0), s, (6.0, 4.0), n_x, n_z, None)
    z = 4.0 * (np.arange(n_z + 1, dtype=float) / n_z) ** (2.0 / s)
    y = np.linspace(-6.0, 6.0, n_y + 1)
    Lap = _band_matrix(_energy_bands(axes + [_axis(y, *_x_masses(y))]))
    _assert_same_operator(Lap, _reference_3d(y, x, z, s))


def _grid_set(ks):
    """1-3 intervals with endpoints on the 0.1 grid of [-3, 3]."""
    ks = sorted(ks)[: len(ks) // 2 * 2]
    return GaussianSet.from_intervals(
        [(ks[i] / 10.0, ks[i + 1] / 10.0) for i in range(0, len(ks), 2)])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True).map(_grid_set))
def test_pde_energy_complement_invariant(E):
    # E and its complement share the anchors, hence the mesh, and their
    # boundary data sum to 1, which the operator maps to 0.
    a = pde_energy(E, 0.5, mesh=(64, 64))
    b = pde_energy(complement(E), 0.5, mesh=(64, 64))
    assert b == pytest.approx(a, rel=1e-10)


# Sparse LU on the assembled operator, kept as a reference for the
# fast-diagonalization solve.
def _check_against_lu(E, s, n):
    x, axes = _planar(E, s, (6.0, 4.0), n, n, None)
    bottom = _boundary_data(E, x)
    bands = _energy_bands(axes)
    Lap = _band_matrix(bands).tocsr()
    k = bottom.shape[0]
    coupling = Lap[k:, :k] @ bottom
    v_lu = np.concatenate([bottom, spsolve(Lap[k:, k:].tocsc(), -coupling)])
    energy, v = _solve_planar(axes, bottom)
    assert energy == pytest.approx(float(v_lu @ (Lap @ v_lu)), rel=1e-9)
    # the CG path of the cylinder, on the planar bands
    assert _solve_energy(bands, bottom, seed=v) == pytest.approx(energy, rel=1e-9)
    assert np.array_equal(v[:k], bottom)
    # the minimizer solves the interior equations
    assert np.linalg.norm(Lap[k:] @ v) <= 1e-10 * np.linalg.norm(coupling)
    assert 0.5 * energy == pde_energy(E, s, mesh=(n, n))


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("E, s", [(halfline(0.0), 0.5), (interval(0.0, 1.0), 0.25)],
                         ids=["halfline", "interval"])
def test_planar_solve_matches_lu(E, s, n):
    _check_against_lu(E, s, n)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6, unique=True).map(_grid_set),
       st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]))
def test_planar_solve_matches_lu_on_grid_sets(E, s):
    _check_against_lu(E, s, 64)
