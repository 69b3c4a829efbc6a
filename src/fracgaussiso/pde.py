"""Finite-difference minimization of the weighted extension energy.

Independent cross-check of the spectral perimeter: minimize

    E(v) = integral over [-L, L] x (0, Z] of (|dv/dx|^2 + |dv/dz|^2) z^{1-s} dgamma dz

over discrete fields with v(., 0) = chi_E, zero-flux lateral and top
boundaries.  Half the minimal energy is the fractional perimeter in the
'with_constant' convention.

The z-mesh is graded like z_j = Z (j/n_z)^{2/s} to resolve the degenerate
weight; the x-mesh is graded algebraically toward the jump points of the
boundary data, where the energy density concentrates.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import cg, spsolve

from .errors import DomainError, QuadratureError
from .gauss_core import as_order, phi
from .sets import GaussianSet

__all__ = ["pde_energy", "pde_energy_cylinder", "graded_x_mesh"]


def graded_x_mesh(anchors, L: float, n_x: int, power: float = 2.0) -> np.ndarray:
    """Mesh on [-L, L] clustered toward each anchor point.

    Anchors become exact nodes.  Within each segment between consecutive
    anchors (or a domain edge) the nodes follow a one-sided power law toward
    the anchored end; segments bounded by two anchors are split at their
    midpoint and graded toward both.
    """
    anchors = sorted(a for a in anchors if -L < a < L)
    bounds = [-L] + anchors + [L]
    pieces = []
    for i in range(len(bounds) - 1):
        p, q = bounds[i], bounds[i + 1]
        left_anchor = i > 0
        right_anchor = i < len(bounds) - 2
        n_seg = max(4, int(round(n_x * (q - p) / (2.0 * L))))
        u = np.linspace(0.0, 1.0, n_seg + 1)
        if left_anchor and right_anchor:
            half = u[u <= 0.5]
            xs_l = p + (q - p) * 0.5 * (2.0 * half) ** power * 0.5
            other = u[u > 0.5]
            xs_r = q - (q - p) * 0.5 * (2.0 * (1.0 - other)) ** power * 0.5
            xs = np.concatenate([xs_l, xs_r])
        elif left_anchor:
            xs = p + (q - p) * u ** power
        elif right_anchor:
            xs = q - (q - p) * (1.0 - u) ** power
        else:
            xs = p + (q - p) * u
        pieces.append(xs if i == 0 else xs[1:])
    mesh = np.concatenate(pieces)
    return np.unique(mesh)


def _z_mesh(Z: float, n_z: int, grading: float) -> np.ndarray:
    j = np.arange(n_z + 1, dtype=float)
    return Z * (j / n_z) ** grading


def _z_weight_integral(a: float, b: float, s: float) -> float:
    """int_a^b z^{1-s} dz."""
    p = 2.0 - s
    return (b ** p - a ** p) / p


def _boundary_data(E: GaussianSet, x: np.ndarray) -> np.ndarray:
    data = np.zeros_like(x)
    for i, xi in enumerate(x):
        if any(math.isfinite(e) and xi == e for e in E.finite_endpoints):
            data[i] = 0.5  # symmetric value at jump nodes
        elif E.contains(xi):
            data[i] = 1.0
    return data


def _x_masses(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(interval gamma-masses, dual-cell gamma-masses extended to +-inf)."""
    cdf = np.array([phi(v) for v in x])
    omega = np.diff(cdf)
    mid_cdf = np.array([phi(v) for v in 0.5 * (x[:-1] + x[1:])])
    mu = np.empty(x.shape[0])
    mu[0] = mid_cdf[0]
    mu[1:-1] = np.diff(mid_cdf)
    mu[-1] = 1.0 - mid_cdf[-1]
    return omega, mu


def _laplacian(edge_a: np.ndarray, edge_b: np.ndarray, edge_c: np.ndarray,
               n_nodes: int) -> csr_matrix:
    rows = np.concatenate([edge_a, edge_b, edge_a, edge_b])
    cols = np.concatenate([edge_a, edge_b, edge_b, edge_a])
    data = np.concatenate([edge_c, edge_c, -edge_c, -edge_c])
    return coo_matrix((data, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()


def _assemble_1dx(E: GaussianSet, s: float, L: float, Z: float,
                  n_x: int, n_z: int, grading: float):
    x = graded_x_mesh(E.finite_endpoints, L, n_x)
    z = _z_mesh(Z, n_z, grading)
    Nx, Nz1 = x.shape[0], z.shape[0]
    omega, mu = _x_masses(x)
    dx = np.diff(x)
    dz = np.diff(z)
    W = np.array([_z_weight_integral(z[j], z[j + 1], s) for j in range(Nz1 - 1)])
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [Z]])
    m = np.array([_z_weight_integral(zmid[j], zmid[j + 1], s) for j in range(Nz1)])

    def nid(i, j):
        return j * Nx + i

    ii, jj = np.meshgrid(np.arange(Nx - 1), np.arange(Nz1), indexing="ij")
    ax = nid(ii.ravel(), jj.ravel())
    bx = ax + 1
    cx = (np.outer(omega / dx ** 2, m)).ravel()

    ii, jj = np.meshgrid(np.arange(Nx), np.arange(Nz1 - 1), indexing="ij")
    az = nid(ii.ravel(), jj.ravel())
    bz = az + Nx
    cz = (np.outer(mu, W / dz ** 2)).ravel()

    Lap = _laplacian(np.concatenate([ax, az]), np.concatenate([bx, bz]),
                     np.concatenate([cx, cz]), Nx * Nz1)
    fixed = np.zeros(Nx * Nz1, dtype=bool)
    fixed[:Nx] = True
    vals = np.zeros(Nx * Nz1)
    vals[:Nx] = _boundary_data(E, x)
    return Lap, fixed, vals, x, z


def _solve_energy(Lap: csr_matrix, fixed: np.ndarray, vals: np.ndarray,
                  x0: np.ndarray | None = None, use_cg: bool = False) -> float:
    free = ~fixed
    A = Lap[free][:, free]
    b = -Lap[free][:, fixed] @ vals[fixed]
    if use_cg:
        guess = x0[free] if x0 is not None else None
        sol, info = cg(A, b, x0=guess, rtol=1e-12, atol=0.0, maxiter=20_000)
        if info != 0:
            raise QuadratureError(f"CG failed to converge (info={info})")
    else:
        sol = spsolve(A.tocsc(), b)
    v = vals.copy()
    v[free] = sol
    return float(v @ (Lap @ v)), v


def pde_energy(E: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
               mesh: tuple[int, int] = (256, 256), grading: float | None = None) -> float:
    """Perimeter of E (with_constant convention) from the discrete energy.

    domain = (L, Z) truncates to [-L, L] x (0, Z]; mesh = (n_x, n_z).
    """
    order = as_order(s)
    L, Z = domain
    n_x, n_z = mesh
    if L < 6.0 or Z < 4.0:
        raise DomainError("domain must satisfy L >= 6, Z >= 4")
    if n_x < 64 or n_z < 64:
        raise DomainError("mesh must satisfy n_x, n_z >= 64")
    g = grading if grading is not None else 2.0 / order.s
    Lap, fixed, vals, _, _ = _assemble_1dx(E, order.s, L, Z, n_x, n_z, g)
    energy, _ = _solve_energy(Lap, fixed, vals)
    return 0.5 * energy


def pde_energy_cylinder(E1: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
                        mesh: tuple[int, int, int] = (48, 64, 64),
                        grading: float | None = None) -> float:
    """Discrete energy of the cylinder data chi_{R x E1} with a transverse axis.

    Builds the genuine (y, x, z) operator with the boundary data constant in
    the transverse coordinate y and solves it by conjugate gradients seeded
    with the tensorized one-axis solution (which the dimension-independence
    statement predicts to be the minimizer).
    """
    order = as_order(s)
    L, Z = domain
    n_y, n_x, n_z = mesh
    g = grading if grading is not None else 2.0 / order.s

    Lap1, fixed1, vals1, x, z = _assemble_1dx(E1, order.s, L, Z, n_x, n_z, g)
    _, v1 = _solve_energy(Lap1, fixed1, vals1)

    y = np.linspace(-L, L, n_y + 1)
    Ny = y.shape[0]
    Nx, Nz1 = x.shape[0], z.shape[0]
    omega_y, mu_y = _x_masses(y)
    omega_x, mu_x = _x_masses(x)
    dy, dx, dz = np.diff(y), np.diff(x), np.diff(z)
    W = np.array([_z_weight_integral(z[j], z[j + 1], order.s) for j in range(Nz1 - 1)])
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [Z]])
    m = np.array([_z_weight_integral(zmid[j], zmid[j + 1], order.s) for j in range(Nz1)])

    def nid(iy, ix, j):
        return (j * Nx + ix) * Ny + iy

    # y-edges
    iy, ix, jj = np.meshgrid(np.arange(Ny - 1), np.arange(Nx), np.arange(Nz1), indexing="ij")
    ay = nid(iy.ravel(), ix.ravel(), jj.ravel())
    by = ay + 1
    cy = (omega_y / dy ** 2)[iy.ravel()] * mu_x[ix.ravel()] * m[jj.ravel()]
    # x-edges
    iy, ix, jj = np.meshgrid(np.arange(Ny), np.arange(Nx - 1), np.arange(Nz1), indexing="ij")
    ax = nid(iy.ravel(), ix.ravel(), jj.ravel())
    bx = ax + Ny
    cx = mu_y[iy.ravel()] * (omega_x / dx ** 2)[ix.ravel()] * m[jj.ravel()]
    # z-edges
    iy, ix, jj = np.meshgrid(np.arange(Ny), np.arange(Nx), np.arange(Nz1 - 1), indexing="ij")
    az = nid(iy.ravel(), ix.ravel(), jj.ravel())
    bz = az + Ny * Nx
    cz = mu_y[iy.ravel()] * mu_x[ix.ravel()] * (W / dz ** 2)[jj.ravel()]

    n_nodes = Ny * Nx * Nz1
    Lap = _laplacian(np.concatenate([ay, ax, az]), np.concatenate([by, bx, bz]),
                     np.concatenate([cy, cx, cz]), n_nodes)
    fixed = np.zeros(n_nodes, dtype=bool)
    vals = np.zeros(n_nodes)
    data_x = _boundary_data(E1, x)
    for ix_ in range(Nx):
        ids = nid(np.arange(Ny), ix_, 0)
        fixed[ids] = True
        vals[ids] = data_x[ix_]
    # Tensorized seed: replicate the one-axis solution across y.
    x0 = np.tile(v1.reshape(Nz1 * Nx, 1), (1, Ny)).ravel()
    energy, _ = _solve_energy(Lap, fixed, vals, x0=x0, use_cg=True)
    return 0.5 * energy
