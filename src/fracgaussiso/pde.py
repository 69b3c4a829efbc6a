"""Finite-difference minimization of the weighted extension energy.

Independent cross-check of the spectral perimeter: minimize

    E(v) = integral over [-L, L] x (0, Z] of (|dv/dx|^2 + |dv/dz|^2) z^{1-s} dgamma dz

over discrete fields with v(., 0) = chi_E, zero-flux lateral and top
boundaries.  Half the minimal energy is the fractional perimeter in the
'with_constant' convention.

The z-mesh is graded like z_j = Z (j/n_z)^{2/s} to resolve the degenerate
weight; the x-mesh is graded algebraically toward the jump points of the
boundary data, where the energy density concentrates.

On a tensor mesh with product weights the discrete energy operator is one
object in any dimension: the Kronecker sum of 1-D weighted path Laplacians,
one per axis, each multiplied by the node weights of the other axes
(`_energy_bands`).  The planar energy on the axes (z, x) is solved by fast
diagonalization (Lynch, Rice & Thomas 1964) without assembling that sum: one
eigenbasis of the x-pencil turns it into independent tridiagonal z-problems,
one per x-mode, eliminated together in one sweep over z.  The energy costs
O(n_x^3 + n_x n_z) time and O(n_x^2) memory; the minimizer adds
O(n_x^2 n_z) time and O(n_x n_z) memory.  The cylinder energy
on the axes (z, x, y) assembles the 3-D operator and solves it by conjugate
gradients from the planar minimizer.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import dia_matrix, diags
from scipy.sparse.linalg import cg, spsolve  # spsolve: unused, perfbench/spans.py wraps it by name

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


def _boundary_data(E: GaussianSet, x: np.ndarray) -> np.ndarray:
    data = np.zeros_like(x)
    for a, b in E.intervals:
        data[(a < x) & (x < b)] = 1.0
    data[np.isin(x, E.finite_endpoints)] = 0.5  # symmetric value at jump nodes
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


def _axis(nodes: np.ndarray, edge_w: np.ndarray, node_w: np.ndarray):
    """(path Laplacian with conductances edge_w / h^2, node weights) of one axis."""
    c = edge_w / np.diff(nodes) ** 2
    return diags([-c, np.pad(c, (0, 1)) + np.pad(c, (1, 0)), -c], [-1, 0, 1]), node_w


def _energy_bands(axes) -> dict[int, np.ndarray]:
    """Kronecker sum of the axis Laplacians, slowest axis first, by its bands.

    Each axis Laplacian is multiplied by the node weights of the other axes,
    so the quadratic form is sum over mesh edges of c_e (v_a - v_b)^2.  The
    sum is banded: an axis couples nodes whose flat indices differ by the
    product of the sizes of the faster axes.  It is built one band at a time
    from Kronecker products of vectors (the same products and sums, in the
    same order, as the sparse Kronecker products, without their COO
    temporaries).  Returns {offset: upper band}; the matrix is symmetric.
    """
    (T, weight), *rest = axes
    bands = {0: T.diagonal(), 1: T.diagonal(1)}
    for T, w in rest:
        bands = {k * w.shape[0]: np.kron(band, w) for k, band in bands.items()}
        bands[0] = bands[0] + np.kron(weight, T.diagonal())
        bands[1] = np.kron(weight, np.append(T.diagonal(1), 0.0))[:-1]
        weight = np.outer(weight, w).ravel()
    return bands


def _band_matrix(bands, skip: int = 0) -> dia_matrix:
    """The symmetric matrix with these upper bands, without its first skip rows and columns.

    The +-1 bands hold explicit zeros where a line of the fastest axis ends.
    """
    offsets = sorted(bands)
    return diags([bands[k][skip:] for k in offsets[:0:-1]] + [bands[k][skip:] for k in offsets],
                 [-k for k in offsets[:0:-1]] + offsets)


def _planar(E: GaussianSet, s, domain, n_x: int, n_z: int, grading):
    """Validated x-mesh and [z, x] axes of the planar energy of E."""
    order = as_order(s)
    L, Z = domain
    if L < 6.0 or Z < 4.0:
        raise DomainError("domain must satisfy L >= 6, Z >= 4")
    if n_x < 64 or n_z < 64:
        raise DomainError("mesh must satisfy n_x, n_z >= 64")
    g = grading if grading is not None else 2.0 / order.s
    z = Z * (np.arange(n_z + 1, dtype=float) / n_z) ** g
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [Z]])
    p = 2.0 - order.s  # the weights are int z^{1-s} dz over cells and dual cells
    x = graded_x_mesh(E.finite_endpoints, L, n_x)
    return x, [_axis(z, np.diff(z ** p) / p, np.diff(zmid ** p) / p),
               _axis(x, *_x_masses(x))]


def _solve_planar(axes, bottom: np.ndarray,
                  minimizer: bool = True) -> tuple[float, np.ndarray | None]:
    """(energy, minimizer) on the [z, x] axes with the z = 0 row fixed to bottom.

    With Phi = W_x^{-1/2} Q, where Q diagonalizes W_x^{-1/2} L_x W_x^{-1/2},
    Phi^T L_x Phi = diag(lam) and Phi^T W_x Phi = I.  The modal field U with
    V = U Phi^T then solves (L_z + lam_m W_z) U[:, m] = 0 above z = 0 for each
    mode m, with U[0] = Phi^T W_x bottom: a path of z-edges with conductances
    c_j = -L_z[j, j + 1] and a leak lam_m w_z[j] at each node.  Eliminating
    from the zero-flux top down, node j sees the conductance
    G[j] = lam w_z[j] + c_j G[j + 1] / (c_j + G[j + 1]), and
    U[j + 1] = U[j] c_j / (c_j + G[j + 1]).  The energy is
    sum_m G_m[0] U[0, m]^2, a sum of nonnegative terms.  The minimizer, None
    unless asked for, is the flattened (z, x) field in the node order of
    `_energy_bands`.

    Constants span the kernel (the zero mode), but the computed zero
    eigenvalue and eigenvector carry rounding, so the data's weighted mean
    mean = sum_i w_x[i] bottom[i] would leak through Q into the energy and
    the other modes.  The mean is subtracted before projecting and added
    back to the minimizer, which leaves the exact solution unchanged.
    """
    (Lz, wz), (Lx, wx) = axes
    r = 1.0 / np.sqrt(wx)
    lam, Q = eigh_tridiagonal(Lx.diagonal() * r * r, Lx.diagonal(1) * r[:-1] * r[1:])
    c = -Lz.diagonal(1)
    # One sweep over z, all modes at once; U[j + 1] holds the ratio U[j + 1] / U[j].
    U = np.empty((c.shape[0] + 1, lam.shape[0])) if minimizer else None
    G = wz[-1] * lam
    for j in range(c.shape[0] - 1, -1, -1):
        ratio = c[j] / (c[j] + G)
        G = wz[j] * lam + ratio * G
        if minimizer:
            U[j + 1] = ratio
    mean = wx @ bottom
    U0 = ((bottom - mean) / r) @ Q
    energy = float(G @ (U0 * U0))
    if not minimizer:
        return energy, None
    U[0] = U0
    V = (np.cumprod(U, axis=0, out=U) @ Q.T) * r + mean
    V[0] = bottom
    return energy, V.ravel()


def _solve_energy(bands, bottom: np.ndarray, seed: np.ndarray) -> float:
    """Minimal energy on the bands of `_energy_bands`, the z = 0 layer fixed to bottom.

    Solved by conjugate gradients from seed.  Only the z-band, whose offset
    is the layer size, couples the free nodes to the fixed layer.
    """
    n = bottom.shape[0]
    rhs = np.zeros(bands[0].shape[0] - n)
    rhs[:n] = -bands[n][:n] * bottom
    sol, info = cg(_band_matrix(bands, skip=n), rhs, x0=seed[n:],
                   rtol=1e-12, atol=0.0, maxiter=20_000)
    if info != 0:
        raise QuadratureError(f"CG failed to converge (info={info})")
    v = np.concatenate([bottom, sol])
    # the sum over mesh edges of c_e (v_a - v_b)^2; an off-diagonal entry is -c_e
    return float(-sum(band @ (v[:-k] - v[k:]) ** 2 for k, band in bands.items() if k))


def pde_energy(E: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
               mesh: tuple[int, int] = (256, 256), grading: float | None = None) -> float:
    """Perimeter of E (with_constant convention) from the discrete energy.

    domain = (L, Z) truncates to [-L, L] x (0, Z]; mesh = (n_x, n_z).
    """
    x, axes = _planar(E, s, domain, *mesh, grading)
    energy, _ = _solve_planar(axes, _boundary_data(E, x), minimizer=False)
    return 0.5 * energy


def pde_energy_cylinder(E1: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
                        mesh: tuple[int, int, int] = (48, 64, 64),
                        grading: float | None = None) -> float:
    """Discrete energy of the cylinder data chi_{R x E1} with a transverse axis.

    Builds the genuine (z, x, y) operator with the boundary data constant in
    the transverse coordinate y and solves it by conjugate gradients seeded
    with the tensorized one-axis solution (which the dimension-independence
    statement predicts to be the minimizer).  The domain and the (n_x, n_z)
    mesh are checked as in `pde_energy`; n_y is free.
    """
    n_y, n_x, n_z = mesh
    x, axes = _planar(E1, s, domain, n_x, n_z, grading)
    bottom = _boundary_data(E1, x)
    _, v1 = _solve_planar(axes, bottom)
    y = np.linspace(-domain[0], domain[0], n_y + 1)
    bands = _energy_bands(axes + [_axis(y, *_x_masses(y))])
    return 0.5 * _solve_energy(bands, np.repeat(bottom, n_y + 1), seed=np.repeat(v1, n_y + 1))
