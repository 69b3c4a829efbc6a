"""Finite-difference minimization of the weighted extension energy.

Independent cross-check of the spectral perimeter: minimize

    E(v) = integral over [-L, L] x (0, Z] of (|dv/dx|^2 + |dv/dz|^2) z^{1-s} dgamma dz

over discrete fields with v(., 0) = chi_E, zero-flux lateral and top
boundaries.  Half the minimal energy is the fractional perimeter in the
'with_constant' convention.

The z-mesh is graded like z_j = Z (j/n_z)^{2/s} to resolve the degenerate
weight; the x-mesh is graded quadratically toward the jump points of the
boundary data, where the energy density concentrates (`graded_x_mesh`).

On a tensor mesh with product weights the discrete energy operator is one
object in any dimension: the Kronecker sum of 1-D weighted path Laplacians,
one per axis, each multiplied by the node weights of the other axes.  Both
the planar energy on the axes (z, x) and the cylinder energy on the axes
(z, x, y) are solved by fast diagonalization (Lynch, Rice & Thomas 1964)
without assembling that sum: one eigenbasis per transverse pencil turns it
into independent tridiagonal z-problems, one per mode of the Kronecker sum,
eliminated together in one sweep over z (`_solve_tensor`).  The planar
energy costs O(n_x^3 + n_x n_z) time and O(n_x^2) memory, the cylinder
energy O(n_x^3 + n_y^3 + n_x n_y (n_x + n_y + n_z)) time.  The independent
check of this algebra is in the tests: the operator assembled edge by edge,
solved by sparse LU, in two and three dimensions.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DomainError
from .gauss_core import as_order, phi
from .sets import GaussianSet, indicator

__all__ = ["pde_energy", "pde_energy_cylinder", "graded_x_mesh"]


def __getattr__(name: str):
    """``pde.cg`` and ``pde.spsolve``, the sparse solvers of ``scipy.sparse.linalg``.

    Neither is called here; perfbench/spans.py wraps both by name.  They are
    looked up on first access, so importing this module loads no scipy.
    """
    if name in ("cg", "spsolve"):
        from scipy.sparse import linalg
        return getattr(linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def graded_x_mesh(anchors, L: float, n_x: int) -> np.ndarray:
    """Mesh on [-L, L] graded quadratically toward each anchor point.

    The breakpoints are -L, L, the anchors inside (-L, L) and the midpoint
    between each pair of consecutive anchors; all of them are nodes.  Each
    piece [p, q] between breakpoints thus has at most one anchored end.  It
    is graded quadratically toward that end, or uniform when it has none,
    with max(4, round(n_x (q - p) / (2L))) cells.
    """
    anchors = sorted({a for a in anchors if -L < a < L})
    bounds = sorted([-L, L] + anchors + [0.5 * (a + b) for a, b in zip(anchors, anchors[1:])])
    nodes = [np.array(bounds)]
    for p, q in zip(bounds, bounds[1:]):
        u = np.linspace(0.0, 1.0, max(4, int(round(n_x * (q - p) / (2.0 * L)))) + 1)[1:-1]
        if p in anchors:
            nodes.append(p + (q - p) * u ** 2)
        elif q in anchors:
            nodes.append(q - (q - p) * (1.0 - u) ** 2)
        else:
            nodes.append(p + (q - p) * u)
    return np.unique(np.concatenate(nodes))


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
    """(edge conductances edge_w / h^2, node weights) of one axis's weighted path.

    Coincident nodes, cells of zero Gaussian mass and overflowing weights
    leave a conductance that is not finite or a node weight that is not
    positive and finite; such an axis is rejected.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = edge_w / np.diff(nodes) ** 2
    if not (np.isfinite(c).all() and ((0.0 < node_w) & (node_w < np.inf)).all()):
        raise DomainError("mesh is degenerate in double precision; reduce L or Z, or raise s")
    return c, node_w


def _pencil(c: np.ndarray, w: np.ndarray):
    """(r, lam, Q) with r = w^{-1/2} and Q diag(lam) Q^T = R L R for R = diag(r).

    L is the path Laplacian with edge conductances c and W = diag(w).
    """
    from scipy.linalg import eigh_tridiagonal  # imported here: importing the package loads no scipy

    r = 1.0 / np.sqrt(w)
    diagonal = np.pad(c, (0, 1)) + np.pad(c, (1, 0))
    lam, Q = eigh_tridiagonal(diagonal * r * r, -c * r[:-1] * r[1:])
    return r, lam, Q


def _planar(E: GaussianSet, s, domain, n_x: int, n_z: int):
    """Validated x-mesh and [z, x] axes of the planar energy of E."""
    order = as_order(s)
    L, Z = domain
    if not (6.0 <= L < np.inf and 4.0 <= Z < np.inf):
        raise DomainError(f"domain must satisfy 6 <= L < inf, 4 <= Z < inf, got {domain}")
    if n_x < 64 or n_z < 64:
        raise DomainError("mesh must satisfy n_x, n_z >= 64")
    z = Z * (np.arange(n_z + 1, dtype=float) / n_z) ** (2.0 / order.s)
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [Z]])
    p = 2.0 - order.s  # the weights are int z^{1-s} dz over cells and dual cells
    with np.errstate(over="ignore", invalid="ignore"):  # a huge Z is rejected by _axis
        z_weights = np.diff(z ** p) / p, np.diff(zmid ** p) / p
    x = graded_x_mesh(E.finite_endpoints, L, n_x)
    return x, [_axis(z, *z_weights), _axis(x, *_x_masses(x))]


def _solve_tensor(axes, bottom: np.ndarray) -> float:
    """Minimal energy on the axes [z, x] or [z, x, y] with the z = 0 layer fixed to bottom.

    bottom is flattened with the last axis fastest.  Per transverse axis,
    with Phi = W^{-1/2} Q from `_pencil`, Phi^T L Phi = diag(lam) and
    Phi^T W Phi = I.  In the tensor basis of the Phi's, mode m = (j, l) has
    the eigenvalue lam_j + mu_l (the Kronecker sum), and its modal field
    solves (L_z + lam_m W_z) u = 0 above z = 0, with u[0] the projection of
    bottom: a path of z-edges with conductances c_j and a leak lam_m w_z[j]
    at each node.  Eliminating from the zero-flux top down, node j sees the
    conductance G[j] = lam w_z[j] + c_j G[j + 1] / (c_j + G[j + 1]).  The
    energy is sum_m G_m[0] u_m[0]^2, a sum of nonnegative terms.

    Constants span the kernel (the zero mode), but the computed zero
    eigenvalues and eigenvectors carry rounding, so the data's weighted mean
    (weights w_x, or w_x w_y) would leak through the Q's into the energy.
    The mean is subtracted before projecting, which leaves the exact energy
    unchanged.  The weights sum to 1 only to rounding, though, so constant
    data would still leave a residue of order 1e-45 of either sign; its
    energy is exactly 0 and is returned without a solve.
    """
    if bottom.min() == bottom.max():
        return 0.0
    (c, wz), *transverse = axes
    shape = tuple(w.shape[0] for _, w in transverse)
    r, lam, Q = zip(*(_pencil(*axis) for axis in transverse))
    lam = reduce(np.add.outer, lam).ravel()
    G = wz[-1] * lam  # one sweep over z, all modes at once
    for j in range(c.shape[0] - 1, -1, -1):
        G = wz[j] * lam + c[j] / (c[j] + G) * G
    mean = reduce(np.multiply.outer, [w for _, w in transverse]).ravel() @ bottom
    # project onto Phi^T W along each transverse axis in turn
    u0 = bottom.reshape(shape) - mean
    for k in range(len(shape)):
        u0 = np.moveaxis(np.moveaxis(u0, k, -1) / r[k] @ Q[k], -1, k)
    u0 = u0.ravel()
    return float(G @ (u0 * u0))


def pde_energy(E: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
               mesh: tuple[int, int] = (256, 256)) -> float:
    """Perimeter of E (with_constant convention) from the discrete energy.

    domain = (L, Z) truncates to [-L, L] x (0, Z]; mesh = (n_x, n_z).
    """
    x, axes = _planar(E, s, domain, *mesh)
    return 0.5 * _solve_tensor(axes, indicator(E, x))


def pde_energy_cylinder(E1: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
                        mesh: tuple[int, int, int] = (48, 64, 64)) -> float:
    """Discrete energy of the cylinder data chi_{R x E1} with a transverse axis.

    Solves the genuine (z, x, y) problem, with the boundary data constant in
    the transverse coordinate y on a uniform y-mesh of [-L, L], by the tensor
    fast diagonalization of `_solve_tensor`.  mesh = (n_y, n_x, n_z); the
    domain and (n_x, n_z) are checked as in `pde_energy`, and n_y >= 1.
    """
    n_y, n_x, n_z = mesh
    if n_y < 1:
        raise DomainError(f"mesh must satisfy n_y >= 1, got {n_y}")
    x, axes = _planar(E1, s, domain, n_x, n_z)
    y = np.linspace(-domain[0], domain[0], n_y + 1)
    bottom = np.repeat(indicator(E1, x), n_y + 1)
    return 0.5 * _solve_tensor(axes + [_axis(y, *_x_masses(y))], bottom)
