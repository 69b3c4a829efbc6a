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
without assembling that sum: one eigenbasis per transverse pencil, taken
from its edges with an exact zero mode (`_pencil`), turns it into
independent tridiagonal z-problems, one per mode of the Kronecker sum,
eliminated together in one sweep over z (`_solve_tensor`).  The modes of a
transverse axis do not depend on s, Z or n_z, so the O(n_x^3) pencil is
paid once per transverse axis of at most 1024 cells and kept (`_modes`,
O(n_x^2) memory).  Then each planar solve costs O(n_x (n_x + n_z)) time,
O(n_x n_z) of it the sweep over z, and each cylinder solve
O(n_x n_y (n_x + n_y + n_z)).  The independent check of this algebra is in
the tests: the operator assembled edge by edge, solved by sparse LU, in two
and three dimensions.
"""
from __future__ import annotations

import operator
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError
from .gauss_core import check_order, phi
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


def _inside(anchors, L: float) -> tuple:
    """The distinct anchors strictly inside (-L, L), sorted: the ones a graded mesh keeps."""
    return tuple(sorted({a for a in anchors if -L < a < L}))


def graded_x_mesh(anchors, L: float, n_x: int) -> np.ndarray:
    """Mesh on [-L, L] graded quadratically toward each anchor point.

    The breakpoints are -L, L, the anchors inside (-L, L) and the midpoint
    between each pair of consecutive anchors; all of them are nodes.  Each
    piece [p, q] between breakpoints thus has at most one anchored end.  It
    is graded quadratically toward that end, or uniform when it has none,
    with max(4, round(n_x (q - p) / (2L))) cells.
    """
    anchors = _inside(anchors, L)
    bounds = sorted([-L, L, *anchors, *(0.5 * (a + b) for a, b in zip(anchors, anchors[1:]))])
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
    return omega, np.diff(np.concatenate(([0.0], mid_cdf, [1.0])))


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


def _counts(mesh) -> list[int]:
    """The mesh counts as ints; a count that is not an integer raises DomainError."""
    try:
        return [operator.index(n) for n in mesh]
    except TypeError:
        raise DomainError(f"mesh counts must be integers, got {mesh}") from None


def _pencil(c: np.ndarray, w: np.ndarray):
    """(lam, w0, V): the modes of the pencil (L, W) of a weighted path, from its edges.

    L = D^T C D, with D the difference matrix, C = diag(c) and W = diag(w).
    The zero mode, the constants, has lam = 0 exactly, and the coefficient
    f @ w0 = sum(w f) / sqrt(sum(w)).  The other modes come from the SPD edge
    matrix T = C^{1/2} D W^{-1} D^T C^{1/2} = U diag(mu) U^T: mode m is
    W^{-1} D^T C^{1/2} u_m / sqrt(mu_m), with eigenvalue mu_m and norm 1 in W,
    and a field's coefficient on it is read from its jumps, diff(f) @ V with
    V = diag(sqrt(c)) U diag(mu)^{-1/2}.  lam is [0, mu].
    """
    from scipy.linalg import eigh_tridiagonal  # imported here: importing the package loads no scipy

    root_c = np.sqrt(c)
    mu, V = eigh_tridiagonal(c / w[:-1] + c / w[1:], -root_c[:-1] * root_c[1:] / w[1:-1])
    V *= root_c[:, None]  # U into V in place: at n_x = 512 each copy is 2 MB
    V /= np.sqrt(mu)
    return np.concatenate(([0.0], mu)), w / np.sqrt(w.sum()), V


# Eight axes: a sweep over s, Z or n_z reuses one and a cylinder two, while
# one pass of perfbench's pde workload cycles through five, which four would
# thrash.  An entry holds about 8 n^2 bytes: 0.5 MB at n = 256, 2 MB at 512
# and 8 MB at 1024, so the cache keeps at most about 70 MB (`_modes`).
@lru_cache(maxsize=8)
def _transverse(anchors, L: float, n: int):
    """(nodes, lam, w0, V) of one transverse axis of [-L, L], read-only and cached.

    anchors=None is the cylinder's uniform y-mesh with n cells; otherwise the
    x-mesh graded toward anchors, given as `_inside(anchors, L)` so that a
    set, its complement and sets that differ only outside the domain share
    one entry.  The modes (`_pencil`) do not depend on s, Z or n_z.  A
    degenerate axis raises DomainError, which is not cached.
    """
    nodes = np.linspace(-L, L, n + 1) if anchors is None else graded_x_mesh(anchors, L, n)
    axis = (nodes, *_pencil(*_axis(nodes, *_x_masses(nodes))))
    for a in axis:
        a.flags.writeable = False
    return axis


# The most cells of a cached axis.  The pencil dominates a solve at every n
# (0.20 s of a 0.21 s 2048^2 solve), so the bound is set by memory: eight
# 2048-cell axes would keep 256 MB.
_CACHED_CELLS = 1024


def _modes(anchors, L: float, n: int):
    """`_transverse`, cached up to _CACHED_CELLS cells and built afresh above."""
    return (_transverse if n <= _CACHED_CELLS else _transverse.__wrapped__)(anchors, L, n)


def _planar(E: GaussianSet, s, domain, n_x: int, n_z: int):
    """Validated x-mesh and [z-axis, x-modes] of the planar energy of E."""
    s = check_order(s)
    L, Z = domain
    if not (6.0 <= L < np.inf and 4.0 <= Z < np.inf):
        raise DomainError(f"domain must satisfy 6 <= L < inf, 4 <= Z < inf, got {domain}")
    if n_x < 64 or n_z < 64:
        raise DomainError("mesh must satisfy n_x, n_z >= 64")
    z = Z * (np.arange(n_z + 1, dtype=float) / n_z) ** (2.0 / s)
    zmid = np.concatenate([[0.0], 0.5 * (z[:-1] + z[1:]), [Z]])
    p = 2.0 - s  # the weights are int z^{1-s} dz over cells and dual cells
    with np.errstate(over="ignore", invalid="ignore"):  # a huge Z is rejected by _axis
        z_weights = np.diff(z ** p) / p, np.diff(zmid ** p) / p
    z_axis = _axis(z, *z_weights)
    x, *modes = _modes(_inside(E.finite_endpoints, L), L, n_x)
    return x, [z_axis, modes]


def _solve_tensor(axes, bottom: np.ndarray) -> float:
    """Minimal energy on the axes [z, x] or [z, x, y] with the z = 0 layer fixed to bottom.

    axes holds the z-axis's (conductances, weights) and then, per transverse
    axis, its modes (lam, w0, V) of (L, W) from `_pencil`, with norm 1 in W.
    bottom is flattened with the last axis fastest.  In their tensor
    basis, mode m = (j, l) has the eigenvalue lam_j + mu_l (the Kronecker
    sum), and its modal field solves (L_z + lam_m W_z) u = 0 above z = 0,
    with u[0] the coefficient of bottom: a path of z-edges with conductances
    c_j and a leak lam_m w_z[j] at each node.  Eliminating from the zero-flux
    top down, node j sees the conductance
    G[j] = lam w_z[j] + c_j G[j + 1] / (c_j + G[j + 1]).  The energy is
    sum_m G_m[0] u_m[0]^2, a sum of nonnegative terms.  The zero mode's G is
    exactly 0, so constant data has energy exactly 0, and the other
    coefficients read only jumps, which a set and its complement share up to
    sign.
    """
    (c, wz), *transverse = axes
    lam, w0, V = zip(*transverse)
    shape = tuple(w.shape[0] for w in w0)
    lam = reduce(np.add.outer, lam).ravel()
    G = wz[-1] * lam  # one sweep over z, all modes at once
    for j in range(c.shape[0] - 1, -1, -1):
        G = wz[j] * lam + c[j] / (c[j] + G) * G
    u0 = bottom.reshape(shape)  # coefficients along each transverse axis in turn
    for k in range(len(shape)):
        f = np.moveaxis(u0, k, -1)
        u0 = np.moveaxis(np.concatenate([(f @ w0[k])[..., None], np.diff(f) @ V[k]], -1), -1, k)
    u0 = u0.ravel()
    return float(G @ (u0 * u0))


def pde_energy(E: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
               mesh: tuple[int, int] = (256, 256)) -> float:
    """Perimeter of E (with_constant convention) from the discrete energy.

    domain = (L, Z) truncates to [-L, L] x (0, Z]; mesh = (n_x, n_z), integers.
    """
    x, axes = _planar(E, s, domain, *_counts(mesh))
    return 0.5 * _solve_tensor(axes, indicator(E, x))


def pde_energy_cylinder(E1: GaussianSet, s, domain: tuple[float, float] = (6.0, 4.0),
                        mesh: tuple[int, int, int] = (48, 64, 64)) -> float:
    """Discrete energy of the cylinder data chi_{R x E1} with a transverse axis.

    Solves the genuine (z, x, y) problem, with the boundary data constant in
    the transverse coordinate y on a uniform y-mesh of [-L, L], by the tensor
    fast diagonalization of `_solve_tensor`.  mesh = (n_y, n_x, n_z); the
    domain and (n_x, n_z) are checked as in `pde_energy`, and n_y >= 1.
    """
    n_y, n_x, n_z = _counts(mesh)
    if n_y < 1:
        raise DomainError(f"mesh must satisfy n_y >= 1, got {n_y}")
    x, axes = _planar(E1, s, domain, n_x, n_z)
    _, *y_modes = _modes(None, domain[0], n_y)
    bottom = np.repeat(indicator(E1, x), n_y + 1)
    return 0.5 * _solve_tensor(axes + [y_modes], bottom)
