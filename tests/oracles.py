"""Reference evaluators that only the tests call.

Each is a slow, direct form of something the library computes another way:
the Gaussian CDF and the subordination profile psi_sigma by adaptive
quadrature, the Hermite recurrence at one point, the Gauss-Hermite rule for
gamma_1, and the subordination profile psi_sigma in closed form
(``psi_bulk``), with the boundary flux and the trace gap of the Hermite
series of the extension built from it, and the perimeter of an interval
from its correlated-pair formula.
"""
import math

import numpy as np
from scipy import integrate, special

from fracgaussiso.errors import DomainError
from fracgaussiso.gauss_core import gamma_fn, k_coefficient
from fracgaussiso.spectral import coeff_table

# The heights z whose boundary fluxes boundary_flux_richardson extrapolates.
_FLUX_HEIGHTS = (1e-2, 1e-3, 1e-4)


def phi_quad(r: float) -> float:
    """Gaussian CDF Phi(r) by adaptive quadrature of the density."""
    return integrate.quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                          -np.inf, r)[0]


def hermite_eval(n: int, x: float) -> float:
    """Orthonormal probabilists' Hermite polynomial h_n(x).

    Three-term recurrence h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k+1)
    from h_{-1} = 0 and h_0 = 1.
    """
    h_prev, h = 0.0, 1.0
    for k in range(n):
        h_prev, h = h, (x * h - math.sqrt(k) * h_prev) / math.sqrt(k + 1)
    return h


def hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss rule for gamma_1: those of
    ``roots_hermitenorm``, whose weight e^{-x^2/2} has mass sqrt(2 pi)."""
    nodes, weights = special.roots_hermitenorm(n)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def profile_psi(sigma: float, xi: float) -> float:
    """Subordination profile by adaptive quadrature, split at the saddle:

        psi_sigma(xi) = (1/Gamma(sigma)) int_0^inf e^{-u - xi^2/(4u)} u^{sigma-1} du.
    """
    if xi == 0.0:
        return 1.0
    if xi > 600.0:
        return 0.0  # below double-precision underflow of e^{-xi}

    def integrand(u: float) -> float:
        return math.exp(-u - xi * xi / (4.0 * u)) * u ** (sigma - 1.0)

    split = max(sigma, 0.5 * xi)
    total = sum(integrate.quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-12, limit=200)[0]
                for lo, hi in ((0.0, split), (split, math.inf)))
    return total / gamma_fn(sigma)


def psi_bulk(sigma: float, xi) -> np.ndarray:
    """Vectorized profile via the scaled modified Bessel function K_sigma.

    psi_sigma(xi) = (2/Gamma(sigma)) (xi/2)^sigma K_sigma(xi); evaluated with
    the exponentially scaled kve for stability at large arguments.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"extension order must lie in (0, 1), got {sigma}")
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    pos = xi > 0.0
    xp = xi[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (2.0 / gamma_fn(sigma)) * (0.5 * xp) ** sigma \
            * np.exp(-xp) * special.kve(sigma, xp)
    out[pos] = np.where(np.isfinite(vals), vals, 0.0)
    return out


def boundary_flux_check(sigma: float, k: int, z: float) -> tuple[float, float]:
    """(numerical flux -z^{1-2 sigma} d/dz psi_sigma(sqrt(k) z), K_{2 sigma} k^sigma).

    The two entries converge to each other as z -> 0+.
    """
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
    if k == 0:
        return 0.0, 0.0
    vals = [boundary_flux_check(sigma, k, z)[0] for z in _FLUX_HEIGHTS]
    q = 2.0 - 2.0 * sigma
    level = list(_FLUX_HEIGHTS)
    while len(vals) > 1:
        rho = [(level[i + 1] / level[i]) ** q for i in range(len(vals) - 1)]
        vals = [(vals[i + 1] - r * vals[i]) / (1.0 - r) for i, r in enumerate(rho)]
        level = level[1:]
    return vals[0], k_coefficient(2.0 * sigma) * float(k) ** sigma


def trace_gap(E, s: float, z: float, K: int) -> float:
    """int_E (1 - U_E(., z)) dgamma = sum_{k>=1} f_k^2 (1 - psi_{s/2}(sqrt(k) z))."""
    psi = psi_bulk(s / 2.0, np.sqrt(np.arange(K + 1, dtype=float)) * z)
    f = coeff_table(E, K)
    return float(np.sum(f[1:] ** 2 * (1.0 - psi[1:])))


def interval_perimeter_exact(a: float, b: float, s: float) -> float:
    """P_s((a, b)) in the with_constant convention, by adaptive quadrature.

    P = K_s (alpha / (2 Gamma(1 - alpha))) int_0^inf t^{-1-alpha} D(t) dt with
    alpha = s/2, where D(t) = P(X in E, Y not in E) for standard normals X, Y
    with correlation e^{-t}: 2T(a, h) + 2T(b, h) - 2P(X < a, Y > b), with
    Owen's T and h = sqrt(tanh(t/2)).
    """
    alpha = 0.5 * s

    def cross(t):  # P(X < a, Y > b)
        rho, d = math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))
        return integrate.quad(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                              * special.ndtr((rho * x - b) / d), -math.inf, a, limit=200)[0]

    def D(t):
        h = math.sqrt(math.tanh(0.5 * t))
        return 2.0 * special.owens_t(a, h) + 2.0 * special.owens_t(b, h) - 2.0 * cross(t)

    edges = [0.0] + [10.0 ** k for k in range(-12, 1)] + [math.inf]
    total = sum(integrate.quad(lambda t: t ** (-1.0 - alpha) * D(t), lo, hi, limit=200)[0]
                for lo, hi in zip(edges, edges[1:]))
    return k_coefficient(s) * 0.5 * alpha / special.gamma(1.0 - alpha) * total
