"""Scalar special functions, Gauss-Laguerre roots and the model constants.

Everything is taken with respect to the standard Gaussian probability measure
gamma_1 = (2 pi)^{-1/2} e^{-x^2/2} dx.  Gamma is ``math.gamma``, the inverse
CDF is ``statistics.NormalDist().inv_cdf``, ``phi`` is ``math.erfc``, and
``ndtr`` (Phi on arrays) and the Gauss-Laguerre roots (``laguerre_roots``) are
computed here with numpy.  So importing this module loads no scipy.  The
wrappers add the domain checks on outside input.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import DomainError

__all__ = [
    "check_order",
    "laguerre_roots",
    "gamma_fn",
    "phi",
    "ndtr",
    "phi_inv",
    "iso_function",
    "k_coefficient",
]

_STANDARD_NORMAL = NormalDist()
# Near 360 nodes the Laguerre recurrence overflows a double at the largest nodes.
_MAX_LAGUERRE_NODES = 300


def check_positive(value: float, what: str) -> None:
    """Reject NaN, +inf and values <= 0; a NaN would pass a ``<= 0`` test."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{what} must be positive and finite, got {value}")


def check_order(s, what: str = "fractional order") -> float:
    """float(s), for an s in the open interval (0, 1); NaN fails the test too."""
    s = float(s)
    if not (0.0 < s < 1.0):
        raise DomainError(f"{what} must lie in (0, 1), got {s}")
    return s


def check_truncation(K) -> int:
    """K as an int, for an integer K >= 1; a float K (4000.0 too) raises DomainError."""
    try:
        K = operator.index(K)
    except TypeError:
        raise DomainError(f"truncation K must be an integer, got {K!r}") from None
    if K < 1:
        raise DomainError("perimeter needs truncation K >= 1")
    return K


def _gauss_laguerre(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss rule for u^a e^{-u} on (0, inf).

    As in Golub & Welsch (1969), the nodes start as the eigenvalues of the
    Jacobi matrix of the generalized Laguerre polynomials L_k^(a).  One pass
    over the nodes of the recurrence for P_k = L_k^(a)/L_k^(a)(0), carried in
    the differences d_k = P_k - P_{k-1} so that it stays accurate near u = 0,
    gives P_n and P_n' = n d_n/u for one Newton step.  The weights
    w ~ 1/(u P_n'(u)^2) come from the same pass: the Laguerre equation
    u P'' = (u - a - 1) P' - n P moves P_n' to the new node.  They are
    normalized to their exact sum Gamma(a + 1).
    """
    if not (a > -1.0 and 1 <= n <= _MAX_LAGUERRE_NODES):
        raise DomainError(f"Laguerre rule needs a > -1 and 1 <= n <= "
                          f"{_MAX_LAGUERRE_NODES}, got a={a}, n={n}")
    k = np.arange(n, dtype=float)
    jacobi = np.diag(2.0 * k + a + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + a)), 1)
    u = np.linalg.eigvalsh(jacobi, UPLO="U")
    # d_{k+1} = -u/(k + a + 1) P_k + k/(k + a + 1) d_k, one row of u-terms per k
    ka = k + a + 1.0
    u_terms, ratios = -u / ka[:, None], (k / ka).tolist()
    d = u_terms[0].copy()
    p = 1.0 + d
    for j in range(1, n):
        d *= ratios[j]
        d += u_terms[j] * p
        p += d
    dp = n * d / u
    step = -p / dp
    dp += step * ((u - a - 1.0) * dp - n * p) / u
    u = u + step
    w = (1.0 / dp) ** 2 / u  # underflows to 0 where u P_n'^2 would overflow
    return u, w * (math.gamma(a + 1.0) / np.sum(w))


# The 9 keys of a seed-7 perfbench `levelset` run: the profile's 40 and 20 nodes
# at the reference probe's 4 orders, and the Mehler rule's 80 nodes at a = -0.75.
@lru_cache(maxsize=9)
def laguerre_roots(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of ``_gauss_laguerre(a, n)``, the n-node rule
    for u^a e^{-u}, shared by the halfline profile and the Mehler rule."""
    u, w = _gauss_laguerre(a, n)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def gamma_fn(x: float) -> float:
    """Euler Gamma by ``math.gamma``; a pole or -inf raises DomainError, and
    where Gamma overflows a double (x > 171.62, or 0 < |x| < 5.6e-309) the
    result is the infinity of its sign."""
    x = float(x)
    if x == -math.inf or (x <= 0.0 and x.is_integer()):
        raise DomainError(f"gamma pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def phi(r: float) -> float:
    """Gaussian CDF Phi(r) = gamma_1((-inf, r)); exactly 0 and 1 at -inf and +inf."""
    return 0.5 * math.erfc(-r / math.sqrt(2.0))


# Cephes ndtr (Moshier): erf(x) = x T(x^2)/U(x^2) for |x| < 1 and erfc(x) =
# e^{-x^2} P(x)/Q(x) for 1 <= x < 8, as the Horner schemes (polevl) of T + iU and
# P + iQ: at a real argument the real and imaginary parts round as two real
# schemes.  The monic U and Q (p1evl) lead with 1.0 (1 x + c is x + c), T with 0.0.
_ERF_TU = [complex(*c) for c in zip(
    (0.0, 9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4),
    (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4))]
_ERFC_PQ = [complex(*c) for c in zip(
    (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
    (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2))]


def _horner(z: np.ndarray, coefs: list) -> np.ndarray:
    """The complex Horner scheme of ``_ERF_TU`` or ``_ERFC_PQ`` at z."""
    acc = coefs[0] * z + coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return acc


def ndtr(a: np.ndarray) -> np.ndarray:
    """Phi on an array, scipy.special.ndtr's Cephes code and C-library exp bit
    for bit where |a| < 8 sqrt(2): with x = a/sqrt(2), 0.5 + 0.5 erf(x) for
    |x| < 1, else 1 - y for x > 0 and y below, y = 0.5 erfc(|x|).  NaN stays NaN."""
    x = np.asarray(a, dtype=float) * math.sqrt(0.5)
    out, r = np.empty_like(x), np.abs(x)
    erf = r < 1.0
    xs = x[erf]
    tu = _horner(xs * xs + 0j, _ERF_TU)
    out[erf] = 0.5 + 0.5 * (xs * tu.real / tu.imag)
    xs, r = x[~erf], r[~erf]
    pq = _horner(r + 0j, _ERFC_PQ)
    # Cephes's exp: the complex np.exp takes the C library's; np.exp of a double may not
    y = 0.5 * (np.exp(0j - r * r).real * pq.real / pq.imag)
    out[~erf] = np.where(xs > 0.0, 1.0 - y, y)
    return out


def phi_inv(m: float) -> float:
    """Inverse Gaussian CDF."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"phi_inv needs an argument in (0, 1), got {m}")
    return _STANDARD_NORMAL.inv_cdf(m)


def iso_function(m: float) -> float:
    """Gaussian isoperimetric function I(m) = exp(-Phi^{-1}(m)^2 / 2)."""
    if not (0.0 < m < 1.0):
        raise DomainError(f"iso_function needs an argument in (0, 1), got {m}")
    r = phi_inv(m)
    return math.exp(-0.5 * r * r)


def k_coefficient(a: float) -> float:
    """Boundary-flux constant K_a = a |Gamma(-a/2)| / (2^a Gamma(a/2)), a in (0, 2).

    Taken in the pole-free form a Gamma(1 - a/2) / (2^a Gamma(1 + a/2)), which is
    finite and positive on all of (0, 2), with K_a ~ a as a -> 0.  The perimeter
    of order s uses K_s; the flux of the order-sigma extension uses K_{2 sigma}.
    """
    if not (0.0 < a < 2.0):
        raise DomainError(f"k_coefficient needs a in (0, 2), got {a}")
    return a * gamma_fn(1.0 - a / 2.0) / (2.0 ** a * gamma_fn(1.0 + a / 2.0))

