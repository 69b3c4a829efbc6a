import math

import mpmath
import numpy as np
import pytest

from fracgaussiso import (constant_C, extension_field, halfline, halfline_perimeter,
                          halfspace_series, interval, pde_energy, perimeter_spectral,
                          verify_levelset_bounds, verify_levelset_closeness, verify_main,
                          z0_threshold, z_thresholds)
from fracgaussiso.errors import DomainError
from fracgaussiso.gauss_core import (check_order, gamma_fn, iso_function,
                                     k_coefficient, laguerre_roots, ndtr, phi, phi_inv)
from fracgaussiso.inequality import closeness_z_max
from oracles import hermite_eval, hermite_rule, phi_quad


def test_fractional_order_validation():
    assert check_order(0.5) == 0.5 and type(check_order(np.float64(0.5))) is float
    for bad in (0.0, 1.0, -0.1, 1.7, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"fractional order must lie in \(0, 1\), got"):
            check_order(bad)


_E = interval(0.0, 1.0)
_P = halfline_perimeter(0.3, 0.5)
# every public entry that takes the order s, with its other arguments
_ORDER_ENTRIES = {
    "perimeter_spectral": lambda s: perimeter_spectral(_E, s, 200),
    "halfspace_series": lambda s: halfspace_series(0.3, s, 200),
    "halfline_perimeter": lambda s: halfline_perimeter(0.3, s),
    "extension_field": lambda s: extension_field(_E, s),
    "pde_energy": lambda s: pde_energy(_E, s, mesh=(64, 64)),
    "verify_main": lambda s: verify_main(_E, s, K=200),
    "constant_C": lambda s: constant_C(s, 0.3, 1.0, _P),
    "z_thresholds": lambda s: z_thresholds(_E, s, _P, _P),
    "z0_threshold": lambda s: z0_threshold(_E, s, 200),
    "closeness_z_max": lambda s: closeness_z_max(_E, s, 4.0, 200),
    "verify_levelset_closeness": lambda s: verify_levelset_closeness(_E, s, 0.5, 0.01, 4.0, 200),
    "verify_levelset_bounds": lambda s: verify_levelset_bounds(_E, s, 0.5, 3e-4, 200),
}


@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRIES))
def test_every_entry_checks_the_order_and_takes_it_as_a_float(entry):
    call = _ORDER_ENTRIES[entry]
    for bad in (0.0, 1.0, math.nan, -0.1, 1.5):
        with pytest.raises(DomainError, match="fractional order must lie in"):
            call(bad)
    # the repr shows a numpy scalar that was stored unconverted; a 0-d array
    # would be an unhashable memo key
    assert repr(call(np.float64(0.5))) == repr(call(np.array(0.5))) == repr(call(0.5))


# every public entry that takes the truncation K, with its other arguments
_TRUNCATION_ENTRIES = {
    "perimeter_spectral": lambda K: perimeter_spectral(_E, 0.5, K),
    "halfspace_series": lambda K: halfspace_series(0.3, 0.5, K),
    "verify_main": lambda K: verify_main(_E, 0.5, K=K),
    "z0_threshold": lambda K: z0_threshold(_E, 0.5, K),
    "closeness_z_max": lambda K: closeness_z_max(_E, 0.5, 4.0, K),
    "verify_levelset_closeness": lambda K: verify_levelset_closeness(_E, 0.5, 0.5, 0.01, 4.0, K),
    "verify_levelset_bounds": lambda K: verify_levelset_bounds(_E, 0.5, 0.5, 3e-4, K),
    # a halfline has asymmetry 0, so no perimeter is read
    "z0_threshold of a halfline": lambda K: z0_threshold(halfline(0.3), 0.5, K),
    "verify_levelset_bounds of a halfline":
        lambda K: verify_levelset_bounds(halfline(0.3), 0.5, 0.5, 3e-4, K),
}


@pytest.mark.parametrize("entry", sorted(_TRUNCATION_ENTRIES))
def test_every_entry_checks_the_truncation_and_takes_it_as_an_int(entry):
    call = _TRUNCATION_ENTRIES[entry]
    # an integral float would otherwise share the memo entry of the int
    for bad in (200.0, 200.5, "200", None):
        with pytest.raises(DomainError, match="truncation K must be an integer"):
            call(bad)
    for bad in (0, -1):
        with pytest.raises(DomainError, match="needs truncation K >= 1"):
            call(bad)
    # in either order of the calls, the repr shows no numpy integer
    assert repr(call(np.int64(200))) == repr(call(200)) == repr(call(np.int64(200)))


def test_gamma_anchors():
    assert abs(gamma_fn(5.0) - 24.0) < 1e-12
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma_fn(1.0) - 1.0) < 1e-14


def test_gamma_against_mpmath():
    for x in (-1.3, -0.25, 0.1, 0.7, 1.5, 3.2, 8.0, 12.5):
        assert gamma_fn(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)


def test_gamma_pole():
    for pole in (-2.0, 0.0, -0.0, -math.inf):
        with pytest.raises(DomainError):
            gamma_fn(pole)


def test_gamma_is_the_signed_infinity_where_it_overflows():
    # math.gamma raises OverflowError here; the value is +-inf, as scipy's gamma gave
    assert gamma_fn(171.7) == math.inf
    assert gamma_fn(1e-320) == math.inf
    assert gamma_fn(-1e-320) == -math.inf
    assert gamma_fn(math.inf) == math.inf
    assert math.isnan(gamma_fn(math.nan))


def test_phi_values():
    assert phi(0.0) == 0.5
    assert abs(phi(1.0) - phi_quad(1.0)) < 1e-10
    assert phi(math.inf) == 1.0
    assert phi(-math.inf) == 0.0


def test_array_phi_is_the_cephes_ndtr_of_scipy():
    # bit for bit on a dense sweep of (-9, 9) and at the branch edges +-sqrt 2:
    # the erf branch (|a| < sqrt 2, no exp) pins T and U, the erfc branch P, Q
    # and the C library's exp
    from scipy.special import ndtr as scipy_ndtr

    root2 = math.sqrt(2.0)
    edge = np.array([root2, -root2])[:, None] + np.spacing(root2) * np.arange(-40.0, 41.0)
    a = np.concatenate([np.linspace(-9.0, 9.0, 400_001), edge.ravel(), [0.0, -0.0]])
    erf = np.abs(a) < root2
    assert 60_000 < erf.sum() < a.size - 300_000
    assert np.array_equal(ndtr(a), scipy_ndtr(a))
    assert math.isnan(ndtr(np.array([math.nan]))[0])
    assert ndtr(np.zeros((2, 0, 3))).shape == (2, 0, 3)


def test_phi_inv_roundtrip():
    for m in (1e-6, 0.1, 0.5, 0.77, 1 - 1e-6):
        assert phi(phi_inv(m)) == pytest.approx(m, abs=1e-13)
    with pytest.raises(DomainError):
        phi_inv(0.0)


def test_phi_inv_against_mpmath():
    # 1 - 2^-40 is the far tail that best_halfline reaches through phi_inv(1 - m);
    # 5e-324 is the smallest subnormal and 1 - 2^-53 the largest double below 1.
    # 2m - 1 holds m = 5e-324 exactly only with about 324 digits.
    for m in (5e-324, 1e-300, 2.0 ** -40, 1e-6, 0.1, 0.5, 0.77, 1 - 1e-6, 1 - 2.0 ** -40,
              1 - 2.0 ** -53):
        with mpmath.workdps(400):
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(m) - 1))
        assert phi_inv(m) == pytest.approx(exact, rel=1e-13)


def test_iso_function():
    assert iso_function(0.5) == 1.0
    # symmetric and below 1 away from 1/2
    assert iso_function(0.2) == pytest.approx(iso_function(0.8), rel=1e-12)
    assert iso_function(0.2) < 1.0


def test_hermite_low_orders():
    # h_0 = 1, h_1 = x, h_2 = (x^2-1)/sqrt(2)
    for x in (-1.5, 0.0, 0.3, 2.0):
        assert hermite_eval(0, x) == 1.0
        assert hermite_eval(1, x) == x
        assert hermite_eval(2, x) == pytest.approx((x * x - 1) / math.sqrt(2), rel=1e-14)


def test_hermite_orthonormality():
    nodes, weights = hermite_rule(45)
    for i in range(0, 41, 8):
        for j in range(0, 41, 8):
            val = float(np.dot(weights, [hermite_eval(i, x) * hermite_eval(j, x) for x in nodes]))
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-10


def _moment(n: int, p: int) -> float:
    """The n-node oracle rule's integral of x^p against gamma_1."""
    nodes, weights = hermite_rule(n)
    return float(np.dot(weights, nodes ** p))


def test_quadrature_moments():
    assert _moment(12, 0) == pytest.approx(1.0, abs=1e-14)
    assert _moment(12, 2) == pytest.approx(1.0, rel=1e-13)
    assert _moment(12, 4) == pytest.approx(3.0, rel=1e-13)
    assert _moment(12, 3) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [199, 200, 250, 500])
def test_quadrature_moments_high_order(n):
    for p, exact in ((0, 1.0), (2, 1.0), (4, 3.0)):
        assert abs(_moment(n, p) - exact) <= 1e-12


def _laguerre_oracle(a: float, n: int, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Each node Newton-polished at 40 digits, and the weights
    Gamma(n+a+1)/(n! x L_n'(x)^2) there, with L_n^(a)' = -L_{n-1}^(a+1)."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        xs = []
        for x in map(mpmath.mpf, nodes.tolist()):
            for _ in range(4):
                x += mpmath.laguerre(n, a, x) / mpmath.laguerre(n - 1, a + 1, x)
            xs.append(x)
        # n distinct roots of a degree-n polynomial are all of its roots
        assert all(hi - lo > 1e-20 * hi for lo, hi in zip(xs, xs[1:]))
        ws = [mpmath.gamma(n + a + 1)
              / (mpmath.factorial(n) * x * mpmath.laguerre(n - 1, a + 1, x) ** 2) for x in xs]
        return np.array(xs, dtype=float), np.array(ws, dtype=float)


# The perfbench keys: the Mehler rule's 80 nodes at a = -0.75, and the
# profile's 40 and 20 nodes at the orders s = 0.5, 0.9, 0.945, 0.99.
@pytest.mark.parametrize("a, n", [(-0.75, 80)] + [(a, n) for a in (-0.75, -0.95, -0.9725, -0.995)
                                                  for n in (40, 20)])
def test_laguerre_roots_match_an_mpmath_oracle_shared_read_only(a, n):
    u, w = laguerre_roots(a, n)
    assert laguerre_roots(a, n)[0] is u
    ref_u, ref_w = _laguerre_oracle(a, n, u)
    # measured 6.2e-16 and 4.1e-16 at worst; without the Newton step the nodes
    # miss by 4e-14, and with P_n' left at the old node the weights by 9e-15
    assert np.max(np.abs(u - ref_u) / ref_u) <= 4e-15
    assert np.max(np.abs(w - ref_w)) <= 4e-15 * np.max(ref_w)
    for arr in (u, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_laguerre_rule_domain():
    for a, n in ((-1.0, 20), (math.nan, 20), (-0.5, 0), (-0.5, 301)):
        with pytest.raises(DomainError):
            laguerre_roots(a, n)
    u, w = laguerre_roots(-0.5, 1)  # one node at a + 1, carrying the mass Gamma(a + 1)
    assert u[0] == pytest.approx(0.5, rel=1e-15) and w[0] == pytest.approx(math.sqrt(math.pi))


def test_k_coefficient_at_one():
    # K_1 = 1 exactly in the limit formula
    assert k_coefficient(1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("a", [1e-300, 1e-100, 1e-10, 0.25, 0.5, 0.75, 1.5, 2.0 - 1e-12])
def test_k_coefficient_against_mpmath(a):
    # the defining form a |Gamma(-a/2)| / (2^a Gamma(a/2)), at 30 digits
    with mpmath.workdps(30):
        x = mpmath.mpf(a)
        exact = float(x * abs(mpmath.gamma(-x / 2)) / (2 ** x * mpmath.gamma(x / 2)))
    assert abs(k_coefficient(a) - exact) <= 1e-15 * exact


def test_k_coefficient_is_finite_where_gamma_of_minus_a_half_is_not():
    # Gamma(-a/2) overflows below a = 1.1e-308 and has its pole at -0.0 for a = 5e-324
    for a in (1e-310, 5e-324):
        assert 0.0 < k_coefficient(a) < math.inf


def test_constants_identity():
    # K_s * beta_s * 2^s = Gamma(1-s/2)/Gamma(1+s/2), with beta_s = 1/s
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        lhs = k_coefficient(s) / s * 2.0 ** s
        rhs = gamma_fn(1.0 - s / 2.0) / gamma_fn(1.0 + s / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)
