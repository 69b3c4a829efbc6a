import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fracgaussiso.errors import DomainError
from fracgaussiso.gauss_core import (FractionalOrder, beta_coefficient,
                                     gamma_fn, gauss_hermite_rule,
                                     hermite_eval, iso_function,
                                     k_coefficient, laguerre_roots, phi,
                                     phi_inv)


def test_fractional_order_validation():
    FractionalOrder(0.5)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(DomainError):
            FractionalOrder(bad)


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
    # quadrature oracle for Phi(1)
    oracle, _ = integrate.quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                               -np.inf, 1.0)
    assert abs(phi(1.0) - oracle) < 1e-10
    assert phi(math.inf) == 1.0
    assert phi(-math.inf) == 0.0


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
    rule = gauss_hermite_rule(45)
    for i in range(0, 41, 8):
        for j in range(0, 41, 8):
            val = rule.integrate(lambda x, i=i, j=j: np.array(
                [hermite_eval(i, xi) * hermite_eval(j, xi) for xi in x]))
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-10


def test_quadrature_moments():
    rule = gauss_hermite_rule(12)
    assert rule.integrate(lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-14)
    assert rule.integrate(lambda x: x ** 2) == pytest.approx(1.0, rel=1e-13)
    assert rule.integrate(lambda x: x ** 4) == pytest.approx(3.0, rel=1e-13)
    assert rule.integrate(lambda x: x ** 3) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [199, 200, 250, 500])
def test_quadrature_moments_high_order(n):
    rule = gauss_hermite_rule(n)
    assert rule.nodes.shape == rule.weights.shape == (n,)
    assert abs(rule.integrate(np.ones_like) - 1.0) <= 1e-12
    assert abs(rule.integrate(lambda x: x ** 2) - 1.0) <= 1e-12
    assert abs(rule.integrate(lambda x: x ** 4) - 3.0) <= 1e-12


def test_quadrature_weights_sum_to_one_for_every_order():
    for n in range(1, 501):
        assert abs(math.fsum(gauss_hermite_rule(n).weights) - 1.0) <= 1e-12, n


def test_quadrature_rules_hash_and_compare_by_identity():
    a, b = gauss_hermite_rule(5), gauss_hermite_rule(5)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


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


def test_quadrature_order_bounds():
    with pytest.raises(DomainError):
        gauss_hermite_rule(0)
    with pytest.raises(DomainError):
        gauss_hermite_rule(501)


def test_k_coefficient_at_one():
    # K_1 = 1 exactly in the limit formula
    assert k_coefficient(1.0) == pytest.approx(1.0, rel=1e-12)


def test_constants_identity():
    # K_s * beta_s * 2^s = Gamma(1-s/2)/Gamma(1+s/2)
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        lhs = k_coefficient(s) * beta_coefficient(s) * 2.0 ** s
        rhs = gamma_fn(1.0 - s / 2.0) / gamma_fn(1.0 + s / 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)
