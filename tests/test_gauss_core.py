import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

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
    with pytest.raises(DomainError):
        gamma_fn(-2.0)


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
    # 1 - 2^-40 is the far tail that best_halfline reaches through phi_inv(1 - m)
    for m in (2.0 ** -40, 1e-6, 0.1, 0.5, 0.77, 1 - 1e-6, 1 - 2.0 ** -40):
        with mpmath.workdps(40):
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


def test_laguerre_roots_are_scipy_roots_shared_read_only():
    u, w = laguerre_roots(-0.75, 40)
    assert laguerre_roots(-0.75, 40)[0] is u
    ref_u, ref_w = special.roots_genlaguerre(40, -0.75)
    assert u.tobytes() == ref_u.tobytes() and w.tobytes() == ref_w.tobytes()
    for arr in (u, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
