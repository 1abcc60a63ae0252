from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_mu_km
from moebius_km.arith import factorize
from moebius_km.functions import (
    OrderPair,
    mu,
    mu_apostol,
    mu_km,
    psi_k,
    q_k,
    theta,
)
from moebius_km.sieve import stream_sum


class TestOrderPair:
    def test_valid(self):
        o = OrderPair(2, 3)
        assert (o.k, o.m) == (2, 3) and not o.conjecture_mode
        assert OrderPair(4, 4).conjecture_mode

    @pytest.mark.parametrize("k,m", [(1, 2), (3, 2), (0, 0), (2, 1)])
    def test_invalid(self, k, m):
        with pytest.raises(ValueError):
            OrderPair(k, m)

    def test_numpy_integers_are_stored_as_ints(self):
        o = OrderPair(np.int64(2), np.uint8(3))
        assert (o, type(o.k), type(o.m)) == (OrderPair(2, 3), int, int)


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: OrderPair(2.0, 3), "k"),
        (lambda: OrderPair(2, 3.5), "m"),
        (lambda: mu_km(8, (2, 3.0)), "m"),
        (lambda: q_k(8, 2.5), "k"),
        (lambda: mu_apostol(8, 2.5), "k"),
        (lambda: psi_k(6, 2.5), "k"),
        (lambda: psi_k(6, 2.0), "k"),
    ],
    ids=["order-k-float", "order-m-float", "mu_km-m-float", "q_k-k-float", "mu_apostol-k-float",
         "psi_k-k-fraction", "psi_k-k-float"],
)
def test_non_integer_argument_is_value_error(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


def test_numpy_integer_orders_are_accepted():
    k = np.int64(2)
    assert (q_k(8, k), mu_apostol(8, k), psi_k(6, k)) == (0, 0, 12)
    assert mu_km(8, (k, np.int32(3))) == -1
    assert stream_sum(100, (k, 3)) == stream_sum(100, (2, 3))


@pytest.mark.parametrize("kind", [np.int64, np.uint64])
@pytest.mark.parametrize("p", [41, 97, 2**61 - 1, 4294967311])
def test_numpy_integer_n_gives_the_int_result(kind, p):
    for n in (p, 3 * p):
        assert mu(kind(n)) == mu(n), n
        for k in (2, 3):
            got = psi_k(kind(n), k)
            assert got == psi_k(n, k) and type(got.numerator) is int, (n, k)


class TestMu:
    @pytest.mark.parametrize("n,v", [(1, 1), (4, 0), (6, 1), (30, -1), (210, 1)])
    def test_examples(self, n, v):
        assert mu(n) == v


class TestMuApostol:
    @pytest.mark.parametrize("n,k,v", [(4, 2, -1), (8, 2, 0), (12, 2, -1), (1, 5, 1)])
    def test_examples(self, n, k, v):
        assert mu_apostol(n, k) == v

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            mu_apostol(10, 1)

    def test_agrees_with_table_at_m_equals_k(self):
        for n in range(1, 4096):
            fn = factorize(n)
            for k in (2, 3, 4):
                assert mu_apostol(fn, k) == mu_km(fn, (k, k)), (n, k)


class TestMuKM:
    @pytest.mark.parametrize(
        "n,km,v",
        [
            (8, (2, 3), -1),
            (4, (2, 3), 0),
            (12, (2, 3), 0),
            (1, (5, 9), 1),
            (2**4, (2, 4), -1),
            (2**5, (2, 4), 0),
        ],
    )
    def test_examples(self, n, km, v):
        assert mu_km(n, km) == v

    def test_against_independent_oracle(self):
        for n in range(1, 2000):
            for k, m in ((2, 2), (2, 3), (3, 5)):
                assert mu_km(n, (k, m)) == oracle_mu_km(n, k, m), (n, k, m)

    def test_kfree_implies_value_one(self):
        # second defining case: no p^k divides n and m > k forces value 1
        for n in range(1, 3000):
            for k, m in ((2, 3), (2, 4), (3, 5)):
                if q_k(n, k) == 1:
                    assert mu_km(n, (k, m)) == 1


class TestQk:
    @pytest.mark.parametrize("n,k,v", [(1, 2, 1), (4, 2, 0), (12, 3, 1), (16, 3, 0)])
    def test_examples(self, n, k, v):
        assert q_k(n, k) == v

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            q_k(10, 1)


class TestTheta:
    @pytest.mark.parametrize("n,v", [(1, 1), (12, 4), (13, 2), (30, 8)])
    def test_examples(self, n, v):
        assert theta(n) == v


class TestPsiK:
    def test_examples(self):
        assert psi_k(12, 2) == 24
        assert psi_k(2, 3) == Fraction(7, 2)
        for n in (1, 7, 360):
            assert psi_k(n, 1) == n

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            psi_k(4, 0)

    def test_prime_value(self):
        # psi_k(p) = p + 1 + 1/p + ... + 1/p^(k-2)
        assert psi_k(5, 2) == 6
        assert psi_k(3, 3) == Fraction(13, 3)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_multiplicativity_on_coprime_pairs(a, b):
    if gcd(a, b) != 1:
        b = 1
    ab = a * b
    assert mu(ab) == mu(a) * mu(b)
    assert mu_apostol(ab, 3) == mu_apostol(a, 3) * mu_apostol(b, 3)
    assert mu_km(ab, (2, 4)) == mu_km(a, (2, 4)) * mu_km(b, (2, 4))
    assert q_k(ab, 2) == q_k(a, 2) * q_k(b, 2)
    assert theta(ab) == theta(a) * theta(b)
    assert psi_k(ab, 3) == psi_k(a, 3) * psi_k(b, 3)


def test_convolution_identity_small():
    # mu_{k,m}(n) = sum over delta * d^m = n, gcd(d, delta) = 1 of mu(d) q_k(delta)
    for n in range(1, 513):
        for k, m in ((2, 2), (2, 3), (3, 3), (3, 5)):
            total = 0
            d = 1
            while d**m <= n:
                if n % d**m == 0:
                    delta = n // d**m
                    if gcd(d, delta) == 1:
                        total += mu(d) * q_k(delta, k)
                d += 1
            assert mu_km(n, (k, m)) == total, (n, k, m)
