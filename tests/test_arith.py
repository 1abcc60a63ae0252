import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_km.arith import (
    FactoredInteger,
    factorize,
    gcd,
    is_prime,
    squarefree_divisors,
)


def test_factorize_one_is_empty_product():
    assert factorize(1) == FactoredInteger(1, ())


def test_factorize_twelve():
    assert factorize(12).factors == ((2, 2), (3, 1))


def test_factorize_large_power_multiplies_back():
    n = 2**40 * 3
    fn = factorize(n)
    assert fn.factors == ((2, 40), (3, 1))
    prod = 1
    for p, e in fn.factors:
        prod *= p**e
    assert prod == n


@pytest.mark.parametrize(
    "n",
    [
        9223372036854775783,  # largest prime below 2**63
        (2**31 - 1) ** 2,
        2**62,
        3**39,
        3215031751,  # strong pseudoprime to several small bases
        614889782588491410,  # product of the first 15 primes
        2147483647 * 2147483629,  # semiprime near 2**62
        # Edges of the trial-prime tiers: the last n whose isqrt has 16 bits,
        # the first whose tier is capped at 16, squares of the primes around
        # 2**16 and the last n below (2**16 + 1)**2.
        2**32 - 1,
        2**32,
        65521**2,
        65537**2,
        (2**16 + 1) ** 2 - 1,
    ],
)
def test_factorize_hard_cases_against_sympy(n):
    fn = factorize(n)
    fn.validate()
    assert dict(fn.factors) == dict(sympy.factorint(n))


@pytest.mark.parametrize("bad", [0, -5, 2**63])
def test_factorize_domain_errors(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_roundtrip_exhaustive_to_one_million():
    for n in range(1, 1_000_001):
        prod = 1
        for p, e in factorize(n).factors:
            prod *= p**e
        assert prod == n


@given(st.integers(min_value=1, max_value=2**63 - 1))
@settings(max_examples=150, deadline=None)
def test_roundtrip_random_64bit(n):
    fn = factorize(n)
    prod = 1
    last = 1
    for p, e in fn.factors:
        assert p > last and e >= 1
        assert sympy.isprime(p)
        last = p
        prod *= p**e
    assert prod == n


@pytest.mark.parametrize(
    "a,b,g", [(12, 18, 6), (1, 977, 1), (35, 64, 1), (0, 9, 9), (0, 0, 0)]
)
def test_gcd(a, b, g):
    assert gcd(a, b) == g


def test_is_prime_small_and_pseudoprime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(3215031751)
    assert is_prime(9223372036854775783)
    assert not is_prime(1) and not is_prime(0)


def test_squarefree_divisors_of_twelve():
    assert squarefree_divisors(12) == [(1, 1), (2, -1), (3, -1), (6, 1)]


def test_squarefree_divisors_of_one():
    assert squarefree_divisors(1) == [(1, 1)]


def test_squarefree_divisors_of_thirty():
    divs = squarefree_divisors(30)
    assert len(divs) == 8
    # brute force: every squarefree divisor of 30 with parity sign
    expected = []
    for d in sorted(sympy.divisors(30)):
        fs = sympy.factorint(d)
        if all(e == 1 for e in fs.values()):
            expected.append((d, -1 if len(fs) % 2 else 1))
    assert divs == expected


def test_squarefree_divisors_count_and_mu_sum():
    for n in list(range(1, 200)) + [720720]:
        fn = factorize(n)
        divs = squarefree_divisors(fn)
        assert len(divs) == 2 ** fn.omega()
        assert sum(s for _, s in divs) == (1 if n == 1 else 0)


def test_squarefree_divisors_omega_guard():
    primes = [int(p) for p in sympy.primerange(2, 200)][:31]
    fake = FactoredInteger(0, tuple((p, 1) for p in primes))
    with pytest.raises(ValueError):
        squarefree_divisors(fake)


def test_factored_integer_helpers():
    fn = factorize(360)
    assert fn.omega() == 3
    assert fn.radical() == 30
    fn.validate()
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 2), (3, 2))).validate()
