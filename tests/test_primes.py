import numpy as np

from moebius_km import primes
from moebius_km.primes import primes_up_to


def _all_integer_sieve(limit):
    # The reference: one flag per integer, as the table was first built.
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _assert_same_table(limit):
    got, want = primes._sieve(limit), _all_integer_sieve(limit)
    assert got.dtype == want.dtype == np.int64, limit
    assert np.array_equal(got, want), limit


def test_odd_only_sieve_matches_all_integer_sieve():
    for limit in range(0, 201):
        _assert_same_table(limit)


def test_odd_only_sieve_around_prime_squares():
    # p**2 is the first composite that p strikes: limits just below, at and
    # just above it decide whether the loop reaches p.
    for p in (2, 3, 5, 7, 11, 13, 31, 97, 101, 251, 1009):
        for limit in (p * p - 1, p * p, p * p + 1):
            _assert_same_table(limit)


def test_odd_only_sieve_at_a_table_size():
    _assert_same_table(1 << 16)
    assert primes_up_to(10**6)[-1] == 999983
    assert len(primes_up_to(10**6)) == 78498
