import numpy as np
import pytest

from moebius_km import constants, primes
from moebius_km.constants import alpha, apostol_A
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
    # Limits 2, 3 and 4 check the flag-0 slot, which stands for the prime 2.
    for limit in range(0, 3001):
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


def test_shared_table_is_read_only():
    table = primes_up_to(100)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 3
    assert primes_up_to(100).tolist() == _all_integer_sieve(100).tolist()


def test_products_leave_the_prime_table_intact():
    limit = 10**6
    before = primes_up_to(limit).tobytes()
    # The products are cached under the limit they multiply out, 2**9.
    capped = constants.PRODUCT_PRIME_CAP
    for key in ("alpha", 2, 3, capped), ("apostol_A", 2, capped), ("log_tails", capped):
        constants._STORE.entries.pop(key, None)
    alpha((2, 3), limit)
    apostol_A(2, limit)
    assert primes_up_to(limit).tobytes() == before
