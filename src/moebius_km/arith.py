"""Integer factorization and squarefree-divisor enumeration.

Everything downstream (point evaluation, sieves, exact identities) is built
on canonical factorizations produced here.  Factorization is deterministic:
trial division by cached small primes, then Miller-Rabin with a fixed
witness set (deterministic below 2**64) and Brent's rho with a fixed
parameter schedule for the remaining cofactors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .primes import checked_int, prime_list_up_to

MAX_VALUE = 2**63 - 1

_TRIAL_BITS = 16
_TRIAL_LIMIT = 1 << _TRIAL_BITS

# Deterministic Miller-Rabin witnesses for n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Inclusion-exclusion over squarefree divisors blows up as 2**omega.
MAX_OMEGA = 30


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its canonical prime factorization.

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def radical(self) -> int:
        """Product of the distinct prime factors (squarefree kernel)."""
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    def validate(self) -> None:
        """Check the structural invariants; intended for tests."""
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError(f"invalid factor entry ({p}, {e})")
            last = p
            prod *= p**e
        if prod != self.value or self.value < 1:
            raise ValueError("factors do not multiply back to value")


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    n = checked_int(n, "n")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # Returns a nontrivial factor of odd composite n.  Fixed (y0, c) schedule
    # keeps the whole factorization byte-for-byte reproducible.
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def _factor_large(n: int, out: list[tuple[int, int]]) -> None:
    # n has no prime factor <= _TRIAL_LIMIT.
    if n == 1:
        return
    if is_prime(n):
        out.append((n, 1))
        return
    d = _brent_rho(n)
    while not is_prime(d):
        d = _brent_rho(d)
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    out.append((d, e))
    _factor_large(n, out)


@functools.cache
def _trial_primes(bits: int) -> tuple[int, ...]:
    """The primes below 2**bits, one tuple per tier (bits <= 16)."""
    return tuple(prime_list_up_to(1 << bits))


def factorize(n: int) -> FactoredInteger:
    """Canonical prime factorization of n, for 1 <= n <= 2**63 - 1."""
    n = checked_int(n, "n")
    if not 1 <= n <= MAX_VALUE:
        raise ValueError(f"factorize requires 1 <= n <= 2**63-1, got {n}")
    if n == 1:
        return FactoredInteger(1, ())
    rem = n
    factors: list[tuple[int, int]] = []
    # isqrt(n) < 2**bits: for n < 2**32 the tier holds every prime <= sqrt(n).
    for p in _trial_primes(min(math.isqrt(n).bit_length(), _TRIAL_BITS)):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 1
            rem //= p
            while rem % p == 0:
                e += 1
                rem //= p
            factors.append((p, e))
    if rem > 1:
        if rem < (_TRIAL_LIMIT + 1) ** 2:
            factors.append((rem, 1))
        else:
            large: list[tuple[int, int]] = []
            _factor_large(rem, large)
            factors.extend(sorted(large))
    return FactoredInteger(n, tuple(factors))


def factorizations(limit: int):
    """Yield the FactoredInteger of each n = 1..limit in order, factored in bulk.

    One smallest-prime-factor table (4 bytes a number, built by NumPy slice
    writes) replaces trial division: each n then costs one lookup per
    prime power.  For 1 <= limit < 2**31.
    """
    if not 1 <= limit < 2**31:
        raise ValueError(f"factorizations requires 1 <= limit < 2**31, got {limit}")
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in reversed(prime_list_up_to(math.isqrt(limit))):
        spf[p * p :: p] = p  # smaller primes overwrite larger ones
    table = memoryview(spf)
    yield FactoredInteger(1, ())
    for n in range(2, limit + 1):
        factors = []
        rem = n
        while rem > 1:
            p = table[rem]
            e = 0
            while table[rem] == p:
                rem //= p
                e += 1
            factors.append((p, e))
        yield FactoredInteger(n, tuple(factors))


def as_factored(n: int | FactoredInteger) -> FactoredInteger:
    """Coerce an int (or pass through a FactoredInteger) to factored form."""
    if isinstance(n, FactoredInteger):
        return n
    return factorize(n)


def squarefree_divisors(n: int | FactoredInteger) -> list[tuple[int, int]]:
    """All squarefree divisors d of n with their Moebius values.

    Returns 2**omega(n) pairs (d, mu(d)) sorted by d.  Guarded at
    omega(n) > MAX_OMEGA to keep the inclusion-exclusion enumeration sane.
    """
    fn = as_factored(n)
    w = fn.omega()
    if w > MAX_OMEGA:
        raise ValueError(f"omega(n) = {w} exceeds enumeration guard {MAX_OMEGA}")
    divs = [(1, 1)]
    for p, _ in fn.factors:
        divs += [(d * p, -s) for d, s in divs]
    divs.sort()
    return divs
