"""Shared prime table, integer argument and root helpers, and the two process-wide caches.

Every table the package keeps for the whole process is one of two kinds,
both defined here, in the module every other module imports:

* :class:`GrownTable`, a read-only array grown on demand.  A request past
  its top rebuilds it to the larger of the request and twice the old top,
  at most ``_PRIME_TABLE_CAP``, so a process holds what it has asked for,
  at most doubled, and no fixed first size.  The prime table, grown by an
  odd-only Eratosthenes sieve, is one; the Moebius table of
  :mod:`moebius_km.summatory` is the other.
* :class:`KeyedStore`, objects built once per key, optionally keeping
  only the newest few: the sieve's pre-sieved patterns and the constants'
  log tables.

Each instance has its own lock, so a build may read another table (a
Moebius table or a pattern build reads the prime table) without
deadlocking.  A table is marked read-only and published as one atomic
state tuple, and a store entry is built once, so concurrent callers always
observe one consistent object and no caller can change what every other
caller reads.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

_PRIME_TABLE_CAP = 1 << 26


class GrownTable:
    """One read-only array shared by the process, rebuilt larger on demand.

    ``state`` is (top, build(top)), replaced wholesale and never mutated;
    it starts as (0, ``empty``).
    """

    def __init__(self, build, empty: np.ndarray) -> None:
        self.build = build
        self.state = (0, empty)
        self._lock = threading.Lock()

    def grown_to(self, limit: int) -> tuple[int, np.ndarray]:
        """The state once its top is at least ``limit`` (at most ``_PRIME_TABLE_CAP``).

        A rebuild goes to min(max(limit, 2 * top), ``_PRIME_TABLE_CAP``)
        under the lock, is marked read-only and is published as one tuple.
        """
        state = self.state
        if limit > state[0]:
            with self._lock:
                state = self.state
                if limit > state[0]:
                    top = min(max(limit, 2 * state[0]), _PRIME_TABLE_CAP)
                    table = self.build(top)
                    table.flags.writeable = False
                    self.state = state = (top, table)
        return state


class KeyedStore:
    """Objects built once per key and shared by the process.

    With a ``bound``, the oldest entry is dropped once the store holds that
    many, so it keeps the newest ``bound``.  The lock is reentrant: a build
    may fetch another entry of the same store.
    """

    def __init__(self, bound: int | None = None) -> None:
        self.entries: dict = {}
        self.bound = bound
        self._lock = threading.RLock()

    def get(self, key, build, *args):
        """entries[key], built once by build(*args): threads racing on it share one object."""
        value = self.entries.get(key)
        if value is None:
            with self._lock:
                value = self.entries.get(key)
                if value is None:
                    value = build(*args)
                    while self.bound is not None and len(self.entries) >= self.bound:
                        del self.entries[next(iter(self.entries))]
                    self.entries[key] = value
        return value


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as one new int64 array.

    Odd numbers only: flag i stands for 2 i + 1, except flag 0, which stands
    for 2 (1 is not prime, so the slot is free).  The indices of the set
    flags are mapped to primes in place, so the table is the only array of
    its size this allocates besides the flags.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


_PRIMES = GrownTable(_sieve, np.empty(0, dtype=np.int64))


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (ascending).

    The returned array is a read-only view of the shared table: writing
    into it raises ``ValueError``.
    """
    if limit > _PRIME_TABLE_CAP:
        raise ValueError(f"prime table limit {limit} exceeds cap {_PRIME_TABLE_CAP}")
    sieved_to, arr = _PRIMES.grown_to(limit)
    if limit >= sieved_to:
        return arr
    cut = np.searchsorted(arr, limit, side="right")
    return arr[:cut]


def prime_list_up_to(limit: int) -> list[int]:
    """Same primes as :func:`primes_up_to` as a new Python list (faster to iterate)."""
    return primes_up_to(limit).tolist()


def checked_int(value, name: str) -> int:
    """``value`` as an int; a float such as 10.5 raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def positive_int(value, name: str) -> int:
    """``value`` as an int >= 1; anything else raises ValueError naming it."""
    value = checked_int(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, computed in integer arithmetic.

    A float seed is corrected by neighbour checks, so the result is exact
    for every n >= 0 (no float-pow boundary drift).
    """
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    if r < 1:
        r = 1
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r
