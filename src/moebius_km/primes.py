"""Shared prime table and integer root helpers.

The prime table is grown lazily by an odd-only Eratosthenes sieve and cached
at module level.  A request past its end sieves it again to the larger of
the request and twice the old end, so a process holds the primes it has
asked for, at most doubled, and no fixed first size.  Growth is guarded by
a lock and swapped in as one atomic state tuple, so concurrent callers
always observe a consistent table.  The table is marked read-only before
it is published, so no caller can change what every other caller reads.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_PRIME_TABLE_CAP = 1 << 26

_lock = threading.Lock()
# (sieved_to, primes_array) — replaced wholesale, never mutated.
_state: tuple[int, np.ndarray] = (0, np.empty(0, dtype=np.int64))


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


def _grown_to(limit: int) -> tuple[int, np.ndarray]:
    global _state
    state = _state
    if limit > state[0]:
        with _lock:
            state = _state
            if limit > state[0]:
                target = min(max(limit, 2 * state[0]), _PRIME_TABLE_CAP)
                table = _sieve(target)
                table.flags.writeable = False
                state = (target, table)
                _state = state
    return state


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (ascending).

    The returned array is a read-only view of the shared table: writing
    into it raises ``ValueError``.
    """
    if limit > _PRIME_TABLE_CAP:
        raise ValueError(f"prime table limit {limit} exceeds cap {_PRIME_TABLE_CAP}")
    sieved_to, arr = _grown_to(limit)
    if limit >= sieved_to:
        return arr
    cut = np.searchsorted(arr, limit, side="right")
    return arr[:cut]


def prime_list_up_to(limit: int) -> list[int]:
    """Same primes as :func:`primes_up_to` as a new Python list (faster to iterate)."""
    return primes_up_to(limit).tolist()


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
