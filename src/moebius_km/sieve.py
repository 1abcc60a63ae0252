"""Segmented sieves streaming mu_{k,m} and k-free values in bounded memory.

One NumPy kernel fills every block, and no step of it divides per cell.
Primes whose k-th power fits in the block are applied with strided slice
writes only.  Every other prime hits a block at most once, so those primes
are applied in a vectorized pass over the prime array: first-hit offsets,
then an exponent loop over the hits alone.  This is the bucket idea of
Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014).

The public operations are deterministic: segments are reduced in ascending
order and all arithmetic is exact integer arithmetic, so results do not
depend on the segment size or the worker count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arith import as_factored
from .functions import OrderPair, as_order
from .primes import _PRIME_TABLE_CAP, iroot, primes_up_to

MAX_RANGE = 1 << 62

# Peak bytes one worker holds per cell of its segment: the int8 block, the
# saved exponent-m slice of the small-prime pass (at most a quarter cell) and
# the large-prime temporaries (an int64 offset and a bool per prime, at most
# one prime per eight cells), with room to spare.
_CELL_BYTES = 3


def default_worker_count() -> int:
    """Worker count from MOEBIUS_WORKERS, defaulting to 1."""
    raw = os.environ.get("MOEBIUS_WORKERS")
    if raw is None:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError("MOEBIUS_WORKERS must be a positive integer")
    return count


@dataclass(frozen=True)
class SieveConfig:
    """Segment size and worker count for streaming passes."""

    segment_size: int = 1 << 20
    worker_count: int = field(default_factory=default_worker_count)

    def __post_init__(self) -> None:
        if self.segment_size < 64:
            raise ValueError("segment_size must be >= 64")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")


@dataclass(frozen=True)
class SieveBlock:
    """One contiguous block of pointwise function values.

    values[i] is the function at lo + i; dtype is int8 with entries in
    {-1, 0, 1}.
    """

    lo: int
    hi: int
    values: np.ndarray


def segment_memory_estimate(config: SieveConfig) -> int:
    """Upper estimate (bytes) of the peak sieve working set for a config.

    Counts the arrays each worker holds for its segment; the estimate is
    independent of the range being streamed.  The shared prime table is
    not included.
    """
    return config.worker_count * config.segment_size * _CELL_BYTES


def _max_range(k: int) -> int:
    """Largest hi the sieves accept for order k.

    Sieving primes stop at the prime table cap, so hi must stay below
    (cap + 1)**k; for k >= 3 that is beyond 2**62.
    """
    return min(MAX_RANGE, (_PRIME_TABLE_CAP + 1) ** k - 1)


def _validate_range(lo: int, hi: int, k: int) -> None:
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    limit = _max_range(k)
    if hi > limit:
        raise ValueError(f"hi={hi} exceeds the supported range {limit} for k={k}")


def _sieve_block(lo: int, n_cells: int, k: int, m: int, primes, powers) -> np.ndarray:
    """mu_{k,m}(lo + i) for i in range(n_cells) as an int8 array.

    ``powers`` holds primes**k.  Only primes with p**k <= hi matter, since
    exponents below k contribute a factor 1.  An m with 2**m > hi makes the
    result the k-free indicator, as no exponent can equal m.
    """
    out = np.ones(n_cells, dtype=np.int8)
    hi = lo + n_cells - 1
    split = int(np.searchsorted(powers, n_cells, side="right"))
    end = int(np.searchsorted(powers, hi, side="right"))

    # Small primes: exponent in [k, m) or above m zeroes a cell, exponent m
    # flips it.  Save the multiples of p**m, zero the multiples of p**k,
    # write the saved values back negated, then zero the multiples of p**(m+1).
    for p in primes[:split].tolist():
        q = p**k
        pm = p**m
        if pm > hi:
            out[-lo % q :: q] = 0
            continue
        s_m = -lo % pm
        flipped = -out[s_m::pm]
        out[-lo % q :: q] = 0
        out[s_m::pm] = flipped
        pm1 = pm * p
        if pm1 <= hi:
            out[-lo % pm1 :: pm1] = 0

    # Large primes hit the block at most once each; a chunk of them is
    # processed at a time so the temporaries stay proportional to the block.
    chunk = max(1, n_cells // 8)
    for start in range(split, end, chunk):
        stop = min(start + chunk, end)
        offs = -lo % powers[start:stop]
        hit = np.flatnonzero(offs < n_cells)
        if not hit.size:
            continue
        offs = offs[hit]
        hit_p = primes[start:stop][hit]
        cofactor = (lo + offs) // powers[start:stop][hit]
        extra = np.zeros(hit.size, dtype=np.int64)  # exponent minus k
        live = np.flatnonzero(cofactor % hit_p == 0)
        while live.size:
            extra[live] += 1
            cofactor[live] //= hit_p[live]
            live = live[cofactor[live] % hit_p[live] == 0]
        flip = extra == m - k
        out[offs[~flip]] = 0
        # Two primes can flip one cell: an indexed assignment would apply
        # the repeated index once, multiply.at applies it twice.
        np.multiply.at(out, offs[flip], -1)
    return out


def _check_block(lo: int, hi: int, k: int, config: SieveConfig | None) -> int:
    _validate_range(lo, hi, k)
    n_cells = hi - lo + 1
    segment_size = (config or SieveConfig()).segment_size
    if n_cells > segment_size:
        raise ValueError(f"block length {n_cells} exceeds segment_size {segment_size}")
    return n_cells


def sieve_mu_km(
    lo: int,
    hi: int,
    order: OrderPair | tuple[int, int],
    config: SieveConfig | None = None,
) -> SieveBlock:
    """Exact mu_{k,m} values over [lo, hi] as one block.

    The block length is capped by config.segment_size; use
    :func:`stream_sum` for longer ranges.
    """
    o = as_order(order)
    n_cells = _check_block(lo, hi, o.k, config)
    primes = primes_up_to(iroot(hi, o.k))
    out = _sieve_block(lo, n_cells, o.k, o.m, primes, primes**o.k)
    return SieveBlock(lo, hi, out)


def sieve_qk(
    lo: int,
    hi: int,
    k: int,
    config: SieveConfig | None = None,
) -> SieveBlock:
    """k-free indicator values over [lo, hi] as one block."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n_cells = _check_block(lo, hi, k, config)
    primes = primes_up_to(iroot(hi, k))
    # With m = hi.bit_length(), 2**m > hi: no exponent can equal m.
    out = _sieve_block(lo, n_cells, k, hi.bit_length(), primes, primes**k)
    return SieveBlock(lo, hi, out)


def _mask_non_coprime(block: np.ndarray, seg_lo: int, coprime_primes: list[int]) -> None:
    # Zero the cells sharing a factor with the filter modulus.  Stepping the
    # distinct primes of the modulus is exact: gcd > 1 iff some prime hits.
    for p in coprime_primes:
        start = ((seg_lo + p - 1) // p) * p - seg_lo
        if start < len(block):
            block[start::p] = 0


def _block_sum(block: np.ndarray) -> int:
    # Entries are in {-1, 0, 1}: (#1) - (#-1) = 2 * (#positive) - (#nonzero),
    # which counts without the int64 widening a sum would need.
    return 2 * int(np.count_nonzero(block > 0)) - int(np.count_nonzero(block))


def _ordered_map(fn, items, workers: int):
    """fn over items, results in input order, at most 2 * workers in flight."""
    if workers == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def stream_sum(
    x: int,
    order: OrderPair | tuple[int, int],
    coprime_to: int = 1,
    checkpoints: list[int] | None = None,
    config: SieveConfig | None = None,
) -> list[tuple[int, int]]:
    """Partial sums of mu_{k,m} over r <= checkpoint with gcd(r, coprime_to) = 1.

    One streaming pass over [1, x]; returns (checkpoint, sum) pairs in input
    order.  Checkpoints must be ascending (duplicates allowed) and <= x.
    The result is exact and identical for every segment size and worker
    count.
    """
    o = as_order(order)
    cfg = config or SieveConfig()
    _validate_range(1, x, o.k)
    if coprime_to < 1:
        raise ValueError("coprime_to must be >= 1")
    cps = [x] if checkpoints is None else list(checkpoints)
    if not cps:
        raise ValueError("checkpoints must be non-empty")
    for a, b in zip(cps, cps[1:]):
        if b < a:
            raise ValueError("checkpoints must be ascending")
    if cps[0] < 1 or cps[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")

    primes = primes_up_to(iroot(x, o.k))
    powers = primes**o.k
    coprime_primes = [p for p, _ in as_factored(coprime_to).factors]

    seg = cfg.segment_size
    # Map checkpoints to their segment index (they are ascending).
    cps_by_seg: dict[int, list[int]] = {}
    for c in cps:
        cps_by_seg.setdefault((c - 1) // seg, []).append(c)

    def segment_result(seg_lo: int):
        n_cells = min(seg, x - seg_lo + 1)
        block = _sieve_block(seg_lo, n_cells, o.k, o.m, primes, powers)
        _mask_non_coprime(block, seg_lo, coprime_primes)
        # Sum the block piece by piece between checkpoints.
        partials = []
        acc = 0
        start = 0
        for c in cps_by_seg.get((seg_lo - 1) // seg, ()):
            stop = c - seg_lo + 1
            acc += _block_sum(block[start:stop])
            start = stop
            partials.append((c, acc))
        return acc + _block_sum(block[start:]), partials

    results: list[tuple[int, int]] = []
    running = 0
    for total, partials in _ordered_map(
        segment_result, range(1, x + 1, seg), cfg.worker_count
    ):
        results.extend((c, running + s) for c, s in partials)
        running += total
    return results
