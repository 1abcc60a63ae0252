"""Segmented sieves streaming mu_{k,m} and k-free values in bounded memory.

A pass sieves only the integers coprime to its wheel W: the product of the
primes of the coprime filter among 2 and 3, so W is 1, 2, 3 or 6 and
follows from the filter.  Each residue c mod W coprime to W is one column,
and its cell t stands for r = W t + c; a block holds ``segment_size`` cells
of one column, so a segment covers W * ``segment_size`` integers and the
cells a filter prime of W would zero are never written.  This is the wheel
of Pritchard ("Explaining the wheel sieve", Acta Informatica 17, 1982).  A
prime power q coprime to W hits a column with stride q, starting at
(-lo) W^-1 mod q.  Without a filter W = 1 and a block is a plain range.

Every block starts as a copy of one pre-sieved periodic pattern.  The
factor of a prime p at r depends only on min(v_p(r), m + 1), so it has
period p**(m + 1); when p**m > MAX_RANGE the exponent m never occurs in
the domain, and the period is p**k.  A prime p of the coprime filter
zeroes the multiples of p, period p.  The primes up to 19 and those of
the filter, outside W, are multiplied into one period P in ascending order
while it stays within the default segment; the pattern holds their product
for every residue, so no block writes them again.  A factor depends only
on the valuation of its prime, which the unit W does not change, so a
column reads the pattern contiguously from lo W^-1 mod P.  Pre-sieving the
smallest primes is the usual partner of the bucket sieve below (Oliveira e
Silva, Herzog and Pardi, Math. Comp. 83, 2014).  Each pattern is built
once per (k, m, primes of the filter) and kept in a
:class:`~moebius_km.primes.KeyedStore` that keeps the newest 8.  The
k-free indicator is mu_{k,m} with m = max(k, 63): no exponent reaches 63
below 2**63, so it shares this one path.

One NumPy kernel then applies every prime past the pattern, and no step
of it divides per cell.  The dense primes, whose k-th power is at most
1/64 of the block, hit it at least 64 times each and are applied with
strided slice writes only.  Every other prime hits a block a few times or
not at all, and those primes are applied in one vectorized pass over the
prime array: first-hit offsets, the list of every hit, then an exponent
loop over the hits alone.  This is the bucket idea of the same paper.
Primes of the filter past the pattern and the wheel are masked last.  A
block is summed by folding it into 64 rows, added exactly in int8.

A stream runs on the caller's thread: one loop over the segments in
ascending order, reusing one block and one fold for the whole call.  All
arithmetic is exact integer arithmetic, so results do not depend on the
segment size.  The pattern store and the prime table are shared caches of
:mod:`moebius_km.primes`, each with its own lock, so callers may stream
from threads of their own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .arith import as_factored
from .functions import OrderPair, as_order
from .primes import _PRIME_TABLE_CAP, KeyedStore, iroot, primes_up_to

MAX_RANGE = 1 << 62
DEFAULT_SEGMENT_SIZE = 1 << 20

# Peak bytes a stream holds per cell of its segment: the int8 block (reused
# from segment to segment), the saved exponent-m slice of the dense-prime
# pass (at most a quarter cell), the int8 fold of the reduction (1 /
# _FOLD_ROWS cell, reused too) and the hit-list temporaries, with room to
# spare.  A hit-list round takes one prime per _CELLS_PER_PRIME cells, at
# least _MIN_PRIMES, and holds at most _PRIME_BYTES per prime: its primes
# hit once each, plus at most n_cells * sum(1 / q) repeat hits over the q
# past n_cells // _DENSE_HITS, which is below a fifth of the round for every
# block size.  The _MIN_PRIMES floor adds _MIN_PRIMES * _PRIME_BYTES bytes
# for small blocks.
_CELL_BYTES = 4
_CELLS_PER_PRIME = 64
_MIN_PRIMES = 4096
_PRIME_BYTES = 64

# A prime with p**k <= n_cells // _DENSE_HITS hits a block at least
# _DENSE_HITS times and is applied by strided slice writes, one Python
# iteration each; every other prime goes through the hit list.  Measured
# on 2**20-cell blocks ((2,3) with n = 30 at 1e8; (2,2), (2,3), (2,63) and
# (3,4) with n = 30 at 1e9; 2 cores), 64 and 128 tie within 3% and 16 is
# 3-11% slower: below about 64 hits a prime's slice writes cost more in
# Python and NumPy call overhead than its hits cost in the vectorized pass.
_DENSE_HITS = 64

# The reduction adds _FOLD_ROWS rows of a piece in int8: a column sum of
# entries in {-1, 0, 1} stays within [-_FOLD_ROWS, _FOLD_ROWS].
_FOLD_ROWS = 64

# A pattern's period stays within the default segment: at most this many
# int8 cells.  The store keeps at most _PATTERN_STORE patterns, dropping the
# oldest, so it never holds more than _PATTERN_STORE * _PATTERN_CELLS bytes.
_PATTERN_CELLS = DEFAULT_SEGMENT_SIZE
_PATTERN_STORE = 8
_PATTERNS = KeyedStore(_PATTERN_STORE)


@dataclass(frozen=True)
class SieveConfig:
    """Segment size for streaming passes.

    ``worker_count`` is validated and read by no code: every stream runs on
    the caller's thread.  It stays while the benchmark harness
    (``perfbench/worker.py``) passes it.
    """

    segment_size: int = DEFAULT_SEGMENT_SIZE
    worker_count: int = 1

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

    Counts the arrays a stream holds for its segment (``segment_size``
    cells of one wheel column and an int8 fold of 1/64 of that, both reused
    across segments and columns), the hit-list temporaries of the smallest
    round (one entry per prime, plus repeat hits that stay under a fifth of
    that), and the one pre-sieved pattern a pass reads (at most
    ``_PATTERN_CELLS`` bytes); the estimate is independent of the range
    being streamed.  The shared prime table and the other patterns of the
    store (at most ``_PATTERN_STORE - 1`` more) are not included.
    """
    return config.segment_size * _CELL_BYTES + _MIN_PRIMES * _PRIME_BYTES + _PATTERN_CELLS


def _max_range(k: int) -> int:
    """Largest x every exact engine accepts for order k: the sieves, the stream and the convolution.

    Sieving primes stop at the prime table cap, so x must stay below
    (cap + 1)**k; for k >= 3 that is beyond 2**62.  The convolution route's
    Moebius table has the same cap.  :func:`_validate_range` is the one check.
    """
    return min(MAX_RANGE, (_PRIME_TABLE_CAP + 1) ** k - 1)


def _validate_range(lo: int, hi: int, k: int) -> None:
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    limit = _max_range(k)
    if hi > limit:
        raise ValueError(f"x={hi} exceeds the supported range {limit} for k={k}")


def _first_cells(lo: int, wheel: int, q):
    """First t >= 0 with q | lo + wheel * t, for each q coprime to wheel.

    q is an int or an int64 array.  t = (s + a q) / wheel, where s = -lo
    mod q and a in [0, wheel) makes the numerator divisible; every unit mod
    2, 3 or 6 is its own inverse, so a = -s q mod wheel.  The numerator can
    pass 2**63, so it is split into quotients and remainders by wheel, each
    term below q.
    """
    s = -lo % q
    if wheel == 1:
        return s
    # Where the quotient is needed too, the remainder is x - wheel * (x //
    # wheel): NumPy divides by a scalar much faster than it takes a
    # remainder.  In-place steps keep an array call at six temporaries of
    # q's size.
    q_quo = q // wheel
    q_rem = q - wheel * q_quo
    s_quo = s // wheel
    s -= wheel * s_quo
    a = -s * q_rem % wheel
    s += a * q_rem
    s //= wheel
    s += s_quo
    s += a * q_quo
    return s


@dataclass(frozen=True)
class _Pattern:
    """One period of the pre-sieved factors of the smallest primes.

    values[i] is the product of the factors of the ``held`` primes at every
    r = i (mod len(values)).  No held prime divides ``wheel``, and a factor
    depends only on the valuation of its prime, which a unit such as
    ``wheel`` does not change: values[wheel * t mod len(values)] = values[t].
    values is read-only and shared by every block.
    """

    values: np.ndarray
    held: tuple[int, ...]
    wheel: int


def _build_pattern(k: int, m: int, coprime_primes: tuple[int, ...]) -> _Pattern:
    # Every candidate outside the wheel, in ascending order, whose step
    # still fits the period.  The candidates stop at 19 and the primes of
    # coprime_primes: a prime left out is applied by the kernel instead, so
    # the held set only saves work and correctness does not depend on it.
    wheel = math.prod(p for p in coprime_primes if p < 5)  # 1, 2, 3 or 6
    period = 1
    held: list[int] = []
    for p in sorted({*primes_up_to(19).tolist(), *coprime_primes}):
        if p in coprime_primes:
            step = p
        else:
            step = p**k if p**m > MAX_RANGE else p ** (m + 1)
        if wheel % p and period * step <= _PATTERN_CELLS:
            period *= step
            held.append(p)
    values = np.ones(period, dtype=np.int8)
    # Cell i stands for r = period + i: every held prime's step divides the
    # period, so each first multiple sits at offset 0 as it does for r = i.
    sieved = np.array([p for p in held if p not in coprime_primes], dtype=np.int64)
    _apply_primes(values, period, 1, k, m, sieved, sieved**k)
    _mask_non_coprime(values, period, 1, [p for p in held if p in coprime_primes])
    values.flags.writeable = False
    return _Pattern(values, tuple(held), wheel)


def _pattern(k: int, m: int, coprime_primes: tuple[int, ...] = ()) -> _Pattern:
    """The pattern of mu_{k,m} masked to the primes, built once per key in ``_PATTERNS``."""
    return _PATTERNS.get((k, m, coprime_primes), _build_pattern, k, m, coprime_primes)


def _kernel_primes(limit: int, k: int, pattern: _Pattern):
    """(primes, primes**k) for the primes <= limit outside the pattern and the wheel."""
    primes = primes_up_to(limit)
    skip = sorted({*pattern.held, *(p for p in (2, 3) if pattern.wheel % p == 0)})
    primes = np.delete(primes, np.searchsorted(primes, [p for p in skip if p <= limit]))
    return primes, primes**k


def _sieve_block(
    out: np.ndarray, lo: int, k: int, m: int, pattern: _Pattern, primes, powers
) -> None:
    """Write mu_{k,m}(lo + wheel * t) into out[t], wheel being the pattern's.

    The block starts as the pattern's values from the cell of lo on;
    ``primes`` are the primes past the pattern and the wheel, and ``powers``
    holds primes**k.  Only primes with p**k <= hi matter, since exponents
    below k contribute a factor 1.  An m with 2**m > hi makes the result the
    k-free indicator, as no exponent can equal m.
    """
    values = pattern.values
    period = len(values)
    n_cells = len(out)
    # The factors at lo + wheel * t equal those at lo / wheel + t, as wheel
    # is a unit mod period: a column reads the pattern contiguously.
    off = lo * pow(pattern.wheel, -1, period) % period
    filled = min(n_cells, period - off)
    out[:filled] = values[off : off + filled]
    wrap = min(n_cells - filled, off)
    out[filled : filled + wrap] = values[:wrap]
    filled += wrap
    # out[:filled] is now one whole period (or the whole block): double it.
    while filled < n_cells:
        step = min(filled, n_cells - filled)
        out[filled : filled + step] = out[:step]
        filled += step
    _apply_primes(out, lo, pattern.wheel, k, m, primes, powers)


def _apply_primes(out: np.ndarray, lo: int, wheel: int, k: int, m: int, primes, powers) -> None:
    """Multiply out[t] by the factors of ``primes`` at lo + wheel * t, in place."""
    n_cells = len(out)
    hi = lo + wheel * (n_cells - 1)
    split = int(np.searchsorted(powers, n_cells // _DENSE_HITS, side="right"))
    end = int(np.searchsorted(powers, hi, side="right"))

    # Dense primes: exponent in [k, m) or above m zeroes a cell, exponent m
    # flips it.  Save the multiples of p**m, zero the multiples of p**k,
    # write the saved values back negated, then zero the multiples of
    # p**(m+1).  One array call gives every first cell; steps past hi never
    # hit and stand as 1 there.
    if split:
        dense = primes[:split].tolist()
        flips = [p**m for p in dense]
        tops = [pm * p for p, pm in zip(dense, flips)]
        steps = [q if q <= hi else 1 for q in powers[:split].tolist() + flips + tops]
        first = _first_cells(lo, wheel, np.array(steps, dtype=np.int64)).tolist()
        for i, (q, pm, pm1) in enumerate(zip(steps, flips, tops)):
            t = first[i]
            if pm > hi:
                out[t::q] = 0
                continue
            t_m = first[split + i]
            flipped = -out[t_m::pm]
            out[t::q] = 0
            out[t_m::pm] = flipped
            if pm1 <= hi:
                out[first[2 * split + i] :: pm1] = 0

    # Every other prime goes through one hit list per round of ``chunk``
    # primes: the j-th hit of a prime is its first cell + j q, and an
    # exponent loop runs over the hits alone.  Once q >= n_cells every prime
    # hits at most once, and a round skips the count and the expansion.
    chunk = max(_MIN_PRIMES, n_cells // _CELLS_PER_PRIME)
    for start in range(split, end, chunk):
        stop = min(start + chunk, end)
        repeats = powers[start] < n_cells
        round_p, round_q = primes[start:stop], powers[start:stop]
        offs = _first_cells(lo, wheel, round_q)
        hit = np.flatnonzero(offs < n_cells)
        if not hit.size:
            continue
        offs, hit_p, hit_q = offs[hit], round_p[hit], round_q[hit]
        if repeats:
            counts = (n_cells - 1 - offs) // hit_q + 1
            j = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
            hit_p = np.repeat(hit_p, counts)
            hit_q = np.repeat(hit_q, counts)
            offs = np.repeat(offs, counts) + j * hit_q
        cofactor = (lo + wheel * offs) // hit_q
        extra = np.zeros(offs.size, dtype=np.int64)  # exponent minus k
        live = np.flatnonzero(cofactor % hit_p == 0)
        while live.size:
            extra[live] += 1
            cofactor[live] //= hit_p[live]
            live = live[cofactor[live] % hit_p[live] == 0]
        flip = extra == m - k
        out[offs[~flip]] = 0
        # Two primes can flip one cell: an indexed assignment would apply
        # the repeated index once, negative.at applies it twice.
        np.negative.at(out, offs[flip])


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
    lo, hi = checked_int(lo, "lo"), checked_int(hi, "hi")
    _validate_range(lo, hi, o.k)
    n_cells = hi - lo + 1
    segment_size = (config or SieveConfig()).segment_size
    if n_cells > segment_size:
        raise ValueError(f"block length {n_cells} exceeds segment_size {segment_size}")
    out = np.empty(n_cells, dtype=np.int8)
    pattern = _pattern(o.k, o.m)
    primes, powers = _kernel_primes(iroot(hi, o.k), o.k, pattern)
    _sieve_block(out, lo, o.k, o.m, pattern, primes, powers)
    return SieveBlock(lo, hi, out)


def sieve_qk(
    lo: int,
    hi: int,
    k: int,
    config: SieveConfig | None = None,
) -> SieveBlock:
    """k-free indicator values over [lo, hi] as one block.

    This is mu_{k,m} with m = max(k, 63): 2**m > MAX_RANGE, so no exponent
    can equal m.
    """
    k = checked_int(k, "k")
    return sieve_mu_km(lo, hi, (k, max(k, 63)), config)


def _mask_non_coprime(block: np.ndarray, lo: int, wheel: int, coprime_primes: list[int]) -> None:
    # Zero the cells sharing a factor with the filter modulus.  Stepping the
    # distinct primes of the modulus is exact: gcd > 1 iff some prime hits.
    for p in coprime_primes:
        block[_first_cells(lo, wheel, p) :: p] = 0


def _block_sum(block: np.ndarray, fold: np.ndarray) -> int:
    # Entries are in {-1, 0, 1}.  The first _FOLD_ROWS * c cells, as
    # _FOLD_ROWS rows of c, are added row by row into c cells of the int8
    # ``fold``: each column sum lies in [-_FOLD_ROWS, _FOLD_ROWS], so the
    # fold is exact.  The column sums are then added as int64 and the tail of
    # fewer than _FOLD_ROWS cells as Python ints.  Below _FOLD_ROWS columns
    # the fold's calls cost more than one widening sum of the piece.
    c = len(block) // _FOLD_ROWS
    if c < _FOLD_ROWS:
        return int(np.add.reduce(block, 0, np.int64))
    head = _FOLD_ROWS * c
    np.add.reduce(block[:head].reshape(_FOLD_ROWS, c), 0, np.int8, fold[:c])
    return int(np.add.reduce(fold[:c], 0, np.int64)) + sum(block[head:].tolist())


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


def checked_checkpoints(checkpoints, x: int) -> list[int]:
    """The checkpoints as a list of ints, once they are non-empty, ascending and in [1, x]."""
    cps = [checked_int(c, "checkpoint") for c in checkpoints]
    if not cps:
        raise ValueError("checkpoints must be non-empty")
    for a, b in zip(cps, cps[1:]):
        if b < a:
            raise ValueError("checkpoints must be ascending")
    if cps[0] < 1 or cps[-1] > x:
        raise ValueError("checkpoints must lie in [1, x]")
    return cps


def stream_sum(
    x: int,
    order: OrderPair | tuple[int, int],
    coprime_to: int = 1,
    checkpoints: list[int] | None = None,
    config: SieveConfig | None = None,
) -> list[tuple[int, int]]:
    """Partial sums of mu_{k,m} over r <= checkpoint with gcd(r, coprime_to) = 1.

    One streaming pass over [1, last checkpoint]; returns (checkpoint, sum)
    pairs in input order.  Checkpoints must be ascending (duplicates
    allowed) and <= x.
    The result is exact and identical for every segment size.  The segments
    are sieved in ascending order on the caller's thread, into one block
    and one fold allocated per call.  When 2 or 3 divides coprime_to, only
    the wheel columns coprime to them are sieved, ``segment_size`` cells of
    each per segment.
    """
    o = as_order(order)
    cfg = config or SieveConfig()
    x = checked_int(x, "x")
    _validate_range(1, x, o.k)
    coprime_to = positive_int(coprime_to, "coprime_to")
    cps = checked_checkpoints([x] if checkpoints is None else checkpoints, x)
    top = cps[-1]  # nothing past the last checkpoint is returned, so nothing is sieved

    coprime_primes = tuple(p for p, _ in as_factored(coprime_to).factors)
    pattern = _pattern(o.k, o.m, coprime_primes)
    wheel = pattern.wheel
    primes, powers = _kernel_primes(iroot(top, o.k), o.k, pattern)
    mask_primes = [p for p in coprime_primes if p not in pattern.held and wheel % p]
    # Column c holds r = wheel * t + c for t >= 0.
    columns = [c for c in range(1, wheel + 1) if math.gcd(c, wheel) == 1]

    seg = cfg.segment_size
    # Segment j holds the cells t in [j * seg, (j + 1) * seg) of every
    # column: the integers in (j * span, (j + 1) * span].  Map checkpoints
    # to their segment index (they are ascending).
    span = wheel * seg
    cps_by_seg: dict[int, list[int]] = {}
    for cp in cps:
        cps_by_seg.setdefault((cp - 1) // span, []).append(cp)
    block = np.empty(seg, dtype=np.int8)
    fold = np.empty(seg // _FOLD_ROWS, dtype=np.int8)

    results: list[tuple[int, int]] = []
    running = 0
    for t_lo in range(0, (top - 1) // wheel + 1, seg):
        here = cps_by_seg.get(t_lo // seg, ())
        partials = [running] * len(here)
        for c in columns:
            n_cells = min(seg, (top - c) // wheel + 1 - t_lo)
            if n_cells <= 0:
                continue
            cells = block[:n_cells]
            lo = wheel * t_lo + c
            _sieve_block(cells, lo, o.k, o.m, pattern, primes, powers)
            _mask_non_coprime(cells, lo, wheel, mask_primes)
            # Sum the block piece by piece between checkpoints; the cells
            # up to checkpoint X are those with t <= (X - c) // wheel.
            acc = 0
            start = 0
            for i, cp in enumerate(here):
                stop = (cp - c) // wheel - t_lo + 1
                acc += _block_sum(cells[start:stop], fold)
                start = stop
                partials[i] += acc
            running += acc + _block_sum(cells[start:], fold)
        results.extend(zip(here, partials))
    return results
