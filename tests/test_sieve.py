import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_mu_km, oracle_qk
from moebius_km import sieve
from moebius_km.arith import as_factored, factorize, gcd
from moebius_km.functions import mu_km, q_k
from moebius_km.primes import _PRIME_TABLE_CAP, iroot, primes_up_to
from moebius_km.sieve import (
    MAX_RANGE,
    SieveConfig,
    _max_range,
    segment_memory_estimate,
    sieve_mu_km,
    sieve_qk,
    stream_sum,
)


def test_block_example_one_to_twelve():
    block = sieve_mu_km(1, 12, (2, 3))
    assert block.values.tolist() == [1, 1, 1, 0, 1, 1, 1, -1, 0, 1, 1, 0]


def test_block_single_cell():
    assert sieve_mu_km(1, 1, (4, 7)).values.tolist() == [1]


def test_block_above_one_million_matches_pointwise():
    block = sieve_mu_km(10**6 + 1, 10**6 + 16, (2, 3))
    for i, v in enumerate(block.values.tolist()):
        assert v == mu_km(10**6 + 1 + i, (2, 3))


def test_qk_block_examples():
    assert sieve_qk(1, 10, 2).values.tolist() == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]
    assert sieve_qk(1, 1, 5).values.tolist() == [1]
    # recomputed via the independent oracle rather than trusted
    expected = [oracle_qk(n, 2) for n in (48, 49, 50)]
    assert expected == [0, 0, 0]
    assert sieve_qk(48, 50, 2).values.tolist() == expected


def test_blocks_match_oracle_windows():
    rng = random.Random(20260810)
    for _ in range(25):
        lo = rng.randrange(1, 10**8 - 100)
        block = sieve_mu_km(lo, lo + 99, (2, 3))
        qblock = sieve_qk(lo, lo + 99, 3)
        for i in range(100):
            assert block.values[i] == oracle_mu_km(lo + i, 2, 3), lo + i
            assert qblock.values[i] == oracle_qk(lo + i, 3), lo + i


def test_block_point_agreement_ten_thousand_samples():
    rng = random.Random(1729)
    orders = [(2, 2), (2, 3), (3, 5), (4, 6)]
    checked = 0
    for _ in range(100):
        lo = rng.randrange(1, 10**8 - 100)
        o = orders[rng.randrange(len(orders))]
        block = sieve_mu_km(lo, lo + 99, o)
        for i in range(100):
            assert block.values[i] == mu_km(lo + i, o), (lo + i, o)
        checked += 100
    assert checked == 10**4


def test_range_validation():
    with pytest.raises(ValueError):
        sieve_mu_km(0, 5, (2, 3))
    with pytest.raises(ValueError):
        sieve_mu_km(7, 3, (2, 3))
    with pytest.raises(ValueError):
        sieve_mu_km(1, 2**62 + 1, (2, 3))
    with pytest.raises(ValueError):
        sieve_mu_km(1, 2**21, (2, 3))  # exceeds default segment size
    with pytest.raises(ValueError):
        sieve_qk(1, 10, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SieveConfig(segment_size=32)
    with pytest.raises(ValueError):
        SieveConfig(worker_count=0)


def test_stream_sum_examples():
    assert stream_sum(12, (2, 3), 1, [12]) == [(12, 7)]
    assert stream_sum(12, (2, 3), 2, [12]) == [(12, 5)]
    assert stream_sum(1, (3, 4), 1, [1]) == [(1, 1)]


def test_stream_sum_brute_force_with_coprime_filter():
    x, n = 5000, 30
    expected = 0
    checkpoints = [1, 499, 500, 500, 4999, 5000]
    want = []
    idx = 0
    for r in range(1, x + 1):
        if gcd(r, n) == 1:
            expected += mu_km(r, (2, 3))
        while idx < len(checkpoints) and checkpoints[idx] == r:
            want.append((r, expected))
            idx += 1
    got = stream_sum(x, (2, 3), n, checkpoints, SieveConfig(segment_size=64))
    assert got == want


def test_stream_sum_duplicate_checkpoints_returned_verbatim():
    got = stream_sum(100, (2, 3), 1, [7, 7, 100])
    assert got[0] == got[1] and got[0][0] == 7 and len(got) == 3


def test_stream_sum_checkpoint_validation():
    with pytest.raises(ValueError):
        stream_sum(10, (2, 3), 1, [5, 3])
    with pytest.raises(ValueError):
        stream_sum(10, (2, 3), 1, [11])
    with pytest.raises(ValueError):
        stream_sum(10, (2, 3), 1, [])
    with pytest.raises(ValueError):
        stream_sum(10, (2, 3), 0, [10])


@pytest.mark.parametrize("coprime_to", [1, 6])
def test_stream_sum_sieves_only_up_to_the_last_checkpoint(monkeypatch, coprime_to):
    calls = []
    block = sieve._sieve_block

    def counting(out, lo, k, m, pattern, primes, powers):
        calls.append((lo, len(out), len(primes)))
        return block(out, lo, k, m, pattern, primes, powers)

    monkeypatch.setattr(sieve, "_sieve_block", counting)
    cfg = SieveConfig(segment_size=64)
    far = stream_sum(10**6, (2, 3), coprime_to, [500, 1000], cfg)
    far_calls, calls[:] = calls[:], []
    near = stream_sum(1000, (2, 3), coprime_to, [500, 1000], cfg)
    assert far == near
    # The same blocks, with the same kernel primes (those up to sqrt(1000)).
    assert far_calls == calls and 0 < len(calls) <= 1000 // 64 + 1
    with pytest.raises(ValueError):
        stream_sum(999, (2, 3), coprime_to, [1000], cfg)  # still checked against x


def _assert_blocks_match_pointwise(lo, hi, orders, segment_size):
    cfg = SieveConfig(segment_size=segment_size)
    blocks = {o: sieve_mu_km(lo, hi, o, cfg).values for o in orders}
    ks = sorted({k for k, _ in orders})
    qblocks = {k: sieve_qk(lo, hi, k, cfg).values for k in ks}
    for i, n in enumerate(range(lo, hi + 1)):
        fn = factorize(n)
        for o, values in blocks.items():
            assert values[i] == mu_km(fn, o), (n, o)
        for k, values in qblocks.items():
            assert values[i] == q_k(fn, k), (n, k)


def test_kernel_two_large_primes_flip_one_cell():
    # 92623806 = 2 * 3**2 * 11**2 * 23 * 43**2: in a 100-cell block 11 and 43
    # both go through the hit list, and both flip this cell for (2, 2).
    n = 92623806
    assert factorize(n).factors == ((2, 1), (3, 2), (11, 2), (23, 1), (43, 2))
    _assert_blocks_match_pointwise(n - 50, n + 49, [(2, 2), (2, 3)], 100)
    assert sieve_mu_km(n - 50, n + 49, (2, 2)).values[50] == -1


@pytest.mark.parametrize("p", [61, 67])
@pytest.mark.parametrize("power", [2, 3, 4])
def test_kernel_at_small_large_prime_cut(p, power):
    # With 4096-cell blocks 61**2 = 3721 can hit twice, so its hit-list round
    # expands repeat hits, while 67**2 = 4489 hits at most once; windows
    # centre on p**2, p**3 and p**4.
    centre = p**power
    lo = max(1, centre - 2048)
    _assert_blocks_match_pointwise(lo, lo + 4095, [(2, 2), (2, 3), (2, 4)], 4096)


def test_kernel_at_top_of_domain():
    _assert_blocks_match_pointwise(2**62 - 4096, 2**62, [(3, 4), (3, 5), (4, 6)], 4097)


def test_domain_limit_per_k():
    # Sieving primes stop at the prime table cap, which bounds hi for k = 2.
    top = _max_range(2)
    assert top == (2**26 + 1) ** 2 - 1 == 4503599761588224
    assert iroot(top, 2) == _PRIME_TABLE_CAP < iroot(top + 1, 2)
    assert top < MAX_RANGE
    with pytest.raises(ValueError, match=f"{top} for k=2"):
        sieve_mu_km(2**62 - 100, 2**62, (2, 3))
    with pytest.raises(ValueError, match=f"{top} for k=2"):
        sieve_qk(top - 99, top + 1, 2)
    with pytest.raises(ValueError, match=f"{top} for k=2"):
        stream_sum(top + 1, (2, 2))
    for k in (3, 4, 7):
        assert _max_range(k) == MAX_RANGE
        assert iroot(MAX_RANGE, k) <= _PRIME_TABLE_CAP
        with pytest.raises(ValueError, match=f"for k={k}"):
            sieve_qk(MAX_RANGE - 9, MAX_RANGE + 1, k)
    assert sieve_qk(MAX_RANGE - 9, MAX_RANGE, 3).values.tolist() == [
        q_k(n, 3) for n in range(MAX_RANGE - 9, MAX_RANGE + 1)
    ]


def test_stream_sum_memory_independent_of_segment_count():
    cfg = SieveConfig(segment_size=1024)
    stream_sum(3000 * 1024, (3, 4), config=cfg)  # warm the prime table

    def peak(n_segments):
        tracemalloc.start()
        try:
            stream_sum(n_segments * 1024, (3, 4), config=cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(300), peak(3000)
    assert large <= small + 64 * 1024, (small, large)


@pytest.mark.parametrize("coprime_primes", [(), (2, 3)], ids=["w1", "w6"])
@pytest.mark.parametrize("segment_size", [64, 4096, 1 << 16])
def test_block_peak_within_per_worker_estimate(coprime_primes, segment_size):
    # Near 2**61 every round of the hit-list pass is full, including the
    # _MIN_PRIMES floor of small blocks: the block, the int8 fold and the
    # kernel's temporaries must fit the estimate less its pattern.
    k, m = 3, 4
    pattern = sieve._pattern(k, m, coprime_primes)
    lo = 2**61 + 1
    hi = lo + pattern.wheel * (segment_size - 1)
    primes, powers = sieve._kernel_primes(iroot(hi, k), k, pattern)
    assert len(primes) > 4 * sieve._MIN_PRIMES
    share = segment_memory_estimate(SieveConfig(segment_size)) - sieve._PATTERN_CELLS
    tracemalloc.start()
    try:
        block = np.empty(segment_size, dtype=np.int8)
        fold = np.empty(segment_size // sieve._FOLD_ROWS, dtype=np.int8)
        sieve._sieve_block(block, lo, k, m, pattern, primes, powers)
        sieve._block_sum(block, fold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= share, (peak, share)


@given(
    st.integers(min_value=1, max_value=1500),
    st.integers(min_value=1, max_value=60),
    st.sampled_from([(2, 2), (2, 3), (3, 4)]),
    st.integers(min_value=6, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_stream_sum_matches_brute_force(x, n, order, seg_exp):
    expected = sum(mu_km(r, order) for r in range(1, x + 1) if gcd(r, n) == 1)
    cfg = SieveConfig(segment_size=1 << seg_exp)
    assert stream_sum(x, order, n, [x], cfg) == [(x, expected)]


def test_qk_values_are_indicator():
    vals = sieve_qk(1, 10**4, 2).values
    assert set(np.unique(vals).tolist()) <= {0, 1}
    assert vals.sum() == sum(q_k(n, 2) for n in range(1, 10**4 + 1))


def test_memory_estimate_within_budget():
    assert segment_memory_estimate(SieveConfig()) <= 64 * 2**20



_WRAP_ORDERS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 5), (4, 6)]
# The last modulus is the product of the primes up to 23: its mask does not
# fit in one pattern period, so 19 and 23 are masked block by block.  The
# moduli from 2 to 15 give the wheels 2, 3 and 6 with and without 5 in n.
_WRAP_MODULI = [1, 2, 3, 4, 6, 9, 10, 12, 15, 30, 42, 210, 223092870]


def _pattern_of(k, m, n):
    return sieve._pattern(k, m, tuple(p for p, _ in as_factored(n).factors))


def _assert_steps_pointwise(got, order, n, label):
    # Each step between consecutive integer checkpoints must be mu_km(r)
    # when gcd(r, n) = 1 and 0 otherwise; returns the number of steps.
    checked = 0
    for (r0, s0), (r, s) in zip(got, got[1:]):
        if r0 == r - 1:
            want = mu_km(r, order) if gcd(r, n) == 1 else 0
            assert s - s0 == want, (order, n, label, r)
            checked += 1
    return checked


@pytest.mark.parametrize("segment_size", [64, 1000, 1 << 20])
@pytest.mark.parametrize("order", _WRAP_ORDERS, ids=lambda o: f"{o[0]}-{o[1]}")
def test_stream_sum_cell_by_cell_across_pattern_wraps(order, segment_size):
    # A checkpoint at every integer of windows around the pattern wraps and
    # around the segment boundary nearest to the first one.  A segment holds
    # segment_size cells of each wheel column, so it spans wheel *
    # segment_size integers.  Column c wraps where r = 0 mod period, first
    # at r = j * period with j = c / period mod wheel; the windows around
    # j * period for j <= wheel coprime to it cover every column.  Past
    # 2**20 only the first wrap is kept: streaming to 6 * 2**20 in 64-cell
    # segments takes seconds per modulus.
    k, m = order
    cfg = SieveConfig(segment_size=segment_size)
    for n in _WRAP_MODULI:
        pattern = _pattern_of(k, m, n)
        period, wheel = len(pattern.values), pattern.wheel
        span = wheel * segment_size
        boundary = 1 + span * max(1, round((period - 1) / span))
        wraps = [j * period for j in range(1, wheel + 1) if gcd(j, wheel) == 1]
        wraps = [r for r in wraps if r <= 2**20] or wraps[:1]
        cells = sorted({r for c in (*wraps, boundary) for r in range(max(1, c - 71), c + 71)})
        got = stream_sum(cells[-1], order, n, cells, cfg)
        assert _assert_steps_pointwise(got, order, n, segment_size) >= 99 * len(wraps)


@pytest.mark.parametrize("segment_size", [64, 1000, 1 << 20])
@pytest.mark.parametrize("order", _WRAP_ORDERS, ids=lambda o: f"{o[0]}-{o[1]}")
def test_stream_sum_ends_at_every_residue_mod_six(order, segment_size):
    # x = 6 * segment_size + d ends just past the first segment of the
    # 6-wheel (and of the 2- and 3-wheels a few segments on), so the last
    # segment holds 0 or 1 cells of some columns; every x mod 6 occurs.
    # Steps are checked over the last 40 integers and across the boundary.
    cfg = SieveConfig(segment_size=segment_size)
    top = 6 * segment_size
    for n in _WRAP_MODULI:
        for d in range(6):
            x = top + d
            cells = list(range(max(1, top - 40), x + 1))
            got = stream_sum(x, order, n, cells, cfg)
            assert got[-1][0] == x
            assert _assert_steps_pointwise(got, order, n, (segment_size, x)) == len(cells) - 1


@pytest.mark.parametrize("coprime_primes", [(2,), (3,), (2, 3)], ids=["w2", "w3", "w6"])
def test_wheel_block_at_top_of_domain(coprime_primes):
    # One block of a wheel column ending at the top of the domain for k = 3:
    # first-hit offsets of prime powers near 2**62 must be exact with no
    # int64 overflow; checked pointwise, as test_kernel_at_top_of_domain
    # does for plain blocks.
    n_cells = 400
    wheel = math.prod(coprime_primes)
    lo = 2**62 - wheel * (n_cells - 1)
    while gcd(lo, wheel) != 1:
        lo -= 1
    hi = lo + wheel * (n_cells - 1)
    assert hi <= 2**62
    blocks = {}
    for order in [(3, 4), (4, 6)]:
        k, m = order
        pattern = sieve._pattern(k, m, coprime_primes)
        assert pattern.wheel == wheel
        primes, powers = sieve._kernel_primes(iroot(hi, k), k, pattern)
        blocks[order] = np.empty(n_cells, dtype=np.int8)
        sieve._sieve_block(blocks[order], lo, k, m, pattern, primes, powers)
    for t in range(n_cells):
        fn = factorize(lo + wheel * t)
        for order, values in blocks.items():
            assert values[t] == mu_km(fn, order), (order, wheel, lo + wheel * t)


def test_blocks_starting_at_every_phase_near_a_wrap():
    # Blocks whose first cell sits at the last cells of a period, on its
    # first cell, or just past it (stream_sum's blocks start at odd r only).
    for order in _WRAP_ORDERS:
        period = len(_pattern_of(*order, 1).values)
        for lo in (period - 2, period - 1, period, period + 1, 2 * period - 1, 2 * period):
            values = sieve_mu_km(lo, lo + 99, order).values.tolist()
            assert values == [mu_km(r, order) for r in range(lo, lo + 100)], (order, lo)
    for k in (2, 3, 4):
        period = len(sieve._pattern(k, 63).values)
        for lo in (period - 1, period, period + 1):
            values = sieve_qk(lo, lo + 99, k).values.tolist()
            assert values == [q_k(r, k) for r in range(lo, lo + 100)], (k, lo)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 64])
def test_qk_is_mu_km_with_m_past_the_domain(k):
    # 2**63 > MAX_RANGE, so no exponent reaches max(k, 63) and mu_{k,m} is
    # the k-free indicator; windows near 1, at a pattern wrap and at the top.
    m = max(k, 63)
    period = len(sieve._pattern(k, m).values)
    top = _max_range(k)
    for lo in (1, max(1, period - 50), top - 99):
        qk = sieve_qk(lo, lo + 99, k).values
        assert np.array_equal(qk, sieve_mu_km(lo, lo + 99, (k, m)).values), (k, lo)
        assert qk.tolist() == [q_k(r, k) for r in range(lo, lo + 100)], (k, lo)
    # Every power of 2 from 2**k to the top is a non-k-free cell.
    for j in range(k, top.bit_length()):
        assert sieve_qk(2**j, 2**j, k).values.tolist() == [0], (k, j)


def test_pattern_holds_primes_whose_exponent_m_never_occurs():
    # p**m > 2**62 leaves p the period p**k: 3, 5 and 7 for (2, 40), while
    # 2**40 <= 2**62 keeps the step 2**41, too long for the period.
    pattern = sieve._pattern(2, 40)
    assert (pattern.held, len(pattern.values)) == ((3, 5, 7), 11025)
    pattern = sieve._pattern(3, 63)
    assert (pattern.held, len(pattern.values)) == ((2, 3, 5), 27000)


@pytest.mark.parametrize(
    "order", [(2, 15), (2, 40), (3, 25), (3, 62), (3, 63)], ids=lambda o: f"{o[0]}-{o[1]}"
)
def test_large_m_blocks_near_wraps_and_at_the_top(order):
    # Windows at the wraps, at the top of the domain and around every p**m
    # of a candidate prime that still lies in the domain (up to 11**15, 2**40,
    # 5**25 and 2**62): there the exponent m occurs and the cell flips.
    k, m = order
    top = _max_range(k)
    period = len(sieve._pattern(k, m).values)
    powers = [p**m for p in primes_up_to(19).tolist() if p**m <= top]
    for lo in (period - 50, 2 * period - 50, top - 99, *(min(q, top - 50) - 49 for q in powers)):
        values = sieve_mu_km(lo, lo + 99, order).values.tolist()
        assert values == [mu_km(r, order) for r in range(lo, lo + 100)], (order, lo)
    # The same orders streamed on the 6-wheel across the wraps of columns.
    pattern = _pattern_of(k, m, 30)
    period, wheel = len(pattern.values), pattern.wheel
    wraps = [j * period for j in range(1, wheel + 1) if gcd(j, wheel) == 1]
    cells = sorted({r for c in wraps for r in range(c - 40, c + 40)})
    got = stream_sum(cells[-1], order, 30, cells)
    assert _assert_steps_pointwise(got, order, 30, "w6") >= 79 * len(wraps)


def test_pinned_pattern_bytes():
    # Among the candidates, p**m first passes 2**62 at 19**15, so the
    # patterns of m <= 14 keep the period p**(m + 1) of every prime, and the
    # k-free patterns the period p**k: digests of their bytes.
    pinned = {
        (2, 3, ()): ((2, 3, 5), 810000, "df16d17fc92b3ebd"),
        (2, 3, (2, 3, 5)): ((5, 7), 12005, "e84ab85110496ff7"),
        (2, 63, ()): ((2, 3, 5, 7), 44100, "4663cc85527f09c6"),
        (3, 63, ()): ((2, 3, 5), 27000, "df07b42385af8345"),
    }
    for key, (held, period, digest) in pinned.items():
        pattern = sieve._pattern(*key)
        got = hashlib.sha256(pattern.values.tobytes()).hexdigest()[:16]
        assert (pattern.held, len(pattern.values), got) == (held, period, digest), key


def test_pattern_is_invariant_under_the_wheel():
    # Column blocks read the pattern contiguously from lo / wheel: that
    # needs values[wheel * t mod period] = values[t], as the wheel is a unit
    # mod the period and the held factors depend only on valuations.
    for order in _WRAP_ORDERS:
        for n in _WRAP_MODULI:
            pattern = _pattern_of(*order, n)
            values, wheel = pattern.values, pattern.wheel
            t = np.arange(len(values))
            assert np.array_equal(values[wheel * t % len(values)], values), (order, n)


def test_pattern_store_stays_bounded(monkeypatch):
    monkeypatch.setattr(sieve, "_patterns", {})
    for k in (2, 3):
        for m in range(k, k + 4):
            for n in (1, 2, 6, 10, 30):
                primes = tuple(p for p, _ in as_factored(n).factors)
                sieve._pattern(k, m, primes)
                assert len(sieve._patterns) <= sieve._PATTERN_STORE
    assert len(sieve._patterns) == sieve._PATTERN_STORE
    # The newest patterns are the ones kept, and a dropped one is rebuilt.
    assert (3, 6, (2, 3, 5)) in sieve._patterns
    assert (2, 2, ()) not in sieve._patterns
    assert stream_sum(12, (2, 2), 1, [12]) == [(12, 5)]
    assert all(p.values.nbytes <= sieve._PATTERN_CELLS for p in sieve._patterns.values())


def test_cold_pattern_from_many_threads(monkeypatch):
    # More threads than cores and a short switch interval: every thread must
    # get the one pattern object the store keeps.
    monkeypatch.setattr(sieve, "_patterns", {})
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def work(i):
        barrier.wait()
        got[i] = sieve._pattern(2, 3, (3, 7))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert all(p is sieve._patterns[(2, 3, (3, 7))] for p in got)
    assert not got[0].values.flags.writeable


_HIT_ORDERS = [(2, 2), (2, 3), (3, 4), (3, 5), (2, 63)]
_WHEEL_PRIMES = [(), (2,), (3,), (2, 3)]
_WHEEL_IDS = ["w1", "w2", "w3", "w6"]


def _sieved_column(lo, n_cells, order, wheel_primes):
    # One block of the wheel column through lo, as stream_sum sieves it.
    k, m = order
    pattern = sieve._pattern(k, m, wheel_primes)
    hi = lo + pattern.wheel * (n_cells - 1)
    primes, powers = sieve._kernel_primes(iroot(hi, k), k, pattern)
    out = np.empty(n_cells, dtype=np.int8)
    sieve._sieve_block(out, lo, k, m, pattern, primes, powers)
    return out, powers


def _max_sparse_hits(n_cells, powers):
    # The most cells any prime of the hit-list pass can hit in a block.
    sparse = powers[powers > n_cells // sieve._DENSE_HITS]
    return (n_cells - 1) // int(sparse[0]) + 1 if sparse.size else 0


def _assert_columns_match_pointwise(lo, n_cells, wheel_primes, orders):
    wheel = math.prod(wheel_primes)
    blocks = {o: _sieved_column(lo, n_cells, o, wheel_primes)[0] for o in orders}
    for t in range(n_cells):
        fn = factorize(lo + wheel * t)
        for o, values in blocks.items():
            assert values[t] == mu_km(fn, o), (o, wheel, lo + wheel * t)


@pytest.mark.parametrize("wheel_primes", _WHEEL_PRIMES, ids=_WHEEL_IDS)
@pytest.mark.parametrize("segment_size", [64, 100, 4096, 1 << 16])
def test_hit_list_blocks_match_pointwise(segment_size, wheel_primes):
    # Past the dense primes every prime goes through the hit list.  From
    # 4096 cells on, its first primes hit a block 2 to 64 times for k = 2.
    lo = 10**7 + 1  # coprime to 6
    _assert_columns_match_pointwise(lo, segment_size, wheel_primes, _HIT_ORDERS)
    for order in [(2, 2), (2, 3)]:
        _, powers = _sieved_column(lo, segment_size, order, wheel_primes)
        most = _max_sparse_hits(segment_size, powers)
        assert most <= sieve._DENSE_HITS, order
        assert most >= 2 or segment_size < 4096, order


@pytest.mark.parametrize("wheel_primes", _WHEEL_PRIMES, ids=_WHEEL_IDS)
@pytest.mark.parametrize("segment_size", [64, 100])
def test_hit_list_blocks_near_the_top_of_the_domain(segment_size, wheel_primes):
    wheel = math.prod(wheel_primes)
    for orders in ([(3, 4), (3, 5)], [(2, 2), (2, 3), (2, 63)]):
        top = min(_max_range(k) for k, _ in orders)
        lo = top - wheel * (segment_size - 1)
        while gcd(lo, wheel) != 1:
            lo -= 1
        _assert_columns_match_pointwise(lo, segment_size, wheel_primes, orders)


@pytest.mark.parametrize("wheel_primes", [(), (2, 3)], ids=["w1", "w6"])
def test_two_repeating_primes_flip_one_cell(wheel_primes):
    # In a 4096-cell block 11**2 and 13**2 are past the dense primes and hit
    # it 24 to 34 times; at n both exponents equal m, so the cell flips twice.
    for order, n in [((2, 2), 11**2 * 13**2 * 17), ((2, 3), 11**3 * 13**3)]:
        values, powers = _sieved_column(n, 4096, order, wheel_primes)
        assert 121 in powers.tolist() and 4096 // sieve._DENSE_HITS < 121
        assert values[0] == mu_km(n, order) == 1, order
        _assert_columns_match_pointwise(n - 200 * math.prod(wheel_primes), 400, wheel_primes, [order])


def test_block_sum_matches_int_sum():
    rng = np.random.default_rng(7)
    fold = np.empty((1 << 20) // sieve._FOLD_ROWS, dtype=np.int8)
    for n in [*range(0, 201), 4095, 4096, 4097, 8191, 1 << 20]:
        pieces = [
            np.ones(n, dtype=np.int8),
            -np.ones(n, dtype=np.int8),
            np.zeros(n, dtype=np.int8),
            rng.integers(-1, 2, n).astype(np.int8),
        ]
        for piece in pieces:
            assert sieve._block_sum(piece, fold) == int(piece.sum()), n
    # The fold reads only its first len // _FOLD_ROWS cells: a fold sized for
    # the segment serves every piece of it.
    piece = -np.ones(1 << 20, dtype=np.int8)
    assert sieve._block_sum(piece[5:], fold[: len(piece[5:]) // sieve._FOLD_ROWS]) == 5 - (1 << 20)


@pytest.mark.parametrize("coprime_to", [1, 6, 30])
def test_stream_sum_identical_across_segments_and_workers(coprime_to):
    # worker_count is validated and read by no code; the benchmark harness
    # still passes values above 1, which must change no sum.
    checkpoints = [1, 1000, 1054, 10**4 + 1, 99_999, 10**5, 5 * 10**5, 6 * 10**5]
    results = {
        (seg, workers): stream_sum(
            6 * 10**5, (2, 3), coprime_to, checkpoints, SieveConfig(seg, workers)
        )
        for seg in (64, 1000, 4096, 1 << 16, 1 << 20)
        for workers in (1, 2)
    }
    assert len(set(map(tuple, results.values()))) == 1, results


def test_repeat_hits_stay_within_a_fifth_of_a_round():
    # The estimate's _PRIME_BYTES per prime of a round also covers the
    # repeat hits: past the dense primes they number at most
    # n_cells * sum(1 / p**2) over p**2 > n_cells // _DENSE_HITS (k = 2 is
    # the worst k, and no prime held by a pattern), under a fifth of the
    # round.  The primes past 2**20 add less than 1 / (2**20 - 1).
    squares = primes_up_to(1 << 20).astype(np.float64) ** 2
    for e in range(6, 31):
        for n_cells in (1 << e, 3 << (e - 1)):
            chunk = max(sieve._MIN_PRIMES, n_cells // sieve._CELLS_PER_PRIME)
            tail = 1 / squares[squares > n_cells // sieve._DENSE_HITS]
            repeats = n_cells * (tail.sum() + 1 / ((1 << 20) - 1))
            assert repeats < chunk / 5, (n_cells, repeats, chunk)


@pytest.mark.parametrize("segment_size", [1 << 12, 1 << 18])
def test_repeat_hits_peak_within_per_worker_estimate(segment_size):
    # (2, 40) leaves 2 to the kernel and its rounds start with primes that
    # hit a block many times; lo near 10**12 fills every round.
    k, m = 2, 40
    pattern = sieve._pattern(k, m)
    lo = 10**12 + 1
    hi = lo + segment_size - 1
    primes, powers = sieve._kernel_primes(iroot(hi, k), k, pattern)
    assert len(primes) > 4 * max(sieve._MIN_PRIMES, segment_size // sieve._CELLS_PER_PRIME)
    share = segment_memory_estimate(SieveConfig(segment_size)) - sieve._PATTERN_CELLS
    tracemalloc.start()
    try:
        block = np.empty(segment_size, dtype=np.int8)
        fold = np.empty(segment_size // sieve._FOLD_ROWS, dtype=np.int8)
        sieve._sieve_block(block, lo, k, m, pattern, primes, powers)
        sieve._block_sum(block, fold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= share, (peak, share)
    assert block.tolist()[:200] == [mu_km(r, (k, m)) for r in range(lo, lo + 200)]


_IMPORT_AND_STREAM = """
import sys
import moebius_km
assert "concurrent.futures" not in sys.modules, "imported with the package"
from moebius_km.sieve import SieveConfig, stream_sum
cps = [10**5, 3 * 10**5, 10**6]
stream_sum(10**6, (2, 3), 30, cps, SieveConfig(segment_size=1 << 16, worker_count=2))
assert "concurrent.futures" not in sys.modules, "imported by a stream"
"""


def test_import_and_stream_never_import_concurrent_futures():
    # A fresh interpreter: this test process has long imported concurrent.futures.
    src = os.path.dirname(os.path.dirname(sieve.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_AND_STREAM], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
