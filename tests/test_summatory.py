import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from conftest import mu_over_psi_series, oracle_mu, race
from moebius_km import sieve, summatory
from moebius_km.arith import factorize, gcd, squarefree_divisors
from moebius_km.asymptotics import scan
from moebius_km.constants import alpha, alpha_n, apostol_A
from moebius_km.functions import OrderPair, mu, psi_k
from moebius_km.primes import _PRIME_TABLE_CAP, GrownTable, iroot, primes_up_to
from moebius_km.sieve import _max_range, sieve_qk, stream_sum
from moebius_km.summatory import (
    _BLOCK,
    _TABLE_TOP,
    SumQuery,
    convolution_sums,
    main_term,
    mu_range,
    qk_count,
    sum_convolution,
    sum_direct,
)

ORDERS = (OrderPair(2, 2), OrderPair(2, 3), OrderPair(2, 4), OrderPair(3, 3), OrderPair(3, 5))

# (x, k, m, n, S(x; n)), values of the previous pure-Python route, and at
# the k = 2 top (2^26 + 1)^2 - 1 the value of a second factorisation:
# mu_{2,3} = 1 * h with h(p^2) = h(p^3) = -1 and h(p^4) = +1, summed as
# h(d) * (x // d) over the 2-full d.
TOP_VALUES = [
    (2**62, 4, 5, 1, 4176936043790195401),
    (2**62, 3, 4, 30, 1223393497237915710),
    (2**62, 4, 4, 6, 1531230462645077727),
    (2**62, 3, 3, 1, 3434301815679233033),
    (10**11, 2, 2, 1, 42824950550),
    (4503599761588224, 2, 3, 1, 2413461790617244),
]


# (x, k, m, n, S(x; n)) for m > k, each also reached by _h_identity_sum.
H_IDENTITY_VALUES = [
    (2**62, 3, 4, 30, 1223393497237915710),
    (2**62, 4, 5, 1, 4176936043790195401),
    (2**62, 3, 5, 1, 3756054497482766311),
    (10**18, 3, 4, 1, 793933508027978286),
    (10**11, 2, 3, 1, 53589615474),
    (10**12, 2, 3, 1, 535896154098),
    (10**12, 2, 4, 30, 253179895124),
]


def _h_identity_sum(x: int, k: int, m: int, n: int) -> int:
    """S(x; n) by mu_{k,m} = 1 * H, for k < m <= 2k: no k-free count, table or Mertens sum.

    Multiplying the local factor of mu_{k,m} by 1 - p^-s gives
    1 - p^-ks - p^-ms + p^-(m+1)s, so H(p^k) = H(p^m) = -1, H(p^(m+1)) = +1,
    and S sums H(d) C_n(x // d) over the k-full d coprime to n.  The walk
    needs each exponent gap, m - k and 1, at most the first exponent k.
    A step's int64 dot product stays below x prod_p (1 + p^-k + p^-m +
    p^-(m+1)): 1.31x for k >= 3, 1.86x for k = 2.
    """
    assert k < m <= 2 * k
    count = summatory._coprime_counter(n)
    total = int(count(np.array([x]))[0])
    terms = ((k, -1), (m, -1), (m + 1, 1))
    for w, d in summatory._walk(x, terms, summatory._walk_primes(x, k, n)):
        total += int(count(x // d) @ w)
    return total


class TestCoprimeCount:
    # C_n(z) = #{t <= z : gcd(t, n) = 1}, the map summatory._coprime_counter(n) returns.
    def test_examples(self):
        z = np.array([0, 1, 10, 57], dtype=np.int64)
        assert summatory._coprime_counter(6)(z).tolist() == [0, 1, 3, 19]
        assert summatory._coprime_counter(1)(z).tolist() == [0, 1, 10, 57]
        assert summatory._coprime_counter(7)(z).tolist() == [0, 1, 9, 49]

    def test_brute_force(self):
        z = np.arange(500)
        for n in (1, 2, 6, 30, 77, 210):
            expected = np.cumsum([t > 0 and gcd(t, n) == 1 for t in range(500)])
            assert summatory._coprime_counter(n)(z).tolist() == expected.tolist(), n

    def test_array_counts_match_the_scalar_count(self):
        # Read from one period of C_n (two primes or more, rad(n) <= 2^16) or
        # by inclusion-exclusion (one prime, or rad(n) past the cap) alike,
        # against inclusion-exclusion over the squarefree d | n in Python ints.
        rng = random.Random(11)
        zs = list(range(200)) + [rng.randrange(2**62) for _ in range(200)] + [2**62 - 1, 2**62]
        z = np.array(zs, dtype=np.int64)
        for n in (1, 2, 7, 8, 6, 12, 30, 2310, 30030, 65523, 131042, 510510):
            count = summatory._coprime_counter(n)
            divs = squarefree_divisors(n)
            assert count(z).tolist() == [sum(s * (v // d) for d, s in divs) for v in zs], n
        assert summatory._coprime_counter(65523).func is summatory._periodic_counts
        assert summatory._coprime_counter(131042).func is summatory._coprime_counts


class TestQkCount:
    @pytest.mark.parametrize("x,n,k,v", [(10, 1, 2, 7), (12, 1, 2, 8), (10, 2, 2, 4)])
    def test_examples(self, x, n, k, v):
        assert qk_count(x, n, k) == v

    def test_zero_range(self):
        assert qk_count(0, 5, 2) == 0

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: qk_count(10.5, 1, 2), "x"),
            (lambda: qk_count(np.array([10.5]), 1, 2), "x"),
            (lambda: qk_count(np.array([[10]]), 1, 2), "x"),
            (lambda: qk_count(100, 1, 2.0), "k"),
            (lambda: qk_count(100, 6.0, 2), "n"),
            (lambda: stream_sum(100, (2, 3), 2.0), "coprime_to"),
            (lambda: convolution_sums([100], (2, 3), 2.0), "coprime_to"),
            (lambda: scan((2, 3), 2.0, [100]), "coprime_to"),
        ],
        ids=["x-float", "x-float-array", "x-2d-array", "k-float", "n-float",
             "stream-coprime-float", "conv-coprime-float", "scan-coprime-float"],
    )
    def test_non_integer_argument_is_value_error(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()

    def test_unsigned_array_counts_as_int64(self):
        ys = [100, 10**6, 1]
        got = qk_count(np.array(ys, dtype=np.uint64), 30, 2)
        assert got.dtype == np.int64
        assert got.tolist() == [qk_count(y, 30, 2) for y in ys]

    def test_brute_force_small(self):
        from moebius_km.functions import q_k

        for k in (2, 3):
            for n in (1, 2, 6):
                for x in range(1, 300):
                    expected = sum(
                        q_k(r, k) for r in range(1, x + 1) if gcd(r, n) == 1
                    )
                    assert qk_count(x, n, k) == expected, (x, n, k)

    @pytest.mark.parametrize("block", [1, 5, _BLOCK], ids=["1", "5", "default"])
    def test_entries_below_one_count_zero(self, monkeypatch, block):
        # With the default block a cut below 8 once pulled negative rows into
        # a block, where -3 // 1 = -1 made them count.
        monkeypatch.setattr(summatory, "_BLOCK", block)
        assert qk_count(np.array([-3, 10]), 1, 2).tolist() == [0, 7]
        assert qk_count(np.array([-100, 3]), 1, 3).tolist() == [0, 3]
        assert qk_count(np.array([-7, 5]), 6, 2).tolist() == [0, 2]
        assert qk_count(np.array([0, -1, 0]), 30, 4).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("block", [5, _BLOCK], ids=["5", "default"])
    def test_counts_match_the_sieve_at_the_split_edges(self, monkeypatch, block):
        # Entries next to j^k (an e^k column, a root iroot(y // v, k)), to
        # j^(k+1) (where the split D moves) and to t (D+1)^k (where the
        # v <= y // (D+1)^k move), in one call per (n, k), against the
        # sieve's counts at every y <= top.
        monkeypatch.setattr(summatory, "_BLOCK", block)
        top = 10**6
        rng = random.Random(25)
        for k in (2, 3, 4, 5):
            free = sieve.sieve_qk(1, top, k).values.astype(np.int64)
            edges = {top, top - 1, 1, 2}
            for j in range(2, iroot(top, k) + 2):
                edges.update({j**k - 1, j**k, j**k + 1})
                if j ** (k + 1) <= top + 1:
                    edges.update({j ** (k + 1) - 1, j ** (k + 1), j ** (k + 1) + 1})
                    for t in (1, 2, 3):
                        edges.update({t * j**k - 1, t * j**k + 1})
            ys = sorted(y for y in edges if 1 <= y <= top)
            if block < _BLOCK:
                ys = rng.sample(ys, min(len(ys), 120)) + [top]
            for n in (1, 6, 30, 2310):
                vals = free.copy()
                for p, _ in factorize(n).factors:
                    vals[p - 1 :: p] = 0
                ref = np.concatenate(([0], np.cumsum(vals)))
                got = qk_count(np.array(ys, dtype=np.int64), n, k)
                assert got.tolist() == ref[ys].tolist(), (k, n)

    # (x, n, k, Q_k(x; n)), as the count that added every e <= x^(1/k) gave
    # them; Q_2(10^15) is OEIS A071172.  At k = 31, (D+1)^k = 4^31 = 2^62.
    # 4503599761588224 is the k = 2 top, (2^26 + 1)^2 - 1.
    PINNED = [
        (10**15, 1, 2, 607927101854103),
        (10**15, 30, 2, 253302959105874),
        (1125899973951488, 1, 2, 684465108140306),
        (4503599761588224, 1, 2, 2737860350974616),
        (2**62, 1, 3, 3836495598757112498),
        (2**62, 30, 3, 1223979453697767038),
        (2**62, 1, 4, 4260913814641627881),
        (2**62, 1, 31, 4611686016279896790),
        (2**62, 1, 62, 4611686018427387903),
    ]

    @pytest.mark.parametrize("block", [64, _BLOCK], ids=["64", "default"])
    def test_pinned_counts(self, monkeypatch, block):
        monkeypatch.setattr(summatory, "_BLOCK", block)
        for x, n, k, q in self.PINNED:
            assert qk_count(x, n, k) == q, (x, n, k)
        xs = np.array([x for x, n, k, _ in self.PINNED if (n, k) == (1, 3)] * 2 + [2**40])
        assert qk_count(xs, 1, 3)[:2].tolist() == [3836495598757112498] * 2

    def test_iroots_exact_next_to_powers(self):
        # The float roots floor to the integer root on both sides of every
        # j^k, up to the top of the domain (2^62, and (2^26 + 1)^2 - 1 for
        # k = 2, where the exact step is made) and 2^41 / k with the exact
        # check for k >= 3, and up to just below 2^39 / k, where it is skipped.
        for k in range(2, 63):
            for top in (_max_range(k), (1 << 41) // k, (1 << 39) // k - 2):
                zs = {0, 1, 2, top - 1, top}
                r = iroot(top, k)
                for j in {2, 3, 7, r - 1, r} | {iroot(2**b, k) for b in range(63)}:
                    if j >= 2:
                        zs.update(z for z in (j**k - 1, j**k, j**k + 1) if z <= top)
                z = np.array(sorted(zs), dtype=np.int64)
                roots = summatory._iroots(z, k, top)
                assert roots.tolist() == [iroot(int(v), k) for v in z], (k, top)

    def test_counts_straddling_2_52_equal_the_plain_sum(self):
        # Q_2(y0) = sum of mu(e) * (y0 // e^2) over e <= y0^(1/2), at y0 = 2^52
        # and at the top; the k-free sieve carries each to the y around it.
        top = _max_range(2)
        mus = mu_range(iroot(top, 2))
        e = np.flatnonzero(mus)
        e2, signs = e * e, mus[e].astype(np.int64)
        for y0, lo, hi in ((1 << 52, (1 << 52) - 3, (1 << 52) + 3), (top, top - 6, top)):
            plain = sum(
                int((y0 // e2[c : c + (1 << 22)]) @ signs[c : c + (1 << 22)])
                for c in range(0, len(e), 1 << 22)
            )
            ks = np.cumsum(sieve_qk(lo, hi, 2).values, dtype=np.int64)
            want = plain - ks[y0 - lo] + ks
            ys = np.arange(lo, hi + 1, dtype=np.int64)
            assert qk_count(ys, 1, 2).tolist() == want.tolist(), y0
        assert plain == 2737860350974616

    def test_count_memory_independent_of_rows(self):
        # Each block holds at most _BLOCK (row, column) pairs, two rows of
        # ~3500 at 10^10; 2000 rows at once would take 56 MB in int64.  What
        # grows with the rows is their own arrays, under 100 bytes a row.
        top = 10**10
        qk_count(top, 1, 2)  # the shared Moebius table, resident from here on
        peaks = []
        for rows in (100, 2000):
            ys = np.full(rows, top, dtype=np.int64)
            tracemalloc.start()
            try:
                got = qk_count(ys, 1, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert got.tolist() == [6079270942] * rows  # OEIS A071172
        assert peaks[1] <= peaks[0] + 100 * 1900, peaks


class TestSums:
    def test_direct_examples(self):
        assert sum_direct(SumQuery(12, OrderPair(2, 3))) == 7
        assert sum_direct(SumQuery(12, OrderPair(2, 2))) == 5
        assert sum_direct(SumQuery(1, OrderPair(2, 5), 7)) == 1

    def test_convolution_examples(self):
        # two-term expansion: Q_2(12, 1) - Q_2(1, 2) = 8 - 1
        assert qk_count(12, 1, 2) - qk_count(1, 2, 2) == 7
        assert sum_convolution(SumQuery(12, OrderPair(2, 3))) == 7
        # d in {1, 2, 3}: 8 - 2 - 1
        assert sum_convolution(SumQuery(12, OrderPair(2, 2))) == 5
        assert sum_convolution(SumQuery(1, OrderPair(2, 2))) == 1

    def test_agreement_small_grid(self):
        for o in ORDERS:
            for n in (1, 6, 30):
                for x in (10**3, 10**4):
                    q = SumQuery(x, o, n)
                    assert sum_direct(q) == sum_convolution(q), (x, o, n)

    @pytest.mark.parametrize(
        "table_top,block",
        [(16, _BLOCK), (1 << 13, _BLOCK), (16, 3), (_TABLE_TOP, _BLOCK)],
        ids=["16", "8192", "16-block3", "default"],
    )
    def test_convolution_matches_stream_seeded(self, monkeypatch, table_top, block):
        # With a 16-entry table nearly every count takes the NumPy-sum route.
        # A 3-pair block crosses every frontier split and staircase block
        # boundary, and splits the columns of every count above 3 e^k.
        monkeypatch.setattr(summatory, "_TABLE_TOP", table_top)
        monkeypatch.setattr(summatory, "_BLOCK", block)
        rng = random.Random(20261018)
        orders = ((2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (4, 4))
        ns = (1, 8, 45, 220, 210)  # 0 to 4 distinct primes
        y = _TABLE_TOP
        for k, m in orders:
            xs = {y - 1, y, y + 1}
            for _ in range(4):
                d = rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 12))
                xs.update({d**m - 1, d**m, d**m + 1, y * d**m - 1, y * d**m + 1})
            xs = sorted(x for x in xs if 1 <= x <= 10**7)
            for n in ns:
                for x, s in stream_sum(xs[-1], (k, m), n, xs):
                    assert sum_convolution(SumQuery(x, OrderPair(k, m), n)) == s, (x, k, m, n)
                    # With 2^m > x no exponent equals m: mu_{k,m} is q_k there.
                    q = stream_sum(x, (k, max(k, x.bit_length())), n)[0][1]
                    assert qk_count(x, n, k) == q, (x, k, n)

    @pytest.mark.parametrize(
        "x,k,m,n,expected", TOP_VALUES, ids=["-".join(map(str, v[1:])) for v in TOP_VALUES]
    )
    def test_convolution_at_top_of_domain(self, x, k, m, n, expected):
        assert sum_convolution(SumQuery(x, OrderPair(k, m), n)) == expected

    @pytest.mark.parametrize(
        "x,k,m,n,expected",
        H_IDENTITY_VALUES,
        ids=["-".join(map(str, v[:4])) for v in H_IDENTITY_VALUES],
    )
    def test_m_above_k_matches_the_h_identity(self, x, k, m, n, expected):
        # The m > k engine (q_k * g) against the k-full walk of mu_{k,m} = 1 * H.
        assert _h_identity_sum(x, k, m, n) == expected
        assert sum_convolution(SumQuery(x, OrderPair(k, m), n)) == expected

    def test_m_above_k_matches_the_h_identity_on_a_seeded_grid(self):
        rng = random.Random(31)
        for k, m in ((2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 8), (5, 9), (6, 7)):
            n = rng.choice((1, 6, 30, 77, 210, 2310))
            top = 10**12 if k == 2 else 2**62
            xs = sorted(round(top ** rng.random()) for _ in range(8)) + [top]
            want = [(x, _h_identity_sum(x, k, m, n)) for x in xs]
            assert convolution_sums(xs, (k, m), n) == want, (k, m, n)

    @pytest.mark.parametrize("block", [1, 5, _BLOCK], ids=["1", "5", "default"])
    def test_convolution_sums_match_stream(self, monkeypatch, block):
        # A 1- or 5-pair block splits every walk frontier and every block's
        # rows and columns, in the sums and in the batched counts alike.
        # Duplicates, x = 1 and x below every walk d take the empty-prefix paths.
        # At x = 8 (_TABLE_TOP + 1) the floor of d = 2^3 is the first above the table.
        monkeypatch.setattr(summatory, "_BLOCK", block)
        rng = random.Random(20261019)
        edge = 8 * (_TABLE_TOP + 1)
        for k, m in ((2, 2), (2, 3), (3, 4), (4, 4)):
            for n in (1, 6, 30, 77):
                xs = sorted([1, 1, 2, 7, 7, 64, 3000, 3000, edge - 1, edge]
                            + [rng.randint(1, 3 * 10**5) for _ in range(12)])
                got = convolution_sums(xs, (k, m), n)
                assert got == stream_sum(xs[-1], (k, m), n, xs), (k, m, n)
                # Every checkpoint equal to x: each step is one dot product.
                assert convolution_sums(xs[-1:] * 3, (k, m), n) == got[-1:] * 3, (k, m, n)
                for x, s in dict(got).items():
                    if x in (edge - 1, edge):
                        assert sum_convolution(SumQuery(x, OrderPair(k, m), n)) == s, (x, k, m, n)

    def test_convolution_sums_on_a_geometric_grid(self):
        xs = sorted({round(10 ** (3 + i / 20)) for i in range(81)})
        for k, m, n in ((2, 3, 30), (2, 2, 1), (3, 5, 210)):
            got = convolution_sums(xs, (k, m), n)
            assert got == stream_sum(xs[-1], (k, m), n, xs), (k, m, n)
            assert got[-1][1] == sum_convolution(SumQuery(xs[-1], OrderPair(k, m), n))

    def test_convolution_sums_validation(self):
        for bad in ([], [5, 4], [0, 3]):
            with pytest.raises(ValueError, match="checkpoints"):
                convolution_sums(bad, (2, 3))
        for bad, shown in (([10.5, 20], "10.5"), ([10, 20.0], "20.0"), ([np.float64(3), 20], "3.0")):
            with pytest.raises(ValueError, match=f"checkpoint must be an integer, got .*{shown}"):
                convolution_sums(bad, (2, 3))
        assert convolution_sums([np.int64(10), 20], (2, 3)) == [(10, 6), (20, 12)]
        with pytest.raises(ValueError, match="coprime_to"):
            convolution_sums([10], (2, 3), 0)
        top = _max_range(2)
        error = f"x={top + 1} exceeds the supported range {top} for k=2"
        with pytest.raises(ValueError, match=error):
            convolution_sums([10, top + 1], (2, 3))

    @pytest.mark.parametrize("block", [1, 3, _BLOCK], ids=["1", "3", "default"])
    def test_staircase_matches_double_loop(self, monkeypatch, block):
        # Ascending rows with duplicates, rows below every col, and no rows.
        monkeypatch.setattr(summatory, "_BLOCK", block)
        rng = random.Random(16)

        def f(z):
            return z * z - 3 * z  # nonlinear, f(0) = 0

        cols = np.array(sorted(rng.sample(range(4, 400), 40)), dtype=np.int64)
        weights = np.array([rng.choice((-2, -1, 1, 3)) for _ in cols], dtype=np.int64)
        rows = sorted([rng.randint(1, 3000) for _ in range(50)] + [1, 3, 2999, 2999, 4, 4, 1])
        for rs in (rows, [1, 3, 3], [], [2999, 2999]):
            got = summatory._staircase(np.array(rs, dtype=np.int64), cols, weights, f)
            ref = [sum(int(w) * f(r // int(c)) for c, w in zip(cols, weights) if c <= r) for r in rs]
            assert got.tolist() == ref, rs

    def test_batched_counts_in_any_order(self, monkeypatch):
        # qk_count on an array: unsorted, repeated y, 1 and the top, over
        # several blocks and column chunks; each entry is the scalar call.
        monkeypatch.setattr(summatory, "_BLOCK", 5)
        rng = random.Random(7)
        top = 3000
        for k in (2, 3):
            for n in (1, 6, 35):
                ys = [rng.randint(1, top) for _ in range(60)] + [1, top, top, 1]
                rng.shuffle(ys)
                got = qk_count(np.array(ys, dtype=np.int64), n, k)
                assert got.dtype == np.int64
                ref = dict(stream_sum(top, (k, 12), n, sorted(set(ys))))
                assert got.tolist() == [ref[y] for y in ys], (k, n)
                assert got.tolist() == [qk_count(y, n, k) for y in ys], (k, n)
        assert qk_count(np.array([0, 5, -3, 10]), 1, 2).tolist() == [0, 4, 0, 7]
        assert qk_count(np.zeros(0, dtype=np.int64), 1, 2).tolist() == []

    def test_walk_memory_independent_of_x(self):
        # The walk expands at most _BLOCK pairs per step, so its peak grows
        # only by its two arrays over the primes (16 bytes a prime, 1.2 MiB
        # at 1e12); with the whole frontier expanded at once it is 55 MiB.
        # Both walks: g's terms for exponents from 2 and m = k's h terms.
        for terms in (summatory._g_terms(10**12, 2, 2), summatory._h_terms(2)):
            peaks = []
            for x in (10**10, 10**12):
                primes = primes_up_to(iroot(x, 2))
                tracemalloc.start()
                try:
                    entries = sum(len(d) for _, d in summatory._walk(x, terms, primes))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert entries > 4 * _BLOCK
            assert peaks[1] <= peaks[0] + 2 * 2**20, (terms, peaks)

    @pytest.mark.parametrize("block", [1, 3, _BLOCK], ids=["1", "3", "default"])
    def test_walk_yields_each_d_once_with_its_weight(self, monkeypatch, block):
        # The sorted (d, w(d)) pairs of the walk are the 1 < d <= x coprime to
        # n with w(d) != 0, w multiplicative with the local terms of the list.
        monkeypatch.setattr(summatory, "_BLOCK", block)
        top = 20000
        exponents = [()] * 2 + [[e for _, e in factorize(d).factors] for d in range(2, top + 1)]

        def brute(terms, x, n):
            local = dict(terms)
            pairs = [(d, math.prod(local.get(e, 0) for e in exponents[d]))
                     for d in range(2, x + 1) if gcd(d, n) == 1]
            return [(d, w) for d, w in pairs if w]

        # h's terms for m = k, g's for m > k; either way the first exponent is m.
        for k, m in ((2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (2, 5), (3, 4), (3, 7), (2, 40)):
            # x = 6^m puts a child 2^m * 3^m exactly at x.
            xs = {1, 8, 9, 2**k - 1, 2**k + 1, 2**m - 1, 2**m + 1, 6**m, 3000, top}
            for n in (1, 6, 30, 77):
                for x in sorted(x for x in xs if x <= top):
                    terms = summatory._h_terms(k) if m == k else summatory._g_terms(x, k, m)
                    walked = [(int(d), int(w)) for ws, ds in summatory._walk(
                        x, terms, summatory._walk_primes(x, m, n)) for w, d in zip(ws, ds)]
                    assert sorted(walked) == brute(terms, x, n), (terms, x, n)

    # (x, order, n, entries) at the top of the domain, as counted by the walk
    # that divided once per d.
    WALK_ENTRIES = [
        (2**62, (3, 3), 1, 2332975),
        (2**62, (4, 4), 6, 24669),
        (2**62, (4, 5), 1, 22163),
        (2**62, (3, 4), 30, 21381),
        (10**12, (2, 2), 1, 1124038),
        (10**12, (2, 3), 1, 41135),
    ]

    @pytest.mark.parametrize(
        "x,order,n,entries", WALK_ENTRIES, ids=[f"{k}-{m}-{n}" for _, (k, m), n, _ in WALK_ENTRIES]
    )
    def test_walk_at_top_of_domain(self, x, order, n, entries):
        k, m = order
        terms = summatory._h_terms(k) if m == k else summatory._g_terms(x, k, m)
        seen = 0
        for w, d in summatory._walk(x, terms, summatory._walk_primes(x, terms[0][0], n)):
            assert d.dtype == np.int64 and len(w) == len(d)
            assert d.min() > 1 and d.max() <= x and np.all(w != 0)
            seen += len(d)
        assert seen == entries

    @pytest.mark.parametrize("block", [1, 5, _BLOCK], ids=["1", "5", "default"])
    def test_m_equals_k_reads_no_kfree_count(self, monkeypatch, block):
        # mu_{k,k} = 1 * h: the route sums h(d) C_n(x // d) over the k-full d
        # and never reaches a k-free count or the Moebius table.
        rng = random.Random(20261019)
        cases = []
        for k in (2, 3, 4):
            for n in (1, 6, 30, 210):
                xs = sorted([1, 1, 2, 2**k - 1, 2**k, 2**(k + 1), 3000, 3000]
                            + [rng.randint(1, 3 * 10**5) for _ in range(12)])
                cases.append((k, n, xs, stream_sum(xs[-1], (k, k), n, xs)))

        def forbidden(*args, **kwargs):
            raise AssertionError("the m = k route read a k-free count or the Moebius table")

        for name in ("mu_range", "qk_count", "_small_table", "mu"):
            monkeypatch.setattr(summatory, name, forbidden)
        monkeypatch.setattr(summatory, "_BLOCK", block)
        for k, n, xs, ref in cases:
            assert convolution_sums(xs, (k, k), n) == ref, (k, n)
            for x, s in ref[::4]:
                assert sum_convolution(SumQuery(x, OrderPair(k, k), n)) == s, (x, k, n)

    def test_m_above_k_counts_through_qk_count_once(self, monkeypatch):
        # An m > k query or grid makes one qk_count call, after the walk: its
        # entries are the floors above the table, the checkpoints (d = 1)
        # among them, and none when the largest checkpoint is within it.
        calls, events = [], []
        count, walk = summatory.qk_count, summatory._walk

        def counted(ys, n, k):
            calls.append((sorted(ys.tolist()), n, k))
            events.append("counted")
            return count(ys, n, k)

        def walked(*args):
            yield from walk(*args)
            events.append("walked")

        monkeypatch.setattr(summatory, "qk_count", counted)
        monkeypatch.setattr(summatory, "_walk", walked)
        n, (k, m) = 6, (2, 3)
        ds = np.concatenate([d for _, d in walk(
            10**6, summatory._g_terms(10**6, k, m), summatory._walk_primes(10**6, m, n))])
        for xs in ([10**6], [5000, 2 * 10**5, 10**6], [10, 1000]):
            ref = stream_sum(xs[-1], (k, m), n, xs)
            # Every floor is at most 10^6 / 5^3 = 8000: with a 2^13 table none is counted.
            for top in (1 << 13, _TABLE_TOP, 16):
                monkeypatch.setattr(summatory, "_TABLE_TOP", top)
                calls.clear()
                events.clear()
                floors = [int(y) for x in xs for y in (x, *(x // ds)) if y > min(top, xs[-1])]
                assert convolution_sums(xs, (k, m), n) == ref, (xs, top)
                assert calls == [(sorted(floors), n, k)], (xs, top)
                assert events == ["walked", "counted"], (xs, top)
        monkeypatch.setattr(summatory, "_TABLE_TOP", _TABLE_TOP)
        calls.clear()
        assert sum_convolution(SumQuery(10**6, OrderPair(k, m), n)) == 300659
        assert len(calls) == 1

    def test_convolution_independent_of_sieve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the convolution route reached the sieve")

        q = SumQuery(10**6, OrderPair(2, 3), 6)
        s = sum_direct(q)
        q2 = stream_sum(10**6, (2, 20), 6)[0][1]
        monkeypatch.setattr(sieve, "_sieve_block", forbidden)
        monkeypatch.setattr(summatory, "stream_sum", forbidden)
        assert sum_convolution(q) == s == 300659
        assert qk_count(10**6, 6, 2) == q2
        with pytest.raises(AssertionError):
            sum_direct(q)

    def test_convolution_domain_limit(self):
        # One domain for every engine: k = 2 ends where x^(1/2) passes the
        # cap 2^26 that the prime and Moebius tables share; k >= 3 at 2^62.
        top = _max_range(2)
        assert top == (2**26 + 1) ** 2 - 1
        assert iroot(top, 2) == _PRIME_TABLE_CAP and iroot(top + 1, 2) == _PRIME_TABLE_CAP + 1
        for k in (3, 4, 7):
            assert _max_range(k) == 2**62
        for k, x in ((2, top + 1), (3, 2**62 + 1), (5, 2**63)):
            error = f"x={x} exceeds the supported range {_max_range(k)} for k={k}"
            for m in (k, k + 1):
                with pytest.raises(ValueError, match=error):
                    sum_convolution(SumQuery(x, OrderPair(k, m)))
                with pytest.raises(ValueError, match=error):
                    convolution_sums([10, x], (k, m), 30)
                with pytest.raises(ValueError, match=error):
                    stream_sum(x, (k, m))
            with pytest.raises(ValueError, match=error):
                qk_count(x, 1, k)
        with pytest.raises(ValueError, match=f"x={top + 1} exceeds"):
            qk_count(np.array([10, top + 1], dtype=np.int64), 6, 2)
        with pytest.raises(ValueError, match="Moebius table cap"):
            mu_range(_PRIME_TABLE_CAP + 1)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            SumQuery(0, OrderPair(2, 3))
        with pytest.raises(ValueError):
            SumQuery(10, OrderPair(2, 3), 0)
        with pytest.raises(ValueError, match="x must be an integer, got 10.5"):
            SumQuery(10.5, OrderPair(2, 3))
        with pytest.raises(ValueError, match="coprime_to must be an integer, got 6.0"):
            SumQuery(10, OrderPair(2, 3), 6.0)


def _fresh_mu_table(monkeypatch, tops):
    """Swap in an empty shared Moebius table whose build appends each top to ``tops``."""

    def counted(top):
        tops.append(top)
        return summatory._mu_sieve(top)

    monkeypatch.setattr(summatory, "_MU_TABLE", GrownTable(counted, np.zeros(1, dtype=np.int8)))


@pytest.fixture
def mu_sieves(monkeypatch):
    """Start from an empty shared Moebius table; the list records each sieve's top."""
    tops = []
    _fresh_mu_table(monkeypatch, tops)
    return tops


def _pointwise_mu(x: int) -> list[int]:
    return [0] + [mu(r) for r in range(1, x + 1)]


class TestSharedMuTable:
    def test_growth_matches_pointwise(self, mu_sieves):
        # 700 reads a prefix; 3001 doubles the top to 6000; 12001 passes it.
        ref = _pointwise_mu(12001)
        for x, top in ((50, 50), (3000, 3000), (700, 3000), (3001, 6000), (6000, 6000),
                       (12001, 12001)):
            assert mu_range(x).tolist() == ref[: x + 1], x
            assert summatory._MU_TABLE.state[0] == top, x
        assert mu_sieves == [50, 3000, 6000, 12001]

    def test_view_is_read_only(self, mu_sieves):
        values = mu_range(100)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[6] = 0
        assert mu_range(100).tolist() == _pointwise_mu(100)

    def test_kfree_counts_leave_table_intact(self, mu_sieves):
        top = 3000**2
        before = mu_range(4000).tobytes()
        ys = [top, 10**6, 1, top // 7]
        got = qk_count(np.array(ys, dtype=np.int64), 30, 2)
        assert summatory._MU_TABLE.state[1].tobytes() == before
        ref = dict(stream_sum(top, (2, 24), 30, sorted(ys)))
        assert got.tolist() == [ref[y] for y in ys]

    def test_kfree_counts_for_n_one_read_the_table_uncopied(self, monkeypatch, mu_sieves):
        # n = 1 has nothing to zero, so the read-only prefix is used as it is.
        def forbidden(values, n):
            raise AssertionError(f"zeroed the e sharing a prime with n = {n}")

        monkeypatch.setattr(summatory, "_zero_non_coprime", forbidden)
        top = 3000**2
        ys = [top, 1, top // 7]
        got = qk_count(np.array(ys, dtype=np.int64), 1, 2)
        ref = dict(stream_sum(top, (2, 24), 1, sorted(ys)))
        assert got.tolist() == [ref[y] for y in ys]
        assert qk_count(top, 1, 2) == ref[top]
        assert mu_range(3000).tolist() == _pointwise_mu(3000)

    def test_concurrent_growth_from_empty(self, monkeypatch, mu_sieves):
        sizes = (3000, 5000)
        ref = _pointwise_mu(max(sizes))
        for _ in range(5):
            _fresh_mu_table(monkeypatch, mu_sieves)
            got = race([partial(mu_range, x) for x in sizes])
            for x, values in zip(sizes, got):
                assert values.tolist() == ref[: x + 1], x

    def test_convolution_cold_equals_warm(self, monkeypatch, mu_sieves):
        rng = random.Random(14)
        queries = [
            SumQuery(rng.randint(10, 10**7), OrderPair(k, m), rng.choice((1, 6, 35, 210)))
            for k, m in ((2, 2), (2, 3), (3, 4), (4, 6))
            for _ in range(3)
        ]
        cold = []
        for q in queries:
            _fresh_mu_table(monkeypatch, mu_sieves)
            cold.append(sum_convolution(q))
        sum_convolution(SumQuery(10**11, OrderPair(2, 3)))
        assert summatory._MU_TABLE.state[0] > iroot(10**7, 2)
        assert [sum_convolution(q) for q in queries] == cold == [sum_direct(q) for q in queries]

    def test_conv_sum_orders_build_once(self, mu_sieves):
        # The three queries of the conv_sum benchmark: the first table holds the rest.
        for x, order, n in ((3 * 10**9, (2, 3), 1), (3 * 10**8, (2, 2), 1),
                            (10**11, (3, 4), 30)):
            sum_convolution(SumQuery(x, OrderPair(*order), n))
        assert mu_sieves == [iroot(3 * 10**9, 2)]


def _spf_mu(top: int) -> np.ndarray:
    """mu(0..top) from a smallest-prime-factor table: mu(r) = -mu(r/p) or 0.

    r / p < 2^j for r < 2^(j+1), so each range [2^j, 2^(j+1)) reads only
    the ranges before it.
    """
    spf = np.zeros(top + 1, dtype=np.int64)
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == 0:
            hits = spf[p * p :: p]
            hits[hits == 0] = p
    spf[spf == 0] = np.arange(top + 1)[spf == 0]
    out = np.zeros(top + 1, dtype=np.int64)
    out[1] = 1
    for j in range(1, top.bit_length()):
        r = np.arange(1 << j, min(2 << j, top + 1))
        p = spf[r]
        s = r // p
        out[r] = np.where(s % p == 0, 0, -out[s])
    return out


class TestMuSieve:
    @pytest.mark.parametrize("x", [10.5, 10.0, np.float64(10.0)], ids=["fraction", "float", "np-float"])
    def test_non_integer_top_is_value_error(self, x):
        state = summatory._MU_TABLE.state
        with pytest.raises(ValueError, match="^x must be an integer"):
            mu_range(x)
        assert summatory._MU_TABLE.state is state

    def test_every_small_top(self):
        ref = _spf_mu(4096).tolist()
        for top in range(1, 4097):
            got = summatory._mu_sieve(top)
            assert got.dtype == np.int8 and not mu_range(top).flags.writeable, top
            assert got.tolist() == ref[: top + 1], top

    def test_large_top(self):
        top = 1 << 22
        assert np.array_equal(summatory._mu_sieve(top), _spf_mu(top))

    def test_table_at_its_cap(self):
        # The shared table at 2^26: its top, and the cells around 2^25, where
        # a doubling from 2^25 lands.  Zeros against the k-free sieve, every
        # value against pointwise mu.
        cap = _PRIME_TABLE_CAP
        table = mu_range(cap)
        assert len(table) == cap + 1
        for lo, hi in ((cap - 4095, cap), ((cap >> 1) - 2048, (cap >> 1) + 2047)):
            window = table[lo : hi + 1]
            assert np.array_equal(window != 0, sieve_qk(lo, hi, 2).values != 0), lo
            assert window.tolist() == [mu(r) for r in range(lo, hi + 1)], lo

    def test_memory_is_at_most_three_bytes_a_cell(self):
        top = 1 << 20
        tracemalloc.start()
        try:
            summatory._mu_sieve(top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * top, peak


_COLD_CONV = """
import sys
from moebius_km import arith, primes
from moebius_km.constants import alpha
from moebius_km.functions import OrderPair
from moebius_km.summatory import SumQuery, sum_convolution

def conv():
    return sum_convolution(SumQuery(2986829538, OrderPair(2, 3)))

def constants():
    return alpha((2, 3), 10**6).value.hex()

if sys.argv[1] == "conv first":
    tiers = []
    trial = arith._trial_primes
    arith._trial_primes = lambda bits: tiers.append(bits) or trial(bits)
    s = conv()
    top = primes._PRIMES.state[0]
    assert top < 1 << 16, top
    assert tiers and max(tiers) < 16, max(tiers)
    a = constants()
    assert primes._PRIMES.state[0] == max(top, 1 << 9), primes._PRIMES.state[0]
else:
    a = constants()
    s = conv()
print(s, a)
"""


def test_cold_query_sieves_only_what_it_reads():
    # Fresh interpreters: this test process may have grown every table.
    src = os.path.dirname(os.path.dirname(summatory.__file__))
    outs = []
    for first in ("conv first", "constants first"):
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_CONV, first], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    s = sum_convolution(SumQuery(2986829538, OrderPair(2, 3)))
    assert outs[0] == outs[1] == [str(s), alpha((2, 3), 10**6).value.hex()]


class TestPsiDivisorIdentity:
    def test_exact_identity_small(self):
        for n in range(1, 500):
            fn = factorize(n)
            divs = squarefree_divisors(fn)
            for k in (2, 3, 4, 5):
                lhs = Fraction(0)
                for d, s in divs:
                    lhs += s * psi_k(d, k - 1) / (d * psi_k(d, k))
                assert lhs == Fraction(n) / psi_k(fn, k), (n, k)


class TestMainTerm:
    def test_unrestricted_reduces_to_simple_form(self):
        q = SumQuery(10**6, OrderPair(2, 3))
        parts = main_term(q, prime_limit=10**4, tol=1e-10)
        assert parts.psi_n == 1 and parts.alpha_n == 1
        assert parts.main == q.x * parts.alpha_est.value / parts.zeta_est.value

    def test_stability_under_prime_limit_doubling(self):
        q = SumQuery(10**6, OrderPair(2, 3))
        a = main_term(q, prime_limit=10**5)
        b = main_term(q, prime_limit=2 * 10**5)
        allowance = q.x * (a.alpha_est.tail_bound + b.alpha_est.tail_bound) * 2
        assert abs(a.main - b.main) <= allowance

    def test_conjecture_mode_density_matches_order_k_constant(self):
        q = SumQuery(10**6, OrderPair(2, 2))
        parts = main_term(q, prime_limit=10**5, tol=1e-12)
        a2 = apostol_A(2, 10**5)
        density = parts.main / q.x
        assert abs(density - a2.value) <= 1e-8

    def test_coprime_main_term_parts(self):
        q = SumQuery(1000, OrderPair(2, 3), 6)
        parts = main_term(q, prime_limit=10**4)
        assert parts.psi_n == psi_k(6, 2) == 12
        assert parts.alpha_n == alpha_n((2, 3), 6)


class TestFloatPartialSums:
    def test_mu_range_matches_pointwise(self):
        arr = mu_range(3000)
        for n in range(1, 3001):
            assert int(arr[n]) == mu(n), n
        for n in (1, 2, 3000):
            assert int(arr[n]) == oracle_mu(n)

    def test_euler_series_partial_sum_matches_constants(self):
        # sum_{d <= D, gcd(d,n)=1} mu(d)/(d^(m-1) psi_k(d)) -> n alpha / alpha(n)
        est = alpha((2, 3), 10**6)
        for n in (1, 6):
            series = mu_over_psi_series(10**6, n, 2, 2)
            expected = est.value * n / float(alpha_n((2, 3), n))
            assert abs(series - expected) <= 10 * est.tail_bound, n
