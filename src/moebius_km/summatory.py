"""Exact summatory functions, counting identities, and main terms.

The headline sum S(x; n) = sum_{r <= x, gcd(r,n)=1} mu_{k,m}(r) is computed
two independent ways: a streaming sieve pass (:func:`sum_direct`) and the
divisor-convolution route (:func:`sum_convolution`) built from k-free
counts.  The two must agree exactly on every input, which is the library's
strongest self-check.  :func:`convolution_sums` is the convolution route
for a whole ascending grid of x, sharing one walk and its tables.

Every Moebius value the module reads comes from one process-wide table,
grown on demand like the prime table and never mutated: :func:`mu_range`
returns a read-only prefix view of it, so a k-free count, a float partial
sum or a later query slices the table instead of sieving its own.

Float-valued partial sums (L_n, the 1/psi_k sums) accumulate in ascending
r via a cumulative sum, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .arith import as_factored, squarefree_divisors
from .constants import (
    DEFAULT_PRIME_LIMIT,
    DEFAULT_TOL,
    ConstantEstimate,
    alpha,
    alpha_n,
    zeta,
)
from .functions import OrderPair, as_order, mu, psi_k
from .primes import iroot, prime_list_up_to, primes_up_to
from .sieve import MAX_RANGE, checked_checkpoints, stream_sum

_ARRAY_CAP = 1 << 25  # pointwise arrays are a desk-scale tool, not the hot path
_TABLE_TOP = 1 << 13  # sum_convolution looks Q_k(y, n) up for y <= this
_BLOCK = 1 << 13  # pairs per NumPy step: walk (node, prime), staircase (row, col)

_mu_lock = threading.Lock()
# (top, mu(0..top) as read-only int8) — replaced wholesale, never mutated.
_mu_state: tuple[int, np.ndarray] = (0, np.zeros(1, dtype=np.int8))


@dataclass(frozen=True)
class SumQuery:
    """Arguments of one summatory evaluation."""

    x: int
    order: OrderPair
    coprime_to: int = 1

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ValueError("x must be >= 1")
        if self.coprime_to < 1:
            raise ValueError("coprime_to must be >= 1")


@dataclass(frozen=True)
class MainTermParts:
    """Assembled asymptotic main term with its constituent estimates."""

    main: float
    alpha_est: ConstantEstimate
    zeta_est: ConstantEstimate
    psi_n: Fraction
    alpha_n: Fraction


def coprime_count(z, n: int) -> int:
    """#{t <= floor(z) : gcd(t, n) = 1} by inclusion-exclusion over d | rad(n)."""
    t = math.floor(z)
    if t < 1:
        return 0
    return sum(s * (t // d) for d, s in squarefree_divisors(n))


def _conv_limit(k: int) -> int:
    """Largest x the convolution route accepts for order k.

    Its floors are int64, so x <= 2^62, and it reads mu(e) for e <= x^(1/k)
    from the shared table of :func:`mu_range`, capped at ``_ARRAY_CAP``;
    for k = 2 that ends x at (2^25 + 1)^2 - 1.
    """
    return min(MAX_RANGE, (_ARRAY_CAP + 1) ** k - 1)


def _check_conv_domain(x: int, k: int) -> None:
    limit = _conv_limit(k)
    if x > limit:
        raise ValueError(f"x={x} exceeds the convolution route's limit {limit} for k={k}")


def _zero_non_coprime(values: np.ndarray, n: int) -> None:
    """Zero values[r] for every r sharing a prime factor with n."""
    for p, _ in as_factored(n).factors:
        values[p::p] = 0


def _staircase(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, f) -> np.ndarray:
    """sum of weights[j] * f(row // cols[j]) over the cols[j] <= row, for each row.

    ``rows`` is an int64 array in any order, ``cols`` an ascending one and
    ``f`` maps an int64 array of floors to one of the same shape, with
    f(0) = 0.  The rows are taken from the largest down, in blocks of at
    most ``_BLOCK`` (row, col) pairs that share the cols <= the block's
    largest row: a smaller row's extra cols give row // col = 0, which f
    maps to 0.  A row that alone needs more than ``_BLOCK`` pairs is split
    over column chunks.  Each block folds into its rows by one matrix
    product with the weights.
    """
    order = np.argsort(rows)
    rows = rows[order]
    cuts = np.searchsorted(cols, rows, side="right")
    sums = np.zeros(len(rows), dtype=np.int64)
    b = len(rows)
    while b and cuts[b - 1]:
        cut = int(cuts[b - 1])
        a = max(0, b - max(1, _BLOCK // cut))
        for c in range(0, cut, _BLOCK):
            j = slice(c, min(c + _BLOCK, cut))
            sums[a:b] += f(rows[a:b, None] // cols[j]) @ weights[j]
        b = a
    out = np.empty_like(sums)
    out[order] = sums
    return out


class _KFreeCounts:
    """Q_k(y, n) for y <= top from mu(e), e <= top^(1/k), of the shared table.

    Q_k(y, n) = sum_{e^k <= y, gcd(e,n)=1} mu(e) * #{t <= y/e^k : gcd(t,n)=1}:
    one :func:`_staircase` with the e^k as columns, mu(e) as weights and
    the inner count, by inclusion-exclusion over the squarefree divisors
    of n, as f.  The table's prefix is read-only and shared by every
    caller, so for n > 1 the e coprime to n are taken from a copy of it;
    n = 1 reads it as it is.
    """

    def __init__(self, top: int, n: int, k: int) -> None:
        self._divs = squarefree_divisors(n)
        mus = mu_range(iroot(top, k))
        if n > 1:
            mus = mus.copy()
            _zero_non_coprime(mus, n)
        e = np.flatnonzero(mus)
        self._sign = mus[e]
        self._ek = np.power(e, k, out=e)  # exact: e^k <= top <= 2^62

    def _coprime(self, z: np.ndarray) -> np.ndarray:
        """#{t <= z : gcd(t, n) = 1} for each z of the int64 array ``z``."""
        if len(self._divs) == 1:
            return z
        w, part = z.copy(), np.empty_like(z)
        for d, s in self._divs[1:]:
            np.floor_divide(z, d, out=part)
            (np.add if s > 0 else np.subtract)(w, part, out=w)
        return w

    def counts(self, ys: np.ndarray) -> np.ndarray:
        """Q_k(y, n) for each y of the int64 array ``ys`` (1 <= y <= top), in any order."""
        return _staircase(ys, self._ek, self._sign, self._coprime)

    def count(self, y: int) -> int:
        return int(self.counts(np.array([y], dtype=np.int64))[0])


def _small_table(top: int, n: int, k: int) -> np.ndarray:
    """Q_k(y, n) for y = 0..top as int64: mu(e) added on the multiples of e^k.

    An e sharing a prime with n only reaches r that the coprime mask zeroes.
    """
    values = np.zeros(top + 1, dtype=np.int64)
    for e in range(1, iroot(top, k) + 1):
        s = mu(e)
        if s:
            q = e**k
            values[q::q] += s
    _zero_non_coprime(values, n)
    return values.cumsum()


def _kfree_values(y: np.ndarray, counts: _KFreeCounts, table: np.ndarray) -> np.ndarray:
    """Q_k(y, n) for each y >= 0 of the int64 array ``y``, of any shape.

    ``table[y]`` up to the table's end, and one batched ``counts`` call above it.
    """
    top = len(table) - 1
    q = table[np.minimum(y, top)]
    large = y > top
    if large.any():
        q[large] = counts.counts(y[large])
    return q


def qk_count(x: int, n: int, k: int) -> int:
    """Exact count of k-free r <= x with gcd(r, n) = 1.

    Uses Q_k(x, n) = sum_{d <= x^(1/k), gcd(d,n)=1} mu(d) * #{t <= x/d^k :
    gcd(t, n) = 1}, evaluated with NumPy over one Moebius table; floors are
    exact int64 arithmetic.  x is limited as in :func:`sum_convolution`.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 1:
        return 0
    _check_conv_domain(x, k)
    return _KFreeCounts(x, n, k).count(x)


def sum_direct(q: SumQuery) -> int:
    """S(x; n) by one streaming sieve pass."""
    return stream_sum(q.x, q.order, q.coprime_to, [q.x])[0][1]


def _g_walk(x: int, k: int, m: int, primes: np.ndarray):
    """(g(d), d) as int64 arrays over the m-full 1 < d <= x built from ``primes``.

    g(p^a) is -1 for a = m + jk, +1 for a = m + 1 + jk (j >= 0) and 0 for
    every other a >= 1.  A node is (d, g(d), index of the next prime it may
    use).  A frontier of nodes is expanded at most ``_BLOCK`` (node, prime)
    pairs per step; each pair steps its exponent by p and p^(k-1) in turn,
    flipping the sign, while d stays <= x, and every d with x // d >= the
    next prime's p^m becomes a node of the step's child frontier.  Frontiers
    sit on a stack, so the walk is depth-first over them and its arrays stay
    bounded by the span times the depth.
    """
    pms = np.append(primes**m, x + 1)  # no prime after the last one
    next_pms = pms[1:]
    steps = (primes, primes ** (k - 1))
    stack = [(np.array([1]), np.array([1]), np.array([0]))]
    while stack:
        base, g, start = stack.pop()
        counts = np.searchsorted(pms, x // base, side="right") - start
        ends = np.cumsum(counts)
        if ends[-1] > _BLOCK:
            cut = int(np.searchsorted(ends, _BLOCK))
            take = _BLOCK - (int(ends[cut - 1]) if cut else 0)
            later = start[cut:].copy()
            later[0] += take
            stack.append((base[cut:], g[cut:], later))
            base, g, start = base[: cut + 1], g[: cut + 1], start[: cut + 1]
            counts = counts[: cut + 1].copy()
            counts[-1] = take
            ends = np.cumsum(counts)
        if not ends[-1]:
            continue
        node = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(int(ends[-1])) - (ends - counts - start)[node]
        d = base[node] * pms[j]
        sign = -g[node]
        signs, ds, js = [], [], []
        t = 0
        while len(d):
            signs.append(sign)
            ds.append(d)
            js.append(j)
            step = steps[t][j]
            live = step <= x // d
            # A dead lane's d * step may wrap; it is dropped with the lane.
            d, sign, j = (d * step)[live], -sign[live], j[live]
            t ^= 1
        g, d, j = (np.concatenate(c) for c in (signs, ds, js))
        kid = x // d >= next_pms[j]
        if kid.any():
            stack.append((d[kid], g[kid], j[kid] + 1))
        yield g, d


def _walk_primes(x: int, m: int, n: int) -> np.ndarray:
    """The primes p with p^m <= x that do not divide n: those of the m-full walk."""
    primes = primes_up_to(iroot(x, m))
    return primes[n % primes != 0]


def convolution_sums(
    checkpoints: list[int], order: OrderPair | tuple[int, int], coprime_to: int = 1
) -> list[tuple[int, int]]:
    """(x, S(x; n)) for each checkpoint x, as :func:`stream_sum` returns them.

    All checkpoints share one m-full walk to the largest x, one batched
    k-free counter up to it over the shared Moebius table, and one small
    Q_k table.  S(x; n) sums g(d) * Q_k(x // d, n) over d = 1 and the
    walk's d <= x: Q_k(x, n) for d = 1, then one :func:`_staircase` per
    walk step, with the checkpoints as rows, the step's sorted d as
    columns, g(d) as weights and Q_k as f, whose large arguments go
    through the counter's own staircase.  The int64 sums cannot wrap: a
    partial sum is at most x times the sum of 1/d over the m-full d, which
    is below 1.4 for m >= 3 (x <= 2^62), and k = 2 ends x near 2^50.
    Cost: about the sum over checkpoints of x^(1/k) floors per k-free count
    and one pair per (x, d), so it beats the stream on sparse grids and
    loses on very dense ones (the README's engine table).
    The checkpoints are ascending (duplicates allowed) and the largest is
    limited as in :func:`sum_convolution`.
    """
    o = as_order(order)
    if coprime_to < 1:
        raise ValueError("coprime_to must be >= 1")
    cps = checked_checkpoints(checkpoints, MAX_RANGE)
    x, n = cps[-1], coprime_to
    _check_conv_domain(x, o.k)
    table = _small_table(min(x, _TABLE_TOP), n, o.k)
    kfree = partial(_kfree_values, counts=_KFreeCounts(x, n, o.k), table=table)
    xs = np.array(cps, dtype=np.int64)
    sums = kfree(xs)  # the d = 1 term
    for g, d in _g_walk(x, o.k, o.m, _walk_primes(x, o.m, n)):
        order = np.argsort(d)
        sums += _staircase(xs, d[order], g[order], kfree)
    return list(zip(cps, sums.tolist()))


def sum_convolution(q: SumQuery) -> int:
    """S(x; n) by the independent convolution route over k-free counts.

    mu_{k,m} = q_k * g with g as in :func:`_g_walk`, and all three are 1
    at primes dividing n, so S(x; n) = sum over m-full d <= x coprime to n
    of g(d) * Q_k(x // d, n).  The d = 1 term is :func:`qk_count`.  For
    d > 1, x // d is at most x / p^m with p the least prime not dividing n;
    Q_k(y, n) is a table lookup for y <= ``_TABLE_TOP`` and a batched signed
    sum over mu(e), e <= (x / p^m)^(1/k), above it.  Both counts slice the
    process-wide Moebius table of :func:`mu_range`, which the first query
    sieves to x^(1/k) and later queries up to that size only read.  The
    walk is the one that :func:`convolution_sums` shares among its
    checkpoints, but with one x each step is a single row, summed by one
    dot product instead of a :func:`_staircase`.
    Cost: about x^(1/k) NumPy work and memory for the counts (and for the
    table, the first time it reaches that size), plus one entry per m-full
    d, walked in NumPy steps of at most ``_BLOCK`` (node, prime) pairs and
    counted in staircase blocks of at most ``_BLOCK`` (y, e) pairs; that
    one budget, not x, bounds the walk's and the counts' temporaries.
    """
    o = q.order
    x, n = q.x, q.coprime_to
    total = qk_count(x, n, o.k)
    primes = _walk_primes(x, o.m, n)
    if not len(primes):
        return total
    rest = x // int(primes[0]) ** o.m
    counts = _KFreeCounts(rest, n, o.k)
    table = _small_table(min(rest, _TABLE_TOP), n, o.k)
    for g, d in _g_walk(x, o.k, o.m, primes):
        total += int(np.dot(g, _kfree_values(x // d, counts, table)))
    return total


def _main_value(
    x: int, n: int, alpha_v: float, zeta_v: float, psi_f: float, alpha_n_f: float
) -> float:
    return x * n * n * alpha_v / (zeta_v * psi_f * alpha_n_f)


def main_term(
    q: SumQuery, prime_limit: int = DEFAULT_PRIME_LIMIT, tol: float = DEFAULT_TOL
) -> MainTermParts:
    """Asymptotic main term x n^2 alpha_{k,m} / (zeta(k) psi_k(n) alpha_{k,m}(n)).

    m == k is accepted; in that regime the expression is the conjectured
    density rather than a proven one, which callers flag downstream.
    """
    o = q.order
    fn = as_factored(q.coprime_to)
    a = alpha(o, prime_limit)
    z = zeta(o.k, tol)
    psi = psi_k(fn, o.k)
    an = alpha_n(o, fn)
    main = _main_value(q.x, fn.value, a.value, z.value, float(psi), float(an))
    return MainTermParts(main, a, z, psi, an)


# ---------------------------------------------------------------------------
# Pointwise arrays for the float-valued partial sums.


def _mu_sieve(top: int) -> np.ndarray:
    """mu(0..top) as a new read-only int8 array (mu[0] = 0), for top <= 2^25.

    Besides the values it keeps one byte a cell: the sum of round(8 log2 p)
    over the primes p <= sqrt(t) dividing r, t = max(top, 16).  A squarefree
    r in [2^j, 2^(j+1)) has at most 8 prime factors, so with none above
    sqrt(t) that sum is at least 8j - 4, and with one, q > sqrt(t) >= 4, it
    is below 8j - 4.5; those r take one more sign flip.  The sum is at most
    8 * 25 + 4, so it fits a uint8.
    """
    t = max(top, 16)
    values = np.ones(t + 1, dtype=np.int8)
    values[0] = 0
    logs = np.zeros(t + 1, dtype=np.uint8)
    for p in prime_list_up_to(math.isqrt(t)):
        multiples = values[p::p]
        np.negative(multiples, out=multiples)
        logs[p::p] += round(8 * math.log2(p))
        p2 = p * p
        values[p2::p2] = 0
    for j in range(t.bit_length()):
        lo, hi = 1 << j, min(2 << j, t + 1)
        flag = logs[lo:hi] < 8 * j - 4
        # A masked ufunc (where=) costs 30-100x an unmasked multiply here.
        sign = flag.view(np.int8)
        sign *= -2
        sign += 1
        values[lo:hi] *= sign
    values = values[: top + 1]
    values.flags.writeable = False
    return values


def mu_range(x: int) -> np.ndarray:
    """Classical Moebius values mu(0..x) as int8 (mu[0] = 0).

    The result is a read-only view of one table shared by the whole
    process; copy it before writing.  A request past the table's top
    sieves it again to min(max(x, 2 * top), ``_ARRAY_CAP``) under a lock,
    so the table stays resident, at most 2^25 + 1 bytes, like the prime
    table of :mod:`moebius_km.primes`.
    """
    global _mu_state
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > _ARRAY_CAP:
        raise ValueError(f"x = {x} exceeds array cap {_ARRAY_CAP}")
    state = _mu_state
    if x > state[0]:
        with _mu_lock:
            state = _mu_state
            if x > state[0]:
                top = min(max(x, 2 * state[0]), _ARRAY_CAP)
                state = (top, _mu_sieve(top))
                _mu_state = state
    return state[1][: x + 1]


def psi_ratio_range(x: int, k: int) -> np.ndarray:
    """psi_k(r)/r for r = 0..x as float64 (entry 0 is 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x > _ARRAY_CAP:
        raise ValueError(f"x = {x} exceeds array cap {_ARRAY_CAP}")
    ratio = np.ones(x + 1, dtype=np.float64)
    for p in prime_list_up_to(x):
        factor = float(Fraction(p**k - 1, p ** (k - 1) * (p - 1)))
        ratio[p::p] *= factor
    return ratio


def _ascending_sum(terms: np.ndarray) -> float:
    # cumsum is a strict left-to-right recurrence: documented ascending order.
    return float(np.cumsum(terms)[-1])


def L_n_sum(x: int, n: int = 1) -> float:
    """Partial sum of mu(r)/r over r <= x with gcd(r, n) = 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    mus = mu_range(x).astype(np.float64)
    _zero_non_coprime(mus, n)
    r = np.arange(x + 1, dtype=np.float64)
    r[0] = 1.0
    return _ascending_sum(mus / r)


def mu_over_psi_sum(x: int, n: int, k: int) -> float:
    """Partial sum of mu(r)/psi_k(r) over r <= x with gcd(r, n) = 1."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return mu_over_psi_weighted_sum(x, n, k, power=0)


def mu_over_psi_weighted_sum(
    x: int, n: int, k: int, power: int | None = None, above: int = 0
) -> float:
    """Partial sum of mu(r) / (psi_k(r) * r^power), defaulting power = k - 1.

    ``above`` restricts to r > above, exposing the tail sums that appear in
    the convolution error decomposition.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if power is None:
        power = k - 1
    if not 0 <= above <= x:
        raise ValueError("need 0 <= above <= x")
    mus = mu_range(x).astype(np.float64)
    _zero_non_coprime(mus, n)
    if above:
        mus[: above + 1] = 0.0
    r = np.arange(x + 1, dtype=np.float64)
    r[0] = 1.0
    denom = psi_ratio_range(x, k) * r ** float(power + 1)
    return _ascending_sum(mus / denom)


def mu_over_psi_power_series(x: int, n: int, k: int, m: int) -> float:
    """Partial sum of mu(d)/(d^(m-1) psi_k(d)) over d <= x, gcd(d, n) = 1.

    Converges to n * alpha_{k,m} / alpha_{k,m}(n); the constants module is
    checked against this independently computed series.
    """
    return mu_over_psi_weighted_sum(x, n, k, power=m - 1)
