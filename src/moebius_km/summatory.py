"""Exact summatory functions, counting identities, and main terms.

The headline sum S(x; n) = sum_{r <= x, gcd(r,n)=1} mu_{k,m}(r) is computed
two independent ways: a streaming sieve pass (:func:`sum_direct`) and the
divisor-convolution route (:func:`sum_convolution`).  The two must agree
exactly on every input, which is the library's strongest self-check.
:func:`convolution_sums` is the convolution route for a whole ascending
grid of x, sharing one walk and its tables.

The convolution route has one engine per regime, picked by m == k alone.
For Apostol's mu_k (m = k), mu_{k,k} = 1 * h with h(p^k) = -2,
h(p^(k+1)) = +1 and h = 0 at every other exponent, so S(x; n) sums
h(d) * C_n(x // d) over the k-full d coprime to n, C_n(y) =
#{t <= y : gcd(t, n) = 1}: no k-free count and no Moebius table.  For
m > k, mu_{k,m} = q_k * g with g supported on the m-full d, and S sums
g(d) * Q_k(x // d, n) over k-free counts, the floors above a small table
taken by one batched count per query.  One walk (:func:`_walk`) enumerates
the d of either, from the nonzero terms of its local factor; it divides
once per prime, not once per d.

The Moebius values of the batched k-free counts and of the float partial
sums come from one process-wide table, grown on demand like the prime
table and never mutated: :func:`mu_range` returns a read-only prefix view
of it, so a later query slices the table instead of sieving its own.  The
small table of k-free counts (:func:`_small_table`) is the exception: it
evaluates :func:`~moebius_km.functions.mu` pointwise for its few
e <= ``_TABLE_TOP``^(1/k), 45 for k = 2.

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
_TABLE_TOP = 1 << 11  # Q_k(y, n) is looked up for y <= this, batched-counted above
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
    """Largest x the convolution route accepts for order k, whatever m.

    Its floors are int64, so x <= 2^62, and for m > k it reads mu(e) for
    e <= x^(1/k) from the shared table of :func:`mu_range`, capped at
    ``_ARRAY_CAP``; for k = 2 that ends x at (2^25 + 1)^2 - 1.  The m = k
    route reads no table but keeps the same limit.
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


def _coprime_counts(z: np.ndarray, divs: list[tuple[int, int]]) -> np.ndarray:
    """C_n(z) = #{t <= z : gcd(t, n) = 1} for each z of the int64 array ``z``.

    ``divs`` is :func:`squarefree_divisors` of n; inclusion-exclusion over
    them.  For n = 1 the result is ``z`` itself, not a copy.
    """
    if len(divs) == 1:
        return z
    w, part = z.copy(), np.empty_like(z)
    for d, s in divs[1:]:
        np.floor_divide(z, d, out=part)
        (np.add if s > 0 else np.subtract)(w, part, out=w)
    return w


class _KFreeCounts:
    """Q_k(y, n) for y <= top from mu(e), e <= top^(1/k), of the shared table.

    Q_k(y, n) = sum_{e^k <= y, gcd(e,n)=1} mu(e) * C_n(y / e^k): one
    :func:`_staircase` with the e^k as columns, mu(e) as weights and
    :func:`_coprime_counts` as f.  The table's prefix is read-only and
    shared by every caller, so for n > 1 the e coprime to n are taken from
    a copy of it; n = 1 reads it as it is.
    """

    def __init__(self, top: int, n: int, k: int) -> None:
        self._coprime = partial(_coprime_counts, divs=squarefree_divisors(n))
        mus = mu_range(iroot(top, k))
        if n > 1:
            mus = mus.copy()
            _zero_non_coprime(mus, n)
        e = np.flatnonzero(mus)
        # The weights stay int8.  int64 weights would save about 17 us per
        # batched count, but add 7 bytes for each of the ~20.4M nonzero
        # mu(e) at the k = 2 top: about 140 MB on top of the 236 MiB that
        # the (2,3) edge query peaks at, past CI's 300 MiB guard.
        self._sign = mus[e]
        self._ek = np.power(e, k, out=e)  # exact: e^k <= top <= 2^62

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


def _g_terms(x: int, k: int, m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (a, g(p^a)), a >= 1, of g with mu_{k,m} = q_k * g, for m > k.

    Multiplying the local factor of mu_{k,m} by that of q_k's inverse,
    (1 - p^-s) / (1 - p^-ks), gives g(p^a) = -1 for a = m + jk and +1 for
    a = m + 1 + jk (j >= 0).  The list ends past x.bit_length(), beyond
    which no p^a <= x.
    """
    top = max(m, x.bit_length())
    return tuple(t for a in range(m, top + 1, k) for t in ((a, -1), (a + 1, 1)))


def _h_terms(k: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (a, h(p^a)), a >= 1, of h with mu_{k,k} = 1 * h.

    The local factor of Apostol's mu_k times (1 - p^-s) is
    1 - 2p^-ks + p^-(k+1)s.
    """
    return ((k, -2), (k + 1, 1))


def _walk(x: int, terms: tuple[tuple[int, int], ...], primes: np.ndarray):
    """(w(d), d) as int64 arrays over the 1 < d <= x with w(d) != 0 built from ``primes``.

    w is multiplicative with the same local terms at every prime:
    ``terms`` lists the nonzero (a, w(p^a)), a >= 1, by ascending a
    (:func:`_g_terms`, :func:`_h_terms`).  Every prime p has p^a0 <= x, a0
    the first exponent, and each gap between exponents is at most a0, so no
    power built here passes x.

    The walk divides once per prime, never per d: lim0[j] = x // p_j^a0 and,
    for each gap, lim[j] = x // p_j^gap.  A node is (d, w(d), index of the
    next prime it may use).  d * p_j^a0 <= x exactly when d <= lim0[j], and
    lim0 is non-increasing, so one ``searchsorted`` over its negation counts
    a node's primes.  A frontier of nodes is expanded at most ``_BLOCK``
    (node, prime) pairs per step.  Each pair steps through the terms; only
    the live lanes, d <= lim[j], are multiplied by p^gap, so no product
    wraps.  Every d <= lim0[j + 1] becomes a node of the step's child
    frontier.  Frontiers sit on a stack, so the walk is depth-first over
    them and its arrays stay bounded by the span times the depth.  Over the
    primes it holds -lim0 and, per gap, p^gap and lim, with ``primes``
    itself as the power of gap 1: two int64 arrays when every gap is 1.
    """
    a0 = terms[0][0]
    neg = np.append(-(x // primes**a0), 0)  # -lim0, ascending; 0: no next prime
    next_neg = neg[1:]
    gaps = [b - a for (a, _), (b, _) in zip(terms, terms[1:])]
    powers = {gap: primes if gap == 1 else primes**gap for gap in set(gaps)}
    lims = {gap: x // power for gap, power in powers.items()}
    # NumPy scalars: a small array times a Python int costs more.
    c0, *coefs = (np.int64(c) for _, c in terms)
    steps = [(powers[gap], lims[gap], c) for gap, c in zip(gaps, coefs)]
    stack = [(np.array([1]), np.array([1]), np.array([0]))]
    while stack:
        base, w, start = stack.pop()
        counts = np.searchsorted(neg, -base, side="right") - start
        ends = np.cumsum(counts)
        if ends[-1] > _BLOCK:
            cut = int(np.searchsorted(ends, _BLOCK))
            take = _BLOCK - (int(ends[cut - 1]) if cut else 0)
            later = start[cut:].copy()
            later[0] += take
            stack.append((base[cut:], w[cut:], later))
            base, w, start = base[: cut + 1], w[: cut + 1], start[: cut + 1]
            counts = counts[: cut + 1].copy()
            counts[-1] = take
            ends = np.cumsum(counts)
        if not ends[-1]:
            continue
        j = np.arange(int(ends[-1])) - np.repeat(ends - counts - start, counts)
        d = np.repeat(base, counts) * primes[j] ** a0
        w = np.repeat(w, counts)
        ws, ds, js = [w * c0], [d], [j]
        for power, lim, c in steps:
            live = d <= lim[j]
            j = j[live]
            if not len(j):
                break
            d, w = d[live] * power[j], w[live]
            ws.append(w * c)
            ds.append(d)
            js.append(j)
        w, d, j = (np.concatenate(a) for a in (ws, ds, js))
        kid = next_neg[j] + d <= 0
        if kid.any():
            stack.append((d[kid], w[kid], j[kid] + 1))
        yield w, d


def _walk_primes(x: int, a0: int, n: int) -> np.ndarray:
    """The primes p with p^a0 <= x that do not divide n, for a walk whose first exponent is a0."""
    primes = primes_up_to(iroot(x, a0))
    return primes[n % primes != 0]


def convolution_sums(
    checkpoints: list[int], order: OrderPair | tuple[int, int], coprime_to: int = 1
) -> list[tuple[int, int]]:
    """(x, S(x; n)) for each checkpoint x, as :func:`stream_sum` returns them.

    The route of :func:`sum_convolution`, with one walk to the largest x and
    one f shared by every checkpoint: f(x) is the d = 1 term, then each walk
    step is one :func:`_staircase` with the checkpoints as rows, the step's
    sorted d as columns, w(d) as weights and f as f.  For m > k, f = Q_k
    reads one small table up to ``_TABLE_TOP`` and one batched k-free
    counter up to the largest x.  The int64 sums cannot wrap, by the bound
    of :func:`sum_convolution`.  Cost: one pair per (x, d), and for m > k
    about x^(1/k) floors per k-free count, so it beats the stream on sparse
    grids and loses on very dense ones (the README's engine table).  The
    checkpoints are ascending (duplicates allowed) and the largest is
    limited as in :func:`sum_convolution`.
    """
    o = as_order(order)
    if coprime_to < 1:
        raise ValueError("coprime_to must be >= 1")
    cps = checked_checkpoints(checkpoints, MAX_RANGE)
    x, n = cps[-1], coprime_to
    _check_conv_domain(x, o.k)
    if o.m == o.k:
        terms, f = _h_terms(o.k), partial(_coprime_counts, divs=squarefree_divisors(n))
    else:
        table = _small_table(min(x, _TABLE_TOP), n, o.k)
        terms = _g_terms(x, o.k, o.m)
        f = partial(_kfree_values, counts=_KFreeCounts(x, n, o.k), table=table)
    xs = np.array(cps, dtype=np.int64)
    sums = f(xs).copy()  # the d = 1 term; C_n(xs) for n = 1 is xs itself
    for w, d in _walk(x, terms, _walk_primes(x, terms[0][0], n)):
        order = np.argsort(d)
        sums += _staircase(xs, d[order], w[order], f)
    return list(zip(cps, sums.tolist()))


def sum_convolution(q: SumQuery) -> int:
    """S(x; n) by the independent convolution route: sum w(d) * F_n(x // d).

    For a Dirichlet factorisation mu_{k,m} = f * w, S(x; n) sums w(d) times
    F_n(x // d) = sum of f(t) over t <= x // d coprime to n, over the d
    coprime to n: the indicator of gcd(r, n) = 1 is completely
    multiplicative.  The route is picked by m == k alone:

    - m = k (Apostol's mu_k): mu_{k,k} = 1 * h (:func:`_h_terms`), so S sums
      h(d) * C_n(x // d) over the k-full d, C_n(y) = #{t <= y :
      gcd(t, n) = 1}.  It reads no k-free count and no Moebius table.
    - m > k: mu_{k,m} = q_k * g (:func:`_g_terms`), so S sums
      g(d) * Q_k(x // d, n) over the m-full d.  The d = 1 term is
      :func:`qk_count`.  For d > 1, x // d is at most x / p^m with p the
      least prime not dividing n, and Q_k(y, n) is a table lookup for
      y <= ``_TABLE_TOP`` and a batched signed sum over mu(e),
      e <= (x / p^m)^(1/k), above it, both from the Moebius table of
      :func:`mu_range`.

    The d come from :func:`_walk`.  For m = k each walk step is one dot
    product.  For m > k a step reads its floors x // d <= ``_TABLE_TOP``
    from the table by one dot product and sets the larger ones aside with
    their weights; after the walk one batched count over all of them
    (:meth:`_KFreeCounts.counts`) is dotted with their weights.
    The int64 dot products cannot wrap: a partial sum is at most
    x * sum |w(d)| / d.  For m = k that is x * prod_p (1 + 2p^-k + p^-(k+1)),
    below 2.48x for k = 2 and 1.47x for k >= 3; for m > k it is below 1.4x.
    k = 2 ends x near 2^50 and k >= 3 at 2^62.
    Cost: one entry per walk d, about c * x^(1/k) of them for m = k and
    c * x^(1/m) for m > k, plus for m > k one staircase over the floors set
    aside, with about x^(1/k) NumPy work and memory for its columns (and for
    the Moebius table, the first time it reaches that size).  The one
    ``_BLOCK`` budget, not x, bounds the walk's and the counts' temporaries;
    the floors set aside are at most the m-full walk's entries.
    """
    o = q.order
    x, n = q.x, q.coprime_to
    if o.m == o.k:
        _check_conv_domain(x, o.k)
        total, divs = coprime_count(x, n), squarefree_divisors(n)
        for w, d in _walk(x, _h_terms(o.k), _walk_primes(x, o.k, n)):
            total += int(np.dot(w, _coprime_counts(x // d, divs)))
        return total
    total = qk_count(x, n, o.k)
    primes = _walk_primes(x, o.m, n)
    if not len(primes):
        return total
    rest = x // int(primes[0]) ** o.m
    table = _small_table(min(rest, _TABLE_TOP), n, o.k)
    floors, weights = [], []
    for w, d in _walk(x, _g_terms(x, o.k, o.m), primes):
        y = x // d
        small = y <= _TABLE_TOP
        total += int(np.dot(w[small], table[y[small]]))
        floors.append(y[~small])
        weights.append(w[~small])
    if rest > _TABLE_TOP:
        counts = _KFreeCounts(rest, n, o.k).counts(np.concatenate(floors))
        total += int(np.dot(np.concatenate(weights), counts))
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
