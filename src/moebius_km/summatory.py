"""Exact summatory functions and k-free counts.

The headline sum S(x; n) = sum_{r <= x, gcd(r,n)=1} mu_{k,m}(r) is computed
two independent ways: a streaming sieve pass (:func:`sum_direct`) and the
divisor-convolution route.  The two must agree exactly on every input,
which is the library's strongest self-check.  The convolution route is one
engine, :func:`convolution_sums`, for one x or an ascending grid of x
sharing one walk and its tables; :func:`sum_convolution` is that engine at
one checkpoint.

The engine has one factorisation per regime, picked by m == k alone.  For
Apostol's mu_k (m = k), mu_{k,k} = 1 * h with h(p^k) = -2,
h(p^(k+1)) = +1 and h = 0 at every other exponent, so S(x; n) sums
h(d) * C_n(x // d) over the k-full d coprime to n, C_n(y) =
#{t <= y : gcd(t, n) = 1}: no k-free count and no Moebius table.  For
m > k, mu_{k,m} = q_k * g with g supported on the m-full d, and S sums
g(d) * Q_k(x // d, n) over k-free counts: a small table up to
``_TABLE_TOP``, and :func:`qk_count` over every larger floor of the
query, the checkpoints among them, at most ``_BLOCK`` floors a call
(or the floors of one d).  That count splits its pairs by the hyperbola
method, about y^(1/(k+1)) terms a floor y.  One walk (:func:`_walk`)
enumerates the d of either, from the nonzero terms of its local factor;
it divides once per prime, not once per d.

The Moebius values of the k-free counts come from one process-wide
:class:`~moebius_km.primes.GrownTable`, the kind the prime table is: grown
on demand, read-only and never mutated.  :func:`mu_range` returns a prefix
view of it, so a later query slices the table instead of sieving its own;
a count sums it into the Mertens values it reads.  The small table of
k-free counts (:func:`_small_table`) is the exception: it evaluates
:func:`~moebius_km.functions.mu` pointwise for its few e <=
``_TABLE_TOP``^(1/k), 45 for k = 2.  The table's cap is the prime table's,
2^26, so the convolution route and the sieve have one domain, which
:func:`~moebius_km.sieve._validate_range` checks for both.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arith import FactoredInteger, as_factored, squarefree_divisors
from .functions import OrderPair, as_order, mu
from .primes import (
    _PRIME_TABLE_CAP, GrownTable, checked_int, iroot, positive_int, prime_list_up_to, primes_up_to,
)
from .sieve import _validate_range, checked_checkpoints, stream_sum

_TABLE_TOP = 1 << 11  # Q_k(y, n) is looked up for y <= this, batched-counted above
_PERIOD_CAP = 1 << 16  # largest rad(n) whose C_n is read from one period
_BLOCK = 1 << 13  # pairs per NumPy step: walk (node, prime), staircase and count (row, col)


@dataclass(frozen=True)
class SumQuery:
    """Arguments of one summatory evaluation."""

    x: int
    order: OrderPair
    coprime_to: int = 1

    def __post_init__(self) -> None:
        positive_int(self.x, "x")
        positive_int(self.coprime_to, "coprime_to")


def _factored(n: int | FactoredInteger, name: str) -> FactoredInteger:
    """The coprime filter ``n`` factored: an int >= 1 once, a FactoredInteger as it is."""
    return as_factored(n if isinstance(n, FactoredInteger) else positive_int(n, name))


def _zero_non_coprime(values: np.ndarray, fn: FactoredInteger) -> None:
    """Zero values[r] for every r sharing a prime factor with fn."""
    for p, _ in fn.factors:
        values[p::p] = 0


def _staircase(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, f) -> np.ndarray:
    """sum of weights[j] * f(row // cols[j]) over the cols[j] <= row, for each row.

    ``rows`` and ``cols`` are ascending int64 arrays and ``f`` maps an
    int64 array of floors to one of the same shape, with f(0) = 0.  The
    rows are taken from the largest down, in blocks of at most ``_BLOCK``
    (row, col) pairs that share the cols <= the block's largest row: a
    smaller row's extra cols give row // col = 0, which f maps to 0.  A
    block stops at a row with less than an eighth of those cols, so one
    large row, such as a checkpoint among its floors, does not make the
    rows below it read all of its cols.  A row that alone needs more than
    ``_BLOCK`` pairs is split over column chunks.  Each block folds into
    its rows by one matrix product with the weights.
    """
    cuts = np.searchsorted(cols, rows, side="right").tolist()
    sums = np.zeros(len(rows), dtype=np.int64)
    b = len(rows)
    while b and cuts[b - 1]:
        cut = cuts[b - 1]
        a = max(b - max(1, _BLOCK // cut), bisect_left(cuts, cut // 8, 0, b))
        for c in range(0, cut, _BLOCK):
            j = slice(c, min(c + _BLOCK, cut))
            sums[a:b] += f(rows[a:b, None] // cols[j]) @ weights[j]
        b = a
    return sums


def _coprime_counter(n: int | FactoredInteger):
    """The map z -> C_n(z) = #{t <= z : gcd(t, n) = 1} on int64 arrays of z >= 0.

    Inclusion-exclusion over the squarefree divisors of n costs 2^omega(n) - 1
    floors an entry.  With N = rad(n), C_n(z) = phi(N) (z // N) + C_n(z mod N):
    one floor and one lookup in C_n over [0, N), cheaper once n has two primes.
    That form is taken while N <= ``_PERIOD_CAP``.  For n = 1 the map returns z
    itself, not a copy.
    """
    fn = as_factored(n)
    rad = math.prod(p for p, _ in fn.factors)
    if len(fn.factors) < 2 or rad > _PERIOD_CAP:
        return partial(_coprime_counts, divs=squarefree_divisors(fn))
    coprime = np.ones(rad, dtype=np.int64)
    for p, _ in fn.factors:
        coprime[::p] = 0
    return partial(_periodic_counts, rad=rad, period=np.cumsum(coprime))


def _coprime_counts(z: np.ndarray, divs: list[tuple[int, int]]) -> np.ndarray:
    """C_n(z) for each z of ``z``, by inclusion-exclusion over ``divs``.

    ``divs`` is :func:`squarefree_divisors` of n.  For n = 1 the result is
    ``z`` itself, not a copy.
    """
    if len(divs) == 1:
        return z
    w, part = z.copy(), np.empty_like(z)
    for d, s in divs[1:]:
        np.floor_divide(z, d, out=part)
        (np.add if s > 0 else np.subtract)(w, part, out=w)
    return w


def _periodic_counts(z: np.ndarray, rad: int, period: np.ndarray) -> np.ndarray:
    """C_n(z) for each z of ``z``, ``period`` = C_n(0..rad - 1) and rad = rad(n)."""
    q = z // rad
    counts = period[z - q * rad]
    q *= int(period[-1])  # phi(rad)
    counts += q
    return counts


def _small_table(top: int, fn: FactoredInteger, k: int) -> np.ndarray:
    """Q_k(y, n) for y = 0..top as int64, n = fn: mu(e) added on the multiples of e^k.

    An e sharing a prime with n only reaches r that the coprime mask zeroes.
    """
    values = np.zeros(top + 1, dtype=np.int64)
    for e in range(1, iroot(top, k) + 1):
        s = mu(e)
        if s:
            q = e**k
            values[q::q] += s
    _zero_non_coprime(values, fn)
    return values.cumsum()


def _iroots(z: np.ndarray, k: int, top: int) -> np.ndarray:
    """floor(z^(1/k)) for each entry of the int64 array ``z``, all in [0, top], top <= 2^62.

    For k = 2, top <= (2^26 + 1)^2 - 1, so z < 2^53 is exact as a float
    and its square root correctly rounded: the floor is exact below 2^52,
    and past it (r + 1)^2 - 1 may round up to r + 1, which one exact
    comparison, made only when top is that large, steps back.  For k >= 3
    the float root (relative error below 2^-47) raised by 2^-40 floors to
    the root or to one above it.  One above needs z >= (root + 1)^k
    (1 - k 2^-39), so z + 1 >= 2^39 / k, and then (root + 1)^k stays below
    2^63: one exact comparison, made only when top is that large, settles it.
    """
    if k == 2:
        r = np.sqrt(z).astype(np.int64)
        if top >= 1 << 52:
            r -= r * r > z
        return r
    r = np.cbrt(z) if k == 3 else z ** (1 / k)
    r *= 1 + 2.0**-40
    r = r.astype(np.int64)
    if k * (top + 1) >= 1 << 39:
        r -= r**k > z
    return r


def qk_count(x, n: int | FactoredInteger, k: int):
    """Exact count of k-free r <= x with gcd(r, n) = 1, for an int x or each entry of an integer array.

    Q_k(y, n) sums mu_n(e) over the pairs (e, v) with e^k v <= y, mu_n(e)
    = mu(e) on the e coprime to n and 0 elsewhere, v coprime to n.  The
    hyperbola method splits the pairs at e = D, for any D >= 0:

        Q_k(y, n) = sum_{e <= D} mu_n(e) C_n(y // e^k)
                  + sum_v [M_n(max(iroot(y // v, k), D)) - M_n(D)],

    v over the integers <= y // (D+1)^k coprime to n, with M_n(z) =
    sum_{e <= z} mu_n(e).  The first sum has about D terms, the second
    about y / D^k, so D = iroot(y, k + 1) gives each about y^(1/(k+1)).
    The second calls no C_n: one floor, one root and one lookup in the
    Mertens table M_n(0..x^(1/k)), a cumulative sum of the shared Moebius
    table (x the largest entry, 4 bytes a cell).

    The entries, sorted, are taken from the largest down in blocks that
    share one D, that of the block's largest entry y: the e <= D as
    columns of the first sum, the v <= y // (D+1)^k of the second.  Both
    hold for the block's smaller entries, whose extra columns add 0.  As
    in :func:`_staircase`, a block has at most ``_BLOCK`` (entry, column)
    pairs, a row that alone needs more is split over column chunks, and a
    block stops at an entry below y / 8^(k+1), whose own columns would be
    under an eighth of the block's.  No block reaches below 0 and 0 adds
    0, so an entry below 1 counts 0.  The entries come in any order and
    may repeat; a 1-D array of any integer dtype gives an int64 array in its
    order.  The table's prefix stays as it is: mu_n and then M_n are one
    new int32 array.  x is limited as in :func:`convolution_sums`.  n may
    come factored, as a FactoredInteger; an int n is factored once.
    """
    k, fn = checked_int(k, "k"), _factored(n, "n")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    many = isinstance(x, np.ndarray)
    if many and (x.ndim != 1 or x.dtype.kind not in "iu"):
        raise ValueError(f"x must be a 1-D integer array, got shape {x.shape} and dtype {x.dtype}")
    top = int(x.max(initial=0)) if many else checked_int(x, "x")
    if top < 1:
        return np.zeros(len(x), dtype=np.int64) if many else 0
    _validate_range(1, top, k)
    ys = x.astype(np.int64, copy=False) if many else np.array([top], dtype=np.int64)
    d_top = iroot(top, k + 1)  # no block's D or v passes it
    mertens = mu_range(iroot(top, k)).astype(np.int32)  # mu_n, then M_n: |M_n(z)| <= z <= 2^26
    coprime = np.ones(d_top + 1, dtype=bool)
    for p, _ in fn.factors:
        mertens[p::p] = 0
        coprime[p::p] = False
    vs = np.flatnonzero(coprime)[1:]
    e = np.flatnonzero(mertens[: d_top + 1])
    sign = mertens[e].astype(np.int64)
    ek = e**k
    np.cumsum(mertens, out=mertens)
    f = _coprime_counter(fn)
    by_y = np.argsort(ys)
    rows = ys[by_y]
    rlist = rows.tolist()
    sums = np.zeros(len(rows), dtype=np.int64)
    b = len(rows)
    while b and rlist[b - 1] > 0:
        y = rlist[b - 1]
        d = iroot(y, k + 1)
        v_top = y // (d + 1) ** k
        na, nb = bisect_right(e, d), bisect_right(vs, v_top)
        a = max(b - max(1, _BLOCK // (na + nb)), bisect_left(rlist, y >> 3 * (k + 1), 0, b))
        r = rows[a:b, None]
        for c in range(0, na, _BLOCK):
            j = slice(c, min(c + _BLOCK, na))
            sums[a:b] += f(r // ek[j]) @ sign[j]
        for c in range(0, nb, _BLOCK):
            v = vs[c : min(c + _BLOCK, nb)]
            roots = _iroots(r // v, k, y)
            np.maximum(roots, d, out=roots)
            sums[a:b] += mertens[roots].sum(axis=1) - len(v) * int(mertens[d])
        b = a
    counts = np.empty_like(sums)
    counts[by_y] = sums
    return counts if many else int(counts[0])


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
    checkpoints: list[int],
    order: OrderPair | tuple[int, int],
    coprime_to: int | FactoredInteger = 1,
) -> list[tuple[int, int]]:
    """(x, S(x; n)) for each checkpoint x, as :func:`stream_sum` returns them.

    The convolution route, for one x or a grid.  For a Dirichlet
    factorisation mu_{k,m} = f * w, S(x; n) sums w(d) times F_n(x // d) =
    sum of f(t) over t <= x // d coprime to n, over the d coprime to n: the
    indicator of gcd(r, n) = 1 is completely multiplicative.  The
    factorisation is picked by m == k alone:

    - m = k (Apostol's mu_k): mu_{k,k} = 1 * h (:func:`_h_terms`), so S sums
      h(d) * C_n(x // d) over the k-full d, C_n(y) = #{t <= y :
      gcd(t, n) = 1}.  It reads no k-free count and no Moebius table.
    - m > k: mu_{k,m} = q_k * g (:func:`_g_terms`), so S sums
      g(d) * Q_k(x // d, n) over the m-full d.  Q_k(y, n) is read from a
      small table for y <= ``_TABLE_TOP``.  The d whose floors may pass
      it are set aside, d = 1 for the checkpoints among them; after the
      walk each is paired with the checkpoints whose floor passes the
      table.  The d are taken in ascending order, at most ``_BLOCK`` pairs
      a :func:`qk_count` call (a d with more pairs alone), so a later call's
      Mertens table, sized by its largest floor, shrinks as d grows.

    One walk (:func:`_walk`) to the largest x serves every checkpoint.  Each
    step is one :func:`_staircase` with the checkpoints as rows, the step's
    sorted d as columns, w(d) as weights and C_n, or the table, as f.  The
    staircase and its sort exist for the checkpoints below some d: when
    every checkpoint is x (one checkpoint), which no d exceeds, a step is
    one dot product.  The int64 sums cannot wrap: a partial sum is at most
    x * sum |w(d)| / d.  For m = k that is x * prod_p (1 + 2p^-k + p^-(k+1)),
    below 2.48x for k = 2 and 1.47x for k >= 3; for m > k it is below 1.4x.
    Cost: one pair per (x, d), about c * x^(1/k) walk entries for m = k and
    c * x^(1/m) for m > k, plus for m > k one count with about
    (x // d)^(1/(k+1)) NumPy work a floor, and a pass and 4 bytes a cell
    over its Mertens table of x^(1/k) cells (and the Moebius table, the
    first time it reaches that size).  So it beats the stream on sparse
    grids and loses on very dense ones (the README's engine table).  The
    ``_BLOCK`` budget bounds the temporaries of the walk, the staircases,
    the set-aside pairs and the count.  The checkpoints are ascending
    (duplicates allowed) integers, the largest at most the stream's limit
    :func:`~moebius_km.sieve._max_range`: 2^62, and (2^26 + 1)^2 - 1 for k = 2.
    ``coprime_to`` may come factored, as a FactoredInteger; an int is
    factored once, and the count and the tables share that factorisation.
    """
    o = as_order(order)
    fn = _factored(coprime_to, "coprime_to")
    cps = checked_checkpoints(checkpoints, math.inf)  # the domain check names the limit
    x = cps[-1]
    _validate_range(1, x, o.k)
    xs = np.array(cps, dtype=np.int64)
    if o.m == o.k:
        terms, top, ws, ds = _h_terms(o.k), x, [], []
        f = _coprime_counter(fn)
    else:
        terms, top = _g_terms(x, o.k, o.m), min(x, _TABLE_TOP)
        # Q_k from the small table; the floors above top clip to an appended 0.
        f = partial(np.take, np.append(_small_table(top, fn, o.k), 0), mode="clip")
        # d = 1 with w(1) = 1: the checkpoints above top are counted with the floors.
        ws, ds = [np.ones(1, dtype=np.int64)], [np.ones(1, dtype=np.int64)]
    sums = f(xs).copy()  # d = 1 up to top; C_n(xs) for n = 1 is xs itself
    reach = x // (top + 1)  # a floor x // d passes top only for d <= reach
    for w, d in _walk(x, terms, _walk_primes(x, terms[0][0], fn.value)):
        if cps[0] < x:  # a checkpoint below x may lie below some d
            by_d = np.argsort(d)
            sums += _staircase(xs, d[by_d], w[by_d], f)
        else:  # every checkpoint is x, which no d exceeds: one dot product
            sums += f(x // d) @ w
        if reach:
            near = d <= reach
            ws.append(w[near])
            ds.append(d[near])
    if ws:
        w, d = np.concatenate(ws), np.concatenate(ds)
        by_d = np.argsort(d)
        w, d = w[by_d], d[by_d]
        first = np.searchsorted(xs // (top + 1), d)  # the rows from here on have xs // d > top
        counts = len(xs) - first
        ends = [0, *np.cumsum(counts).tolist()]  # the pairs of the d before each d
        a = 0
        while a < len(d):  # a chunk of at most _BLOCK pairs, or one d alone
            b = max(a + 1, bisect_right(ends, ends[a] + _BLOCK) - 1)
            c = counts[a:b]
            rows = np.arange(ends[b] - ends[a]) + np.repeat(first[a:b] - np.cumsum(c) + c, c)
            counted = qk_count(xs[rows] // np.repeat(d[a:b], c), fn, o.k)
            np.add.at(sums, rows, np.repeat(w[a:b], c) * counted)
            a = b
    return list(zip(cps, sums.tolist()))


def sum_convolution(q: SumQuery) -> int:
    """S(x; n) by the convolution route: :func:`convolution_sums` at the one checkpoint x."""
    return convolution_sums([q.x], q.order, q.coprime_to)[0][1]


# ---------------------------------------------------------------------------
# The shared Moebius table.


def _mu_sieve(top: int) -> np.ndarray:
    """mu(0..top) as a new int8 array (mu[0] = 0), for top <= 2^26.

    Besides the values it keeps one byte a cell: the sum of round(8 log2 p)
    over the primes p <= sqrt(t) dividing r, t = max(top, 16).  A squarefree
    r below 2^27 has at most 8 prime factors (2 * 3 * ... * 23 > 2^27), so
    for r in [2^j, 2^(j+1)) with none above sqrt(t) that sum is at least
    8j - 4, and with one, q > sqrt(t) >= 4, it is below 8j - 4.5; those r
    take one more sign flip.  The sum is at most 8 * 26 + 4 = 212, so it
    fits a uint8.
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
    return values[: top + 1]


# mu(0..top): the table that mu_range slices.
_MU_TABLE = GrownTable(_mu_sieve, np.zeros(1, dtype=np.int8))


def mu_range(x: int) -> np.ndarray:
    """Classical Moebius values mu(0..x) as int8 (mu[0] = 0).

    The result is a read-only view of one table shared by the whole
    process; copy it before writing.  The table is a
    :class:`~moebius_km.primes.GrownTable`, like the prime table, whose cap
    it shares: a request past its top sieves it again to
    min(max(x, 2 * top), 2^26), and it stays resident, at most 2^26 + 1
    bytes.
    """
    x = positive_int(x, "x")
    if x > _PRIME_TABLE_CAP:
        raise ValueError(f"x = {x} exceeds the Moebius table cap {_PRIME_TABLE_CAP}")
    return _MU_TABLE.grown_to(x)[1][: x + 1]
