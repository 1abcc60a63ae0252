"""Exact summatory functions, counting identities, and main terms.

The headline sum S(x; n) = sum_{r <= x, gcd(r,n)=1} mu_{k,m}(r) is computed
two independent ways: a streaming sieve pass (:func:`sum_direct`) and the
divisor-convolution route (:func:`sum_convolution`) built from k-free
counts.  The two must agree exactly on every input, which is the library's
strongest self-check.

Float-valued partial sums (L_n, the 1/psi_k sums) accumulate in ascending
r via a cumulative sum, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import as_factored, squarefree_divisors
from .constants import (
    DEFAULT_TOL,
    ConstantEstimate,
    alpha,
    alpha_n,
    default_prime_limit,
    zeta,
)
from .functions import OrderPair, mu, psi_k
from .primes import iroot, prime_list_up_to
from .sieve import MAX_RANGE, SieveConfig, stream_sum

_ARRAY_CAP = 1 << 25  # pointwise arrays are a desk-scale tool, not the hot path
_TABLE_TOP = 1 << 13  # sum_convolution looks Q_k(y, n) up for y <= this
_CHUNK = 1 << 12  # (g(d), x // d) pairs converted to NumPy at a time


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

    Its floors are int64, so x <= 2^62, and its one Moebius table covers
    e <= x^(1/k), which :func:`mu_range` caps at ``_ARRAY_CAP``; for k = 2
    that ends x at (2^25 + 1)^2 - 1.
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


class _KFreeCounts:
    """Q_k(y, n) for y <= top from one Moebius table mu(e), e <= top^(1/k).

    Q_k(y, n) = sum_{e^k <= y, gcd(e,n)=1} mu(e) * #{t <= y/e^k : gcd(t,n)=1},
    the inner count by inclusion-exclusion over the squarefree divisors of n.
    """

    def __init__(self, top: int, n: int, k: int) -> None:
        self._divs = squarefree_divisors(n)
        mus = mu_range(iroot(top, k))
        _zero_non_coprime(mus, n)
        e = np.flatnonzero(mus)
        self._ek = e**k  # exact: e^k <= top <= 2^62
        self._negative = mus[e] < 0

    def count(self, y: int) -> int:
        cut = int(np.searchsorted(self._ek, y, side="right"))
        z = y // self._ek[:cut]
        if len(self._divs) > 1:
            w, part = z.copy(), np.empty_like(z)
            for d, s in self._divs[1:]:
                np.floor_divide(z, d, out=part)
                (np.add if s > 0 else np.subtract)(w, part, out=w)
            z = w
        np.negative(z, out=z, where=self._negative[:cut])
        return int(z.sum())


def _small_table(top: int, n: int, k: int) -> np.ndarray:
    """Q_k(y, n) for y = 0..top as int32: mu(e) added on the multiples of e^k.

    An e sharing a prime with n only reaches r that the coprime mask zeroes.
    """
    values = np.zeros(top + 1, dtype=np.int32)
    for e in range(1, iroot(top, k) + 1):
        s = mu(e)
        if s:
            q = e**k
            values[q::q] += s
    _zero_non_coprime(values, n)
    return values.cumsum(dtype=np.int32)


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


def sum_direct(q: SumQuery, config: SieveConfig | None = None) -> int:
    """S(x; n) by one streaming sieve pass."""
    return stream_sum(q.x, q.order, q.coprime_to, [q.x], config)[0][1]


def _g_chunks(x: int, k: int, m: int, primes: list[int]):
    """(g(d), x // d) over the m-full 1 < d <= x built from ``primes``, in chunks.

    g(p^a) is -1 for a = m + jk, +1 for a = m + 1 + jk (j >= 0) and 0 for
    every other a >= 1.  A depth-first walk visits each d with g(d) != 0
    once; a node is (x // d, g(d), index of the next prime it may use), as
    floor(floor(x/d) / p^a) = floor(x / (d p^a)).
    """
    pms = [p**m for p in primes]
    pms.append(x + 1)  # no prime after the last one
    signs, ys = [], []
    stack = [(x, 1, 0)]
    while stack:
        rest, g, i = stack.pop()
        for j in range(i, len(primes)):
            pa = pms[j]
            if pa > rest:
                break
            p = primes[j]
            steps = (p, p ** (k - 1))
            nxt = pms[j + 1]
            sign, t = -g, 0
            while pa <= rest:
                y = rest // pa
                signs.append(sign)
                ys.append(y)
                if y >= nxt:
                    stack.append((y, sign, j + 1))
                pa *= steps[t]
                t ^= 1
                sign = -sign
            if len(ys) >= _CHUNK:
                yield signs, ys
                signs, ys = [], []
    yield signs, ys


def sum_convolution(q: SumQuery) -> int:
    """S(x; n) by the independent convolution route over k-free counts.

    mu_{k,m} = q_k * g with g as in :func:`_g_chunks`, and all three are 1
    at primes dividing n, so S(x; n) = sum over m-full d <= x coprime to n
    of g(d) * Q_k(x // d, n).  The d = 1 term is :func:`qk_count`.  For
    d > 1, x // d is at most x / p^m with p the least prime not dividing n;
    Q_k(y, n) is a table lookup for y <= ``_TABLE_TOP`` and a signed sum
    over a Moebius table for that smaller top above it.
    Cost: about x^(1/k) NumPy work plus about x^(1/m) Python walk nodes.
    """
    o = q.order
    x, n = q.x, q.coprime_to
    total = qk_count(x, n, o.k)
    primes = [p for p in prime_list_up_to(iroot(x, o.m)) if n % p]
    if not primes:
        return total
    rest = x // primes[0] ** o.m
    counts = _KFreeCounts(rest, n, o.k)
    top = min(rest, _TABLE_TOP)
    table = _small_table(top, n, o.k)
    for signs, ys in _g_chunks(x, o.k, o.m, primes):
        g = np.array(signs, dtype=np.int64)
        y = np.array(ys, dtype=np.int64)
        small = y <= top
        total += int(np.dot(g[small], table[y[small]]))
        for s, v in zip(g[~small].tolist(), y[~small].tolist()):
            total += s * counts.count(v)
    return total


def _main_value(
    x: int, n: int, alpha_v: float, zeta_v: float, psi_f: float, alpha_n_f: float
) -> float:
    return x * n * n * alpha_v / (zeta_v * psi_f * alpha_n_f)


def main_term(
    q: SumQuery, prime_limit: int | None = None, tol: float = DEFAULT_TOL
) -> MainTermParts:
    """Asymptotic main term x n^2 alpha_{k,m} / (zeta(k) psi_k(n) alpha_{k,m}(n)).

    m == k is accepted; in that regime the expression is the conjectured
    density rather than a proven one, which callers flag downstream.
    """
    limit = default_prime_limit() if prime_limit is None else prime_limit
    o = q.order
    fn = as_factored(q.coprime_to)
    a = alpha(o, limit)
    z = zeta(o.k, tol)
    psi = psi_k(fn, o.k)
    an = alpha_n(o, fn)
    main = _main_value(q.x, fn.value, a.value, z.value, float(psi), float(an))
    return MainTermParts(main, a, z, psi, an)


# ---------------------------------------------------------------------------
# Pointwise arrays for the float-valued partial sums.


def mu_range(x: int) -> np.ndarray:
    """Classical Moebius values mu(0..x) as int8 (mu[0] = 0)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > _ARRAY_CAP:
        raise ValueError(f"x = {x} exceeds array cap {_ARRAY_CAP}")
    values = np.ones(x + 1, dtype=np.int8)
    values[0] = 0
    # The product of the primes <= sqrt(x) dividing r is at most r <= 2^25.
    divisor_prod = np.ones(x + 1, dtype=np.int32)
    for p in prime_list_up_to(math.isqrt(x)):
        values[p::p] = -values[p::p]
        divisor_prod[p::p] *= p
        p2 = p * p
        values[p2::p2] = 0
    leftover = divisor_prod != np.arange(x + 1, dtype=np.int32)
    leftover[0] = False
    values[leftover] = -values[leftover]
    return values


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
