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

from .arith import as_factored, gcd, squarefree_divisors
from .constants import (
    DEFAULT_TOL,
    ConstantEstimate,
    alpha,
    alpha_n,
    default_prime_limit,
    zeta,
)
from .functions import OrderPair, mu, psi_k
from .primes import prime_list_up_to
from .sieve import SieveConfig, stream_sum

_ARRAY_CAP = 1 << 25  # pointwise arrays are a desk-scale tool, not the hot path


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


def qk_count(x: int, n: int, k: int) -> int:
    """Exact count of k-free r <= x with gcd(r, n) = 1.

    Uses Q_k(x, n) = sum_{d <= x^(1/k), gcd(d,n)=1} mu(d) * #{t <= x/d^k :
    gcd(t, n) = 1}; floors are taken in integer arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if x < 1:
        return 0
    divs = squarefree_divisors(n)
    total = 0
    d = 1
    while d**k <= x:
        if gcd(d, n) == 1:
            md = mu(d)
            if md:
                z = x // d**k
                total += md * sum(s * (z // dd) for dd, s in divs)
        d += 1
    return total


def sum_direct(q: SumQuery, config: SieveConfig | None = None) -> int:
    """S(x; n) by one streaming sieve pass."""
    return stream_sum(q.x, q.order, q.coprime_to, [q.x], config)[0][1]


def sum_convolution(q: SumQuery) -> int:
    """S(x; n) by the independent convolution route over k-free counts."""
    o = q.order
    total = 0
    d = 1
    while d**o.m <= q.x:
        if gcd(d, q.coprime_to) == 1:
            md = mu(d)
            if md:
                total += md * qk_count(q.x // d**o.m, d * q.coprime_to, o.k)
        d += 1
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
    divisor_prod = np.ones(x + 1, dtype=np.int64)
    for p in prime_list_up_to(math.isqrt(x)):
        values[p::p] = -values[p::p]
        divisor_prod[p::p] *= p
        p2 = p * p
        values[p2::p2] = 0
    leftover = divisor_prod != np.arange(x + 1, dtype=np.int64)
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


def _coprime_mask(x: int, n: int) -> np.ndarray | None:
    if n == 1:
        return None
    mask = np.ones(x + 1, dtype=bool)
    for p, _ in as_factored(n).factors:
        mask[p::p] = False
    return mask


def _ascending_sum(terms: np.ndarray) -> float:
    # cumsum is a strict left-to-right recurrence: documented ascending order.
    return float(np.cumsum(terms)[-1])


def L_n_sum(x: int, n: int = 1) -> float:
    """Partial sum of mu(r)/r over r <= x with gcd(r, n) = 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    mus = mu_range(x).astype(np.float64)
    mask = _coprime_mask(x, n)
    if mask is not None:
        mus[~mask] = 0.0
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
    mask = _coprime_mask(x, n)
    if mask is not None:
        mus[~mask] = 0.0
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
