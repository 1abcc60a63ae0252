"""Numerical constants with rigorous truncation bounds.

Three families are produced: the zeta values zeta(k), the order-k density
constant A_k = prod_p (1 - 2/p^k + 1/p^(k+1)), and the family density
alpha_{k,m} = prod_p (1 - 1/(p^(m-k+1) + ... + p^m)) together with its
finite companion alpha_{k,m}(n).  Every float estimate carries a tail_bound
that provably dominates |true - value|, float rounding included: zeta's
bound counts its one rounding explicitly, and the products' bounds dwarf
their rounding by construction.

Tail handling, documented here because the bound choice is load-bearing:

* zeta(k): Euler-Maclaurin at the fixed cutoff N = 10: the terms n < N, the
  integral tail N**(1-k)/(k-1), N**-k/2 and seven Bernoulli corrections
  B_2j/(2j)! * k(k+1)...(k+2j-2) * N**(1-k-2j), all summed exactly in
  fixed point (units of 2**-128) and rounded once to float.  Every even
  derivative of t**-k is positive, so the remainder lies between 0 and the
  first omitted (eighth) correction.  The bound is that correction plus the
  fixed-point floors plus half an ulp of the returned float: about 2e-16
  for every k, so every tol down to 1e-13 costs the same few microseconds.
* products at prime_limit >= 1000: the truncated log-product is corrected by
  the leading terms of sum_{p>P} log(factor_p), expanded exactly into prime
  power sums sum_{p>P} p^-s.  Those are evaluated as prime_zeta(s) minus
  the partial sum over p <= P, with prime_zeta from its Moebius-weighted
  log-zeta series.  The partial sums for every s = 2..55 come from one
  pass over the primes, cached per prime limit and shared by every call.
  The bound collects the series truncations, the second-order remainder
  (<= 0.6 * sum_{p>P} p^-2s), and float slack, then is floored at 1e-10
  so it never understates accumulated rounding.
* products at prime_limit < 1000 stay plain truncated products with the
  loose elementary bound 2 * sum_{n>P} n^-m (factor-sum form), so tiny
  prime limits return the literal few-factor product.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import FactoredInteger, as_factored
from .functions import OrderPair, as_order
from .primes import primes_up_to

DEFAULT_PRIME_LIMIT = 1_000_000
DEFAULT_TOL = 1e-12

_MIN_TOL = 1e-13
_SMAX = 54  # power sums with exponent above this fall below 2**-54 termwise
_CORRECTION_MIN_P = 1000
_TAIL_FLOOR = 1e-10
_NEGLIGIBLE = 1e-30  # p**-s below this leaves the power-sum pass

_ZETA_CUTOFF = 10  # Euler-Maclaurin cutoff N: the terms n < N are summed one by one
_FIXED_BITS = 128  # zeta is summed exactly in units of 2**-128
# B_2, B_4, ..., B_16: seven corrections, and the eighth bounds the remainder.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, 1))
# mu(j) for j = 0..30, the weights of the prime-zeta series: it needs j <= 60 // s.
_MU_SERIES = (
    0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1,
    0, -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1,
)


class PrecisionError(ArithmeticError):
    """Requested tolerance cannot be certified by this implementation."""


@dataclass(frozen=True)
class ConstantEstimate:
    """Float approximation of an infinite series/product plus a proven bound.

    ``prime_limit`` records the truncation cutoff: for zeta the
    Euler-Maclaurin cutoff N (the terms n < N are summed one by one, the
    rest is the integral tail and its corrections), for the products the
    limit P of the primes p <= P multiplied out.
    """

    value: float
    tail_bound: float
    prime_limit: int


def default_prime_limit() -> int:
    raw = os.environ.get("MOEBIUS_PRIME_LIMIT")
    if raw is None:
        return DEFAULT_PRIME_LIMIT
    limit = int(raw)
    if limit < 2:
        raise ValueError("MOEBIUS_PRIME_LIMIT must be >= 2")
    return limit


def zeta(k: int, tol: float) -> ConstantEstimate:
    """zeta(k) for integer k >= 2 with certified error at most tol.

    Euler-Maclaurin at N = 10 (see the module docstring); the bound, about
    2e-16, meets every tol the float result can certify.
    """
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < _MIN_TOL:
        raise PrecisionError(f"tolerance {tol} below float-certifiable floor {_MIN_TOL}")
    n = _ZETA_CUTOFF
    one = 1 << _FIXED_BITS
    # Every floor division below is low by less than one unit of 2**-128:
    # n - 1 terms, the two tail terms and len(_EM_COEFFS) - 1 corrections.
    acc = sum(one // j**k for j in range(1, n))
    power = n ** (k - 1)
    acc += one // ((k - 1) * power) + one // (2 * power * n)
    power *= n * n  # N**(k + 2j - 1) at correction j
    rising = k  # k (k+1) ... (k + 2j - 2)
    for j, c in enumerate(_EM_COEFFS[:-1], 1):
        acc += c.numerator * rising * one // (c.denominator * power)
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        power *= n * n
    last = _EM_COEFFS[-1]
    omitted = -(-abs(last.numerator) * rising * one // (last.denominator * power))
    value = acc / one  # correctly rounded: off by at most half an ulp
    floors = n + len(_EM_COEFFS)
    half_ulp = int(math.ulp(value) * one) // 2  # whole units, as value >= 1
    bound = (omitted + floors + half_ulp) / one  # rounded, hence the nextafter
    return ConstantEstimate(value, math.nextafter(bound, math.inf), n)


_zeta_cache: dict[int, float] = {}
_prime_zeta_cache: dict[int, tuple[float, float]] = {}
_power_sum_cache: dict[int, np.ndarray] = {}
_log_product_cache: dict[tuple, float] = {}
_cache_lock = threading.Lock()


def _zeta_value(s: int) -> float:
    v = _zeta_cache.get(s)
    if v is None:
        v = zeta(s, _MIN_TOL).value
        with _cache_lock:
            _zeta_cache[s] = v
    return v


def _prime_zeta(s: int) -> tuple[float, float]:
    """(value, error bound) for sum_p p**-s, via sum_j mu(j)/j * log zeta(js)."""
    cached = _prime_zeta_cache.get(s)
    if cached is not None:
        return cached
    j_max = max(1, 60 // s)
    total = 0.0
    for j in range(1, j_max + 1):
        mj = _MU_SERIES[j]
        if mj:
            total += mj / j * math.log(_zeta_value(j * s))
    trunc = 2.0 ** (-(j_max + 1) * s + 2)
    result = (total, trunc + 1e-12)
    with _cache_lock:
        _prime_zeta_cache[s] = result
    return result


def _prime_power_sums(prime_limit: int) -> np.ndarray:
    """sums[s] = sum_{p <= prime_limit} p**-s for s = 2.._SMAX+1, in one pass.

    p**-s is 1/p times itself s - 1 times: at most 2s - 1 roundings, so
    about 55 ulp of relative error at s = 55, and pairwise summation adds a
    few more.  The sums are below 0.46, so the absolute error stays under
    1e-14, which the 2e-13 slack of :func:`_power_tail` dwarfs.  A prime
    leaves the pass once its power falls below _NEGLIGIBLE; the dropped
    terms add less than pi(P) * 1e-30 < 1e-23 up to the prime table cap.
    Only these sums are cached, never an array over the primes.
    """
    sums = _power_sum_cache.get(prime_limit)
    if sums is not None:
        return sums
    with _cache_lock:
        sums = _power_sum_cache.get(prime_limit)
        if sums is None:
            inv = 1.0 / primes_up_to(prime_limit)
            sums = np.full(_SMAX + 2, np.nan)
            power = inv * inv
            for s in range(2, _SMAX + 2):
                power = power[: np.count_nonzero(power >= _NEGLIGIBLE)]
                sums[s] = power.sum()
                power *= inv[: len(power)]
            sums.flags.writeable = False
            _power_sum_cache[prime_limit] = sums
    return sums


def _power_tail(s: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for sum_{p > prime_limit} p**-s."""
    pz, pz_err = _prime_zeta(s)
    return pz - float(_prime_power_sums(prime_limit)[s]), pz_err + 2e-13


def _log_product(key: tuple, prime_limit: int, log_factors) -> float:
    """sum_{p <= prime_limit} log(factor_p), cached per (key, prime limit).

    ``log_factors`` maps the primes as float64 to their log factors; the
    key names the product and its order, so only one float per pair is kept.
    """
    cache_key = (*key, prime_limit)
    base = _log_product_cache.get(cache_key)
    if base is not None:
        return base
    with _cache_lock:
        base = _log_product_cache.get(cache_key)
        if base is None:
            pf = primes_up_to(prime_limit).astype(np.float64)
            base = float(log_factors(pf).sum())
            _log_product_cache[cache_key] = base
    return base


def _nsum_tail(s: int, prime_limit: int) -> float:
    # Elementary bound sum_{n > P} n**-s <= P**(1-s)/(s-1); underflows to 0.0
    # harmlessly for large s.
    return float(prime_limit) ** (1 - s) / (s - 1)


def euler_factor(p: int, order: OrderPair | tuple[int, int]) -> Fraction:
    """Exact local factor 1 - 1/(p^(m-k+1) + ... + p^m) of alpha_{k,m}."""
    o = as_order(order)
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    d = sum(p**e for e in range(o.m - o.k + 1, o.m + 1))
    return 1 - Fraction(1, d)


def alpha_n(order: OrderPair | tuple[int, int], n: int | FactoredInteger) -> Fraction:
    """Exact alpha_{k,m}(n) = n * prod_{p | n} (local factor)."""
    o = as_order(order)
    fn = as_factored(n)
    result = Fraction(fn.value)
    for p, _ in fn.factors:
        result *= euler_factor(p, o)
    return result


def alpha(order: OrderPair | tuple[int, int], prime_limit: int) -> ConstantEstimate:
    """Density constant alpha_{k,m} with a certified truncation bound."""
    o = as_order(order)
    k, m = o.k, o.m
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")

    def log_factors(pf: np.ndarray) -> np.ndarray:
        denom = np.zeros_like(pf)
        for e in range(m - k + 1, m + 1):
            denom += pf ** float(e)
        return np.log1p(-1.0 / denom)

    base = _log_product(("alpha", k, m), prime_limit, log_factors)

    if prime_limit < _CORRECTION_MIN_P:
        log_err = 2.0 * _nsum_tail(m, prime_limit)
        value = math.exp(base)
        return ConstantEstimate(value, value * math.expm1(log_err), prime_limit)

    # 1/D_p = sum_{i>=0} [p^-(m+ik) - p^-(m+1+ik)]  (exact geometric expansion)
    corr = 0.0
    err = 0.0
    i = 0
    while m + i * k <= _SMAX:
        t1, e1 = _power_tail(m + i * k, prime_limit)
        t2, e2 = _power_tail(m + 1 + i * k, prime_limit)
        corr -= t1 - t2
        err += e1 + e2
        i += 1
    err += 2.0 * _nsum_tail(m + i * k, prime_limit)  # dropped expansion terms
    # second-order log remainder: sum x^2/(2(1-x)) with x = 1/D_p <= p^-m
    if 2 * m <= _SMAX:
        t, e = _power_tail(2 * m, prime_limit)
        err += 0.6 * (abs(t) + e)
    else:
        err += 0.6 * _nsum_tail(2 * m, prime_limit)
    err += 1e-12  # float slack for the 78k-term log sum
    value = math.exp(base + corr)
    bound = max(value * math.expm1(err), _TAIL_FLOOR)
    return ConstantEstimate(value, bound, prime_limit)


def apostol_A(k: int, prime_limit: int) -> ConstantEstimate:
    """Order-k density constant A_k = prod_p (1 - 2/p^k + 1/p^(k+1))."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    base = _log_product(
        ("apostol_A", k),
        prime_limit,
        lambda pf: np.log1p(-(2.0 * pf - 1.0) / pf ** float(k + 1)),
    )

    if prime_limit < _CORRECTION_MIN_P:
        log_err = 4.0 * _nsum_tail(k, prime_limit)
        value = math.exp(base)
        return ConstantEstimate(value, value * math.expm1(log_err), prime_limit)

    # factor = (1 - u) * (1 - w), u = p^-k, w = (u - u/p)/(1 - u):
    # log(1-u) expands over p^-(jk); w expands over p^-(k+ik) - p^-(k+1+ik).
    corr = 0.0
    err = 0.0
    j = 1
    while j * k <= _SMAX:
        t, e = _power_tail(j * k, prime_limit)
        corr -= t / j
        err += e / j
        j += 1
    err += 2.0 * _nsum_tail(j * k, prime_limit)
    i = 0
    while k + i * k <= _SMAX:
        t1, e1 = _power_tail(k + i * k, prime_limit)
        t2, e2 = _power_tail(k + 1 + i * k, prime_limit)
        corr -= t1 - t2
        err += e1 + e2
        i += 1
    err += 2.0 * _nsum_tail(k + i * k, prime_limit)
    if 2 * k <= _SMAX:
        t, e = _power_tail(2 * k, prime_limit)
        err += 0.6 * (abs(t) + e)
    else:
        err += 0.6 * _nsum_tail(2 * k, prime_limit)
    err += 1e-12
    value = math.exp(base + corr)
    bound = max(value * math.expm1(err), _TAIL_FLOOR)
    return ConstantEstimate(value, bound, prime_limit)
