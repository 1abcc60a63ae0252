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
* products: alpha_{k,m} and A_k share one tail routine.  At prime_limit
  >= 1000 the cached log of the product over p <= P is corrected by the
  leading terms of sum_{p>P} log(factor_p), expanded exactly into prime
  power sums sum_{p>P} p^-s (A_k first adds its log(1 - p^-k) series).
  Each is prime_zeta(s), from one table for s = 2..55 built once from its
  Moebius-weighted log-zeta series, minus the partial sum over p <= P,
  from one pass over the primes cached per prime limit.  The bound
  collects the series truncations, the second-order remainder
  (<= 0.6 * sum_{p>P} p^-2m) and the float slacks, then is floored at
  _TAIL_FLOOR so it never understates accumulated rounding; the floor and
  each slack are named once below.
* products at prime_limit < 1000 stay plain truncated products with the
  loose elementary bound 2 * sum_{n>P} n^-m per factor (factor-sum form),
  so tiny prime limits return the literal few-factor product.
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
_TAIL_FLOOR = 1e-10  # floor of every corrected product's bound
_LOG_SUM_SLACK = 1e-12  # float slack of the log-sum over p <= P
_PRIME_ZETA_SLACK = 1e-12  # float slack of one prime zeta value
_POWER_SUM_SLACK = 2e-13  # float slack of one partial sum over p <= P
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
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tol must be positive, got {tol}")
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


_cache: dict[tuple, object] = {}  # prime-zeta table, power sums, log-products
_cache_lock = threading.Lock()


def _cached(key: tuple, build, *args):
    """_cache[key], built once by build(*args): threads racing on it share one object."""
    value = _cache.get(key)
    if value is None:
        with _cache_lock:
            value = _cache.get(key)
            if value is None:
                value = _cache[key] = build(*args)
    return value


def _prime_zeta_table() -> tuple[tuple[float, float], ...]:
    """table[s] = (value, error bound) for sum_p p**-s, s = 2.._SMAX+1.

    Each value is the series sum_j mu(j)/j * log zeta(js) over js <= 60.
    """
    log_zeta = [math.nan] * 2 + [math.log(zeta(t, _MIN_TOL).value) for t in range(2, 61)]
    table = [(math.nan, math.nan)] * 2
    for s in range(2, _SMAX + 2):
        j_max = 60 // s
        total = 0.0
        for j in range(1, j_max + 1):
            mj = _MU_SERIES[j]
            if mj:
                total += mj / j * log_zeta[j * s]
        table.append((total, 2.0 ** (-(j_max + 1) * s + 2) + _PRIME_ZETA_SLACK))
    return tuple(table)


def _prime_power_sums(prime_limit: int) -> np.ndarray:
    """sums[s] = sum_{p <= prime_limit} p**-s for s = 2.._SMAX+1, in one pass.

    p**-s is 1/p times itself s - 1 times: at most 2s - 1 roundings, so
    about 55 ulp of relative error at s = 55, and pairwise summation adds a
    few more.  The sums are below 0.46, so the absolute error stays under
    1e-14, which _POWER_SUM_SLACK dwarfs.  A prime leaves the pass once its
    power falls below _NEGLIGIBLE; the dropped terms add less than
    pi(P) * 1e-30 < 1e-23 up to the prime table cap.  Only these sums are
    cached, never an array over the primes.
    """
    inv = 1.0 / primes_up_to(prime_limit)
    sums = np.full(_SMAX + 2, np.nan)
    power = inv * inv
    for s in range(2, _SMAX + 2):
        power = power[: np.count_nonzero(power >= _NEGLIGIBLE)]
        sums[s] = power.sum()
        power *= inv[: len(power)]
    sums.flags.writeable = False
    return sums


def _power_tail(s: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for sum_{p > prime_limit} p**-s."""
    pz, pz_err = _cached(("prime_zeta",), _prime_zeta_table)[s]
    partial = _cached(("power_sums", prime_limit), _prime_power_sums, prime_limit)[s]
    return pz - float(partial), pz_err + _POWER_SUM_SLACK


def _log_product(key: tuple, prime_limit: int, log_factors) -> float:
    """sum_{p <= prime_limit} log(factor_p), cached per (key, prime limit).

    ``log_factors`` maps the primes as float64 to their log factors; the
    key names the product and its order, so only one float per pair is kept.
    """

    def build() -> float:
        pf = primes_up_to(prime_limit).astype(np.float64)
        with np.errstate(over="ignore"):  # p**e = inf only where the factor is 1.0
            return float(log_factors(pf).sum())

    return _cached((*key, prime_limit), build)


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


def _product_estimate(
    base: float, prime_limit: int, m: int, k: int, loose: float, head=None
) -> ConstantEstimate:
    """The estimate of prod_p (1 - x_p), x_p = 1/(p^(m-k+1) + ... + p^m).

    ``base`` is the log of the product over p <= prime_limit.  Below
    _CORRECTION_MIN_P its exp is returned with the bound ``loose`` *
    sum_{n>P} n^-m on the log.  Above, each p > P adds log(1 - x_p) =
    -x_p - r_p, with x_p = sum_{i>=0} [p^-(m+ik) - p^-(m+1+ik)] exactly and
    r_p = sum_{j>=2} x_p^j / j <= 0.6 x_p^2 <= 0.6 p^-2m.  ``head``, if
    given, returns the (correction, error) of further log factors, which
    are summed first.
    """
    if prime_limit < _CORRECTION_MIN_P:
        log_err = loose * _nsum_tail(m, prime_limit)
        value = math.exp(base)
        return ConstantEstimate(value, value * math.expm1(log_err), prime_limit)
    corr, err = head() if head is not None else (0.0, 0.0)
    i = 0
    while m + i * k <= _SMAX:
        t1, e1 = _power_tail(m + i * k, prime_limit)
        t2, e2 = _power_tail(m + 1 + i * k, prime_limit)
        corr -= t1 - t2
        err += e1 + e2
        i += 1
    err += 2.0 * _nsum_tail(m + i * k, prime_limit)  # dropped expansion terms
    if 2 * m <= _SMAX:
        t, e = _power_tail(2 * m, prime_limit)
        err += 0.6 * (abs(t) + e)
    else:
        err += 0.6 * _nsum_tail(2 * m, prime_limit)
    err += _LOG_SUM_SLACK
    value = math.exp(base + corr)
    bound = max(value * math.expm1(err), _TAIL_FLOOR)
    return ConstantEstimate(value, bound, prime_limit)


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
    return _product_estimate(base, prime_limit, m, k, 2.0)


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

    # factor = (1 - u) * (1 - w), u = p^-k, w = (u - u/p)/(1 - u): w is x_p of
    # alpha_{k,k}, and log(1 - u) = -sum_{j>=1} p^-(jk)/j.
    def log_series() -> tuple[float, float]:
        corr = err = 0.0
        j = 1
        while j * k <= _SMAX:
            t, e = _power_tail(j * k, prime_limit)
            corr -= t / j
            err += e / j
            j += 1
        return corr, err + 2.0 * _nsum_tail(j * k, prime_limit)

    return _product_estimate(base, prime_limit, k, k, 4.0, log_series)


def identity_gap(
    alpha_kk: ConstantEstimate, zeta_k: ConstantEstimate, a_k: ConstantEstimate
) -> tuple[float, float]:
    """(|alpha_{k,k} - zeta(k) A_k|, the bound the identity allows it).

    alpha_{k,k} = zeta(k) A_k holds exactly, so the gap of the estimates is
    at most alpha's bound plus the bound on the product of the other two.
    """
    diff = abs(alpha_kk.value - zeta_k.value * a_k.value)
    combined = (
        alpha_kk.tail_bound
        + zeta_k.value * a_k.tail_bound
        + a_k.value * zeta_k.tail_bound
        + zeta_k.tail_bound * a_k.tail_bound
    )
    return diff, combined
