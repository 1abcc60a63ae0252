"""Numerical constants with rigorous truncation bounds.

Three families are produced: the zeta values zeta(k), the order-k density
constant A_k = prod_p (1 - 2/p^k + 1/p^(k+1)), and the family density
alpha_{k,m} = prod_p (1 - 1/(p^(m-k+1) + ... + p^m)) together with its
finite companion alpha_{k,m}(n).  Every float estimate carries a tail_bound
that provably dominates |true - value|, float rounding included: zeta's
bound counts its one rounding explicitly, and every product's bound is
floored at 1e-10, far above its accumulated rounding.

Tail handling, documented here because the bound choice is load-bearing:

* zeta(k): Euler-Maclaurin at the fixed cutoff N = 10: the terms n < N, the
  integral tail N**(1-k)/(k-1), N**-k/2 and seven Bernoulli corrections
  B_2j/(2j)! * k(k+1)...(k+2j-2) * N**(1-k-2j), all summed exactly in
  fixed point (units of 2**-128) and rounded once to float.  Every even
  derivative of t**-k is positive, so the remainder lies between 0 and the
  first omitted (eighth) correction.  The bound is that correction plus the
  fixed-point floors plus half an ulp of the returned float: 1.1e-16 to
  1.8e-16 for every k, so every tol it meets costs the same few
  microseconds, and a smaller tol raises PrecisionError.
* products: alpha_{k,m} and A_k multiply out the primes p <= P =
  min(prime_limit, PRODUCT_PRIME_CAP = 2**9), so they never grow the
  prime table past 2**9, and share one tail routine that covers every
  prime above P, for every P >= 2: the prime-zeta method of H. Cohen
  ("High precision computation of Hardy-Littlewood constants", 1991).
  As a function of u = 1/p the local factor F(u) is 1 - 2u^k + u^(k+1)
  for A_k and (1 - u^k - u^m + u^(m+1)) / (1 - u^k) for alpha_{k,m}.  Its
  log is sum_s c_s u^s, the integers s c_s coming from F'/F by long
  division, so log prod_{p>P} F(1/p) = sum_{s>=2} c_s P_P(s) with the
  prime-power tails P_P(s) = sum_{p>P} p^-s.  The log of the
  product over p <= P is corrected by the terms s = 2..T of this series.
  The tails P_P(s) are the Moebius inversion sum_j mu(j)/j L(js) of the
  log tails L(t) = sum_{p>P} -log(1 - p^-t), computed once per P for
  t = 2..T only: T is the last t whose elementary bound 2 P^(1-t)/(t-1)
  exceeds 1e-22: 8 at P = 2**9 and at P = 1000, 68 at P = 2.  Each is
  log zeta(t) + sum_{p<=P} log1p(-p^-t) in one fsum.  Every log tail past
  T enters the bound as its elementary bound instead.
  The bound has two parts.  The series truncation past T is bounded
  through |c_s| <= 2^s + 1, a nonnegative majorant of the coefficients.
  Each log tail carries a float slack that scales with it: a fixed share
  of log zeta(t), the size of its largest term, plus the fixed-point
  error of zeta(t); the term s weights the slacks of P_P(s) by |c_s|.
  With the float slack of the log sum over p <= P, the bound is floored
  at _TAIL_FLOOR so it never understates accumulated rounding; the floor
  and each slack are named once below.  More primes buy no accuracy:
  from P = 2 up, each of the 20 values tested lies within 1 ulp of its
  50-digit reference, and from P = 2**9 up each is the float nearest it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import FactoredInteger, as_factored, is_prime
from .functions import OrderPair, as_order
from .primes import KeyedStore, checked_int, primes_up_to

DEFAULT_TOL = 1e-12
PRODUCT_PRIME_CAP = 1 << 9  # the products multiply out the primes up to this

_TAIL_FLOOR = 1e-10  # floor of every product's bound
_LOG_SUM_SLACK = 1e-12  # float slack of the log-sum over p <= P
_LOG_TAIL_REL = 1e-14  # float slack of a log tail L(t), as a share of log zeta(t)
_NEGLIGIBLE_TAIL = 1e-22  # a log tail bounded below this is left to its bound

_ZETA_CUTOFF = 10  # Euler-Maclaurin cutoff N: the terms n < N are summed one by one
_FIXED_BITS = 128  # zeta is summed exactly in units of 2**-128
# B_2, B_4, ..., B_16: seven corrections, and the eighth bounds the remainder.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, 1))
# mu(j) for j = 0..34, the weights of the power-tail series: j * s <= 68 = the
# top of the longest log-tail table (P = 2), and s >= 2.  A literal, so that
# importing this module sieves nothing.
_MU_WEIGHTS = (
    0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1,
    0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1, -1, 0, 1, 1,
)


class PrecisionError(ArithmeticError):
    """Requested tolerance cannot be certified by this implementation."""


@dataclass(frozen=True)
class ConstantEstimate:
    """Float approximation of an infinite series/product plus a proven bound.

    ``prime_limit`` records the truncation cutoff: for zeta the
    Euler-Maclaurin cutoff N (the terms n < N are summed one by one, the
    rest is the integral tail and its corrections), for the products the
    limit P of the primes p <= P actually multiplied out, min(requested
    limit, 2**9); the tail series covers the primes above it.
    """

    value: float
    tail_bound: float
    prime_limit: int


def _zeta_fixed(k: int) -> tuple[int, int]:
    """(zeta(k), error bound) in units of 2**-128, for k >= 2, before rounding."""
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
    return acc, omitted + n + len(_EM_COEFFS)


def zeta(k: int, tol: float) -> ConstantEstimate:
    """zeta(k) for integer k >= 2 with certified error at most tol.

    Euler-Maclaurin at N = 10 (see the module docstring).  The bound, 1.1e-16
    to 1.8e-16, is certified for every k; a tol below it raises PrecisionError.
    """
    if checked_int(k, "k") < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tol must be positive, got {tol}")
    acc, err = _zeta_fixed(k)
    one = 1 << _FIXED_BITS
    value = acc / one  # correctly rounded: off by at most half an ulp
    half_ulp = int(math.ulp(value) * one) // 2  # whole units, as value >= 1
    bound = math.nextafter((err + half_ulp) / one, math.inf)  # rounded, hence the nextafter
    if tol < bound:
        raise PrecisionError(f"tolerance {tol} below the certified bound {bound} of zeta({k})")
    return ConstantEstimate(value, bound, _ZETA_CUTOFF)


# The log tails per prime limit, and each product's estimate per (name,
# order, prime limit).  A build may fetch another entry: the store's lock is
# reentrant.
_STORE = KeyedStore()


def _log_tail_table(prime_limit: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(values, slacks): L(t) = sum_{p > prime_limit} -log(1 - p**-t), t = 2..T.

    T is the last t whose elementary bound 2 * P**(1-t)/(t-1) exceeds
    _NEGLIGIBLE_TAIL: 8 at P = 2**9 and at P = 1000, 68 at P = 2.  L(t) is
    log zeta(t) + sum_{p <= P} log1p(-p**-t) in one fsum, with log zeta(t)
    the log of the nearest float plus the remainder of the fixed-point sum
    over it.  Every term is at most log zeta(t) in size and off by a few
    ulps, so the slack is _LOG_TAIL_REL * log zeta(t) plus the fixed-point
    sum's own error bound.
    """
    top = 2
    while 2.0 * _nsum_tail(top + 1, prime_limit) > _NEGLIGIBLE_TAIL:
        top += 1
    pf = primes_up_to(prime_limit).astype(np.float64)
    rows = np.log1p(-(pf ** -np.arange(2.0, top + 1)[:, None])).tolist()
    one = 1 << _FIXED_BITS
    values, slacks = [math.nan] * 2, [math.nan] * 2
    for t, row in enumerate(rows, 2):
        acc, err = _zeta_fixed(t)
        value = acc / one
        rest = (acc - int(math.ldexp(value, _FIXED_BITS))) / one
        log_zeta = [math.log(value), rest / value]
        values.append(math.fsum(log_zeta + row))
        slacks.append(_LOG_TAIL_REL * sum(log_zeta) + err / one)
    return tuple(values), tuple(slacks)


def _log_tails(prime_limit: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The log-tail table of prime_limit, built once per limit."""
    return _STORE.get(("log_tails", prime_limit), _log_tail_table, prime_limit)


def _log_tail(t: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for L(t) = sum_{p > prime_limit} -log(1 - p**-t).

    Past the table, L(t) lies in [0, 2 * sum_{n>P} n**-t].
    """
    values, slacks = _log_tails(prime_limit)
    if t < len(values):
        return values[t], slacks[t]
    return 0.0, 2.0 * _nsum_tail(t, prime_limit)


def _power_tail(s: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for P_P(s) = sum_{p > prime_limit} p**-s.

    The Moebius inversion sum_{j>=1} mu(j)/j * L(js) over the js in the
    log-tail table, in one fsum; the slacks of L(js) / j cover its
    roundings too.  The terms from the first js past the table on (all of
    them if s is past it) add up to at most 2 * sum_{n>P} n**-js.
    """
    last = (len(_log_tails(prime_limit)[0]) - 1) // s
    terms, err = [], 0.0
    for j in range(1, last + 1):
        value, slack = _log_tail(j * s, prime_limit)
        terms.append(_MU_WEIGHTS[j] / j * value)
        err += slack / j
    return math.fsum(terms), err + 2.0 * _nsum_tail((last + 1) * s, prime_limit)


def _nsum_tail(s: int, prime_limit: int) -> float:
    # Elementary bound sum_{n > P} n**-s <= P**(1-s)/(s-1); underflows to 0.0
    # harmlessly for large s.
    return float(prime_limit) ** (1 - s) / (s - 1)


def _log_series(numer: dict[int, int], denom: dict[int, int], top: int) -> list[float]:
    """c_s for s = 0..top, where log(numer(u) / denom(u)) = sum_s c_s u**s.

    Each polynomial maps exponents to integer coefficients and has constant
    term 1, left implicit.  For such a Q, u Q'/Q = sum_s r_s u**s with the
    integers r_s = s Q_s - sum_{0<e<s} Q_e r_(s-e), the long division of
    u Q' by Q; then s c_s is r_s of numer minus r_s of denom.
    """

    def log_derivative(poly: dict[int, int]) -> list[int]:
        terms = [(e, c) for e, c in poly.items() if e <= top]
        r = [0] * (top + 1)
        for s in range(1, top + 1):
            r[s] = s * poly.get(s, 0) - sum(c * r[s - e] for e, c in terms if e < s)
        return r

    rn, rd = log_derivative(numer), log_derivative(denom)
    return [0.0] + [(rn[s] - rd[s]) / s for s in range(1, top + 1)]


def euler_factor(p: int, order: OrderPair | tuple[int, int]) -> Fraction:
    """Exact local factor 1 - 1/(p^(m-k+1) + ... + p^m) of alpha_{k,m}."""
    o = as_order(order)
    if not is_prime(p):
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
    prime_limit: int, log_factors, numer: dict[int, int], denom: dict[int, int]
) -> ConstantEstimate:
    """The estimate of prod_p F(1/p), F(u) = numer(u) / denom(u).

    ``log_factors`` maps the primes p <= P = prime_limit as float64 to their
    log factors.  The primes p > P add sum_{s>=2} c_s P_P(s) (Cohen's series,
    see the module docstring), taken for s = 2..T, T the top of the log-tail
    table.  Every |c_s| is at most 2**s + 1: numer = 1 - g with g's absolute
    coefficients G(u) summing to at most 5/8 at u = 1/2, so -log(1 - G)
    majorises log(numer) and has coefficients at most 2**s, and -log(denom) =
    -log(1 - u**k) has coefficients 1/j.  As every p > P is at least P + 1
    >= 3, the terms past T add at most sum_{n>P} 2 (2/n)**(T+1) / (1 - 2/n)
    <= 4 (2/(P+1))**T (1 + (P+1)/T) / (P-1).
    """
    pf = primes_up_to(prime_limit).astype(np.float64)
    with np.errstate(over="ignore"):  # p**e = inf only where the factor is 1.0
        base = float(log_factors(pf).sum())
    top = len(_log_tails(prime_limit)[0]) - 1
    terms, err = [base], _LOG_SUM_SLACK
    for s, c in enumerate(_log_series(numer, denom, top)):
        if c:
            tail, e = _power_tail(s, prime_limit)
            terms.append(c * tail)
            err += abs(c) * e
    p1 = prime_limit + 1.0
    err += 4.0 * (2.0 / p1) ** top * (1.0 + p1 / top) / (prime_limit - 1.0)
    value = math.exp(math.fsum(terms))
    bound = max(value * math.expm1(err), _TAIL_FLOOR)
    return ConstantEstimate(value, bound, prime_limit)


def _multiplied_out(prime_limit: int) -> int:
    """The limit of the primes a product multiplies out: at most 2**9."""
    prime_limit = checked_int(prime_limit, "prime_limit")
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    return min(prime_limit, PRODUCT_PRIME_CAP)


def alpha(order: OrderPair | tuple[int, int], prime_limit: int) -> ConstantEstimate:
    """Density constant alpha_{k,m} with a certified truncation bound.

    The primes p <= min(prime_limit, 2**9) are multiplied out and the
    tail series covers the rest, so every larger limit gives the 2**9
    estimate and never grows the prime table past 2**9.
    """
    o = as_order(order)
    k, m = o.k, o.m
    prime_limit = _multiplied_out(prime_limit)

    def log_factors(pf: np.ndarray) -> np.ndarray:
        return np.log1p(-1.0 / sum(pf ** float(e) for e in range(m - k + 1, m + 1)))

    numer = {k: -1}
    numer[m] = numer.get(m, 0) - 1
    numer[m + 1] = 1
    key = ("alpha", k, m, prime_limit)
    return _STORE.get(key, _product_estimate, prime_limit, log_factors, numer, {k: -1})


def apostol_A(k: int, prime_limit: int) -> ConstantEstimate:
    """Order-k density constant A_k = prod_p (1 - 2/p^k + 1/p^(k+1)).

    Multiplies out p <= min(prime_limit, 2**9), like :func:`alpha`.
    """
    if checked_int(k, "k") < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    prime_limit = _multiplied_out(prime_limit)

    def log_factors(pf: np.ndarray) -> np.ndarray:
        return np.log1p(-(2.0 * pf - 1.0) / pf ** float(k + 1))

    key = ("apostol_A", k, prime_limit)
    return _STORE.get(key, _product_estimate, prime_limit, log_factors, {k: -2, k + 1: 1}, {})


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
