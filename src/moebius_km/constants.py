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
  fixed-point floors plus half an ulp of the returned float: about 2e-16
  for every k, so every tol down to 1e-13 costs the same few microseconds.
* products: alpha_{k,m} and A_k multiply out the primes p <= P =
  min(prime_limit, PRODUCT_PRIME_CAP = 2**16), so they never grow the
  prime table past 2**16, and share one tail routine that covers every
  prime above P, for every P >= 2.  The
  cached log of the product over p <= P is corrected by the leading terms of
  sum_{p>P} log(factor_p), expanded exactly into prime-power tails
  sum_{p>P} p^-s (A_k first adds sum_{p>P} log(1 - p^-k) = -L(k)).
  Both come from the log tails L(t) = sum_{p>P} -log(1 - p^-t), computed
  once per P for t = 2..T only: T is the last t whose elementary bound
  2 P^(1-t)/(t-1) exceeds 1e-22: 5 at P = 2**16, 8 at P = 1000, 68 at P = 2.
  Each is log zeta(t) minus sum_{a>=1} S(at)/a, with the partial sums
  S(s) = sum_{p<=P} p^-s from one pass over the primes, and the
  prime-power tails are their Moebius inversion sum_j mu(j)/j L(js) (the
  prime-zeta method of H. Cohen, 1991, only as deep as a float can see).
  Every tail past T enters the bound as its elementary bound instead.
  The bound collects the series truncations, the second-order remainder
  (<= 0.6 * sum_{p>P} p^-2m) and the float slacks, then is floored at
  _TAIL_FLOOR so it never understates accumulated rounding; the floor and
  each slack are named once below.  More primes buy no accuracy: at
  2**16 each of the 20 values tested lies within 1 ulp of its 50-digit
  reference.  Far fewer would cost some, as the expansion keeps only the
  first order of log(1 - x_p): at 10**4, A_2 is 134 ulps off, the dropped
  0.6 * sum_{p>P} p^-2m.  At tiny limits the bound is large but still
  holds: at P = 2 the worst value tested is 3.2e-3 off, within its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import FactoredInteger, as_factored, is_prime
from .functions import OrderPair, as_order
from .primes import KeyedStore, primes_up_to

DEFAULT_PRIME_LIMIT = 1_000_000
DEFAULT_TOL = 1e-12
PRODUCT_PRIME_CAP = 1 << 16  # the products multiply out the primes up to this

_MIN_TOL = 1e-13
_SMAX = 54  # power sums with exponent above this fall below 2**-54 termwise
_TAIL_FLOOR = 1e-10  # floor of every product's bound
_LOG_SUM_SLACK = 1e-12  # float slack of the log-sum over p <= P
_LOG_TAIL_SLACK = 1e-12  # float slack of one log tail L(t), whose error is under 5e-15
_NEGLIGIBLE = 1e-30  # p**-s below this leaves the power-sum pass
_FEW_PRIMES_BELOW = 100  # the primes below this stay in the pass for every s
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
    limit, 2**16); the tail expansion covers the primes above it.
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

    Euler-Maclaurin at N = 10 (see the module docstring); the bound, about
    2e-16, meets every tol the float result can certify.
    """
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tol must be positive, got {tol}")
    if tol < _MIN_TOL:
        raise PrecisionError(f"tolerance {tol} below float-certifiable floor {_MIN_TOL}")
    acc, err = _zeta_fixed(k)
    one = 1 << _FIXED_BITS
    value = acc / one  # correctly rounded: off by at most half an ulp
    half_ulp = int(math.ulp(value) * one) // 2  # whole units, as value >= 1
    bound = (err + half_ulp) / one  # rounded, hence the nextafter
    return ConstantEstimate(value, math.nextafter(bound, math.inf), _ZETA_CUTOFF)


# The log tails and log products, per prime limit.  A build may fetch another
# entry: the store's lock is reentrant.
_STORE = KeyedStore()


def _prime_power_sums(prime_limit: int) -> np.ndarray:
    """sums[s] = sum_{p <= prime_limit} p**-s for s = 2.._SMAX+1.

    p**s is p times itself s - 1 times, exact below 2**53, so a term is one
    division, one rounding (past 2**53 its chained roundings are below
    1e-30); with pairwise summation each sum is off by under 1e-15.  The
    primes below _FEW_PRIMES_BELOW take every s in one 2-d pass, the rest
    only while their term is at least _NEGLIGIBLE (s <= 15): the dropped
    terms add less than pi(P) * 1e-30 < 1e-23 up to the prime table cap.
    """
    pf = primes_up_to(prime_limit).astype(np.float64)
    few = int(np.searchsorted(pf, _FEW_PRIMES_BELOW))
    # Row r of the 2-d pass holds p**(r + 1) for the first ``few`` primes.
    powers = np.multiply.accumulate(np.broadcast_to(pf[:few], (_SMAX + 1, few)), axis=0)
    sums = np.full(_SMAX + 2, np.nan)
    sums[2:] = np.reciprocal(powers[1:], out=powers[1:]).sum(axis=1)
    rest = pf[few:]
    power, term = rest * rest, np.empty_like(rest)
    s = 2
    while len(power):
        power = power[: np.searchsorted(power, 1.0 / _NEGLIGIBLE, side="right")]
        sums[s] += np.divide(1.0, power, out=term[: len(power)]).sum()
        power *= rest[: len(power)]
        s += 1
    return sums


def _log_tail_table(prime_limit: int) -> tuple[float, ...]:
    """table[t] = L(t) = sum_{p > prime_limit} -log(1 - p**-t) for t = 2..T.

    T is the last t whose elementary bound 2 * P**(1-t)/(t-1) exceeds
    _NEGLIGIBLE_TAIL: 5 at P = 2**16, 8 at P = 1000, 68 at P = 2.  L(t) is
    log zeta(t) minus sum_{a>=1} sum_{p <= P} p**-(at) / a up to at =
    _SMAX + 1 (the rest is below 2**-55), in one fsum, with log zeta(t) the
    log of the nearest float plus the remainder of the fixed-point sum over
    it.  The error, the log's rounding plus the power sums' weighted 1/a,
    is under 5e-15.
    """
    top = 2
    while 2.0 * _nsum_tail(top + 1, prime_limit) > _NEGLIGIBLE_TAIL:
        top += 1
    sums = _prime_power_sums(prime_limit).tolist()
    one = 1 << _FIXED_BITS
    table = [math.nan] * 2
    for t in range(2, top + 1):
        acc, _ = _zeta_fixed(t)
        value = acc / one
        rest = (acc - int(math.ldexp(value, _FIXED_BITS))) / one
        terms = [math.log(value), rest / value]
        terms += [-sums[a * t] / a for a in range(1, (_SMAX + 1) // t + 1)]
        table.append(math.fsum(terms))
    return tuple(table)


def _log_tails(prime_limit: int) -> tuple[float, ...]:
    """The log-tail table of prime_limit, built once per limit."""
    return _STORE.get(("log_tails", prime_limit), _log_tail_table, prime_limit)


def _log_tail(t: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for L(t) = sum_{p > prime_limit} -log(1 - p**-t).

    Past the table, L(t) lies in [0, 2 * sum_{n>P} n**-t].
    """
    table = _log_tails(prime_limit)
    if t < len(table):
        return table[t], _LOG_TAIL_SLACK
    return 0.0, 2.0 * _nsum_tail(t, prime_limit)


def _power_tail(s: int, prime_limit: int) -> tuple[float, float]:
    """(value, error bound) for sum_{p > prime_limit} p**-s.

    The Moebius inversion sum_{j>=1} mu(j)/j * L(js) over the js in the
    log-tail table.  The terms from the first js past the table on (all of
    them if s is past it) add up to at most 2 * sum_{n>P} n**-js.
    """
    table = _log_tails(prime_limit)
    value = err = 0.0
    j = 1
    while j * s < len(table):
        value += _MU_WEIGHTS[j] / j * table[j * s]
        err += _LOG_TAIL_SLACK / j
        j += 1
    return value, err + 2.0 * _nsum_tail(j * s, prime_limit)


def _log_product(key: tuple, prime_limit: int, log_factors) -> float:
    """sum_{p <= prime_limit} log(factor_p), cached per (key, prime limit).

    ``log_factors`` maps the primes as float64 to their log factors; the
    key names the product and its order, so only one float per pair is kept.
    """

    def build() -> float:
        pf = primes_up_to(prime_limit).astype(np.float64)
        with np.errstate(over="ignore"):  # p**e = inf only where the factor is 1.0
            return float(log_factors(pf).sum())

    return _STORE.get((*key, prime_limit), build)


def _nsum_tail(s: int, prime_limit: int) -> float:
    # Elementary bound sum_{n > P} n**-s <= P**(1-s)/(s-1); underflows to 0.0
    # harmlessly for large s.
    return float(prime_limit) ** (1 - s) / (s - 1)


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
    base: float, prime_limit: int, m: int, k: int, head: tuple[float, float] = (0.0, 0.0)
) -> ConstantEstimate:
    """The estimate of prod_p (1 - x_p), x_p = 1/(p^(m-k+1) + ... + p^m).

    ``base`` is the log of the product over p <= P = prime_limit, and
    ``head`` the (correction, error) of further log factors over p > P,
    summed first.  Each p > P adds log(1 - x_p) = -x_p - r_p, with x_p =
    sum_{i>=0} [p^-(m+ik) - p^-(m+1+ik)] exactly and r_p = sum_{j>=2} x_p^j / j.
    As P >= 2, every such p is at least 3, so x_p <= p^-m <= 1/9 and
    r_p <= x_p^2 / (2 (1 - x_p)) <= (9/16) x_p^2 <= 0.6 p^-2m.
    """
    corr, err = head
    top = len(_log_tails(prime_limit)) - 1
    i = 0
    while m + i * k <= top:
        t1, e1 = _power_tail(m + i * k, prime_limit)
        t2, e2 = _power_tail(m + 1 + i * k, prime_limit)
        corr -= t1 - t2
        err += e1 + e2
        i += 1
    err += 2.0 * _nsum_tail(m + i * k, prime_limit)  # dropped expansion terms
    t, e = _power_tail(2 * m, prime_limit)
    err += 0.6 * (abs(t) + e) + _LOG_SUM_SLACK
    value = math.exp(base + corr)
    bound = max(value * math.expm1(err), _TAIL_FLOOR)
    return ConstantEstimate(value, bound, prime_limit)


def _multiplied_out(prime_limit: int) -> int:
    """The limit of the primes a product multiplies out: at most 2**16."""
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    return min(prime_limit, PRODUCT_PRIME_CAP)


def alpha(order: OrderPair | tuple[int, int], prime_limit: int) -> ConstantEstimate:
    """Density constant alpha_{k,m} with a certified truncation bound.

    The primes p <= min(prime_limit, 2**16) are multiplied out and the
    tail expansion covers the rest, so every larger limit gives the 2**16
    estimate and never grows the prime table past 2**16.
    """
    o = as_order(order)
    k, m = o.k, o.m
    prime_limit = _multiplied_out(prime_limit)

    def log_factors(pf: np.ndarray) -> np.ndarray:
        # log1p(-1 / sum_e p**e) in place in ``denom``, each further power in
        # ``term``; the sum starts at its first power (0 + p**e is p**e exactly).
        denom, term = np.power(pf, float(m - k + 1)), np.empty_like(pf)
        for e in range(m - k + 2, m + 1):
            denom += np.power(pf, float(e), out=term)
        np.divide(-1.0, denom, out=denom)
        return np.log1p(denom, out=denom)

    base = _log_product(("alpha", k, m), prime_limit, log_factors)
    return _product_estimate(base, prime_limit, m, k)


def apostol_A(k: int, prime_limit: int) -> ConstantEstimate:
    """Order-k density constant A_k = prod_p (1 - 2/p^k + 1/p^(k+1)).

    Multiplies out p <= min(prime_limit, 2**16), like :func:`alpha`.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    prime_limit = _multiplied_out(prime_limit)

    def log_factors(pf: np.ndarray) -> np.ndarray:
        # log1p(-(2 p - 1) / p**(k + 1)) in place in ``work``; only the power is
        # a temporary.
        work = np.multiply(2.0, pf)
        work -= 1.0
        np.negative(work, out=work)
        work /= pf ** float(k + 1)
        return np.log1p(work, out=work)

    base = _log_product(("apostol_A", k), prime_limit, log_factors)

    # factor = (1 - u) * (1 - w), u = p^-k, w = (u - u/p)/(1 - u): w is x_p of
    # alpha_{k,k}, and the sum of log(1 - u) over p > P is -L(k).
    tail, err = _log_tail(k, prime_limit)
    return _product_estimate(base, prime_limit, k, k, (-tail, err))


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
