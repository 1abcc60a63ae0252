"""Cross-checking suites: every identity the library relies on, runnable in bulk.

Each check compares two genuinely different computation routes (table
evaluation vs divisor enumeration, streaming sieve vs convolution counts,
truncated products vs each other) and reports how many inputs were checked
and the first counterexample if any.  The CLI exposes these as
``verify --suite ...``; the acceptance tests call them with larger limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import FactoredInteger, factorize, squarefree_divisors
from .constants import DEFAULT_TOL, alpha, apostol_A, identity_gap, zeta
from .functions import OrderPair, as_order, mu, mu_apostol, mu_km, psi_k
from .primes import iroot
from .sieve import SieveConfig, sieve_mu_km, sieve_qk, stream_sum
from .summatory import SumQuery, _KFreeCounts, qk_count, sum_convolution

DEFAULT_ORDERS = (
    OrderPair(2, 2),
    OrderPair(2, 3),
    OrderPair(2, 4),
    OrderPair(3, 3),
    OrderPair(3, 5),
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failed: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        if self.ok:
            return f"{self.name}: {self.checked}/{self.checked} pass"
        return (
            f"{self.name}: {self.failed} failures out of {self.checked};"
            f" first: {self.first_failure}"
        )


def _bulk_values(limit: int, order: OrderPair) -> np.ndarray:
    """Sieved mu_{k,m}(1..limit) assembled from segment blocks."""
    cfg = SieveConfig()
    out = np.empty(limit, dtype=np.int8)
    lo = 1
    while lo <= limit:
        hi = min(lo + cfg.segment_size - 1, limit)
        out[lo - 1 : hi] = sieve_mu_km(lo, hi, order, cfg).values
        lo = hi + 1
    return out


def check_table_vs_sieve(limit: int, orders=DEFAULT_ORDERS) -> SuiteResult:
    """Sieved blocks agree with pointwise prime-power-table evaluation."""
    orders = [as_order(o) for o in orders]
    sieved = [_bulk_values(limit, o) for o in orders]
    checked = 0
    for n in range(1, limit + 1):
        fn = factorize(n)
        for o, arr in zip(orders, sieved):
            checked += 1
            if mu_km(fn, o) != int(arr[n - 1]):
                return SuiteResult(
                    "table",
                    checked,
                    1,
                    f"n={n} order=({o.k},{o.m}): point={mu_km(fn, o)} sieve={int(arr[n - 1])}",
                )
    return SuiteResult("table", checked, 0)


def check_convolution_identity(limit: int, orders=DEFAULT_ORDERS) -> SuiteResult:
    """mu_{k,m}(n) equals its divisor enumeration sum(mu(d) q_k(delta)).

    The enumeration side is built from the classical Moebius sieve and the
    k-free indicator sieve, accumulated over pairs delta * d**m = n with
    gcd(d, delta) = 1; the table side is pointwise evaluation.
    """
    orders = [as_order(o) for o in orders]
    conv_arrays = []
    for o in orders:
        qk = sieve_qk(1, limit, o.k, SieveConfig(segment_size=max(64, limit))).values
        conv = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, iroot(limit, o.m) + 1):
            md = mu(d)
            if md == 0:
                continue
            dm = d**o.m
            deltas = np.arange(1, limit // dm + 1, dtype=np.int64)
            keep = np.ones(len(deltas), dtype=bool)
            for p, _ in factorize(d).factors:
                keep &= deltas % p != 0
            deltas = deltas[keep]
            conv[deltas * dm] += md * qk[deltas - 1].astype(np.int64)
        conv_arrays.append(conv)
    checked = 0
    for n in range(1, limit + 1):
        fn = factorize(n)
        for o, conv in zip(orders, conv_arrays):
            checked += 1
            if mu_km(fn, o) != int(conv[n]):
                return SuiteResult(
                    "lemma21",
                    checked,
                    1,
                    f"n={n} order=({o.k},{o.m}): table={mu_km(fn, o)} enumeration={int(conv[n])}",
                )
    return SuiteResult("lemma21", checked, 0)


def check_apostol_agreement(limit: int, ks=(2, 3, 4)) -> SuiteResult:
    """mu_km(n, (k, k)) equals the independently coded order-k variant."""
    checked = 0
    for n in range(1, limit + 1):
        fn = factorize(n)
        for k in ks:
            checked += 1
            a = mu_apostol(fn, k)
            b = mu_km(fn, (k, k))
            if a != b:
                return SuiteResult(
                    "apostol", checked, 1, f"n={n} k={k}: four-case={a} table={b}"
                )
    return SuiteResult("apostol", checked, 0)


def check_psi_divisor_identity(limit: int, ks=(2, 3, 4, 5)) -> SuiteResult:
    """Exact rational identity sum_{d|n} mu(d) psi_{k-1}(d)/(d psi_k(d)) = n/psi_k(n)."""
    from fractions import Fraction

    checked = 0
    for n in range(1, limit + 1):
        fn = factorize(n)
        divisors = []
        for d, s in squarefree_divisors(fn):
            dfac = FactoredInteger(d, tuple((p, 1) for p, _ in fn.factors if d % p == 0))
            divisors.append((d, s, dfac))
        for k in ks:
            checked += 1
            lhs = Fraction(0)
            for d, s, dfac in divisors:
                lhs += s * psi_k(dfac, k - 1) / (d * psi_k(dfac, k))
            rhs = Fraction(n) / psi_k(fn, k)
            if lhs != rhs:
                return SuiteResult(
                    "lemma24", checked, 1, f"n={n} k={k}: lhs={lhs} rhs={rhs}"
                )
    return SuiteResult("lemma24", checked, 0)


def check_qk_count(limit: int, ns=(1, 2, 6, 30, 210), ks=(2, 3)) -> SuiteResult:
    """Formula-based k-free coprime counts match brute-force sieve counts.

    Each (n, k) counts every x < limit in one batched call; the public
    ``qk_count`` is called once per pair, at x = limit.
    """
    checked = 0
    for k in ks:
        qk = sieve_qk(1, limit, k, SieveConfig(segment_size=max(64, limit))).values
        for n in ns:
            vals = qk.astype(np.int64).copy()
            for p, _ in factorize(n).factors:
                vals[p - 1 :: p] = 0
            brute = np.cumsum(vals)
            got = _KFreeCounts(limit, n, k).counts(np.arange(1, limit, dtype=np.int64))
            got = np.append(got, qk_count(limit, n, k))
            bad = np.flatnonzero(got != brute)
            if len(bad):
                x = int(bad[0]) + 1
                return SuiteResult(
                    "qk", checked + x, 1,
                    f"x={x} n={n} k={k}: formula={int(got[x - 1])} sieve={int(brute[x - 1])}",
                )
            checked += limit
    return SuiteResult("qk", checked, 0)


def check_sum_agreement(
    xs=(10**3, 10**4, 10**5),
    orders=DEFAULT_ORDERS,
    ns=(1, 6, 30),
    config: SieveConfig | None = None,
) -> SuiteResult:
    """Streaming sums equal convolution sums exactly on a grid of inputs."""
    xs = sorted(xs)
    checked = 0
    for order in orders:
        o = as_order(order)
        for n in ns:
            direct = stream_sum(xs[-1], o, n, list(xs), config)
            for x, s_direct in direct:
                checked += 1
                s_conv = sum_convolution(SumQuery(x, o, n))
                if s_direct != s_conv:
                    return SuiteResult(
                        "sums", checked, 1,
                        f"x={x} order=({o.k},{o.m}) n={n}: direct={s_direct} conv={s_conv}",
                    )
    return SuiteResult("sums", checked, 0)


def check_constants_identity(
    ks=(2, 3), prime_limit: int = 100_000, tol: float = DEFAULT_TOL
) -> SuiteResult:
    """alpha_{k,k} agrees with zeta(k) * A_k within the combined reported bounds."""
    checked = 0
    for k in ks:
        checked += 1
        diff, combined = identity_gap(
            alpha((k, k), prime_limit), zeta(k, tol), apostol_A(k, prime_limit)
        )
        if diff > combined:
            return SuiteResult(
                "constants", checked, 1,
                f"k={k}: |alpha - zeta*A| = {diff:.3e} > combined bound {combined:.3e}",
            )
    return SuiteResult("constants", checked, 0)


_CLI_SUITES = ("lemma21", "lemma24", "apostol", "qk", "sums", "constants")


def run_suite(name: str, limit: int | None = None) -> list[SuiteResult]:
    """Run one named suite (or 'all'); limit rescales the default input size."""
    if name == "all":
        out = []
        for suite in _CLI_SUITES:
            out.extend(run_suite(suite, limit))
        return out
    if name == "lemma21":
        return [check_convolution_identity(limit or 10_000)]
    if name == "lemma24":
        return [check_psi_divisor_identity(limit or 1_000)]
    if name == "apostol":
        return [check_apostol_agreement(limit or 10_000)]
    if name == "qk":
        return [check_qk_count(limit or 1_000)]
    if name == "sums":
        xs = [x for x in (10**3, 10**4, 10**5, 10**6, 10**7) if x <= (limit or 10**5)]
        return [check_sum_agreement(xs or [10**3])]
    if name == "constants":
        return [check_constants_identity(prime_limit=limit or 100_000)]
    raise ValueError(f"unknown suite {name!r}")
