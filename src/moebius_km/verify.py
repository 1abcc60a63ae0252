"""Cross-checking suites: every identity the library relies on, runnable in bulk.

Each check compares two genuinely different computation routes (table
evaluation vs divisor enumeration, streaming sieve vs convolution counts,
truncated products vs each other) and reports how many inputs were checked
and the first counterexample if any.  The CLI exposes these as
``verify --suite ...``; the acceptance tests call them with larger limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import FactoredInteger, factorizations, factorize, squarefree_divisors
from .constants import DEFAULT_TOL, PRODUCT_PRIME_CAP, alpha, apostol_A, identity_gap, zeta
from .functions import OrderPair, as_order, mu, mu_apostol, mu_km, psi_k
from .primes import iroot
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, _max_range, sieve_mu_km, sieve_qk, stream_sum
from .summatory import SumQuery, convolution_sums, qk_count, sum_convolution

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


def check_table_vs_sieve(limit: int, orders=DEFAULT_ORDERS) -> SuiteResult:
    """Sieved cells agree with pointwise prime-power-table evaluation.

    The cells are one plain block [1, limit]; for n = 2, 3 and 6 (wheels
    2, 3 and 6), the w = min(limit, 1000) integers past n * DEFAULT_SEGMENT_SIZE,
    where every column's second segment starts, read as differences of
    consecutive ``stream_sum`` checkpoints: mu_{k,m}(r) if gcd(r, n) = 1, else 0;
    and for each k, one block of the min(limit, 100) integers that end the
    sieve's domain at ``_max_range(k)``.
    """
    orders = [as_order(o) for o in orders]
    cfg = SieveConfig(segment_size=max(64, limit))
    runs = [(1, 1, orders, [sieve_mu_km(1, limit, o, cfg).values for o in orders])]
    for n in (2, 3, 6):
        lo = n * DEFAULT_SEGMENT_SIZE + 1
        cps = list(range(lo - 1, lo + min(limit, 1000)))
        sums = [[s for _, s in stream_sum(cps[-1], o, n, cps)] for o in orders]
        runs.append((lo, n, orders, [np.diff(s) for s in sums]))
    for k in sorted({o.k for o in orders}):
        hi = _max_range(k)
        lo = hi - min(limit, 100) + 1
        top_orders = [o for o in orders if o.k == k]
        runs.append((lo, 1, top_orders, [sieve_mu_km(lo, hi, o).values for o in top_orders]))
    checked = 0
    for lo, n, run_orders, cells in runs:
        rs = range(lo, lo + len(cells[0]))
        # [1, limit] is factored in bulk; the windows one integer at a time.
        for r, fr in zip(rs, factorizations(limit) if lo == 1 else map(factorize, rs)):
            if gcd(r, n) != 1:
                fr = None
            for o, vals in zip(run_orders, cells):
                checked += 1
                point, got = 0 if fr is None else mu_km(fr, o), int(vals[r - lo])
                if point != got:
                    return SuiteResult(
                        "table", checked, 1,
                        f"r={r} n={n} order=({o.k},{o.m}): point={point} sieve={got}",
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
    orders = [(k, OrderPair(k, k)) for k in ks]
    checked = 0
    for n, fn in enumerate(factorizations(limit), 1):
        for k, o in orders:
            checked += 1
            a = mu_apostol(fn, k)
            b = mu_km(fn, o)
            if a != b:
                return SuiteResult(
                    "apostol", checked, 1, f"n={n} k={k}: four-case={a} table={b}"
                )
    return SuiteResult("apostol", checked, 0)


def check_psi_divisor_identity(limit: int, ks=(2, 3, 4, 5)) -> SuiteResult:
    """Exact rational identity sum_{d|n} mu(d) psi_{k-1}(d)/(d psi_k(d)) = n/psi_k(n)."""
    from fractions import Fraction

    # psi_{k-1}(d) / (d psi_k(d)) per (d, k): each squarefree d recurs in its multiples.
    terms: dict[tuple[int, int], Fraction] = {}
    checked = 0
    for n, fn in enumerate(factorizations(limit), 1):
        divisors = squarefree_divisors(fn)
        for k in ks:
            checked += 1
            lhs = Fraction(0)
            for d, s in divisors:
                t = terms.get((d, k))
                if t is None:
                    dfac = FactoredInteger(d, tuple((p, 1) for p, _ in fn.factors if d % p == 0))
                    t = terms[d, k] = psi_k(dfac, k - 1) / (d * psi_k(dfac, k))
                lhs += s * t
            rhs = Fraction(n) / psi_k(fn, k)
            if lhs != rhs:
                return SuiteResult(
                    "lemma24", checked, 1, f"n={n} k={k}: lhs={lhs} rhs={rhs}"
                )
    return SuiteResult("lemma24", checked, 0)


def check_qk_count(limit: int, ns=(1, 2, 6, 30, 210), ks=(2, 3)) -> SuiteResult:
    """Formula-based k-free coprime counts match brute-force sieve counts.

    Each (n, k) counts every x in 1..limit by one ``qk_count`` call on an array.
    """
    checked = 0
    for k in ks:
        qk = sieve_qk(1, limit, k, SieveConfig(segment_size=max(64, limit))).values
        for n in ns:
            vals = qk.astype(np.int64).copy()
            for p, _ in factorize(n).factors:
                vals[p - 1 :: p] = 0
            brute = np.cumsum(vals)
            got = qk_count(np.arange(1, limit + 1, dtype=np.int64), n, k)
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
) -> SuiteResult:
    """Streaming sums equal convolution sums exactly on a grid of inputs.

    The stream is the independent route.  ``conv`` and ``shared`` are the
    one convolution engine, at each x alone (``sum_convolution``) and at
    the whole grid (``convolution_sums``); both must equal the stream.
    """
    xs = sorted(xs)
    checked = 0
    for order in orders:
        o = as_order(order)
        for n in ns:
            direct = stream_sum(xs[-1], o, n, xs)
            shared = convolution_sums(xs, o, n)
            for (x, s_direct), (_, s_shared) in zip(direct, shared):
                checked += 1
                s_conv = sum_convolution(SumQuery(x, o, n))
                if not s_direct == s_conv == s_shared:
                    return SuiteResult(
                        "sums", checked, 1,
                        f"x={x} order=({o.k},{o.m}) n={n}: direct={s_direct} (stream);"
                        f" conv={s_conv} shared={s_shared} (one convolution engine at this x"
                        f" and at the grid)",
                    )
    return SuiteResult("sums", checked, 0)


def check_constants_identity(
    ks=(2, 3), prime_limit: int = PRODUCT_PRIME_CAP, tol: float = DEFAULT_TOL
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


def _check_sums_up_to(limit: int) -> SuiteResult:
    """check_sum_agreement at every power of ten from 1e3 up to the limit (at least 1e3)."""
    xs = [10**3]
    while xs[-1] * 10 <= limit:
        xs.append(xs[-1] * 10)
    return check_sum_agreement(xs)


# Each suite's check and its default input size, in the order of ``--suite all``.
SUITES = {
    "table": (check_table_vs_sieve, 100_000),
    "lemma21": (check_convolution_identity, 10_000),
    "lemma24": (check_psi_divisor_identity, 1_000),
    "apostol": (check_apostol_agreement, 10_000),
    "qk": (check_qk_count, 1_000),
    "sums": (_check_sums_up_to, 10**5),
    "constants": (lambda limit: check_constants_identity(prime_limit=limit), PRODUCT_PRIME_CAP),
}


def run_suite(name: str, limit: int | None = None) -> list[SuiteResult]:
    """Run one named suite (or 'all'); limit replaces the default input size."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if name == "all":
        return [result for suite in SUITES for result in run_suite(suite, limit)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    check, default = SUITES[name]
    return [check(default if limit is None else limit)]
