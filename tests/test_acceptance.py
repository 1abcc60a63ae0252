"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite streams a few times over 1e7..1e8 integers.
"""

import time
import tracemalloc

import pytest

from conftest import mu_over_psi_series
from moebius_km.asymptotics import fit_exponent, geometric_checkpoints, scan
from moebius_km.constants import alpha, apostol_A, zeta
from moebius_km.functions import OrderPair
from moebius_km.sieve import SieveConfig, segment_memory_estimate, stream_sum
from moebius_km.summatory import SumQuery, main_term, sum_direct
from moebius_km.verify import (
    check_apostol_agreement,
    check_constants_identity,
    check_convolution_identity,
    check_psi_divisor_identity,
    check_qk_count,
    check_sum_agreement,
    check_table_vs_sieve,
)

SIX_ORDERS = (
    OrderPair(2, 2),
    OrderPair(2, 3),
    OrderPair(2, 4),
    OrderPair(3, 3),
    OrderPair(3, 5),
    OrderPair(4, 6),
)
FIVE_ORDERS = SIX_ORDERS[:-1]

PRIME_LIMIT = 10**6
TOL = 1e-12
GRID_1E4_1E7 = geometric_checkpoints(10**4, 10**7, 4)


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def rows_23():
    return scan((2, 3), checkpoints=GRID_1E4_1E7, prime_limit=PRIME_LIMIT, tol=TOL)


@pytest.fixture(scope="module")
def rows_22():
    return scan((2, 2), checkpoints=GRID_1E4_1E7, prime_limit=PRIME_LIMIT, tol=TOL)


def test_criterion_01_table_equivalence():
    start = time.perf_counter()
    result = check_table_vs_sieve(10**6, SIX_ORDERS)
    elapsed = time.perf_counter() - start
    assert result.ok, result.first_failure
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(1, "table equivalence", f"{result.checked} values, {elapsed:.1f}s")


def test_criterion_02_convolution_identity():
    start = time.perf_counter()
    result = check_convolution_identity(10**5, SIX_ORDERS)
    elapsed = time.perf_counter() - start
    assert result.ok, result.first_failure
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(2, "convolution identity", f"{result.checked} values, {elapsed:.1f}s")


def test_criterion_03_order_k_agreement():
    result = check_apostol_agreement(10**6, ks=(2, 3, 4))
    assert result.ok, result.first_failure
    _report(3, "order-k agreement", f"{result.checked} values")


def test_criterion_04_psi_divisor_identity():
    result = check_psi_divisor_identity(10**4, ks=(2, 3, 4, 5))
    assert result.ok, result.first_failure
    _report(4, "psi divisor identity", f"{result.checked} exact identities")


def test_criterion_05_algorithm_cross_check():
    start = time.perf_counter()
    result = check_sum_agreement(
        xs=(10**3, 10**4, 10**5, 10**6, 10**7), orders=FIVE_ORDERS, ns=(1, 6, 30)
    )
    elapsed = time.perf_counter() - start
    assert result.ok, result.first_failure
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(5, "direct vs convolution", f"{result.checked} sums, {elapsed:.1f}s")


def test_criterion_06_qk_count_oracle():
    result = check_qk_count(10**4, ns=(1, 2, 6, 30, 210), ks=(2, 3))
    assert result.ok, result.first_failure
    _report(6, "k-free count oracle", f"{result.checked} counts")


def test_criterion_07_constant_identity():
    details = []
    for k in (2, 3):
        a = alpha((k, k), PRIME_LIMIT)
        z = zeta(k, TOL)
        ak = apostol_A(k, PRIME_LIMIT)
        diff = abs(a.value - z.value * ak.value)
        combined = (
            a.tail_bound
            + z.value * ak.tail_bound
            + ak.value * z.tail_bound
            + z.tail_bound * ak.tail_bound
        )
        assert diff <= combined, f"k={k}: {diff} > combined {combined}"
        assert diff <= 1e-8, f"k={k}: {diff} > 1e-8"
        details.append(f"k={k} diff={diff:.2e}")
    result = check_constants_identity(ks=(2, 3), prime_limit=PRIME_LIMIT, tol=TOL)
    assert result.ok, result.first_failure
    _report(7, "constant identity", ", ".join(details))


def test_criterion_08_density(rows_23):
    a = alpha((2, 3), PRIME_LIMIT)
    z = zeta(2, TOL)
    density = a.value / z.value
    by_x = {r.x: r.S for r in rows_23}
    dev = {x: abs(by_x[x] / x - density) for x in (10**5, 10**6, 10**7)}
    assert dev[10**6] <= 0.01, dev
    assert dev[10**7] < dev[10**5], dev
    _report(8, "density", f"dev@1e6={dev[10**6]:.2e}, 1e5->{dev[10**5]:.2e}, 1e7->{dev[10**7]:.2e}")


def test_criterion_09_error_exponent_ceiling(rows_23, rows_22):
    start = time.perf_counter()
    fit_main = fit_exponent(rows_23)
    fit_conj = fit_exponent(rows_22)
    elapsed = time.perf_counter() - start
    assert 0.2 <= fit_main.slope <= 0.75, fit_main
    assert 0.2 <= fit_conj.slope <= 0.75, fit_conj
    assert elapsed < 600
    _report(9, "error exponent", f"slope(2,3)={fit_main.slope:.3f}, slope(2,2)={fit_conj.slope:.3f}")


def test_criterion_10_coprime_main_term():
    q = SumQuery(10**6, OrderPair(2, 3), 6)
    s = sum_direct(q)
    parts = main_term(q, prime_limit=PRIME_LIMIT, tol=TOL)
    rel = abs(s / parts.main - 1)
    assert rel <= 0.02, (s, parts.main)
    _report(10, "coprime main term", f"S={s}, M={parts.main:.1f}, rel={rel:.4f}")


def test_criterion_11_performance_and_determinism():
    budget = 64 * 2**20
    large = SieveConfig(segment_size=1 << 20)
    small = SieveConfig(segment_size=1 << 16)
    estimate = segment_memory_estimate(large)
    assert estimate <= budget
    start = time.perf_counter()
    s_small = stream_sum(10**8, (2, 3), config=small)[0][1]
    mid = time.perf_counter()
    tracemalloc.start()
    try:
        s_large = stream_sum(10**8, (2, 3), config=large)[0][1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    done = time.perf_counter()
    assert s_small == s_large
    assert peak <= estimate, (peak, estimate)
    _report(
        11,
        "performance",
        f"S(1e8)={s_large}, segment 2^16 {mid - start:.2f}s, segment 2^20 traced "
        f"{done - mid:.2f}s, peak={peak / 2**20:.1f}MiB<=estimate={estimate / 2**20:.0f}MiB<=64MiB",
    )


def test_criterion_12_weighted_sum_decay():
    # sum of mu(r) / (r psi_2(r)) over r <= 1e3 and over r <= 1e6
    head = mu_over_psi_series(10**3, 1, 2, 1)
    full = mu_over_psi_series(10**6, 1, 2, 1)
    # tail beyond 1e3 is at most sum_{r>1e3} 1/(psi_2(r) r) <= sum r^-2 <= 1e-3
    assert abs(full - head) <= 1e-3
    _report(12, "weighted sum decay", f"|S(1e6)-S(1e3)|={abs(full - head):.2e}")
