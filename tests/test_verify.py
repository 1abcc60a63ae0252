import pytest

from moebius_km.sieve import _max_range
from moebius_km.verify import (
    SUITES,
    SuiteResult,
    check_apostol_agreement,
    check_constants_identity,
    check_convolution_identity,
    check_psi_divisor_identity,
    check_qk_count,
    check_sum_agreement,
    check_table_vs_sieve,
    run_suite,
)


def test_all_checks_pass_at_small_limits():
    assert check_table_vs_sieve(2000).ok
    assert check_convolution_identity(2000).ok
    assert check_apostol_agreement(2000).ok
    assert check_psi_divisor_identity(200).ok
    assert check_qk_count(200).ok
    assert check_sum_agreement(xs=(100, 1000)).ok
    assert check_constants_identity(prime_limit=10**4).ok


def test_result_lines_are_informative():
    result = check_psi_divisor_identity(50)
    assert result.line() == f"lemma24: {result.checked}/{result.checked} pass"


def test_run_suite_dispatch():
    results = run_suite("all", limit=100)
    assert [r.name for r in results] == list(SUITES)
    assert [r.name for r in results][:2] == ["table", "lemma21"]
    assert len(results) == 7
    assert all(r.ok for r in results)
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.mark.parametrize(
    "limit, xs",
    [(1, [10**3]), (99_999, [10**3, 10**4]), (10**8, [10**3, 10**4, 10**5, 10**6, 10**7, 10**8])],
)
def test_sums_suite_checks_every_power_of_ten_up_to_the_limit(monkeypatch, limit, xs):
    import moebius_km.verify as verify_mod

    seen = []

    def spy(grid):
        seen.append(list(grid))
        return SuiteResult("sums", len(grid), 0)

    monkeypatch.setattr(verify_mod, "check_sum_agreement", spy)
    assert run_suite("sums", limit)[0].ok
    assert seen == [xs]


def test_failure_reports_first_counterexample(monkeypatch):
    import moebius_km.verify as verify_mod

    monkeypatch.setattr(verify_mod, "sum_convolution", lambda q: -(10**9))
    result = check_sum_agreement(xs=(50,), ns=(1,))
    assert not result.ok
    assert result.failed == 1
    assert "direct=" in result.first_failure and "conv=" in result.first_failure
    assert not result.line().endswith("pass")


def test_sum_agreement_checks_the_shared_walk(monkeypatch):
    import moebius_km.verify as verify_mod

    def off_by_one(xs, order, n):
        return [(x, s + 1) for x, s in verify_mod.stream_sum(xs[-1], order, n, xs)]

    monkeypatch.setattr(verify_mod, "convolution_sums", off_by_one)
    result = check_sum_agreement(xs=(50, 60), ns=(1,))
    assert not result.ok
    assert "shared=" in result.first_failure


@pytest.mark.parametrize("k", [2, 3])
def test_table_checks_the_top_of_each_sieve_domain(monkeypatch, k):
    import moebius_km.verify as verify_mod

    top = _max_range(k)
    sieved = verify_mod.sieve_mu_km

    def wrong_last_cell(lo, hi, order, config=None):
        values = sieved(lo, hi, order, config)
        if hi == top:
            values[-1] = 1 - values[-1]
        return values

    monkeypatch.setattr(verify_mod, "sieve_mu_km", wrong_last_cell)
    result = check_table_vs_sieve(120)
    assert not result.ok
    assert result.first_failure.startswith(f"r={top} n=1 order=({k},")
