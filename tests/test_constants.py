import math
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from moebius_km import constants
from moebius_km.constants import (
    ConstantEstimate,
    PrecisionError,
    alpha,
    alpha_n,
    apostol_A,
    euler_factor,
    identity_gap,
    zeta,
)
from moebius_km.functions import mu, psi_k
from moebius_km.primes import prime_list_up_to, primes_up_to

# Values of the previous implementation (per-call p**-s powers over the
# primes), as (value, tail_bound), keyed by prime limit.
_OLD_A = {
    10**3: {2: (0.42824950568692705, 1e-10), 3: (0.7446954979060676, 1e-10)},
    10**5: {2: (0.4282495056770945, 1e-10), 3: (0.7446954979060675, 1e-10)},
    10**6: {2: (0.4282495056770944, 1e-10), 3: (0.7446954979060675, 1e-10)},
}
_OLD_ALPHA = {
    10**3: {
        (2, 2): (0.7044422010153399, 1e-10),
        (2, 3): (0.88151383972517, 1e-10),
        (3, 4): (0.9543532539747432, 1e-10),
        (2, 12): (0.9998358250793995, 1e-10),
    },
    10**5: {
        (2, 2): (0.704442200999166, 1e-10),
        (2, 3): (0.88151383972517, 1e-10),
        (3, 4): (0.9543532539747432, 1e-10),
        (2, 12): (0.9998358250793995, 1e-10),
    },
    10**6: {
        (2, 2): (0.7044422009991659, 1e-10),
        (2, 3): (0.88151383972517, 1e-10),
        (3, 4): (0.9543532539747432, 1e-10),
        (2, 12): (0.9998358250793995, 1e-10),
    },
}


class TestZeta:
    def test_known_closed_forms(self):
        assert abs(zeta(2, 1e-12).value - math.pi**2 / 6) <= 1e-12
        assert abs(zeta(4, 1e-12).value - math.pi**4 / 90) <= 1e-12

    def test_bound_respected_and_consistent(self):
        loose = zeta(3, 1e-6)
        tight = zeta(3, 1e-10)
        assert loose.tail_bound <= 1e-6
        assert tight.tail_bound <= 1e-10
        assert abs(loose.value - tight.value) <= loose.tail_bound + tight.tail_bound

    def test_unreachable_tolerance(self):
        with pytest.raises(PrecisionError):
            zeta(2, 1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta(1, 1e-6)
        with pytest.raises(ValueError):
            zeta(3, 0.0)
        with pytest.raises(ValueError):
            zeta(3, float("nan"))

    def test_against_mpmath(self):
        for k in (2, 3, 5, 11):
            est = zeta(k, 1e-13)
            assert abs(est.value - float(mpmath.zeta(k))) <= est.tail_bound + 1e-15

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_bound_dominates_error_with_rounding(self, tol):
        # The difference is taken at 40 digits, so the float rounding of the
        # returned value must sit inside tail_bound too.
        with mpmath.workdps(40):
            for k in range(2, 61):
                est = zeta(k, tol)
                err = abs(mpmath.mpf(est.value) - mpmath.zeta(k))
                assert err <= est.tail_bound <= tol, (k, tol, float(err), est.tail_bound)


class TestEulerFactor:
    @pytest.mark.parametrize(
        "p,km,expected",
        [
            (2, (2, 3), Fraction(11, 12)),
            (3, (2, 3), Fraction(35, 36)),
            (2, (2, 2), Fraction(5, 6)),
        ],
    )
    def test_examples(self, p, km, expected):
        assert euler_factor(p, km) == expected

    def test_identity_with_psi(self):
        # same factor via 1 - 1/(p^(m-1) psi_k(p)), exactly
        for k in (2, 3, 4):
            for m in range(k, k + 5):
                for p in prime_list_up_to(10**4):
                    lhs = euler_factor(p, (k, m))
                    rhs = 1 - 1 / (Fraction(p) ** (m - 1) * psi_k(p, k))
                    assert lhs == rhs, (p, k, m)


class TestAlphaN:
    def test_examples(self):
        assert alpha_n((2, 3), 1) == 1
        assert alpha_n((2, 3), 6) == Fraction(385, 72)
        assert alpha_n((2, 2), 2) == Fraction(5, 3)


class TestProducts:
    def test_values_in_unit_interval(self):
        for km in ((2, 2), (2, 3), (3, 3), (3, 7), (4, 6)):
            est = alpha(km, 10**4)
            assert 0.0 < est.value < 1.0
        for k in (2, 3, 4):
            est = apostol_A(k, 10**4)
            assert 0.0 < est.value < 1.0

    def test_doubling_stays_within_bound(self):
        for km in ((2, 2), (2, 3)):
            small = alpha(km, 10**5)
            big = alpha(km, 2 * 10**5)
            assert abs(big.value - small.value) <= small.tail_bound
        a_small = apostol_A(2, 10**5)
        a_big = apostol_A(2, 2 * 10**5)
        assert abs(a_big.value - a_small.value) <= a_small.tail_bound

    def test_bound_nonincreasing_in_prime_limit(self):
        bounds = [alpha((2, 3), p).tail_bound for p in (10**3, 10**4, 10**5)]
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_single_factor_product(self):
        # below the correction threshold the value is the literal product
        for k in (2, 3):
            est = apostol_A(k, 2)
            expected = 1 - 2 / 2**k + 1 / 2 ** (k + 1)
            assert est.value == pytest.approx(expected, abs=1e-15)
            assert est.tail_bound > 0.01

    def test_nearly_single_factor_for_large_m(self):
        est = alpha((2, 12), 10**5)
        product = 1.0
        for p in prime_list_up_to(100):
            product *= float(euler_factor(p, (2, 12)))
        assert abs(est.value - product) < 1e-9

    def test_three_is_closer_to_one(self):
        assert 1 - apostol_A(3, 10**5).value < 1 - apostol_A(2, 10**5).value

    def test_closing_identity_within_combined_bounds(self):
        for k in (2, 3):
            diff, combined = identity_gap(
                alpha((k, k), 10**5), zeta(k, 1e-12), apostol_A(k, 10**5)
            )
            assert diff <= combined

    def test_identity_gap_combines_the_three_bounds(self):
        a = ConstantEstimate(0.5, 0.125, 0)
        z = ConstantEstimate(2.0, 0.25, 0)
        ak = ConstantEstimate(0.375, 0.0625, 0)
        # |0.5 - 0.75|, and 0.125 + 2 * 0.0625 + 0.375 * 0.25 + 0.25 * 0.0625
        assert identity_gap(a, z, ak) == (0.25, 0.359375)

    @pytest.mark.parametrize("limit", [30_011, 10**5])
    def test_large_k_warns_nothing(self, limit):
        # p**70 and p**71 overflow float64 above p = 25000; the factor there
        # is exactly 1.
        for key in ("alpha", 70, 70, limit), ("apostol_A", 70, limit):
            constants._cache.pop(key, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, ak = alpha((70, 70), limit), apostol_A(70, limit)
        assert a.value == ak.value == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha((2, 3), 1)
        with pytest.raises(ValueError):
            apostol_A(1, 100)


class TestPowerSumTable:
    @pytest.mark.parametrize("limit", [10**3, 10**4, 10**6])
    def test_matches_direct_powers(self, limit):
        from moebius_km.constants import _SMAX, _prime_power_sums

        pf = primes_up_to(limit).astype(np.float64)
        sums = _prime_power_sums(limit)
        for s in range(2, _SMAX + 2):
            direct = float((pf ** float(-s)).sum())
            assert abs(float(sums[s]) - direct) <= 2e-13, (limit, s)

    @pytest.mark.parametrize("limit", [10**3, 10**5, 10**6])
    def test_products_agree_with_previous_values(self, limit):
        for k, (old, old_bound) in _OLD_A[limit].items():
            est = apostol_A(k, limit)
            assert abs(est.value - old) <= est.tail_bound + old_bound, (k, limit)
        for km, (old, old_bound) in _OLD_ALPHA[limit].items():
            est = alpha(km, limit)
            assert abs(est.value - old) <= est.tail_bound + old_bound, (km, limit)

    def test_cold_limit_from_many_threads(self):
        # More threads than cores and a short switch interval: every thread
        # must see the one cached prime-zeta table, the one cached power-sum
        # table and the same estimate.
        limit = 54_321
        for key in ("prime_zeta",), ("power_sums", limit), ("alpha", 2, 3, limit):
            constants._cache.pop(key, None)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        zeta_tables = [None] * n_threads
        tables = [None] * n_threads
        results = [None] * n_threads

        def work(i):
            barrier.wait()
            zeta_tables[i] = constants._cached(("prime_zeta",), constants._prime_zeta_table)
            barrier.wait()
            tables[i] = constants._cached(
                ("power_sums", limit), constants._prime_power_sums, limit
            )
            results[i] = alpha((2, 3), limit)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert all(t is constants._cache[("prime_zeta",)] for t in zeta_tables)
        assert all(t is constants._cache[("power_sums", limit)] for t in tables)
        assert results[0] is not None
        assert all(r == results[0] for r in results)

    def test_log_product_cached_bit_identical(self, monkeypatch):
        limit = 12_345
        for key in ("alpha", 2, 3, limit), ("apostol_A", 3, limit):
            constants._cache.pop(key, None)
        a, a3 = alpha((2, 3), limit), apostol_A(3, limit)
        pf = primes_up_to(limit).astype(np.float64)
        denom = np.zeros_like(pf) + pf**2.0 + pf**3.0
        assert constants._cache[("alpha", 2, 3, limit)] == float(
            np.log1p(-1.0 / denom).sum()
        )
        assert constants._cache[("apostol_A", 3, limit)] == float(
            np.log1p(-(2.0 * pf - 1.0) / pf**4.0).sum()
        )

        def forbidden(limit):
            raise AssertionError("a cached product rebuilt its prime table")

        monkeypatch.setattr(constants, "primes_up_to", forbidden)
        assert alpha((2, 3), limit) == a and apostol_A(3, limit) == a3

    def test_prime_zeta_table_against_mpmath(self):
        table = constants._cached(("prime_zeta",), constants._prime_zeta_table)
        assert len(table) == constants._SMAX + 2
        for s in range(2, constants._SMAX + 2):
            value, bound = table[s]
            assert abs(value - float(mpmath.primezeta(s))) <= bound, s

    def test_prime_zeta_weights_are_mu(self):
        from moebius_km.constants import _MU_SERIES

        assert _MU_SERIES == tuple(mu(j) if j else 0 for j in range(60 // 2 + 1))


class TestTailMachinery:
    def test_power_tail_against_mpmath(self):
        from moebius_km.constants import _power_tail

        for s in (2, 3, 5):
            for limit in (10**4, 10**5):
                pf = primes_up_to(limit).astype(np.float64)
                got, err = _power_tail(s, limit)
                oracle = float(mpmath.primezeta(s)) - float((pf ** float(-s)).sum())
                assert abs(got - oracle) <= err + 1e-14, (s, limit)

    def test_estimates_carry_positive_bounds(self):
        for est in (alpha((2, 3), 10**4), apostol_A(2, 10**4), zeta(2, 1e-10)):
            assert isinstance(est, ConstantEstimate)
            assert est.tail_bound > 0
