import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import race
from moebius_km import constants
from moebius_km.constants import (
    PRODUCT_PRIME_CAP,
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
from moebius_km.primes import KeyedStore, prime_list_up_to, primes_up_to

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

    def test_refuses_only_a_tol_below_its_bound(self):
        # The bound of zeta(2) is 1.8e-16: 1e-15 is certified, 1e-16 is not.
        assert zeta(2, 1e-15).tail_bound <= 1e-15
        with pytest.raises(PrecisionError, match="below the certified bound"):
            zeta(2, 1e-16)
        for k in range(2, 61):
            bound = zeta(k, 1e-12).tail_bound
            assert zeta(k, bound).tail_bound == bound
            with pytest.raises(PrecisionError):
                zeta(k, math.nextafter(bound, 0.0))

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

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 91, 2**61 + 1])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError, match="prime"):
            euler_factor(p, (2, 3))

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

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    @pytest.mark.parametrize("p", [41, 97, 2**61 - 1, 4294967311])
    def test_numpy_integer_n_gives_the_int_result(self, kind, p):
        for n in (p, 3 * p):
            for order in ((2, 3), (3, 4)):
                got = alpha_n(order, kind(n))
                assert got == alpha_n(order, n) and type(got.numerator) is int, (n, order)


class TestProducts:
    def test_values_in_unit_interval(self):
        for km in ((2, 2), (2, 3), (3, 3), (3, 7), (4, 6)):
            est = alpha(km, 10**4)
            assert 0.0 < est.value < 1.0
        for k in (2, 3, 4):
            est = apostol_A(k, 10**4)
            assert 0.0 < est.value < 1.0

    def test_doubling_stays_within_bound(self):
        # Both limits below the 2**9 cap, so the two products differ.
        for km in ((2, 2), (2, 3)):
            small = alpha(km, 200)
            big = alpha(km, 400)
            assert abs(big.value - small.value) <= small.tail_bound
        a_small = apostol_A(2, 200)
        a_big = apostol_A(2, 400)
        assert abs(a_big.value - a_small.value) <= a_small.tail_bound

    def test_bound_nonincreasing_in_prime_limit(self, monkeypatch):
        # Every bound here is the 1e-10 floor, so the claim is checked on the
        # bounds below it, in a store of their own.  Past the 2**9 cap every
        # limit gives exactly the 2**9 estimate.
        limits = (2, 10, 100, PRODUCT_PRIME_CAP)
        for km in ((2, 3), (2, 2), (3, 5)):
            capped = alpha(km, PRODUCT_PRIME_CAP)
            assert all(alpha(km, p) == capped for p in (10**3, 10**4, 10**5)), km
        monkeypatch.setattr(constants, "_TAIL_FLOOR", 0.0)
        monkeypatch.setattr(constants, "_STORE", KeyedStore())
        for km in ((2, 3), (2, 2), (3, 5)):
            bounds = [alpha(km, p).tail_bound for p in limits]
            assert bounds == sorted(bounds, reverse=True) and bounds[-1] > 0, km
        bounds = [apostol_A(2, p).tail_bound for p in limits]
        assert bounds == sorted(bounds, reverse=True) and bounds[-1] > 0

    def test_huge_orders_at_small_limits_keep_the_floor(self):
        # Every factor past p = 100 rounds to 1.0; the bound still covers rounding.
        for est in alpha((2, 5000), 100), apostol_A(3000, 100):
            assert est.value == 1.0
            assert est.tail_bound >= constants._TAIL_FLOOR == 1e-10

    def test_nearly_single_factor_for_large_m(self):
        est = alpha((2, 12), 10**5)
        product = 1.0
        for p in prime_list_up_to(100):
            product *= float(euler_factor(p, (2, 12)))
        assert abs(est.value - product) < 1e-9

    def test_three_is_closer_to_one(self):
        assert 1 - apostol_A(3, 10**5).value < 1 - apostol_A(2, 10**5).value

    def test_closing_identity_within_combined_bounds(self):
        for limit in (2, 3, 10, 100, 999, 10**5):
            for k in (2, 3, 5):
                diff, combined = identity_gap(
                    alpha((k, k), limit), zeta(k, 1e-12), apostol_A(k, limit)
                )
                assert diff <= combined, (k, limit)

    def test_identity_gap_combines_the_three_bounds(self):
        a = ConstantEstimate(0.5, 0.125, 0)
        z = ConstantEstimate(2.0, 0.25, 0)
        ak = ConstantEstimate(0.375, 0.0625, 0)
        # |0.5 - 0.75|, and 0.125 + 2 * 0.0625 + 0.375 * 0.25 + 0.25 * 0.0625
        assert identity_gap(a, z, ak) == (0.25, 0.359375)

    @pytest.mark.parametrize("limit", [30_011, 10**5])
    def test_large_k_warns_nothing(self, limit):
        # p**130 and p**131 overflow float64 above p = 236, below the cap;
        # the factor there is exactly 1.  The products are cached under the
        # capped limit.
        capped = min(limit, PRODUCT_PRIME_CAP)
        for key in ("alpha", 130, 130, capped), ("apostol_A", 130, capped):
            constants._STORE.entries.pop(key, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, ak = alpha((130, 130), limit), apostol_A(130, limit)
        assert a.value == ak.value == 1.0

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: apostol_A(2.0, 1000), "k"),
            (lambda: apostol_A(2, 1e6), "prime_limit"),
            (lambda: alpha((2, 3), 1000.5), "prime_limit"),
            (lambda: zeta(2.5, 1e-12), "k"),
            (lambda: zeta(2.0, 1e-12), "k"),
        ],
        ids=["A-k-float", "A-limit-float", "alpha-limit-float", "zeta-k-fraction", "zeta-k-float"],
    )
    def test_non_integer_argument_is_value_error(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha((2, 3), 1)
        with pytest.raises(ValueError):
            apostol_A(1, 100)


_COLD_CAPPED = """
from moebius_km import primes
from moebius_km.constants import alpha, apostol_A
assert primes._PRIMES.state[0] == 0
a, b = apostol_A(2, 10**6), alpha((2, 3), 10**6)
assert primes._PRIMES.state[0] == 1 << 9, primes._PRIMES.state[0]
assert a.prime_limit == b.prime_limit == 1 << 9
# A limit past the prime table's own cap 2**26 grows it no further.
c, d = apostol_A(3, 10**9), alpha((2, 2), 10**9)
assert primes._PRIMES.state[0] == 1 << 9, primes._PRIMES.state[0]
assert c.prime_limit == d.prime_limit == 1 << 9
"""


class TestPrimeCap:
    @pytest.mark.parametrize("limit", [PRODUCT_PRIME_CAP, 10**6, 10**9])
    def test_limits_past_the_cap_give_the_capped_estimate(self, limit):
        assert PRODUCT_PRIME_CAP == 512
        for km in ((2, 3), (3, 4), (2, 2)):
            est = alpha(km, limit)
            assert est == alpha(km, PRODUCT_PRIME_CAP)
            assert est.prime_limit == 512
        for k in (2, 3):
            est = apostol_A(k, limit)
            assert est == apostol_A(k, PRODUCT_PRIME_CAP)
            assert est.prime_limit == 512

    def test_limits_below_the_cap_are_kept(self):
        for limit in (2, 99, 100, 321, PRODUCT_PRIME_CAP - 1):
            assert alpha((2, 3), limit).prime_limit == limit
            assert apostol_A(2, limit).prime_limit == limit

    def test_caches_hold_no_limit_past_the_cap(self):
        alpha((2, 3), 10**9)
        apostol_A(2, 10**7)
        limits = [key[-1] for key in constants._STORE.entries]
        assert limits and max(limits) <= PRODUCT_PRIME_CAP

    def test_cold_constants_sieve_only_the_first_table(self):
        # A fresh interpreter: this test process may have grown the table.
        src = os.path.dirname(os.path.dirname(constants.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_CAPPED], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def _log_coefficients(poly: dict[int, int], n_max: int) -> list[Fraction]:
    """Exact l_n with log(1 + sum_e poly[e] x**e) = sum_n l_n x**n, n <= n_max.

    Newton's identities for the logarithmic derivative:
    n l_n = n a_n - sum_{0<j<n} j l_j a_{n-j}.
    """
    a = [0] * (n_max + 1)
    for e, c in poly.items():
        if e <= n_max:
            a[e] += c
    logs = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = Fraction(n * a[n])
        for j in range(1, n):
            acc -= j * logs[j] * a[n - j]
        logs[n] = acc / n
    return logs


def _reference(k: int, m: int | None, tails) -> mpmath.mpf:
    """A_k (m None) or alpha_{k,m} at the working precision.

    As functions of x = 1/p the factors are 1 - 2x^k + x^(k+1) and
    (1 - x^k - x^m + x^(m+1)) / (1 - x^k).  The primes p < 100 are
    multiplied out exactly; for the rest the log of the factor is its power
    series sum_n l_n x^n, summed against the tails sum_{p>100} p^-n of the
    prime zeta function (x <= 1/101, so n <= 40 leaves less than 1e-60).
    """
    if m is None:
        poly, denom_k = {k: -2, k + 1: 1}, None
    else:
        poly = {k: -1}
        poly[m] = poly.get(m, 0) - 1
        poly[m + 1] = poly.get(m + 1, 0) + 1
        denom_k = k
    n_max = len(tails) - 1
    logs = _log_coefficients(poly, n_max)
    if denom_k:
        for j in range(1, n_max // denom_k + 1):
            logs[j * denom_k] += Fraction(1, j)  # -log(1 - x^k) = sum_j x^(jk)/j
    head = Fraction(1)
    for p in prime_list_up_to(100):
        factor = 1 + sum(Fraction(c, p**e) for e, c in poly.items())
        if denom_k:
            factor /= 1 - Fraction(1, p**denom_k)
        head *= factor
    series = mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * tails[n]
        for n, c in enumerate(logs)
        if n >= 2 and c
    )
    return mpmath.exp(mpmath.log(mpmath.mpf(head.numerator) / head.denominator) + series)


# k in {2, 3, 4, 7} and A_k (m None) or alpha_{k,m} for m = k, k + 1, 2k + 3, 40.
_REF_CASES = [(k, m) for k in (2, 3, 4, 7) for m in (None, k, k + 1, 2 * k + 3, 40)]


@pytest.fixture(scope="module")
def references():
    """The constants of _REF_CASES to about 50 digits."""
    with mpmath.workdps(50):
        small = prime_list_up_to(100)
        tails = [mpmath.nan] * 2 + [
            mpmath.primezeta(n) - mpmath.fsum(mpmath.mpf(p) ** -n for p in small)
            for n in range(2, 41)
        ]
        return {case: _reference(*case, tails) for case in _REF_CASES}


# Float steps from each reference at prime limit 10**6, pinned when the
# products multiplied out p <= 2**16; no estimate may come further.
_STEPS_AT_1E6 = {
    (2, None): 1, (2, 2): 1, (2, 3): 0, (2, 7): 0, (2, 40): 0,
    (3, None): 0, (3, 3): 0, (3, 4): -1, (3, 9): 0, (3, 40): 0,
    (4, None): -1, (4, 4): 0, (4, 5): 0, (4, 11): 0, (4, 40): 0,
    (7, None): 0, (7, 7): 0, (7, 8): 0, (7, 17): 0, (7, 40): 0,
}


def _estimate(case, limit: int) -> ConstantEstimate:
    k, m = case
    return apostol_A(k, limit) if m is None else alpha((k, m), limit)


class TestReferenceValues:
    def test_references_satisfy_the_closing_identity(self, references):
        # alpha_{k,k} = zeta(k) A_k exactly; the two sides come from different series.
        with mpmath.workdps(50):
            for k in (2, 3, 4, 7):
                gap = references[k, k] - mpmath.zeta(k) * references[k, None]
                assert abs(gap) < mpmath.mpf(10) ** -45, k

    @pytest.mark.parametrize(
        "limit", [2, 3, 10, 100, 999, 10**3, 10**4, PRODUCT_PRIME_CAP, 10**6]
    )
    def test_within_tail_bound(self, references, limit):
        with mpmath.workdps(50):
            for case, ref in references.items():
                est = _estimate(case, limit)
                assert abs(mpmath.mpf(est.value) - ref) <= est.tail_bound, (case, limit)

    @pytest.mark.parametrize("limit", [2, 3, 10, 100])
    def test_small_limits_within_two_ulps(self, references, limit):
        # The whole tail series: even with only p = 2 multiplied out, each
        # value is at most 2 float steps from its reference.
        for case, ref in references.items():
            nearest = float(ref)
            steps = (_estimate(case, limit).value - nearest) / math.ulp(nearest)
            assert abs(steps) <= 2, (case, limit, steps)

    @pytest.mark.parametrize(
        "limit", [2, 3, 10, 100, 999, 10**3, 10**4, PRODUCT_PRIME_CAP, 10**6]
    )
    def test_bounds_within_the_first_order_bounds(self, limit):
        # The largest tail_bound of the 20 cases at each limit, rounded to two
        # digits, when the tail kept only the first order of log(1 - x_p);
        # from 999 up the floor.
        top = {2: 6.2e-3, 3: 9.1e-4, 10: 5.5e-5, 100: 3.1e-8}.get(limit, 1e-10)
        for case in _REF_CASES:
            assert _estimate(case, limit).tail_bound <= top, (case, limit)

    def test_default_limit_within_five_ulps(self, references):
        # 5 ulps: the worst distance once seen at 10**6, alpha_{3,4}'s, when
        # every prime-zeta value came from one 55-entry table.  Each case is
        # pinned to its present distance, at most 1, and may come no further.
        for case, ref in references.items():
            nearest = float(ref)
            steps = (_estimate(case, 10**6).value - nearest) / math.ulp(nearest)
            assert abs(steps) <= abs(_STEPS_AT_1E6[case]) <= 5, (case, steps)


class TestPowerSumTable:
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
        # must see the one cached log-tail table and the same estimate.
        limit = 321
        for key in ("log_tails", limit), ("alpha", 2, 3, limit):
            constants._STORE.entries.pop(key, None)
        tables = race([lambda: constants._log_tails(limit)] * 4)
        results = race([lambda: alpha((2, 3), limit)] * 4)
        assert all(t is constants._STORE.entries[("log_tails", limit)] for t in tables)
        assert results[0] is not None
        assert all(r == results[0] for r in results)

    def test_nested_build_completes(self):
        # A build that fetches another entry: with a plain lock this blocks
        # forever, so it runs in a thread that the test only waits on.
        inner, outer = ("nested", "inner"), ("nested", "outer")
        got = []

        def work():
            store = constants._STORE
            got.append(store.get(outer, lambda: ("built", store.get(inner, str, 7))))

        try:
            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), "a nested store build blocked"
            assert got == [("built", "7")]
            assert constants._STORE.entries[inner] == "7"
        finally:
            constants._STORE.entries.pop(inner, None)
            constants._STORE.entries.pop(outer, None)

    def test_log_product_cached_bit_identical(self, monkeypatch):
        # Values and bounds from a cold store, pinned bit for bit; each
        # estimate is one cache entry, built once.
        pinned = {
            ("alpha", 2, 3, 345): ("0x1.c355c8312e96cp-1", "0x1.b7cdfd9d7bdbbp-34"),
            ("apostol_A", 3, 345): ("0x1.7d48ba71f8516p-1", "0x1.b7cdfd9d7bdbbp-34"),
            ("alpha", 3, 4, 512): ("0x1.e8a0fd5d4e2fcp-1", "0x1.b7cdfd9d7bdbbp-34"),
            ("apostol_A", 2, 512): ("0x1.b68709d5a5287p-2", "0x1.b7cdfd9d7bdbbp-34"),
            # The only pin here that moves if A_k multiplies by p**-(k+1) instead.
            ("apostol_A", 4, 512): ("0x1.c4adee484634fp-1", "0x1.b7cdfd9d7bdbbp-34"),
        }

        def estimate(name, *args):
            return alpha(args[:2], args[2]) if name == "alpha" else apostol_A(*args)

        monkeypatch.setattr(constants, "_STORE", KeyedStore())
        got = {key: estimate(*key) for key in pinned}
        assert {key: (e.value.hex(), e.tail_bound.hex()) for key, e in got.items()} == pinned
        assert all(constants._STORE.entries[key] is e for key, e in got.items())

        def forbidden(limit):
            raise AssertionError("a cached product rebuilt its prime table")

        monkeypatch.setattr(constants, "primes_up_to", forbidden)
        assert all(estimate(*key) is e for key, e in got.items())

    @pytest.mark.parametrize("limit,top", [(10**3, 8), (10**4, 6), (PRODUCT_PRIME_CAP, 8)])
    def test_log_tails_against_mpmath(self, limit, top):
        # L(t) = sum_{p > P} -log(1 - p**-t) = log zeta(t) - sum_{p <= P} ...,
        # the finite sum taken prime by prime at 40 digits.
        values, _ = constants._log_tail_table(limit)
        assert len(values) == top + 1
        primes = prime_list_up_to(limit)
        with mpmath.workdps(40):
            for t in range(2, top + 4):
                head = mpmath.fsum(-mpmath.log1p(-mpmath.mpf(p) ** -t) for p in primes)
                exact = mpmath.log(mpmath.zeta(t)) - head
                value, bound = constants._log_tail(t, limit)
                assert abs(value - exact) <= bound, (limit, t)
                if t <= top:
                    assert bound <= 1e-14, (limit, t)
                    assert abs(value - exact) <= 1e-16, (limit, t)
                else:
                    assert value == 0.0 and bound <= constants._NEGLIGIBLE_TAIL

    def test_power_tail_weights_are_mu(self):
        from moebius_km.constants import _MU_WEIGHTS

        # j * s stays in the longest log-tail table, the lowest limit's, and s >= 2.
        longest = len(constants._log_tail_table(2)[0]) - 1
        assert len(_MU_WEIGHTS) == longest // 2 + 1
        assert _MU_WEIGHTS == tuple(mu(j) if j else 0 for j in range(len(_MU_WEIGHTS)))

    def test_cold_products_evaluate_zeta_at_most_four_times(self):
        # A fresh interpreter, so no log-tail table is cached yet.  One zeta
        # sum per log tail at the cap, t = 2..8 (four, t = 2..5, when the
        # products multiplied out p <= 2**16).
        src = os.path.dirname(os.path.dirname(constants.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_ZETA_COUNT], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "3", "4", "5", "6", "7", "8"]


_COLD_ZETA_COUNT = """
from moebius_km import constants
calls = []
fixed = constants._zeta_fixed
constants._zeta_fixed = lambda k: calls.append(k) or fixed(k)
constants.apostol_A(2, 10**6)
constants.alpha((2, 3), 10**6)
print(*calls)
"""


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
