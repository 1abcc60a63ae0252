import math
import time
import tracemalloc

import pytest

from moebius_km import arith, asymptotics
from moebius_km.asymptotics import (
    ScanRow,
    fit_exponent,
    geometric_checkpoints,
    scan,
)
from moebius_km.sieve import SieveConfig, _max_range, stream_sum
from moebius_km.summatory import SumQuery, sum_convolution, sum_direct
from moebius_km.functions import OrderPair

# (order, n, geometric grid): a sparse and a dense grid for each order of
# the README's engine timing table.  Each runs on both engines.
ENGINE_GRIDS = [
    ((2, 3), 30, (10**3, 10**7, 20)),
    ((2, 3), 30, (9 * 10**6, 10**7, 4000)),
    ((2, 2), 1, (10**3, 10**6, 4)),
    ((2, 2), 1, (10**3, 10**6, 40)),
    ((3, 4), 30, (10**3, 10**9, 4)),
    ((3, 4), 30, (10**6, 2 * 10**6, 1000)),
    ((2, 3), 1, (10**3, 10**7, 20)),
    ((2, 3), 1, (2 * 10**6, 4 * 10**6, 1000)),
]


def _spy_engines(monkeypatch, stream=None, conv=None):
    """Record (engine, args) for each scan engine call; run the real one unless stubbed."""
    used = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            used.append((name, args))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(asymptotics, "stream_sum", spy("stream", stream or asymptotics.stream_sum))
    monkeypatch.setattr(
        asymptotics, "convolution_sums", spy("conv", conv or asymptotics.convolution_sums)
    )
    return used


def _synthetic_rows(exponent=None, values=None, xs=None):
    xs = xs or geometric_checkpoints(10**4, 10**8, 4)
    rows = []
    for x in xs:
        e = values(x) if values else float(x) ** exponent
        rows.append(ScanRow(x, 0, 0.0, e, 0.0, 0.0))
    return rows


class TestGrid:
    def test_three_decades_four_per_decade(self):
        grid = geometric_checkpoints(10**3, 10**6, 4)
        assert len(grid) == 13
        assert grid[0] == 10**3 and grid[-1] == 10**6
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_degenerate(self):
        assert geometric_checkpoints(12, 12) == [12]

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_checkpoints(10, 5)
        with pytest.raises(ValueError):
            geometric_checkpoints(10, 20, 0)

    @pytest.mark.parametrize(
        "args,name",
        [((1000.5, 10**5, 2), "lo"), ((1.0, 10.0, 10**7), "lo"), ((1, 10.0, 4), "hi"),
         ((1, 10, 2.5), "points_per_decade")],
        ids=["lo-fraction", "lo-float", "hi-float", "ppd-fraction"],
    )
    def test_non_integer_argument_is_value_error(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            geometric_checkpoints(*args)

    def test_dense_prefix_is_built_as_a_range(self):
        # Steps reach 1/2 near 43,400, so the ~930,000 float points below it
        # are not built: 14 MiB traced, against 35 MiB for all 1.2e6 points.
        tracemalloc.start()
        try:
            grid = geometric_checkpoints(1, 10**6, 2 * 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 299_096 and grid[:43_000] == list(range(1, 43_001))
        assert grid[-1] == 10**6 and all(a < b for a, b in zip(grid, grid[1:]))
        assert peak < 20 * 2**20, peak

    def test_grid_denser_than_the_integers_is_built_at_once(self):
        # The full list would hold 10**12 + 1 floats.
        start = time.perf_counter()
        assert geometric_checkpoints(1, 10, 10**12) == list(range(1, 11))
        assert time.perf_counter() - start < 0.5

    @staticmethod
    def _full_list(lo, hi, points_per_decade):
        # The reference: every point of the grid rounded, then the repeats dropped.
        steps = max(1, round(points_per_decade * math.log10(hi / lo)))
        grid = [round(lo * (hi / lo) ** (i / steps)) for i in range(steps + 1)]
        grid[0], grid[-1] = lo, hi
        return sorted(set(grid))

    def test_sweep_equals_the_full_list(self):
        dense = 0
        for lo in (1, 2, 7, 10, 99, 1000, 4096):
            for hi in (lo + 1, lo + 5, 2 * lo + 3, 10 * lo, 100 * lo + 17):
                for ppd in (1, 4, 20, 333, 2000, 10**4):
                    want = self._full_list(lo, hi, ppd)
                    assert geometric_checkpoints(lo, hi, ppd) == want, (lo, hi, ppd)
                    dense += want == list(range(lo, hi + 1))
        assert 60 <= dense <= 150  # of 210: grids of every integer and sparser ones


class TestScan:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: scan((2, 3), 0, [100]), "coprime_to must be >= 1"),
            (lambda: scan((2, 3), -6, [100]), "coprime_to must be >= 1"),
            (lambda: scan((2, 2), 0, [100]), "coprime_to must be >= 1"),
            (lambda: scan((2, 3), 2.5, [100]), "coprime_to must be an integer"),
            (lambda: scan((2, 3), 1, [100], prime_limit=1000.5), "prime_limit must be an integer"),
        ],
        ids=["zero", "negative", "conjecture-zero", "float", "prime-limit-float"],
    )
    def test_bad_argument_is_named_value_error(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            call()

    def test_coprime_filter_is_factored_once(self, monkeypatch):
        n = 2147483647 * 4294967291
        seen = []
        factorize = arith.factorize
        monkeypatch.setattr(arith, "factorize", lambda m: seen.append(m) or factorize(m))
        for order in ((2, 3), (2, 2)):
            seen.clear()
            rows = scan(order, n, [10**3, 10**6])
            assert seen.count(n) == 1
            assert [r.S for r in rows] == [s for _, s in stream_sum(10**6, order, n, [10**3, 10**6])]

    def test_single_checkpoint_matches_summatory_example(self):
        rows = scan((2, 3), checkpoints=[12], prime_limit=10**4)
        assert len(rows) == 1
        assert rows[0].S == 7 and rows[0].x == 12

    def test_x_equals_one(self):
        rows = scan((2, 3), checkpoints=[1], prime_limit=10**4)
        r = rows[0]
        assert r.S == 1
        assert 0 < r.M < 1
        assert r.E == pytest.approx(1 - r.M)
        assert math.isfinite(r.ratio_uncond) and math.isfinite(r.ratio_rh)

    def test_s_column_equals_direct_sums(self):
        cps = geometric_checkpoints(10**3, 10**4, 4)
        rows = scan((2, 3), coprime_to=6, checkpoints=cps, prime_limit=10**4)
        for r in rows:
            assert r.S == sum_direct(SumQuery(r.x, OrderPair(2, 3), 6))
            assert r.E == float(r.S) - r.M

    @pytest.mark.parametrize("n", [30, 42, 66, 78])
    def test_s_column_equals_convolution_on_dense_grid(self, n):
        # The benchmarked scan grid shape against both engines at every
        # checkpoint: the scan itself takes the shared convolution walk here.
        cps = geometric_checkpoints(10**3, 10**7, 20)
        assert len(cps) == 81
        rows = scan((2, 3), coprime_to=n, checkpoints=cps, prime_limit=10**4)
        assert [(r.x, r.S) for r in rows] == stream_sum(cps[-1], (2, 3), n, cps)
        for r in rows:
            assert r.S == sum_convolution(SumQuery(r.x, OrderPair(2, 3), n)), (n, r.x)

    @pytest.mark.parametrize(
        "order,n,grid", ENGINE_GRIDS,
        ids=[f"{o[0]}{o[1]}-n{n}-{g[2]}ppd" for o, n, g in ENGINE_GRIDS],
    )
    def test_rows_equal_on_both_engines(self, monkeypatch, order, n, grid):
        # The scan's S column against the stream at the same checkpoints,
        # and every row against per-x sum_convolution.
        used = _spy_engines(monkeypatch)
        cps = geometric_checkpoints(*grid)
        rows = scan(order, coprime_to=n, checkpoints=cps, prime_limit=10**4)
        assert [name for name, _ in used] == ["conv"]
        assert [(r.x, r.S) for r in rows] == stream_sum(cps[-1], order, n, cps)
        for r in rows:
            assert r.S == sum_convolution(SumQuery(r.x, OrderPair(*order), n)), r.x

    def test_scan_calls_only_convolution_sums(self, monkeypatch):
        # Grids ending at (2^25 + 1)^2 - 1, one past it and at the top of
        # the k = 2 domain: the convolution, stubbed, takes each, and a config
        # changes nothing.  Past the top the real engine rejects x.
        def forbidden(*args, **kwargs):
            raise AssertionError("scan reached the stream")

        used = _spy_engines(
            monkeypatch, stream=forbidden, conv=lambda cps, o, n: [(x, 0) for x in cps]
        )
        edge, top = (2**25 + 1) ** 2 - 1, _max_range(2)
        grids = ([10**3, edge], [10**3, edge + 1], [top])
        config = SieveConfig(segment_size=1 << 16)
        for cps in grids:
            rows = scan((2, 3), coprime_to=30, checkpoints=cps, prime_limit=10**4, config=config)
            assert [(r.x, r.S) for r in rows] == [(x, 0) for x in cps]
        assert used == [("conv", (cps, OrderPair(2, 3), arith.factorize(30))) for cps in grids]
        monkeypatch.undo()
        error = f"x={top + 1} exceeds the supported range {top} for k=2"
        with pytest.raises(ValueError, match=error):
            scan((2, 3), checkpoints=[10**3, top + 1], prime_limit=10**4)

    def test_ratio_consistency_identity(self):
        rows = scan((2, 3), checkpoints=[100, 1000, 10**4], prime_limit=10**4)
        k = 2
        shift = 1 / k - 2 / (2 * k + 1)
        for r in rows:
            if r.E:
                assert r.ratio_rh == pytest.approx(
                    r.ratio_uncond * float(r.x) ** shift, rel=1e-12
                )

    def test_conjecture_scan_matches_m_equals_k(self):
        rows = scan((2, 2), checkpoints=[12, 100], prime_limit=10**4)
        assert rows[0].S == 5  # order-2 values summed to 12

    def test_density_approaches_constant(self):
        # |S(x)/x - alpha/zeta| shrinking over decades, one inversion allowed
        cps = [10**4, 10**5, 10**6, 10**7]
        rows = scan((2, 3), checkpoints=cps, prime_limit=10**5)
        devs = [abs(r.S / r.x - (r.M / r.x)) for r in rows]
        inversions = sum(1 for a, b in zip(devs, devs[1:]) if b > a)
        assert inversions <= 1
        assert devs[2] <= 0.01  # at x = 1e6

    def test_empty_checkpoints_rejected(self):
        with pytest.raises(ValueError):
            scan((2, 3), checkpoints=[])

    def test_concurrent_scans_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        jobs = [((2, 3), 1), ((2, 2), 6), ((3, 5), 30)]
        cps = [10**3, 10**4]

        def run_one(job):
            order, n = job
            return scan(order, coprime_to=n, checkpoints=cps, prime_limit=10**4)

        serial = [run_one(j) for j in jobs]
        with ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = list(pool.map(run_one, jobs))
        assert concurrent == serial


class TestFit:
    def test_exact_half_power(self):
        fit = fit_exponent(_synthetic_rows(exponent=0.5))
        assert abs(fit.slope - 0.5) <= 1e-12
        assert fit.residual_rms <= 1e-12
        assert fit.points_used == 17

    def test_constant_error(self):
        fit = fit_exponent(_synthetic_rows(values=lambda x: 3.25))
        assert abs(fit.slope) <= 1e-12

    def test_log_drift_lands_between_exponents(self):
        fit = fit_exponent(_synthetic_rows(values=lambda x: x**0.4 * math.log(x)))
        assert 0.4 < fit.slope < 0.5

    def test_negative_errors_use_magnitude(self):
        fit = fit_exponent(_synthetic_rows(values=lambda x: -(x**0.5)))
        assert abs(fit.slope - 0.5) <= 1e-12

    def test_tiny_rows_excluded(self):
        rows = _synthetic_rows(exponent=0.5, xs=[10, 100, 1000, 10**4])
        rows.append(ScanRow(10**5, 0, 0.0, 1e-12, 0.0, 0.0))
        fit = fit_exponent(rows)
        assert fit.points_used == 4

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_exponent(_synthetic_rows(exponent=0.5, xs=[10, 100]))
