"""Empirical error-term measurement across checkpoint grids.

A scan computes S(x; n) at every checkpoint by one engine, the convolution
route: one walk shared by all checkpoints, over the whole domain that the
sieve accepts.  It assembles the main term M(x) from constants computed
once per scan, and reports the raw error E = S - M together with two
normalizations: E / x^(1/k) (unconditional scale) and E / x^(2/(2k+1))
(the conditional comparison column).  Error exponents are then estimated
by ordinary least squares on (log x, log|E|); they are measured
quantities, never asserted equalities, because the underlying bounds
carry unknown constants and slowly varying factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import DEFAULT_TOL, PRODUCT_PRIME_CAP, alpha, alpha_n, zeta
from .functions import OrderPair, as_order, psi_k
from .primes import positive_int
# stream_sum is not called here: the benchmark's traced run
# (perfbench/worker.py) wraps asymptotics.stream_sum by name.
from .sieve import SieveConfig, stream_sum
from .summatory import _factored, convolution_sums

_FIT_MIN_ABS_E = 1e-9


@dataclass(frozen=True)
class ScanRow:
    """One checkpoint of an asymptotic scan."""

    x: int
    S: int
    M: float
    E: float
    ratio_uncond: float
    ratio_rh: float


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log|E| against log x."""

    slope: float
    intercept: float
    points_used: int
    residual_rms: float


def geometric_checkpoints(lo: int, hi: int, points_per_decade: int = 4) -> list[int]:
    """Geometric integer grid from lo to hi, inclusive endpoints.

    Point i of ``steps`` is lo (hi / lo)^(i / steps), rounded.  The steps
    grow with i, and below the first i whose step reaches 1/2 the rounded
    points are every integer: that prefix is built as a range, and only
    the points from i on as floats (only hi when no step reaches 1/2).
    """
    lo, hi = positive_int(lo, "lo"), positive_int(hi, "hi")
    points_per_decade = positive_int(points_per_decade, "points_per_decade")
    if lo > hi:
        raise ValueError("need 1 <= lo <= hi")
    steps = max(1, round(points_per_decade * math.log10(hi / lo)))
    rate = math.log(hi / lo) / steps
    # Step i is lo e^(i rate) expm1(rate), below 1/2 for every i < dense;
    # every step is 0 when hi / lo rounds to 1.
    dense = steps
    if rate:
        dense = min(steps, max(0, math.ceil(math.log(0.5 / (lo * math.expm1(rate))) / rate)))
    grid = [round(lo * (hi / lo) ** (i / steps)) for i in range(dense, steps + 1)]
    grid[-1] = hi
    if not dense:
        grid[0] = lo
    out = list(range(lo, grid[0]))
    for g in grid:
        if not out or g > out[-1]:
            out.append(int(g))
    return out


def scan(
    order: OrderPair | tuple[int, int],
    coprime_to: int = 1,
    checkpoints: list[int] | None = None,
    prime_limit: int = PRODUCT_PRIME_CAP,
    tol: float = DEFAULT_TOL,
    config: SieveConfig | None = None,
) -> list[ScanRow]:
    """One ScanRow per checkpoint, every S from :func:`convolution_sums`.

    The engine validates the checkpoints: the largest may be any x that
    the sieve accepts.  ``config`` is accepted and ignored, since no scan
    streams; the benchmark's reference generator (``perfbench/gen_refs.py``)
    still passes it.  The constants entering M are estimated once and
    shared by every row, so differences of E across x are not polluted by
    re-estimated constants.  ``coprime_to`` is factored once for all of them.
    """
    o = as_order(order)
    if not checkpoints:
        raise ValueError("checkpoints must be a non-empty ascending list")
    fn = _factored(coprime_to, "coprime_to")
    # M(x) = x n^2 alpha_{k,m} / (zeta(k) psi_k(n) alpha_{k,m}(n)); for m = k
    # it is the conjectured density, which the CLI flags.
    nn = fn.value * fn.value
    a = alpha(o, prime_limit).value
    den = zeta(o.k, tol).value * float(psi_k(fn, o.k)) * float(alpha_n(o, fn))
    sums = convolution_sums(checkpoints, o, fn)
    e_uncond = 1.0 / o.k
    e_rh = 2.0 / (2 * o.k + 1)
    rows = []
    for cp, s in sums:
        m_val = cp * nn * a / den
        err = float(s) - m_val
        xf = float(cp)
        rows.append(ScanRow(cp, s, m_val, err, err / xf**e_uncond, err / xf**e_rh))
    return rows


def fit_exponent(rows: list[ScanRow]) -> FitResult:
    """OLS slope of log|E| vs log x over rows with |E| >= 1e-9."""
    pts = [(math.log(r.x), math.log(abs(r.E))) for r in rows if abs(r.E) >= _FIT_MIN_ABS_E]
    n = len(pts)
    if n < 3:
        raise ValueError(f"need at least 3 usable rows, got {n}")
    mean_x = sum(u for u, _ in pts) / n
    mean_y = sum(v for _, v in pts) / n
    sxx = sum((u - mean_x) ** 2 for u, _ in pts)
    sxy = sum((u - mean_x) * (v - mean_y) for u, v in pts)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    rss = sum((v - (intercept + slope * u)) ** 2 for u, v in pts)
    return FitResult(slope, intercept, n, math.sqrt(rss / n))

