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

from .constants import DEFAULT_PRIME_LIMIT, DEFAULT_TOL, alpha, alpha_n, zeta
from .functions import OrderPair, as_order, psi_k
# stream_sum is not called here: the benchmark's traced run
# (perfbench/worker.py) wraps asymptotics.stream_sum by name.
from .sieve import SieveConfig, stream_sum
from .summatory import _main_value, convolution_sums

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


@dataclass(frozen=True)
class ShapeParams:
    """User-supplied constants for the slowly varying reference envelopes."""

    A: float = 1.0
    B: float = 1.0

    def __post_init__(self) -> None:
        if self.A <= 0 or self.B <= 0:
            raise ValueError("shape constants must be strictly positive")


def geometric_checkpoints(lo: int, hi: int, points_per_decade: int = 4) -> list[int]:
    """Geometric integer grid from lo to hi, inclusive endpoints."""
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    if lo == hi:
        return [lo]
    steps = max(1, round(points_per_decade * math.log10(hi / lo)))
    grid = [round(lo * (hi / lo) ** (i / steps)) for i in range(steps + 1)]
    grid[0], grid[-1] = lo, hi
    out: list[int] = []
    for g in grid:
        if not out or g > out[-1]:
            out.append(int(g))
    return out


def scan(
    order: OrderPair | tuple[int, int],
    coprime_to: int = 1,
    checkpoints: list[int] | None = None,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    tol: float = DEFAULT_TOL,
    config: SieveConfig | None = None,
) -> list[ScanRow]:
    """One ScanRow per checkpoint, every S from :func:`convolution_sums`.

    The engine validates the checkpoints: the largest may be any x that
    the sieve accepts.  ``config`` is accepted and ignored, since no scan
    streams; the benchmark's reference generator (``perfbench/gen_refs.py``)
    still passes it.  The constants entering M are estimated once and
    shared by every row, so differences of E across x are not polluted by
    re-estimated constants.
    """
    o = as_order(order)
    if not checkpoints:
        raise ValueError("checkpoints must be a non-empty ascending list")
    n = coprime_to
    a = alpha(o, prime_limit)
    z = zeta(o.k, tol)
    psi_f = float(psi_k(n, o.k))
    an_f = float(alpha_n(o, n))
    sums = convolution_sums(checkpoints, o, n)
    e_uncond = 1.0 / o.k
    e_rh = 2.0 / (2 * o.k + 1)
    rows = []
    for cp, s in sums:
        m_val = _main_value(cp, n, a.value, z.value, psi_f, an_f)
        err = float(s) - m_val
        xf = float(cp)
        rows.append(ScanRow(cp, s, m_val, err, err / xf**e_uncond, err / xf**e_rh))
    return rows


def conjecture_scan(
    k: int,
    coprime_to: int = 1,
    checkpoints: list[int] | None = None,
    prime_limit: int = DEFAULT_PRIME_LIMIT,
    tol: float = DEFAULT_TOL,
) -> list[ScanRow]:
    """Scan with m = k: the density is the conjectured one for mu_k."""
    return scan(OrderPair(k, k), coprime_to, checkpoints, prime_limit, tol)


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


def reference_shape(x, k: int, params: ShapeParams, which: str) -> float:
    """Slowly varying envelope shapes with user-supplied constants.

    which selects among:
      delta    exp(-A (log x)^(3/5) (log log x)^(-1/5))
      delta_k  exp(-A k^(-8/5) (log x)^(3/5) (log log x)^(-1/5))
      omega    exp(A log x / log log x)
      omega_k  exp(B log x / log log x)
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    log_x = math.log(x)
    loglog_x = math.log(log_x)
    if which == "delta":
        return math.exp(-params.A * log_x ** 0.6 * loglog_x ** -0.2)
    if which == "delta_k":
        return math.exp(-params.A * k ** -1.6 * log_x ** 0.6 * loglog_x ** -0.2)
    if which == "omega":
        return math.exp(params.A * log_x / loglog_x)
    if which == "omega_k":
        return math.exp(params.B * log_x / loglog_x)
    raise ValueError(f"unknown shape {which!r}")
