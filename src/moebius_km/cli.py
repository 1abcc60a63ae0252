"""Command-line frontend.

Subcommands: eval, sum, constants, scan, verify, bench.  Exit codes are a
stable contract: 0 success, 1 usage or I/O failure, 2 verification failure,
3 precision failure.

Numeric output is round-trip safe: integers verbatim, floats with 17
significant digits, so parsing a report and re-serializing it reproduces
the bytes.
"""

from __future__ import annotations

import argparse
import sys
import time
from decimal import Decimal, InvalidOperation

from .asymptotics import FitResult, ScanRow, fit_exponent, geometric_checkpoints, scan
from .constants import (
    PrecisionError, alpha, apostol_A, default_prime_limit, identity_gap, zeta,
)
from .functions import OrderPair, mu_km
from .sieve import SieveConfig, default_worker_count, segment_memory_estimate, stream_sum
from .summatory import SumQuery, sum_convolution, sum_direct

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PRECISION = 3

CSV_HEADER = "x,S,M,E,ratio_uncond,ratio_rh,conjecture_mode"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems must map to exit code 1, not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


def _int_flag(text: str) -> int:
    """Exact integer flags; scientific notation like 1e8 is accepted."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(d)


def fmt_float(v: float) -> str:
    return format(v, ".17g")


def rows_to_lines(rows: list[ScanRow], conjecture_mode: bool, fmt: str) -> list[str]:
    flag = "true" if conjecture_mode else "false"
    lines = []
    if fmt == "csv":
        lines.append(CSV_HEADER)
        for r in rows:
            lines.append(
                f"{r.x},{r.S},{fmt_float(r.M)},{fmt_float(r.E)},"
                f"{fmt_float(r.ratio_uncond)},{fmt_float(r.ratio_rh)},{flag}"
            )
    else:
        for r in rows:
            lines.append(
                f'{{"x": {r.x}, "S": {r.S}, "M": {fmt_float(r.M)}, "E": {fmt_float(r.E)}, '
                f'"ratio_uncond": {fmt_float(r.ratio_uncond)}, '
                f'"ratio_rh": {fmt_float(r.ratio_rh)}, "conjecture_mode": {flag}}}'
            )
    return lines


def fit_to_line(fit: FitResult, fmt: str) -> str:
    if fmt == "csv":
        return (
            f"# fit,slope={fmt_float(fit.slope)},intercept={fmt_float(fit.intercept)},"
            f"points_used={fit.points_used},residual_rms={fmt_float(fit.residual_rms)}"
        )
    return (
        f'{{"slope": {fmt_float(fit.slope)}, "intercept": {fmt_float(fit.intercept)}, '
        f'"points_used": {fit.points_used}, "residual_rms": {fmt_float(fit.residual_rms)}}}'
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="moebius", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate mu_{k,m}(n) at one point")
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, default=None, help="defaults to k")
    p.add_argument("--n", type=_int_flag, required=True)

    p = sub.add_parser("sum", help="summatory value over r <= x, gcd(r, n) = 1")
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, default=None)
    p.add_argument("--x", type=_int_flag, required=True)
    p.add_argument("--coprime-to", type=_int_flag, default=1)
    p.add_argument("--method", choices=("direct", "conv", "both"), default="direct")

    p = sub.add_parser("constants", help="zeta(k), A_k and alpha_{k,m} with bounds")
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, default=None)
    p.add_argument("--prime-limit", type=_int_flag, default=None)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("scan", help="error-term scan over a checkpoint grid")
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, default=None)
    p.add_argument("--coprime-to", type=_int_flag, default=1)
    p.add_argument("--from", dest="from_x", type=_int_flag, required=True)
    p.add_argument("--to", dest="to_x", type=_int_flag, required=True)
    p.add_argument("--points-per-decade", type=_int_flag, default=4)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--prime-limit", type=_int_flag, default=None)
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("verify", help="run cross-check suites")
    p.add_argument(
        "--suite",
        choices=("lemma21", "lemma24", "apostol", "qk", "sums", "constants", "all"),
        default="all",
    )
    p.add_argument("--limit", type=_int_flag, default=None)

    p = sub.add_parser("bench", help="streaming throughput report")
    p.add_argument("--x", type=_int_flag, required=True)
    p.add_argument("--segment", type=_int_flag, default=1 << 20)
    p.add_argument("--threads", type=_int_flag, default=None)

    return parser


def _order_from(args) -> OrderPair:
    m = args.m if args.m is not None else args.k
    return OrderPair(args.k, m)


def _cmd_eval(args) -> int:
    order = _order_from(args)
    if args.n < 1:
        raise ValueError("n must be >= 1")
    print(mu_km(args.n, order))
    return EXIT_OK


def _cmd_sum(args) -> int:
    q = SumQuery(args.x, _order_from(args), args.coprime_to)
    if args.method == "direct":
        print(sum_direct(q))
    elif args.method == "conv":
        print(sum_convolution(q))
    else:
        d = sum_direct(q)
        c = sum_convolution(q)
        print(f"{d} {c}")
        if d != c:
            print(f"error: direct {d} != convolution {c}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_constants(args) -> int:
    order = _order_from(args)
    limit = args.prime_limit if args.prime_limit is not None else default_prime_limit()
    z = zeta(order.k, args.tol)
    a_k = apostol_A(order.k, limit)
    a_km = alpha(order, limit)
    print("constant,value,tail_bound")
    print(f"zeta({order.k}),{fmt_float(z.value)},{fmt_float(z.tail_bound)}")
    print(f"A({order.k}),{fmt_float(a_k.value)},{fmt_float(a_k.tail_bound)}")
    print(f"alpha({order.k};{order.m}),{fmt_float(a_km.value)},{fmt_float(a_km.tail_bound)}")
    if order.conjecture_mode:
        diff, combined = identity_gap(a_km, z, a_k)
        status = "PASS" if diff <= combined else "FAIL"
        print(
            f"identity({order.k}),{fmt_float(diff)},{fmt_float(combined)},{status}"
        )
        if status == "FAIL":
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_scan(args) -> int:
    order = _order_from(args)
    if args.from_x > args.to_x:
        raise ValueError("--from must be <= --to")
    cps = geometric_checkpoints(args.from_x, args.to_x, args.points_per_decade)
    rows = scan(
        order,
        coprime_to=args.coprime_to,
        checkpoints=cps,
        prime_limit=args.prime_limit,
        tol=args.tol,
    )
    lines = rows_to_lines(rows, order.conjecture_mode, args.format)
    if args.fit:
        lines.append(fit_to_line(fit_exponent(rows), args.format))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, args.limit)
    code = EXIT_OK
    for result in results:
        print(result.line())
        if not result.ok:
            code = EXIT_VERIFY
    return code


def _cmd_bench(args) -> int:
    if args.x < 10**6:
        raise ValueError("bench requires x >= 1e6")
    threads = args.threads if args.threads is not None else default_worker_count()
    config = SieveConfig(segment_size=args.segment, worker_count=threads)
    start = time.perf_counter()
    value = stream_sum(args.x, OrderPair(2, 3), 1, [args.x], config)[0][1]
    elapsed = time.perf_counter() - start
    print(
        f"x={args.x} segment={args.segment} threads={threads} "
        f"elapsed={elapsed:.3f}s rate={args.x / elapsed:.3e}/s "
        f"segment_memory={segment_memory_estimate(config)}B sum={value}"
    )
    return EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "sum": _cmd_sum,
    "constants": _cmd_constants,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
