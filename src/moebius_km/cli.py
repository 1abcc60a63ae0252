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
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from operator import attrgetter

from .asymptotics import FitResult, ScanRow, fit_exponent, geometric_checkpoints, scan
from .constants import (
    DEFAULT_PRIME_LIMIT, DEFAULT_TOL, PrecisionError, alpha, apostol_A, identity_gap, zeta,
)
from .functions import OrderPair, mu_km
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, segment_memory_estimate, stream_sum
from .summatory import SumQuery, sum_convolution, sum_direct
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PRECISION = 3

_TOL_HELP = (
    "certified error of zeta(k) only; A_k and alpha keep their own tail_bound,"
    " floored at 1e-10"
)


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
    # is_finite first: Infinity would overflow int(), and sNaN raises on compare.
    if not d.is_finite() or d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(d)


def fmt_float(v: float) -> str:
    return format(v, ".17g")


_MODE_COLUMN = "conjecture_mode"
_ROW_FIELDS = [f.name for f in fields(ScanRow)]
CSV_HEADER = ",".join(_ROW_FIELDS + [_MODE_COLUMN])
# One CSV row of a ScanRow: "%.17g" renders a float as fmt_float does, "%d"
# an int as str does.  (The annotations are strings under postponed evaluation.)
_ROW_TEMPLATE = ",".join("%d" if f.type in (int, "int") else "%.17g" for f in fields(ScanRow))
_row_values = attrgetter(*_ROW_FIELDS)


def _report_fields(record, names: list[str]) -> list[tuple[str, str]]:
    """(name, text) of the fields ``names`` of ``record``, in that order."""
    values = ((name, getattr(record, name)) for name in names)
    return [(name, fmt_float(v) if isinstance(v, float) else str(v)) for name, v in values]


def _json_object(pairs: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f'"{name}": {text}' for name, text in pairs) + "}"


def rows_to_lines(rows: list[ScanRow], conjecture_mode: bool, fmt: str) -> list[str]:
    mode = "true" if conjecture_mode else "false"
    if fmt == "csv":
        template = f"{_ROW_TEMPLATE},{mode}"
        return [CSV_HEADER] + [template % _row_values(r) for r in rows]
    return [_json_object(_report_fields(r, _ROW_FIELDS) + [(_MODE_COLUMN, mode)]) for r in rows]


def fit_to_line(fit: FitResult, fmt: str) -> str:
    pairs = _report_fields(fit, [f.name for f in fields(fit)])
    if fmt == "csv":
        return "# fit," + ",".join(f"{name}={text}" for name, text in pairs)
    return _json_object(pairs)


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
    z = zeta(order.k, args.tol)
    a_k = apostol_A(order.k, args.prime_limit)
    a_km = alpha(order, args.prime_limit)
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
    # Each suite's line is printed as it finishes, so a later suite that
    # rejects the limit loses none of the earlier results.
    code = EXIT_OK
    for suite in SUITES if args.suite == "all" else (args.suite,):
        for result in run_suite(suite, args.limit):
            print(result.line(), flush=True)
            if not result.ok:
                code = EXIT_VERIFY
    return code


def _cmd_bench(args) -> int:
    if args.x < 10**6:
        raise ValueError("bench requires x >= 1e6")
    config = SieveConfig(segment_size=args.segment)
    start = time.perf_counter()
    value = stream_sum(args.x, OrderPair(2, 3), 1, [args.x], config)[0][1]
    elapsed = time.perf_counter() - start
    print(
        f"x={args.x} segment={args.segment} "
        f"elapsed={elapsed:.3f}s rate={args.x / elapsed:.3e}/s "
        f"segment_memory={segment_memory_estimate(config)}B sum={value}"
    )
    return EXIT_OK


def _order_flags(p) -> None:
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--m", type=_int_flag, default=None, help="defaults to k")


def _bound_flags(p) -> None:
    p.add_argument("--prime-limit", type=_int_flag, default=DEFAULT_PRIME_LIMIT)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=_TOL_HELP)


def _eval_flags(p) -> None:
    p.add_argument("--n", type=_int_flag, required=True)


def _sum_flags(p) -> None:
    p.add_argument("--x", type=_int_flag, required=True)
    p.add_argument("--coprime-to", type=_int_flag, default=1)
    p.add_argument("--method", choices=("direct", "conv", "both"), default="direct")


def _scan_flags(p) -> None:
    p.add_argument("--coprime-to", type=_int_flag, default=1)
    p.add_argument("--from", dest="from_x", type=_int_flag, required=True)
    p.add_argument("--to", dest="to_x", type=_int_flag, required=True)
    p.add_argument("--points-per-decade", type=_int_flag, default=4)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _verify_flags(p) -> None:
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--limit", type=_int_flag, default=None, help="input size, >= 1")


def _bench_flags(p) -> None:
    p.add_argument("--x", type=_int_flag, required=True)
    p.add_argument("--segment", type=_int_flag, default=DEFAULT_SEGMENT_SIZE)


# name: (summary, handler, the functions that add its flags, in order)
_COMMANDS = {
    "eval": ("evaluate mu_{k,m}(n) at one point", _cmd_eval, (_order_flags, _eval_flags)),
    "sum": ("summatory value over r <= x, gcd(r, n) = 1", _cmd_sum, (_order_flags, _sum_flags)),
    "constants": (
        "zeta(k), A_k and alpha_{k,m} with bounds", _cmd_constants, (_order_flags, _bound_flags),
    ),
    "scan": (
        "error-term scan over a checkpoint grid", _cmd_scan,
        (_order_flags, _bound_flags, _scan_flags),
    ),
    "verify": ("run cross-check suites", _cmd_verify, (_verify_flags,)),
    "bench": ("streaming throughput report", _cmd_bench, (_bench_flags,)),
}


def build_parser() -> _Parser:
    """The ``moebius`` parser with every subcommand."""
    parser = _Parser(prog="moebius", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary, parents=[_command_parser(name)], add_help=False)
    return parser


def _command_parser(name: str) -> _Parser:
    """The parser of the subcommand ``name`` alone, from its one entry in ``_COMMANDS``."""
    _, handler, add_flags = _COMMANDS[name]
    parser = _Parser(prog=f"moebius {name}")
    parser.set_defaults(handler=handler)
    for add in add_flags:
        add(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default: ``sys.argv[1:]``) and return its exit code.

    A named command builds only its own parser and parses the rest of
    ``argv``.  With no command, an unknown one or a top-level option such as
    ``--help``, the full parser is built, so its usage and errors list every
    command.
    """
    if argv is None:
        argv = sys.argv[1:]
    named = bool(argv) and argv[0] in _COMMANDS
    parser = _command_parser(argv[0]) if named else build_parser()
    try:
        args = parser.parse_args(argv[1:] if named else argv)
        return args.handler(args)
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
