"""Command-line frontend.

Subcommands: eval, sum, constants, scan, verify, bench.  Exit codes are a
stable contract: 0 success, 1 usage or I/O failure, 2 verification failure.

Every command and flag is one entry of the table ``_COMMANDS``.  A plain
command line, of exact flag names and values that can be read one way
only, is read from the table directly, without importing argparse;
argparse, built from the same table, reads every other line and prints
the help.

Numeric output is round-trip safe: integers verbatim, floats with 17
significant digits, so parsing a report and re-serializing it reproduces
the bytes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from operator import attrgetter
from types import SimpleNamespace

from .asymptotics import FitResult, ScanRow, fit_exponent, geometric_checkpoints, scan
from .constants import DEFAULT_TOL, PRODUCT_PRIME_CAP, alpha, apostol_A, identity_gap, zeta
from .functions import OrderPair, mu_km
from .sieve import DEFAULT_SEGMENT_SIZE, SieveConfig, segment_memory_estimate, stream_sum
from .summatory import SumQuery, sum_convolution, sum_direct
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _UsageError(Exception):
    """A bad command line: printed as one ``usage error:`` line, exit code 1."""


def _int_flag(text: str) -> int:
    """Exact integer flags; scientific notation like 1e8 is accepted."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise _UsageError(f"not a number: {text!r}")
    # is_finite first: Infinity would overflow int(), and sNaN raises on compare.
    if not d.is_finite() or d != d.to_integral_value():
        raise _UsageError(f"not an integer: {text!r}")
    # Python's default int(str) digit limit; int() of a Decimal has none, and
    # int(Decimal("1e1000000")) alone takes 35 s.
    if d.adjusted() >= 4300:
        raise _UsageError(f"more than 4300 digits: {text!r}")
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
    z = zeta(order.k, DEFAULT_TOL)
    a_k = apostol_A(order.k, PRODUCT_PRIME_CAP)
    a_km = alpha(order, PRODUCT_PRIME_CAP)
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
    rows = scan(order, coprime_to=args.coprime_to, checkpoints=cps)
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


class _Flag:
    """One flag of a command as data: its name, converter, default and help.

    ``convert`` turns the flag's text into its value (``_int_flag`` or
    ``str``); with ``convert=None`` the flag takes no value
    and sets True, its default False.  The value is stored as ``dest``,
    by default the name without its dashes, "-" read as "_".
    """

    __slots__ = ("name", "dest", "convert", "default", "required", "choices", "help")

    def __init__(self, name, convert=str, default=None, *, required=False, choices=None,
                 help=None, dest=None):
        self.name = name
        self.dest = dest or name[2:].replace("-", "_")
        self.convert = convert
        self.default = False if convert is None else default
        self.required = required
        self.choices = choices
        self.help = help


_ORDER = (_Flag("--k", _int_flag, required=True), _Flag("--m", _int_flag, help="defaults to k"))
_COPRIME = _Flag("--coprime-to", _int_flag, 1)

# name: (summary, handler, its flags in order)
_COMMANDS = {
    "eval": (
        "evaluate mu_{k,m}(n) at one point", _cmd_eval,
        (*_ORDER, _Flag("--n", _int_flag, required=True)),
    ),
    "sum": (
        "summatory value over r <= x, gcd(r, n) = 1", _cmd_sum,
        (
            *_ORDER, _Flag("--x", _int_flag, required=True), _COPRIME,
            _Flag("--method", str, "direct", choices=("direct", "conv", "both")),
        ),
    ),
    "constants": ("zeta(k), A_k and alpha_{k,m} with bounds", _cmd_constants, _ORDER),
    "scan": (
        "error-term scan over a checkpoint grid", _cmd_scan,
        (
            *_ORDER, _COPRIME,
            _Flag("--from", _int_flag, required=True, dest="from_x"),
            _Flag("--to", _int_flag, required=True, dest="to_x"),
            _Flag("--points-per-decade", _int_flag, 4),
            _Flag("--fit", None),
            _Flag("--out", str, "-"),
            _Flag("--format", str, "csv", choices=("csv", "json")),
        ),
    ),
    "verify": (
        "run cross-check suites", _cmd_verify,
        (
            _Flag("--suite", str, "all", choices=(*SUITES, "all")),
            _Flag("--limit", _int_flag, help="input size, >= 1"),
        ),
    ),
    "bench": (
        "streaming throughput report", _cmd_bench,
        (_Flag("--x", _int_flag, required=True), _Flag("--segment", _int_flag, DEFAULT_SEGMENT_SIZE)),
    ),
}


def _read_plain(argv: list[str]):
    """(handler, namespace) of a command line that argparse reads one way only, else None.

    That is a line whose first token names a command and whose other
    tokens are exact flag names of it, each valued flag followed by its
    value, either after "=" or as the next token when that does not start
    with "-", where every value converts and lies in its choices and every
    required flag is given.  A repeated flag keeps its last value.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    by_name = {flag.name: flag for flag in flags}
    values = {flag.dest: flag.default for flag in flags}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        flag = by_name.get(name)
        if flag is None:
            return None
        if flag.convert is None:
            if eq:
                return None
            values[flag.dest] = True
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("-"):
                    return None
            value = _value(flag, text)
            if value is None:
                return None
            values[flag.dest] = value
    # A required flag has no default, and no value converts to None.
    if any(flag.required and values[flag.dest] is None for flag in flags):
        return None
    return handler, SimpleNamespace(**values)


def _value(flag: _Flag, text: str):
    """``text`` converted by ``flag``, or None if it does not convert or is not a choice."""
    try:
        value = flag.convert(text)
    except _UsageError:
        return None
    return value if flag.choices is None or value in flag.choices else None


def _argparse_read(argv: list[str]):
    """(handler, namespace) of ``argv`` by argparse, from ``_COMMANDS``.

    Help prints and raises ``SystemExit(0)``; a bad line raises
    ``_UsageError`` with argparse's message.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    def typed(convert):
        # argparse reports an ArgumentTypeError by its message, as main does a _UsageError.
        def call(text):
            try:
                return convert(text)
            except _UsageError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        call.__name__ = convert.__name__
        return call

    parser = Parser(prog="moebius", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.set_defaults(handler=handler)
        for flag in flags:
            if flag.convert is None:
                sub.add_argument(flag.name, dest=flag.dest, action="store_true")
            else:
                sub.add_argument(
                    flag.name, dest=flag.dest, type=typed(flag.convert), default=flag.default,
                    required=flag.required, choices=flag.choices, help=flag.help,
                )
    values = vars(parser.parse_args(argv))
    handler = values.pop("handler")
    for flag in _COMMANDS[values.pop("command")][2]:
        # Python 3.11's argparse drops the value of "--out=--", leaving [].
        if values[flag.dest] == []:
            values[flag.dest] = _value(flag, "--")
            if values[flag.dest] is None:
                raise _UsageError(f"argument {flag.name}: invalid value: '--'")
    return handler, SimpleNamespace(**values)


def parse(argv: list[str]):
    """(handler, namespace) of the command line ``argv``, from ``_COMMANDS``.

    A plain line (see ``_read_plain``) is read without importing argparse;
    argparse reads every other, so help, abbreviations, negative numbers
    and every usage error are its own.
    """
    return _read_plain(argv) or _argparse_read(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (default: ``sys.argv[1:]``) and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        handler, args = parse(argv)
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
