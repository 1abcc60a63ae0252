"""Command-line frontend.

Subcommands: eval, sum, constants, scan, verify, bench.  Exit codes are a
stable contract: 0 success, 1 usage or I/O failure, 2 verification failure,
3 precision failure.

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
from .constants import (
    DEFAULT_TOL, PRODUCT_PRIME_CAP, PrecisionError, alpha, apostol_A, identity_gap, zeta,
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


class _Flag:
    """One flag of a command as data: its name, converter, default and help.

    ``convert`` turns the flag's text into its value (``_int_flag``,
    ``float`` or ``str``); with ``convert=None`` the flag takes no value
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

    def invocation(self) -> str:
        """The flag as the help shows it, e.g. ``--method {direct,conv,both}``."""
        if self.convert is None:
            return self.name
        if self.choices is not None:
            return f"{self.name} {{{','.join(self.choices)}}}"
        return f"{self.name} {self.dest.upper()}"


_ORDER = (_Flag("--k", _int_flag, required=True), _Flag("--m", _int_flag, help="defaults to k"))
_BOUNDS = (
    _Flag("--prime-limit", _int_flag, PRODUCT_PRIME_CAP),
    _Flag("--tol", float, DEFAULT_TOL, help=_TOL_HELP),
)
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
    "constants": ("zeta(k), A_k and alpha_{k,m} with bounds", _cmd_constants, (*_ORDER, *_BOUNDS)),
    "scan": (
        "error-term scan over a checkpoint grid", _cmd_scan,
        (
            *_ORDER, *_BOUNDS, _COPRIME,
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

_HELP = ("-h", "--help")
_HELP_LINE = ("-h, --help", "show this help message and exit")


def _is_value(token: str) -> bool:
    """Whether ``token`` can be a flag's value rather than a flag.

    A token is a flag when it starts with "-", except "-" itself, a
    negative number ("-5", "-.5", "-2.5": not "-1e4") and a token with a
    space: argparse's rule, as no flag here looks like a negative number.
    """
    if not token.startswith("-") or token == "-" or " " in token:
        return True
    whole, dot, frac = token[1:].partition(".")
    return whole.isdecimal() if not dot else (not whole or whole.isdecimal()) and frac.isdecimal()


def _match(token: str, names) -> tuple[str, str | None] | None:
    """(the flag of ``names`` that ``token`` names, its "=" value or None), or None.

    A long flag may be given by any prefix that names it alone, with
    ``=value`` or without; a prefix of several is an error.  ``-h`` may carry
    its value glued on ("-hX", "-h=X"), which the help flag then rejects.
    """
    if token.startswith("--"):
        head, eq, value = token.partition("=")
        hits = [head] if head in names else [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(hits)}")
        return (hits[0], value if eq else None) if hits else None
    if token.startswith("-h"):
        return "-h", (token[3:] if token[2:3] == "=" else token[2:]) or None
    return None


def _explicit_error(name: str, value: str) -> _UsageError:
    return _UsageError(f"argument {name}: ignored explicit argument {value!r}")


def _help_requested(explicit: str | None, text: str) -> None:
    """Print ``text`` and exit 0; a value given to the help flag is an error."""
    if explicit is not None:
        raise _explicit_error("-h/--help", explicit)
    sys.stdout.write(text)
    raise SystemExit(EXIT_OK)


def _convert(flag: _Flag, text: str):
    try:
        value = flag.convert(text)
    except _UsageError as exc:
        raise _UsageError(f"argument {flag.name}: {exc}")
    except (TypeError, ValueError):
        raise _UsageError(f"argument {flag.name}: invalid {flag.convert.__name__} value: {text!r}")
    if flag.choices is not None and value not in flag.choices:
        choices = ", ".join(map(repr, flag.choices))
        raise _UsageError(f"argument {flag.name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse_command(name: str, tokens: list[str], extras: list[str]):
    """(handler, namespace) of the command ``name`` and the tokens after it.

    Tokens are read left to right and a repeated flag keeps its last value.
    A prefix of several flags fails before any value is read.  Tokens that
    name no flag, and every token from a lone "--" on, join ``extras``,
    which are rejected after the required flags are checked.
    """
    _, handler, flags = _COMMANDS[name]
    by_name = {flag.name: flag for flag in flags}
    names = (*_HELP, *by_name)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    hits = [_match(token, names) for token in tokens[:end]]
    values = {flag.dest: flag.default for flag in flags}
    given = set()
    i = 0
    while i < end:
        hit = hits[i]
        i += 1
        if hit is None:
            extras.append(tokens[i - 1])
            continue
        flag_name, explicit = hit
        if flag_name in _HELP:
            _help_requested(explicit, _command_help(name))
        flag = by_name[flag_name]
        if flag.convert is None:
            if explicit is not None:
                raise _explicit_error(flag.name, explicit)
            values[flag.dest] = True
        else:
            if explicit is None:
                if i == end or hits[i] is not None or not _is_value(tokens[i]):
                    raise _UsageError(f"argument {flag.name}: expected one argument")
                explicit = tokens[i]
                i += 1
            values[flag.dest] = _convert(flag, explicit)
        given.add(flag.name)
    extras += tokens[end:]
    missing = [flag.name for flag in flags if flag.required and flag.name not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**values)


def parse(argv: list[str]):
    """(handler, namespace) of the command line ``argv``, from ``_COMMANDS``.

    The first token that is not a flag names the command; the help flag
    before it prints the top-level help.  Every bad command line raises
    ``_UsageError`` with argparse's message, and ``-h``/``--help`` print
    help and raise ``SystemExit(0)``.
    """
    extras = []
    for i, token in enumerate(argv):
        hit = None if token == "--" else _match(token, _HELP)
        if hit is not None:
            _help_requested(hit[1], _top_help())
        # As in argparse, a lone "--" with tokens after it is read as the command.
        elif token == "--" and i + 1 == len(argv):
            break
        elif token == "--" or _is_value(token):
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            return _parse_command(token, argv[i + 1:], extras)
        else:
            extras.append(token)
    raise _UsageError("the following arguments are required: command")


def _rows(pairs) -> list[str]:
    """Two columns: each name padded to the widest, then its text."""
    width = max(len(name) for name, _ in pairs)
    return [f"  {name:<{width}}  {text}".rstrip() for name, text in pairs]


def _top_help() -> str:
    names = ",".join(_COMMANDS)
    commands = [(name, summary) for name, (summary, _, _) in _COMMANDS.items()]
    return "\n".join([
        f"usage: moebius [-h] {{{names}}} ...", "", __doc__.strip(), "", "commands:",
        *_rows(commands), "", "options:", *_rows([_HELP_LINE]),
    ]) + "\n"


def _command_help(name: str) -> str:
    summary, _, flags = _COMMANDS[name]
    usage = " ".join(
        flag.invocation() if flag.required else f"[{flag.invocation()}]" for flag in flags
    )
    options = [_HELP_LINE] + [(flag.invocation(), flag.help or "") for flag in flags]
    return "\n".join([
        f"usage: moebius {name} [-h] {usage}", "", summary, "", "options:", *_rows(options),
    ]) + "\n"


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
