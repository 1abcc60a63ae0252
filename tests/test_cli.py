import argparse
import io
import json
import random
import re
import shlex
import time
from contextlib import redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

import moebius_km.cli as cli
import moebius_km.verify as verify_mod
from moebius_km.asymptotics import FitResult, ScanRow
from moebius_km.constants import DEFAULT_TOL, PRODUCT_PRIME_CAP
from moebius_km.sieve import SieveConfig, _max_range


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_table_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--m", "3", "--n", "8")
        assert (code, out.strip()) == (0, "-1")

    def test_m_omitted_means_order_k(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--n", "4")
        assert (code, out.strip()) == (0, "-1")

    def test_at_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--k", "2", "--m", "3", "--n", "1")
        assert (code, out.strip()) == (0, "1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--k", "1", "--n", "4"),          # k below 2
            ("eval", "--k", "3", "--m", "2", "--n", "4"),  # m < k
            ("eval", "--k", "2", "--n", "0"),          # n out of domain
            ("eval", "--n", "4"),                       # missing k
            ("eval", "--k", "2.5", "--n", "4"),        # fractional flag
            ("nonsense",),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err


class TestSum:
    def test_direct(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--m", "3", "--x", "12")
        assert (code, out.strip()) == (0, "7")

    def test_coprime_filter(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--k", "2", "--m", "3", "--x", "12", "--coprime-to", "2"
        )
        assert (code, out.strip()) == (0, "5")

    def test_both_agree(self, capsys):
        code, out, _ = run(
            capsys, "sum", "--k", "2", "--m", "2", "--x", "12", "--method", "both"
        )
        assert (code, out.strip()) == (0, "5 5")

    @pytest.mark.parametrize("x", ["inf", "Infinity", "sNaN"])
    def test_non_finite_x_is_usage_error(self, capsys, x):
        code, out, err = run(capsys, "sum", "--k", "2", "--x", x)
        assert (code, out) == (1, "")
        assert f"not an integer: {x!r}" in err and "Traceback" not in err

    def test_huge_exponent_is_usage_error_at_once(self, capsys):
        # int() of a Decimal has no digit limit: int(Decimal("1e1000000")) alone takes 35 s.
        start = time.perf_counter()
        code, out, err = run(capsys, "sum", "--k", "2", "--x", "1e10000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert cli._int_flag("9" * 4300) == 10**4300 - 1
        with pytest.raises(cli._UsageError, match="more than 4300 digits"):
            cli._int_flag("1" + "0" * 4300)

    def test_scientific_notation_flag(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--x", "1e4", "--method", "conv")
        assert code == 0 and out.strip().lstrip("-").isdigit()

    def test_both_mismatch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sum_convolution", lambda q: 10**9)
        code, out, err = run(
            capsys, "sum", "--k", "2", "--m", "3", "--x", "12", "--method", "both"
        )
        assert code == 2
        assert out.split() == ["7", "1000000000"]
        assert "!=" in err


class TestDomain:
    # Every engine has one domain and one error for x past it, naming x and the limit.
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "argv",
        [
            ("sum", "--method", "direct", "--x"),
            ("sum", "--method", "conv", "--x"),
            ("sum", "--method", "both", "--x"),
            ("scan", "--from", "10", "--prime-limit", "1e4", "--to"),
        ],
        ids=["direct", "conv", "both", "scan"],
    )
    @pytest.mark.parametrize("m_above_k", [0, 1], ids=["m=k", "m=k+1"])
    def test_one_past_the_top_is_usage_error(self, capsys, k, argv, m_above_k):
        top = _max_range(k)
        order = ("--k", str(k), "--m", str(k + m_above_k))
        code, out, err = run(capsys, *argv[:-1], *order, argv[-1], str(top + 1))
        assert (code, out) == (1, "")
        assert err == f"error: x={top + 1} exceeds the supported range {top} for k={k}\n"


class TestConstants:
    def test_identity_line_present_in_conjecture_mode(self, capsys):
        code, out, _ = run(
            capsys, "constants", "--k", "2", "--m", "2", "--prime-limit", "1e4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "constant,value,tail_bound"
        names = [line.split(",")[0] for line in lines]
        assert names == ["constant", "zeta(2)", "A(2)", "alpha(2;2)", "identity(2)"]
        assert lines[-1].endswith("PASS")

    def test_tail_bound_at_a_small_prime_limit_covers_the_change(self, capsys):
        # The tail series is about as accurate at prime limit 10 as at the
        # cap: the bound there is no smaller, and it covers the distance
        # between the two printed values.
        def estimate(out):
            for line in out.splitlines():
                if line.startswith("alpha"):
                    return [float(field) for field in line.split(",")[1:]]
        _, small, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "10")
        _, big, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "1e5")
        (v_small, b_small), (v_big, b_big) = estimate(small), estimate(big)
        assert b_small >= b_big
        assert abs(v_small - v_big) <= b_small + b_big

    def test_default_prime_limit_prints_the_capped_bytes(self, capsys):
        # Any default from 2**9 up prints these bytes; the parser test pins
        # the default itself.
        _, default, _ = run(capsys, "constants", "--k", "2", "--m", "3")
        _, capped, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "512")
        assert default == capped

    @pytest.mark.parametrize("k,m,limit", [("3", "4", "1e6"), ("2", "2", "1e9")])
    def test_limits_past_the_cap_print_the_capped_bytes(self, capsys, k, m, limit):
        # Products multiply out p <= 2**9 whatever the limit; 1e9 is past
        # the prime table's own cap.
        order = ("--k", k, "--m", m)
        code, given, err = run(capsys, "constants", *order, "--prime-limit", limit)
        assert (code, err) == (0, "")
        _, capped, _ = run(capsys, "constants", *order, "--prime-limit", "512")
        assert given == capped

    @pytest.mark.parametrize("command", ["constants", "scan"])
    def test_tol_help_names_zeta_only(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "zeta(k) only" in help_text and "floored at 1e-10" in help_text

    def test_unreachable_tolerance_exits_three(self, capsys):
        code, _, err = run(
            capsys, "constants", "--k", "2", "--tol", "1e-300", "--prime-limit", "100"
        )
        assert code == 3
        assert "precision" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--k", "2"),
            ("scan", "--k", "2", "--m", "3", "--from", "10", "--to", "100"),
        ],
    )
    def test_nan_tolerance_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--tol", "nan", "--prime-limit", "100")
        assert code == 1
        assert "tol" in err and not out


class TestScan:
    def test_csv_schema_and_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "scan", "--k", "2", "--m", "3", "--from", "1e3", "--to", "1e6",
            "--points-per-decade", "4", "--fit", "--out", str(out_file),
            "--prime-limit", "1e4",
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,S,M,E,ratio_uncond,ratio_rh,conjecture_mode"
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 13
        for line in rows:
            x, s, m, e, ru, rr, mode = line.split(",")
            assert mode == "false"
            # round-trip: re-serializing the parsed numbers is byte-identical
            assert str(int(x)) == x and str(int(s)) == s
            for raw in (m, e, ru, rr):
                assert cli.fmt_float(float(raw)) == raw
        assert lines[-1].startswith("# fit,slope=")

    def test_single_point_scan(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--k", "2", "--m", "3", "--from", "12", "--to", "12",
            "--prime-limit", "1e4",
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.startswith("12,7,")

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--k", "2", "--m", "2", "--from", "10", "--to", "1000",
            "--points-per-decade", "1", "--format", "json", "--fit",
            "--prime-limit", "1e4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(r["conjecture_mode"] is True for r in rows[:-1])
        assert list(rows[0]) == ["x", "S", "M", "E", "ratio_uncond", "ratio_rh", "conjecture_mode"]
        assert set(rows[-1]) == {"slope", "intercept", "points_used", "residual_rms"}
        # byte-identical round trip: re-render each row from its parsed values
        for line, r in zip(lines[:-1], rows[:-1]):
            rebuilt = (
                f'{{"x": {r["x"]}, "S": {r["S"]}, "M": {cli.fmt_float(r["M"])}, '
                f'"E": {cli.fmt_float(r["E"])}, '
                f'"ratio_uncond": {cli.fmt_float(r["ratio_uncond"])}, '
                f'"ratio_rh": {cli.fmt_float(r["ratio_rh"])}, "conjecture_mode": true}}'
            )
            assert rebuilt == line

    def test_from_after_to_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--k", "2", "--from", "100", "--to", "10")
        assert code == 1 and "from" in err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "scan", "--k", "2", "--from", "10", "--to", "10",
            "--out", str(tmp_path / "no" / "dir" / "f.csv"), "--prime-limit", "1e3",
        )
        assert code == 1


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma24", "--limit", "300")
        assert code == 0
        assert "1200/1200 pass" in out  # 300 inputs x 4 orders

    def test_injected_fault_reports_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(verify_mod, "qk_count", lambda x, n, k: x * 0 - 1)
        code, out, _ = run(capsys, "verify", "--suite", "qk", "--limit", "50")
        assert code == 2
        assert "first:" in out

    def test_all_suites_quickly(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--limit", "120")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_all_compares_sieved_blocks_with_pointwise_values(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        # 1e5 inputs x 5 orders, plus 1000 stream cells x 5 orders x 3 wheels,
        # plus the 100 cells at the top of each order's sieve domain
        assert out.splitlines()[0] == "table: 515500/515500 pass"
        code, out, _ = run(capsys, "verify", "--suite", "table", "--limit", "300")
        assert (code, out) == (0, "table: 6500/6500 pass\n")

    def test_finished_suites_are_printed_before_a_later_one_fails(self, capsys):
        # Only the last suite, constants, needs more: its limit is a prime limit.
        code, out, err = run(capsys, "verify", "--suite", "all", "--limit", "1")
        lines = out.splitlines()
        assert code == 1
        assert [line.split(":")[0] for line in lines] == list(verify_mod.SUITES)[:-1]
        assert all(line.endswith(" pass") for line in lines)
        assert err == "error: prime_limit must be >= 2\n"

    @pytest.mark.parametrize("argv", [("lemma24", "0"), ("sums", "-3")])
    def test_limit_below_one_is_usage_error(self, capsys, argv):
        suite, limit = argv
        code, out, err = run(capsys, "verify", "--suite", suite, "--limit", limit)
        assert (code, out) == (1, "")
        assert "limit must be >= 1" in err


class TestBench:
    def test_small_x_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--x", "1e4")
        assert code == 1 and "1e6" in err

    def test_report_line(self, capsys):
        code, out, _ = run(capsys, "bench", "--x", "1e6", "--segment", "1e5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("x=1000000 segment=100000 elapsed=")
        assert "segment_memory=" in lines[0] and "threads" not in lines[0]
        assert lines[0].endswith(" sum=535895")

    def test_threads_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--x", "1e6", "--threads", "2")
        assert (code, out) == (1, "")
        assert "--threads" in err


COMMANDS = ("eval", "sum", "constants", "scan", "verify", "bench")


class TestContracts:
    """Each report column, flag default and suite name is defined once."""

    SCAN = ("scan", "--k", "2", "--m", "3", "--from", "10", "--to", "1000",
            "--points-per-decade", "2", "--fit", "--prime-limit", "1e4")

    def test_csv_columns_are_scan_row_fields(self, capsys):
        code, out, _ = run(capsys, *self.SCAN)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == cli.CSV_HEADER
        assert lines[0].split(",") == [f.name for f in fields(ScanRow)] + ["conjecture_mode"]
        fit = lines[-1].removeprefix("# fit,").split(",")
        assert [item.split("=")[0] for item in fit] == [f.name for f in fields(FitResult)]

    def test_json_keys_are_scan_row_fields(self, capsys):
        code, out, _ = run(capsys, *self.SCAN, "--format", "json")
        *rows, fit = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 5
        for row in rows:
            assert list(row) == [f.name for f in fields(ScanRow)] + ["conjecture_mode"]
        assert list(fit) == [f.name for f in fields(FitResult)]

    def test_suite_choices_are_the_suite_table(self, capsys):
        suites = (*verify_mod.SUITES, "all")
        assert next(f for f in cli._COMMANDS["verify"][2] if f.name == "--suite").choices == suites
        assert [cli.parse(["verify", "--suite", s])[1].suite for s in suites] == list(suites)
        code, out, err = run(capsys, "verify", "--suite", "bogus")
        assert (code, out) == (1, "")
        assert err.endswith("(choose from " + ", ".join(map(repr, suites)) + ")\n")
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert "--suite {" + ",".join(suites) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [("constants", "--k", "2"), ("scan", "--k", "2", "--from", "10", "--to", "100")],
    )
    def test_constant_flags_default_to_library_defaults(self, argv):
        _, args = cli.parse(list(argv))
        assert (args.tol, args.prime_limit) == (DEFAULT_TOL, PRODUCT_PRIME_CAP)
        assert args.m is None

    def test_bench_segment_defaults_to_sieve_config(self):
        _, args = cli.parse(["bench", "--x", "1e6"])
        assert args.segment == SieveConfig().segment_size

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_help_lists_every_flag(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps long lines
        assert out.startswith(f"usage: moebius {name} [-h] ")
        for flag in cli._COMMANDS[name][2]:
            assert flag.name in out and (flag.help or "") in out
        required = [f"{f.name} " for f in cli._COMMANDS[name][2] if f.required]
        assert all(f"[{r}" not in out for r in required)

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in COMMANDS)

    def test_unknown_command_lists_every_command(self, capsys):
        code, out, err = run(capsys, "nonsense")
        assert (code, out) == (1, "")
        assert "choose from " + ", ".join(f"'{n}'" for n in COMMANDS) in err

    def test_csv_rows_match_field_by_field_rendering(self):
        nan, inf = float("nan"), float("inf")
        rows = [
            ScanRow(12, 7, 6.5, 0.5, 0.1, 1 / 3),
            ScanRow(2**62, -(2**61) - 1, 1e300, -0.0, nan, -inf),
            ScanRow(1, 0, 5e-324, 2.0**53 + 2, 0.1 + 0.2, 1e16),
        ]
        for mode, text in ((True, "true"), (False, "false")):
            want = [cli.CSV_HEADER] + [
                ",".join(
                    [cli.fmt_float(v) if isinstance(v, float) else str(v)
                     for v in (getattr(r, f.name) for f in fields(ScanRow))] + [text]
                )
                for r in rows
            ]
            assert cli.rows_to_lines(rows, mode, "csv") == want


class _ReferenceError(Exception):
    pass


class _Reference(argparse.ArgumentParser):
    def error(self, message):
        raise _ReferenceError(message)


def _reference_parser() -> _Reference:
    """argparse's parser for the flag table ``cli._COMMANDS``: the reference for ``cli.parse``."""

    def reference_type(convert):
        # argparse reports an ArgumentTypeError by its own message, as cli does a _UsageError.
        def call(text):
            try:
                return convert(text)
            except cli._UsageError as exc:
                raise argparse.ArgumentTypeError(str(exc))

        call.__name__ = convert.__name__
        return call

    parser = _Reference(prog="moebius")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags) in cli._COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(handler=handler)
        for flag in flags:
            if flag.convert is None:
                sub.add_argument(flag.name, dest=flag.dest, action="store_true")
            else:
                sub.add_argument(
                    flag.name, dest=flag.dest, type=reference_type(flag.convert),
                    default=flag.default, required=flag.required, choices=flag.choices,
                    help=flag.help,
                )
    return parser


def _outcome(call):
    """("ok", result), ("usage error", message) or ("exit", code) of call()."""
    try:
        with redirect_stdout(io.StringIO()):
            return "ok", call()
    except (cli._UsageError, _ReferenceError) as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


SCAN_ORDER = ("scan", "--k", "2", "--from", "10", "--to", "100")

VALID_ARGV = [
    ("eval", "--k", "2", "--m", "3", "--n", "8"),
    ("eval", "--k=2", "--m=3", "--n=8"),
    ("eval", "--n", "4", "--k", "2", "--k", "3"),
    ("eval", "--k", "2", "--n", "-4"),
    ("sum", "--k", "2", "--x", "1e4", "--method", "conv"),
    ("sum", "--k", "2", "--x", "12", "--cop", "30", "--meth=both"),
    ("sum", "--x", "12", "--k", "3", "--m", "3", "--x", "13", "--method", "direct"),
    ("constants", "--k", "2", "--prime-limit", "1e9", "--tol", "1e-10"),
    ("constants", "--k", "3", "--pr=512", "--t", "1e-12"),
    ("constants", "--k", "2", "--tol", "nan"),
    ("constants", "--k", "2", "--tol", "-1", "--tol", "-.5"),
    ("scan", "--k", "2", "--m", "3", "--coprime-to", "6", "--from", "1000", "--to", "100000000",
     "--points-per-decade", "20", "--fit", "--out", "-"),
    ("scan", "--k", "2", "--fr", "10", "--to", "100", "--tol=1e-12", "--fi", "--fo", "json"),
    ("scan", "--k=2", "--from=1e3", "--to=1e6", "--points", "4", "--fit", "--fit"),
    (*SCAN_ORDER, "--out", "-", "--out", "rows.csv", "--form=csv"),
    (*SCAN_ORDER, "--out", "a b", "--to", "1e3", "--tol", "1e-9"),
    ("verify",),
    ("verify", "--suite", "qk", "--limit", "50"),
    ("verify", "--su=all", "--lim", "1e3", "--suite", "table"),
    ("bench", "--x", "1e6"),
    ("bench", "--x", "1e6", "--seg", "65536", "--x=2e6"),
]

INVALID_ARGV = [
    (),
    ("nonsense",),
    ("--k", "2", "scan"),
    ("--",),
    ("--", "scan"),
    ("eval", "--n", "4"),
    ("eval", "--k", "2.5", "--n", "4"),
    ("eval", "--k", "2", "--n", "4", "--"),
    ("eval", "--k", "2", "--n", "4", "extra", "-x"),
    ("eval", "-hx"),
    ("eval", "--help=1"),
    ("eval", "--k", "x", "--help"),
    ("sum", "--k", "2", "--x", "inf"),
    ("sum", "--k", "2", "--x", "1e4", "--threads", "2"),
    ("sum", "--k", "2", "--x", "1e4", "--method", "fast"),
    ("sum", "--k", "2", "--x"),
    ("sum", "--k", "--x", "5"),
    ("sum", "--k", "2", "--x", "-1e4"),
    ("scan", "--k", "2", "--f", "10", "--to", "100"),
    ("scan", "--k", "x", "--p", "4", "--from", "1", "--to", "2"),
    (*SCAN_ORDER, "--fit=1"),
    (*SCAN_ORDER, "--out"),
    (*SCAN_ORDER, "--out", "--fit"),
    ("constants", "--k", "2", "--tol", "x"),
    ("constants", "--k", "2", "--tol", "-1e-3"),
    ("verify", "--suite", "bogus"),
    ("verify", "--limit", "1.5"),
    ("bench", "--x", "1e6", "--threads", "2"),
]

HELP_ARGV = [
    ("--help",), ("-h",), ("--he",), ("--threads", "--help"), ("scan", "-h"),
    ("scan", "--k", "2", "--help"), ("eval", "--k", "2", "--n", "4", "--h"), ("verify", "--k", "-h"),
]


class TestArgparseReference:
    """``cli.parse`` reads every command line as argparse does from the same table."""

    @staticmethod
    def outcomes(argv):
        argv = list(argv)
        ref = _outcome(lambda: vars(_reference_parser().parse_args(argv)))
        new = _outcome(lambda: cli.parse(argv))
        if ref[0] == "ok":
            del ref[1]["command"]
        if new[0] == "ok":
            handler, args = new[1]
            new = ("ok", {**vars(args), "handler": handler})
        return ref, new

    @pytest.mark.parametrize("argv", VALID_ARGV)
    def test_valid_argv_gives_the_same_namespace(self, argv):
        ref, new = self.outcomes(argv)
        assert ref[0] == "ok"
        assert repr(new) == repr(ref)  # repr: the tol "nan" is not equal to itself

    @pytest.mark.parametrize("argv", INVALID_ARGV)
    def test_invalid_argv_gives_the_same_usage_error(self, capsys, argv):
        ref, new = self.outcomes(argv)
        assert ref[0] == "usage error"
        assert new == ref
        assert run(capsys, *argv) == (1, "", f"usage error: {ref[1]}\n")

    @pytest.mark.parametrize("argv", HELP_ARGV)
    def test_help_anywhere_exits_zero(self, capsys, argv):
        assert self.outcomes(argv) == (("exit", 0), ("exit", 0))
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: moebius")

    def test_equals_value_is_taken_verbatim(self):
        # argparse turns "--out=--" into an empty list; the table parser keeps the text.
        for value in ("--", "-", "a=b", ""):
            assert cli.parse([*SCAN_ORDER, f"--out={value}"])[1].out == value


REPO = Path(__file__).resolve().parents[1]


def _readme_argv():
    blocks = re.findall(r"^```sh\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    lines = [line for b in blocks for line in b.replace("\\\n", " ").splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("moebius ")]


def _ci_argv():
    """The sum, scan and constants command lines that CI runs through the CLI."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    found = re.findall(r"(?:moebius_km\.cli|peak_guard \d+) ((?:sum|scan|constants) [^)\"\n]*)", text)
    return [shlex.split(line) for line in found]


def _argparse_outcome(argv):
    try:
        with redirect_stdout(io.StringIO()):
            handler, args = cli._argparse_read(list(argv))
    except (cli._UsageError, SystemExit) as exc:
        return type(exc).__name__, str(exc)
    return handler, repr(vars(args))  # repr: the tol "nan" is not equal to itself


_INT_VALUES = ("2", "3", "30", "12", "1e4", "1e9", "0", "-4", "-.5", "2.5", "x", "inf", "")
_TEXT_VALUES = ("-", "--", "-x", "rows.csv", "a b", "a=b", "", "scan")
_FLOAT_VALUES = ("1e-10", "1e-12", "nan", "-1", "0.5", "x", "-")


def _fuzz_values(flag):
    if flag.choices is not None:
        return (*flag.choices, "bogus", "-", "")
    return {cli._int_flag: _INT_VALUES, float: _FLOAT_VALUES, str: _TEXT_VALUES}[flag.convert]


def _fuzz_argv(rng: random.Random) -> list[str]:
    """A command line from the flag table: exact names, prefixes, "=" forms, odd values."""
    command = rng.choice([*COMMANDS] * 6 + ["nonsense", "--k", "-h", "--"])
    flags = cli._COMMANDS[command][2] if command in cli._COMMANDS else cli._COMMANDS["scan"][2]
    groups = [[flag.name, _fuzz_values(flag)[0]] for flag in flags if flag.required and rng.random() < 0.9]
    for _ in range(rng.randrange(5)):
        flag = rng.choice(flags)
        roll = rng.random()
        if roll < 0.08:
            groups.append([rng.choice(["-h", "--help", "--", "--threads", "-x", "extra"])])
            continue
        name = flag.name if roll < 0.75 else flag.name[: rng.randrange(3, len(flag.name) + 1)]
        if flag.convert is None:
            groups.append([name] if rng.random() < 0.9 else [name + "=1"])
            continue
        value = rng.choice(_fuzz_values(flag))
        form = rng.random()
        groups.append([f"{name}={value}"] if form < 0.3 else [name, value] if form < 0.95 else [name])
    rng.shuffle(groups)
    return [command, *(token for group in groups for token in group)]


class TestPlainReader:
    """``_read_plain`` takes only lines that argparse reads one way, and reads them as argparse does."""

    def test_seeded_fuzz_agrees_with_argparse(self):
        rng = random.Random(32)
        taken = 0
        for _ in range(6000):
            argv = _fuzz_argv(rng)
            plain = cli._read_plain(list(argv))
            if plain is not None:
                taken += 1
                assert (plain[0], repr(vars(plain[1]))) == _argparse_outcome(argv), argv
        assert taken >= 1500

    def test_equals_dashes_is_the_value_on_the_argparse_path_too(self, capsys):
        # Python 3.11's argparse reads the value of "--out=--" as [].
        assert cli.parse([*SCAN_ORDER, "--fo", "json", "--out=--"])[1].out == "--"
        code, out, err = run(capsys, "sum", "--k", "2", "--x", "12", "--meth=--")
        assert (code, out, err) == (1, "", "usage error: argument --method: invalid value: '--'\n")

    def test_benchmark_readme_and_ci_lines_are_plain(self, tmp_path):
        # The argv shape of perfbench/worker.py's scan_dense operation.
        dense = ["scan", "--k", "2", "--m", "3", "--coprime-to", "30", "--from", "1054",
                 "--to", "100531760", "--points-per-decade", "20", "--fit",
                 "--out", str(tmp_path / "scan-1.csv")]
        readme, ci = _readme_argv(), _ci_argv()
        assert len(readme) == 6 and len(ci) >= 20
        for argv in [dense, *readme]:
            assert cli._read_plain(argv) is not None, argv
        # CI runs one abbreviation on purpose, through argparse end to end.
        assert [argv for argv in ci if cli._read_plain(argv) is None] == [
            ["sum", "--k", "2", "--m", "3", "--x", "1e8", "--meth", "conv"]
        ]
        for argv in [dense, *readme, *ci]:
            plain = cli._read_plain(argv) or cli.parse(argv)
            assert (plain[0], repr(vars(plain[1]))) == _argparse_outcome(argv), argv
