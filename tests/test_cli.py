import argparse
import json
from dataclasses import fields

import pytest

import moebius_km.cli as cli
import moebius_km.verify as verify_mod
from moebius_km.asymptotics import FitResult, ScanRow
from moebius_km.constants import DEFAULT_PRIME_LIMIT, DEFAULT_TOL
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

    def test_larger_tail_bound_at_smaller_prime_limit(self, capsys):
        def bound(out):
            for line in out.splitlines():
                if line.startswith("alpha"):
                    return float(line.split(",")[2])
        _, small, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "10")
        _, big, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "1e5")
        assert bound(small) > bound(big)

    def test_default_prime_limit_prints_the_capped_bytes(self, capsys):
        # Any default from 2**16 up prints these bytes; the parser test pins
        # the default itself.
        _, default, _ = run(capsys, "constants", "--k", "2", "--m", "3")
        _, capped, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "65536")
        assert default == capped

    @pytest.mark.parametrize("k,m,limit", [("3", "4", "1e6"), ("2", "2", "1e9")])
    def test_limits_past_the_cap_print_the_capped_bytes(self, capsys, k, m, limit):
        # Products multiply out p <= 2**16 whatever the limit; 1e9 is past
        # the prime table's own cap.
        order = ("--k", k, "--m", m)
        code, given, err = run(capsys, "constants", *order, "--prime-limit", limit)
        assert (code, err) == (0, "")
        _, capped, _ = run(capsys, "constants", *order, "--prime-limit", "65536")
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

    def test_suite_choices_are_the_suite_table(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == (*verify_mod.SUITES, "all")

    @pytest.mark.parametrize(
        "argv",
        [("constants", "--k", "2"), ("scan", "--k", "2", "--from", "10", "--to", "100")],
    )
    def test_constant_flags_default_to_library_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert (args.tol, args.prime_limit) == (DEFAULT_TOL, DEFAULT_PRIME_LIMIT)
        assert args.m is None

    def test_bench_segment_defaults_to_sieve_config(self):
        args = cli.build_parser().parse_args(["bench", "--x", "1e6"])
        assert args.segment == SieveConfig().segment_size

    @pytest.mark.parametrize("name", COMMANDS)
    def test_single_command_parser_matches_full_parser(self, name):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert cli._command_parser(name).format_help() == commands.choices[name].format_help()

    def test_main_builds_only_the_named_command(self, capsys, monkeypatch):
        # A named command builds one parser, its own; any other argv the full one.
        built = []
        command, parser_class = cli._command_parser, cli._Parser

        def spy(name):
            built.append(name)
            return command(name)

        class Counted(parser_class):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["prog"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_command_parser", spy)
        monkeypatch.setattr(cli, "_Parser", Counted)
        assert run(capsys, "eval", "--k", "2", "--m", "3", "--n", "8")[:2] == (0, "-1\n")
        assert built == ["eval", "moebius eval"]
        for argv in (["nonsense"], []):
            built.clear()
            run(capsys, *argv)
            assert built[0] == "moebius" and set(COMMANDS) <= set(built)

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
