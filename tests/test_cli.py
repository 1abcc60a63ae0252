import json

import pytest

import moebius_km.cli as cli
import moebius_km.verify as verify_mod
from moebius_km.sieve import SieveConfig, default_worker_count


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
        _, small, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "100")
        _, big, _ = run(capsys, "constants", "--k", "2", "--m", "3", "--prime-limit", "1e5")
        assert bound(small) > bound(big)

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
        monkeypatch.setattr(verify_mod, "qk_count", lambda x, n, k: -1)
        code, out, _ = run(capsys, "verify", "--suite", "qk", "--limit", "50")
        assert code == 2
        assert "first:" in out

    def test_all_suites_quickly(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--limit", "120")
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestBench:
    def test_small_x_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--x", "1e4")
        assert code == 1 and "1e6" in err

    def test_report_line(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--x", "1e6", "--segment", "1e5", "--threads", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "elapsed=" in lines[0] and "segment_memory=" in lines[0]
        assert lines[0].endswith(" sum=535895")


class TestEnvironment:
    def test_worker_env(self, monkeypatch):
        monkeypatch.setenv("MOEBIUS_WORKERS", "3")
        assert default_worker_count() == 3
        assert SieveConfig().worker_count == 3
        monkeypatch.setenv("MOEBIUS_WORKERS", "0")
        with pytest.raises(ValueError):
            default_worker_count()

    def test_prime_limit_env(self, monkeypatch):
        from moebius_km.constants import default_prime_limit

        monkeypatch.setenv("MOEBIUS_PRIME_LIMIT", "12345")
        assert default_prime_limit() == 12345
        monkeypatch.delenv("MOEBIUS_PRIME_LIMIT")
        assert default_prime_limit() == 10**6
