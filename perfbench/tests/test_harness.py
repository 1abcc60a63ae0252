"""Tests of the benchmark harness itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
IGNORE = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache")


def bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def checkout(tmp_path, with_src=True):
    """A copy holding what the benchmark needs, optionally without the package."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=IGNORE)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=IGNORE)
    return tmp_path


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {"setup_s"} <= {m["name"] for m in SPEC["end_to_end"]}


def test_end_to_end_output_matches_schema():
    result = result_of(bench(ROOT, "--workload", "conv_sum", "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert_schema(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_output_matches_schema_and_counts_repeat():
    args = ("--workload", "conv_sum", "--seed", "2", "--seconds", "1", "--trace", "1")
    first, second = result_of(bench(ROOT, *args)), result_of(bench(ROOT, *args))
    assert_schema(first, SPEC["per_layer"])
    assert first["correct"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_corrupted_reference_raises_fail_frac(tmp_path):
    root = checkout(tmp_path)
    refs_path = root / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    refs["conv_sum"][1]["expect"]["values"][0]["S"] += 1  # the variant seed 1 draws
    refs_path.write_text(json.dumps(refs))
    result = result_of(bench(root, "--workload", "conv_sum", "--seed", "1", "--seconds", "1"))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_missing_program_exits_nonzero_without_result(tmp_path):
    proc = bench(checkout(tmp_path, with_src=False), "--workload", "conv_sum",
                 "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("text", [
    "# version=0.2.0 engine=sieve\nx,S,M,M_err,E\n10,4,4.5,0.1,-0.5\n# fit,slope=0.5,points_used=3\n",
    '{"version": "0.2.0"}\n{"x": 10, "S": 4, "M": 4.5, "M_err": 0.1}\n{"slope": 0.5}\n',
])
def test_scan_parser_tolerates_provenance_header_and_extra_column(text):
    rows, fit = harness.parse_scan(text)
    assert [(int(r["x"]), int(r["S"]), float(r["M"])) for r in rows] == [(10, 4, 4.5)]
    assert float(fit["slope"]) == 0.5


def test_scan_check_counts_each_wrong_value():
    refs = harness.load_refs()
    const = refs["constants"]
    _, _, expect = harness.draw(refs, "scan_dense", 0)
    rows = [dict(r) for r in expect["rows"]]
    rows[3]["S"] += 1
    rows[5]["M"] *= 1 + 1e-6
    lines = ["x,S,M"] + [f"{r['x']},{r['S']},{r['M']!r}" for r in rows] + ["# fit,slope=0.25"]
    out = {"exit_code": 0, "scan_text": "\n".join(lines), "alpha23": const["alpha23"], "zeta2": const["zeta2"]}
    failed = [label for label, ok in harness.check_scan(out, expect, const) if not ok]
    assert failed == [f"S({rows[3]['x']})", f"M({rows[5]['x']})"]
