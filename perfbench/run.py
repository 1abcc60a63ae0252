"""Benchmark of moebius_km: two workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload conv_sum --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload scan_dense --trace 1

The load is a closed loop with one client: repetitions run one after
another, each in a fresh interpreter (perfbench/worker.py) importing the
package from ``src/`` of this checkout, until ``--seconds`` have passed.
Set-up time is the median over the repetitions; call times add up the
fastest time of each timed part of the call.
The seed picks the first of the pre-verified input variants in
perfbench/refs.json that the repetitions step through; every exact output
is checked against its variant after the timed section. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFS = os.path.join(HERE, "refs.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("conv_sum", "scan_dense")
REP_TIMEOUT_S = 120
EDGE_BLOCKS = 8  # full blocks at each end of the range whose median gives block_ms_low/top
OVERHEAD_PAIRS = 5  # untraced/traced repetition pairs per workload in a traced run


class SetupError(Exception):
    """The program under test cannot be run from this checkout."""


# ---------------------------------------------------------------------------
# Inputs and repetitions


def load_refs() -> dict:
    if not os.path.isfile(os.path.join(SRC, "moebius_km", "__init__.py")):
        raise SetupError(f"no package at {SRC}/moebius_km: run from a checkout of the repository")
    with open(REFS) as fh:
        return json.load(fh)


def draw(refs: dict, workload: str, seed: int, rep: int = 0) -> tuple[int, dict, dict]:
    """(variant index, inputs, expected outputs) of a seed's rep-th repetition.

    Repetitions step through the variants from index seed mod count, so
    the run's fastest times and peak RSS, which differ a little between
    variants, do not hinge on the one variant a seed would pick.
    """
    variants = refs[workload]
    index = (seed + rep) % len(variants)
    return index, variants[index]["inputs"], variants[index]["expect"]


def child_env(inputs: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MOEBIUS_", "PYTHON"))}
    # At most the workload's own sieve threads: no BLAS or OpenMP pools.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["MOEBIUS_WORKERS"] = str(inputs.get("workers", 1))
    return env


def run_rep(workload: str, inputs: dict, mode: str = "plain") -> dict:
    """One repetition in a fresh interpreter; {"error": ...} if it did not finish.

    mode is "plain", "traced" (spans around the workload call) or "layers"
    (traced, then the per-layer passes); see worker.py.
    """
    spec = json.dumps({"workload": workload, "inputs": inputs, "mode": mode})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", WORKER],
            input=spec,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
            env=child_env(inputs),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rep = json.loads(lines[-1])
    if not os.path.abspath(rep["package_file"]).startswith(SRC + os.sep):
        raise SetupError(f"imported {rep['package_file']}, not the package under {SRC}")
    rep["setup_s"] = rep["ready"] - spawned
    return rep


# ---------------------------------------------------------------------------
# Correctness checks: each returns one (label, ok) pair per exact result.


def parse_scan(text: str) -> tuple[list[dict], dict | None]:
    """Rows and fit of a scan report, CSV or newline-delimited JSON.

    Comment lines (``#``) other than the fit line, a leading JSON object
    without ``x``, and columns beyond x, S and M are ignored, so a
    provenance header or an extra error column does not break the check.
    """
    rows, fit, header = [], None, None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            obj = json.loads(line)
            if "x" in obj and "S" in obj:
                rows.append(obj)
            elif "slope" in obj:
                fit = obj
        elif line.startswith("# fit,"):
            fit = dict(kv.split("=", 1) for kv in line[len("# fit,"):].split(","))
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, fit


def _within(value: float, target: float, bound: float) -> bool:
    # Float slack of a few ulps on top of the certified bound.
    return abs(value - target) <= bound + 4 * math.ulp(target)


def check_constants(out: dict, const_ref: dict) -> list[tuple[str, bool]]:
    z2, z4 = out["zeta2"], out["zeta4"]
    a2, a23, a22 = out["apostol_A2"], out["alpha23"], out["alpha22"]
    identity_bound = (
        a22["tail_bound"]
        + z2["value"] * a2["tail_bound"]
        + a2["value"] * z2["tail_bound"]
        + z2["tail_bound"] * a2["tail_bound"]
    )
    checks = [
        ("zeta(2) = pi^2/6", _within(z2["value"], math.pi**2 / 6, z2["tail_bound"])),
        ("zeta(4) = pi^4/90", _within(z4["value"], math.pi**4 / 90, z4["tail_bound"])),
        ("alpha_{2,2} = zeta(2) A_2", _within(a22["value"], z2["value"] * a2["value"], identity_bound)),
    ]
    for key in ("apostol_A2", "alpha23"):
        ref, cur = const_ref[key], out[key]
        bound = ref["tail_bound"] + cur["tail_bound"]
        checks.append((f"{key} vs reference", _within(cur["value"], ref["value"], bound)))
    return checks


def check_scan(out: dict, expect: dict, const_ref: dict) -> list[tuple[str, bool]]:
    rows, fit = parse_scan(out["scan_text"])
    # M = x n^2 alpha / (zeta psi alpha_n): both runs' constants lie within
    # their bounds of the true values, which bounds the relative change of M.
    rel = 1e-12
    for key in ("alpha23", "zeta2"):
        rel += (const_ref[key]["tail_bound"] + out[key]["tail_bound"]) / const_ref[key]["value"]
    checks = [("scan exit code 0", out["exit_code"] == 0)]
    for i, want in enumerate(expect["rows"]):
        got = rows[i] if i < len(rows) else None
        same_x = got is not None and int(got["x"]) == want["x"]
        checks.append((f"S({want['x']})", same_x and int(got["S"]) == want["S"]))
        checks.append((f"M({want['x']})", same_x and _within(float(got["M"]), want["M"], rel * want["M"])))
    checks.append(("no extra rows", len(rows) == len(expect["rows"])))
    checks.append(("fit line", fit is not None and math.isfinite(float(fit["slope"]))))
    return checks


def check_outputs(workload: str, out: dict, expect: dict, const_ref: dict) -> list[tuple[str, bool]]:
    if workload == "conv_sum":
        got = out["values"]
        return [
            (f"query {i}", i < len(got) and got[i] == want["S"])
            for i, want in enumerate(expect["values"])
        ]
    return check_constants(out, const_ref) + check_scan(out, expect, const_ref)


def expected_checks(workload: str, expect: dict) -> int:
    """Number of checks a repetition makes; all count as failed if it crashes."""
    if workload == "conv_sum":
        return len(expect["values"])
    return 5 + 1 + 2 * len(expect["rows"]) + 2


def checked(workload: str, rep: dict, expect: dict, const_ref: dict) -> tuple[int, list[str]]:
    """(attempted, labels of failed checks) for one repetition."""
    n = expected_checks(workload, expect)
    if "error" in rep:
        return n, [f"repetition failed: {rep['error']}"] * n
    try:
        checks = check_outputs(workload, rep["outputs"], expect, const_ref)
    except (KeyError, TypeError, ValueError) as exc:
        return n, [f"output not checkable: {exc!r}"] * n
    return len(checks), [label for label, ok in checks if not ok]


# ---------------------------------------------------------------------------
# Noise probe


def calibration_s() -> float:
    """Median time of a fixed pure-Python plus NumPy loop; rises when a neighbour slows the host."""
    import numpy as np

    data = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 21)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        np.sort(data)
        times.append(time.perf_counter() - t0)
    return median(times)


def probe_line(versions: dict) -> str:
    return (
        f"probe calibration_s={calibration_s():.4f} loadavg_1m={os.getloadavg()[0]:.2f} "
        + " ".join(f"{k}={v}" for k, v in versions.items())
    )


# ---------------------------------------------------------------------------
# End-to-end run


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4g} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


def end_to_end(workload: str, seed: int, seconds: int, refs: dict) -> tuple[dict, list[str]]:
    attempted, failures, used, good = 0, [], [], []
    deadline = time.monotonic() + seconds
    while not used or time.monotonic() < deadline:
        index, inputs, expect = draw(refs, workload, seed, len(used))
        rep = run_rep(workload, inputs)
        n, failed = checked(workload, rep, expect, refs["constants"])
        attempted += n
        failures += failed
        used.append(index)
        if "error" not in rep:
            rep["inputs"] = inputs
            good.append(rep)
    if not good:
        raise SetupError(f"no repetition of {workload} finished: {failures[0]}")
    setup = [r["setup_s"] for r in good]
    parts = list(zip(*(r["parts"] for r in good)))  # parts[j]: part j of every repetition
    rss = [r["rss_kib"] / 1024 for r in good]
    metrics = {
        "setup_s": (median(setup), "s"),
        # The calls are deterministic, so repetitions differ only by
        # interference from the host, which only adds time. The fastest
        # time of each timed part is the steadiest estimate of its cost,
        # and the parts' sum that of the whole call.
        "first_result_s": (min(parts[0]), "s"),
        "total_s": (sum(min(p) for p in parts), "s"),
        # The run's peak: the largest of its repetitions' peaks.
        "peak_rss_mib": (max(rss), "MiB"),
    }
    totals = [sum(r["parts"]) for r in good]
    lines = [
        f"workload {workload} seed {seed} repetitions {len(used)} variants {used}",
        f"first inputs {json.dumps(draw(refs, workload, seed)[1])}",
        probe_line(good[0]["versions"]),
        f"setup_s {metrics['setup_s'][0]:.4f} s (median; {spread(setup)})",
        f"first_result_s {metrics['first_result_s'][0]:.4f} s (fastest; {spread(parts[0])})",
        f"total_s {metrics['total_s'][0]:.4f} s (sum of each part's fastest; whole calls {spread(totals)})",
        f"peak_rss_mib {metrics['peak_rss_mib'][0]:.2f} MiB (largest of {len(rss)})",
    ]
    # The workload-specific names of the same measurements (see README.md).
    if workload == "conv_sum":
        lines.append(f"conv_s {metrics['total_s'][0]:.4f} s")
    else:
        lines.append(f"constants_s {metrics['first_result_s'][0]:.4f} s")
        lines.append(f"scan_s {min(parts[1]):.4f} s")
    lines.append(f"fail_frac {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    lines += [f"FAILED {label}" for label in failures[:20]]
    return _result(attempted, failures, metrics), lines


def _result(attempted: int, failures: list, metrics: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Traced run


def span_stats(spans: list) -> tuple[dict, dict, list[float]]:
    """Per span name calls, inclusive and self seconds; per leaf name calls and seconds.

    Self time is a span's duration minus its child spans and folded leaf calls.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, leaf in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
    leaves = defaultdict(lambda: [0, 0.0])
    self_s = []
    for i, (name, t0, t1, parent, leaf) in enumerate(spans):
        own = t1 - t0 - child[i] - sum(s for _, s in leaf.values())
        self_s.append(own)
        st = stats[name]
        st["calls"] += 1
        st["incl"] += t1 - t0
        st["self"] += own
        for leaf_name, (calls, secs) in leaf.items():
            leaves[leaf_name][0] += calls
            leaves[leaf_name][1] += secs
    return stats, leaves, self_s


def block_metrics(blocks: list) -> dict:
    full = [s for cells, s in blocks if cells == blocks[0][0]]
    return {
        "sieve.blocks": (len(blocks), "count"),
        "sieve.kernel_s": (sum(s for _, s in blocks), "s"),
        "sieve.block_ms_low": (1e3 * median(full[:EDGE_BLOCKS]), "ms"),
        "sieve.block_ms_top": (1e3 * median(full[-EDGE_BLOCKS:]), "ms"),
    }


def layer_metrics(workload: str, traced: dict, rows: int) -> dict:
    stats, leaves, _ = span_stats(traced["spans"])
    ex = traced.get("extras", {})

    def incl(name):
        return stats[name]["incl"]

    if workload == "conv_sum":
        return {
            "summatory.qk_count_calls": (stats["summatory.qk_count"]["calls"], "count"),
            "summatory.qk_count_s": (incl("summatory.qk_count"), "s"),
            "summatory.conv_self_s": (stats["summatory.sum_convolution"]["self"], "s"),
            "functions.mu_calls": (leaves["functions.mu"][0], "count"),
            "functions.mu_s": (leaves["functions.mu"][1], "s"),
        }
    m = {"primes.table_s": (incl("primes.primes_up_to"), "s")}
    m.update(block_metrics(ex["blocks"]))
    m["sieve.peak_traced_mib"] = (ex["peak_traced_bytes"] / 2**20, "MiB")
    kernel_s = m["sieve.kernel_s"][0]
    m.update({
        # The 1-worker pass runs with a warm table, so only the kernel is subtracted.
        "sieve.stream_other_s": (ex["stream_1w_s"] - kernel_s, "s"),
        "sieve.thread_speedup": (ex["stream_1w_s"] / ex["stream_nw_s"], "ratio"),
        "constants.zeta_s": (incl("constants.zeta"), "s"),
        "constants.apostol_A_s": (incl("constants.apostol_A"), "s"),
        "constants.alpha_s": (incl("constants.alpha"), "s"),
        "asymptotics.stream_s": (incl("asymptotics.stream_sum"), "s"),
        "asymptotics.constants_s": (incl("asymptotics.alpha") + incl("asymptotics.zeta"), "s"),
        "asymptotics.self_s": (stats["cli.scan"]["self"], "s"),
        "asymptotics.fit_s": (incl("cli.fit_exponent"), "s"),
        "asymptotics.rows": (rows, "count"),
        "cli.self_s": (stats["cli.main"]["self"], "s"),
    })
    return m


# Wrapped attributes each per-layer metric relies on; a metric whose
# attribute no longer exists is reported absent instead of as a wrong number.
NEEDS = {
    "primes.table_s": ("sieve.primes_up_to", "constants.primes_up_to"),
    "summatory.qk_count_calls": ("summatory.qk_count",),
    "summatory.qk_count_s": ("summatory.qk_count",),
    "summatory.conv_self_s": ("summatory.qk_count", "summatory.mu"),
    "functions.mu_calls": ("summatory.mu",),
    "functions.mu_s": ("summatory.mu",),
    "asymptotics.stream_s": ("asymptotics.stream_sum",),
    "asymptotics.constants_s": ("asymptotics.alpha", "asymptotics.zeta"),
    "asymptotics.self_s": ("cli.scan", "asymptotics.stream_sum", "asymptotics.alpha", "asymptotics.zeta"),
    "asymptotics.fit_s": ("cli.fit_exponent",),
    "cli.self_s": ("cli.scan", "cli.fit_exponent"),
}


def traced_run(seed: int, refs: dict) -> tuple[dict, list[str]]:
    """Every workload, untraced and traced, whatever --workload names.

    Each layer is loaded by only some workloads and a traced run reports
    every per-layer metric, so it covers all of them; names carry the
    workload they were measured on. Per workload it alternates
    OVERHEAD_PAIRS untraced and traced repetitions of the seed's variant;
    the first traced one also runs the per-layer passes and gives the spans.
    """
    attempted, failures, metrics, lines, runs, versions = 0, [], {}, [], [], {}
    for workload in WORKLOADS:
        index, inputs, expect = draw(refs, workload, seed)
        plain, traced = [], []
        for pair in range(OVERHEAD_PAIRS):
            for mode, into in (("plain", plain), ("layers" if pair == 0 else "traced", traced)):
                rep = run_rep(workload, inputs, mode)
                n, failed = checked(workload, rep, expect, refs["constants"])
                attempted += n
                failures += failed
                into.append(rep)
        errors = [r["error"] for r in plain + traced if "error" in r]
        if errors:
            lines.append(f"absent {workload}.*: {errors[0]}")
            continue
        layered = traced[0]
        rows = len(parse_scan(layered["outputs"]["scan_text"])[0]) if workload == "scan_dense" else 0
        layer = layer_metrics(workload, layered, rows)
        # Fastest of each side, as in the end-to-end run.
        plain_s = [sum(r["parts"]) for r in plain]
        traced_s = min(sum(r["parts"]) for r in traced)
        layer["trace.overhead_s"] = (traced_s - min(plain_s), "s")
        absent = {a.removeprefix("moebius_km.") for a in layered["absent"]}
        for name, value in layer.items():
            if absent.intersection(NEEDS.get(name, ())):
                lines.append(f"absent {workload}.{name}: {sorted(absent)} no longer exist")
            else:
                metrics[f"{workload}.{name}"] = value
        lines.append(
            f"traced {workload} variant {index}: fastest untraced {min(plain_s):.4f} s, "
            f"traced {traced_s:.4f} s ({OVERHEAD_PAIRS} each); an overhead within the "
            f"untraced spread ({min(plain_s):.4f}-{max(plain_s):.4f} s) is noise"
        )
        _, _, self_s = span_stats(layered["spans"])
        runs.append({
            "run_id": f"{workload}-seed{seed}",
            "workload": workload,
            "absent": layered["absent"],
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "self_s": own, "leaf": s[4]}
                for s, own in zip(layered["spans"], self_s)
            ],
        })
        versions = layered["versions"]
    lines.insert(0, probe_line(versions))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"seed": seed, "runs": runs}, fh)
    lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    lines += [f"FAILED {label}" for label in failures[:20]]
    return _result(attempted, failures, metrics), lines


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # On SIGTERM unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        refs = load_refs()
        if args.trace:
            result, lines = traced_run(args.seed, refs)
        elif args.workload != "all":
            result, lines = end_to_end(args.workload, args.seed, args.seconds, refs)
        else:
            result, lines = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, []
            for workload in WORKLOADS:
                part, part_lines = end_to_end(workload, args.seed, args.seconds, refs)
                lines += part_lines + [json.dumps(part)]
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{workload}.{k}": v for k, v in part["metrics"].items()})
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
