"""One benchmark repetition in a fresh interpreter.

run.py starts this script once per repetition, so the package's lazy caches
(the prime table in ``primes``, the zeta and prime-zeta caches in
``constants``) start cold in every repetition, as they do for a command-line
user, and the peak RSS is that of this repetition alone. The spec comes
as JSON on stdin; one JSON line with timings and raw outputs goes to stdout.
Reference values never reach this process: run.py checks the outputs.

With ``"mode": "traced"`` the public module attributes named in ``WRAPPED``
are rebound to timing wrappers for the workload call (no source file
changes), then restored; ``"layers"`` adds the untraced per-layer passes in
``EXTRAS`` after that. ``"plain"`` wraps nothing.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import moebius_km  # noqa: E402

READY = time.monotonic()  # run.py measures setup_s from its spawn time to here

import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import numpy as np  # noqa: E402

from moebius_km import (  # noqa: E402
    OrderPair,
    SieveConfig,
    SumQuery,
    alpha,
    apostol_A,
    cli,
    geometric_checkpoints,
    sieve_mu_km,
    stream_sum,
    sum_convolution,
    zeta,
)

now = time.perf_counter

# (module, attribute, span name, leaf).  Leaf boundaries are called hundreds
# of thousands of times per repetition, so they are folded into their parent
# span as a call count and a total time instead of one span per call.
WRAPPED = (
    ("moebius_km.sieve", "primes_up_to", "primes.primes_up_to", False),
    ("moebius_km.constants", "primes_up_to", "primes.primes_up_to", False),
    ("moebius_km.summatory", "qk_count", "summatory.qk_count", False),
    ("moebius_km.summatory", "mu", "functions.mu", True),
    ("moebius_km.asymptotics", "stream_sum", "asymptotics.stream_sum", False),
    ("moebius_km.asymptotics", "alpha", "asymptotics.alpha", False),
    ("moebius_km.asymptotics", "zeta", "asymptotics.zeta", False),
    ("moebius_km.cli", "scan", "cli.scan", False),
    ("moebius_km.cli", "fit_exponent", "cli.fit_exponent", False),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, {leaf: [calls, s]}].

    Every wrapped boundary is called from the main thread (the sieve's pool
    threads call none of them), so one stack of open spans suffices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, now(), 0.0, self.stack[-1] if self.stack else -1, {}]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = now()

    def _wrapper(self, fn, name: str, leaf: bool):
        if leaf:
            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    bucket = self.spans[self.stack[-1]][4] if self.stack else {}
                    slot = bucket.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += now() - t0
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, leaf in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(fn, name, leaf))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved.clear()


# ---------------------------------------------------------------------------
# Workload calls.  Each returns (parts, outputs): parts are the seconds of the
# consecutive timed parts of the call, the first ending at the first result.


def op_conv_sum(inp, span):
    values, parts = [], []
    for q in inp["queries"]:
        t0 = now()
        with span("summatory.sum_convolution"):
            values.append(sum_convolution(SumQuery(q["x"], OrderPair(*q["order"]), q["coprime_to"])))
        parts.append(now() - t0)
    return parts, {"values": values}


def _estimate(c) -> dict:
    return {"value": c.value, "tail_bound": c.tail_bound}


def op_scan_dense(inp, span):
    k, m = inp["order"]
    limit = inp["prime_limit"]
    fd, path = _scratch_file()
    os.close(fd)
    argv = [
        "scan", "--k", str(k), "--m", str(m), "--coprime-to", str(inp["coprime_to"]),
        "--from", str(inp["from"]), "--to", str(inp["to"]),
        "--points-per-decade", str(inp["points_per_decade"]), "--fit", "--out", path,
    ]
    try:
        t0 = now()
        with span("constants.zeta"):
            z2 = zeta(k, 1e-12)
        with span("constants.apostol_A"):
            a2 = apostol_A(k, limit)
        with span("constants.alpha"):
            a23 = alpha((k, m), limit)
        t1 = now()
        with span("cli.main"):
            code = cli.main(argv)
        parts = [t1 - t0, now() - t1]
        with open(path) as fh:
            text = fh.read()
    finally:
        os.unlink(path)
    # Constants for the closed-form and identity checks, outside the timing.
    outputs = {
        "exit_code": code,
        "scan_text": text,
        "zeta2": _estimate(z2),
        "apostol_A2": _estimate(a2),
        "alpha23": _estimate(a23),
        "zeta4": _estimate(zeta(4, 1e-12)),
        "alpha22": _estimate(alpha((k, k), limit)),
    }
    return parts, outputs


def _scratch_file():
    # The benchmark writes only inside its own directory of the checkout.
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    return tempfile.mkstemp(prefix="scan-", suffix=".csv", dir=out_dir)


OPS = {"conv_sum": op_conv_sum, "scan_dense": op_scan_dense}


# ---------------------------------------------------------------------------
# Untraced per-layer passes, run after the traced call.


def kernel_pass(x: int, order, segment: int) -> list[list]:
    """[cells, seconds] of sieve_mu_km on every segment of [1, x]."""
    config = SieveConfig(segment_size=segment, worker_count=1)
    blocks = []
    for lo in range(1, x + 1, segment):
        hi = min(lo + segment - 1, x)
        t0 = now()
        sieve_mu_km(lo, hi, order, config)
        blocks.append([hi - lo + 1, now() - t0])
    return blocks


def timed_stream(x, order, n, checkpoints, config) -> float:
    t0 = now()
    stream_sum(x, order, coprime_to=n, checkpoints=checkpoints, config=config)
    return now() - t0


def peak_traced_bytes(x, order, n, checkpoints, config) -> int:
    tracemalloc.start()
    try:
        stream_sum(x, order, coprime_to=n, checkpoints=checkpoints, config=config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def extras_scan_dense(inp) -> dict:
    order, x, n = tuple(inp["order"]), inp["to"], inp["coprime_to"]
    seg = 1 << 20  # SieveConfig's default, which the CLI scan uses
    cps = geometric_checkpoints(inp["from"], x, inp["points_per_decade"])
    one = SieveConfig(segment_size=seg, worker_count=1)
    many = SieveConfig(segment_size=seg, worker_count=inp["workers"])
    return {
        "blocks": kernel_pass(x, order, seg),
        "stream_1w_s": timed_stream(x, order, n, cps, one),
        "stream_nw_s": timed_stream(x, order, n, cps, many),
        "peak_traced_bytes": peak_traced_bytes(x, order, n, cps, many),
    }


EXTRAS = {"scan_dense": extras_scan_dense}


def peak_rss_kib() -> int:
    """High-water RSS of this process alone.

    ru_maxrss is not used: after a vfork-style spawn it can report the
    parent's resident size when that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.stdin.read())
    name, inp = spec["workload"], spec["inputs"]
    result = {
        "ready": READY,
        "versions": {
            "moebius_km": getattr(moebius_km, "__version__", "unknown"),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "package_file": moebius_km.__file__,
    }
    tracer = Tracer() if spec["mode"] != "plain" else None
    if tracer is not None:
        tracer.install()
    try:
        parts, outputs = OPS[name](inp, tracer.span if tracer else lambda _: nullcontext())
    finally:
        if tracer is not None:
            tracer.restore()
    result.update(parts=parts, outputs=outputs)
    if tracer is not None:
        result.update(spans=tracer.spans, absent=tracer.absent)
    if spec["mode"] == "layers" and name in EXTRAS:
        result["extras"] = EXTRAS[name](inp)
    result["rss_kib"] = peak_rss_kib()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
