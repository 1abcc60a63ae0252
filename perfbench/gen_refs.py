"""Regenerate perfbench/refs.json: the inputs each seed can draw, with their exact values.

Every exact value is computed by both independent routes of the package,
``stream_sum`` (one streaming sieve pass) and ``sum_convolution`` (divisor
convolution over k-free counts), and is written only if the two agree. Each
value records the routes that confirmed it. The inputs come from a fixed
generator seed, so rerunning this script reproduces the file.

Run from the repository root (about 8 minutes on 2 cores):

    python3 perfbench/gen_refs.py
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import moebius_km  # noqa: E402
from moebius_km import (  # noqa: E402
    OrderPair,
    SieveConfig,
    SumQuery,
    alpha,
    apostol_A,
    geometric_checkpoints,
    scan,
    stream_sum,
    sum_convolution,
    zeta,
)

VARIANTS = 16
GEN_SEED = 20261017
BAND = 0.01  # x is drawn within +-1% of its nominal size
ROUTES = ["stream_sum", "sum_convolution"]
PRIME_LIMIT = 1_000_000
TOL = 1e-12
SEGMENT = 1 << 20
SCAN_MODULI = (30, 42, 66, 78)  # 2*3*p: three primes each, so the mask cost is alike
CONFIG = SieveConfig(segment_size=SEGMENT, worker_count=2)


def near(rng: random.Random, nominal: float) -> int:
    return round(nominal * (1 + rng.uniform(-BAND, BAND)))


def confirmed(order: tuple[int, int], n: int, xs: list[int]) -> dict[int, int]:
    """Exact S(x; n) for each x by both routes; exits on any disagreement."""
    cps = sorted(set(xs))
    streamed = dict(stream_sum(cps[-1], order, coprime_to=n, checkpoints=cps, config=CONFIG))
    out = {}
    for x in cps:
        conv = sum_convolution(SumQuery(x, OrderPair(*order), n))
        if conv != streamed[x]:
            sys.exit(f"routes disagree at order={order} n={n} x={x}: {streamed[x]} != {conv}")
        out[x] = conv
    print(f"confirmed order={order} n={n}: {len(cps)} values up to {cps[-1]}", flush=True)
    return out


def estimate(c) -> dict[str, float]:
    return {"value": c.value, "tail_bound": c.tail_bound}


# (order, coprime_to, x): nominal sizes of 1e11, 1e10 and 1e15 scaled down so
# that a repetition stays short and a streaming pass can still confirm every
# value when this file is made.
CONV_QUERIES = (((2, 3), 1, 3e9), ((2, 2), 1, 3e8), ((3, 4), 30, 1e11))


def conv_sum_variants(rng: random.Random) -> list[dict]:
    draws = [[near(rng, nominal) for _, _, nominal in CONV_QUERIES] for _ in range(VARIANTS)]
    sums = [
        confirmed(order, n, [d[i] for d in draws])
        for i, (order, n, _) in enumerate(CONV_QUERIES)
    ]
    variants = []
    for d in draws:
        queries = [
            {"order": list(order), "coprime_to": n, "x": x}
            for (order, n, _), x in zip(CONV_QUERIES, d)
        ]
        values = [
            {"S": sums[i][x], "confirmed_by": ROUTES} for i, x in enumerate(d)
        ]
        variants.append({"inputs": {"queries": queries}, "expect": {"values": values}})
    return variants


def scan_dense_variants(rng: random.Random) -> list[dict]:
    variants = []
    for i in range(VARIANTS):
        n = SCAN_MODULI[i % len(SCAN_MODULI)]
        lo = 1000 + rng.randrange(100)
        hi = near(rng, 1e8)
        inputs = {
            "order": [2, 3],
            "coprime_to": n,
            "from": lo,
            "to": hi,
            "points_per_decade": 20,
            "prime_limit": PRIME_LIMIT,
            "workers": 2,
        }
        cps = geometric_checkpoints(lo, hi, 20)
        sums = confirmed((2, 3), n, cps)
        rows = scan(
            (2, 3), coprime_to=n, checkpoints=cps, prime_limit=PRIME_LIMIT, tol=TOL, config=CONFIG
        )
        if [(r.x, r.S) for r in rows] != [(c, sums[c]) for c in cps]:
            sys.exit(f"scan rows disagree with confirmed sums for {inputs}")
        expect_rows = [
            {"x": r.x, "S": r.S, "M": r.M, "confirmed_by": ROUTES} for r in rows
        ]
        variants.append({"inputs": inputs, "expect": {"rows": expect_rows}})
    return variants


def main() -> None:
    rng = random.Random(GEN_SEED)
    refs = {
        "generated_with": {
            "moebius_km": moebius_km.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "gen_seed": GEN_SEED,
        },
        "constants": {
            "prime_limit": PRIME_LIMIT,
            "tol": TOL,
            "zeta2": estimate(zeta(2, TOL)),
            "apostol_A2": estimate(apostol_A(2, PRIME_LIMIT)),
            "alpha23": estimate(alpha((2, 3), PRIME_LIMIT)),
        },
        "conv_sum": conv_sum_variants(rng),
        "scan_dense": scan_dense_variants(rng),
    }
    path = os.path.join(HERE, "refs.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
