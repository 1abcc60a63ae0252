"""Shared brute-force oracles, a float series reference and a thread-race helper.

The oracles deliberately avoid the package's own factorization and sieves:
sympy.factorint supplies factorizations, sympy's sieve the primes, and the
value tables are spelled out inline, so every comparison is a genuine
two-route check.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import sympy


def race(calls, timeout=60):
    """Run each call on a thread of its own, all released by one barrier.

    A 1 us switch interval, restored afterwards, makes the threads
    interleave often even with more of them than cores.  Returns the
    results in the order of ``calls``; a thread still alive after
    ``timeout`` fails the test, and the first exception a call raised is
    raised again here.
    """
    barrier = threading.Barrier(len(calls))
    results = [None] * len(calls)
    errors = []

    def work(i):
        try:
            barrier.wait(timeout=timeout)
            results[i] = calls[i]()
        except Exception as exc:  # raised again on the caller's thread
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def oracle_mu_km(n: int, k: int, m: int) -> int:
    v = 1
    for _, e in sympy.factorint(n).items():
        if e < k:
            continue
        if e == m:
            v = -v
        else:
            return 0
    return v


def oracle_qk(n: int, k: int) -> int:
    return int(all(e < k for e in sympy.factorint(n).values()))


def oracle_mu(n: int) -> int:
    fs = sympy.factorint(n)
    if any(e > 1 for e in fs.values()):
        return 0
    return -1 if len(fs) % 2 else 1


def mu_over_psi_series(x: int, n: int, k: int, j: int) -> float:
    """Sum of mu(d) / (d^j psi_k(d)) over the d <= x coprime to n, in float.

    The term is multiplicative in d: each prime p multiplies its multiples
    by the term at p, -1 / (p^j psi_k(p)) = -p^(k-1) (p - 1) / (p^(j+1) (p^k - 1)),
    or by 0 when p divides n, and zeroes the multiples of p^2.
    """
    terms = np.ones(x + 1)
    for p in map(int, sympy.sieve.primerange(x + 1)):
        terms[p::p] *= 0.0 if n % p == 0 else -(p ** (k - 1) * (p - 1)) / (p ** (j + 1) * (p**k - 1))
        terms[p * p :: p * p] = 0.0
    return float(terms[1:].sum())
