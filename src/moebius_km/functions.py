"""Point evaluation of the Moebius-type function family and its companions.

The two-parameter family mu_{k,m} (2 <= k <= m) is multiplicative with
prime-power values

    mu_{k,m}(p^a) =  1   if 0 <= a < k
                     0   if k <= a < m
                    -1   if a == m
                     0   if a > m

and degenerates at m == k to the classical order-k Moebius variant mu_k,
which is also implemented separately from its own four-case description so
the two agree by computation rather than by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredInteger, as_factored
from .primes import checked_int


@dataclass(frozen=True)
class OrderPair:
    """Parameter pair (k, m) selecting a member of the function family.

    k and m may be any integers, NumPy's included; they are stored as ints.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", checked_int(self.k, "k"))
        object.__setattr__(self, "m", checked_int(self.m, "m"))
        if not 2 <= self.k <= self.m:
            raise ValueError(f"need 2 <= k <= m, got k={self.k}, m={self.m}")

    @property
    def conjecture_mode(self) -> bool:
        """True when m == k (outside the proven-asymptotics regime)."""
        return self.m == self.k


def as_order(order: OrderPair | tuple[int, int]) -> OrderPair:
    if isinstance(order, OrderPair):
        return order
    return OrderPair(*order)


def mu(n: int | FactoredInteger) -> int:
    """Classical Moebius function."""
    fn = as_factored(n)
    for _, e in fn.factors:
        if e >= 2:
            return 0
    return -1 if fn.omega() % 2 else 1


def mu_apostol(n: int | FactoredInteger, k: int) -> int:
    """Order-k Moebius variant, coded from its four-case description.

    1 at n=1; 0 when some p^(k+1) divides n; (-1)^r when n has exactly r
    prime factors with exponent k and the rest below k; 1 otherwise.
    Kept independent of :func:`mu_km` so mu_km(n, (k, k)) == mu_apostol(n, k)
    is a real cross-check.
    """
    if checked_int(k, "k") < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    fn = as_factored(n)
    if fn.value == 1:
        return 1
    if any(e > k for _, e in fn.factors):
        return 0
    r = sum(1 for _, e in fn.factors if e == k)
    if r:
        return -1 if r % 2 else 1
    return 1


def mu_km(n: int | FactoredInteger, order: OrderPair | tuple[int, int]) -> int:
    """mu_{k,m}(n) via the prime-power value table (see module docstring)."""
    o = as_order(order)
    k, m = o.k, o.m
    v = 1
    for _, e in as_factored(n).factors:
        if e < k:
            continue
        if e == m:
            v = -v
        else:
            return 0
    return v


def q_k(n: int | FactoredInteger, k: int) -> int:
    """Indicator of k-free integers: 1 iff no prime power p^k divides n."""
    if checked_int(k, "k") < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    fn = as_factored(n)
    return 1 if all(e < k for _, e in fn.factors) else 0


def theta(n: int | FactoredInteger) -> int:
    """Number of squarefree divisors, 2**omega(n)."""
    return 1 << as_factored(n).omega()


def psi_k(n: int | FactoredInteger, k: int) -> Fraction:
    """Exact n * prod_{p|n} (1 + 1/p + ... + 1/p^(k-1)).

    k = 1 is admitted (empty inner sum beyond the leading 1, so the value
    is n itself); the divisor-sum identity tests need that degenerate case.
    The value is not an integer in general, e.g. at (n=2, k=3) it is 7/2.
    """
    k = checked_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fn = as_factored(n)
    result = Fraction(fn.value)
    for p, _ in fn.factors:
        result *= Fraction(p**k - 1, p ** (k - 1) * (p - 1))
    return result

