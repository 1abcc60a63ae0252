"""Generalized Moebius-type multiplicative functions and their summatory
asymptotics: exact point evaluation, segmented sieves with one NumPy kernel,
Euler-product constants with certified tail bounds, and empirical error-term
scans.
"""

from .arith import (
    FactoredInteger,
    factorize,
    gcd,
    is_prime,
    squarefree_divisors,
)
from .asymptotics import (
    FitResult,
    ScanRow,
    fit_exponent,
    geometric_checkpoints,
    scan,
)
from .constants import (
    ConstantEstimate,
    PrecisionError,
    alpha,
    alpha_n,
    apostol_A,
    euler_factor,
    zeta,
)
from .functions import (
    OrderPair,
    mu,
    mu_apostol,
    mu_km,
    psi_k,
    q_k,
    theta,
)
from .sieve import (
    SieveBlock,
    SieveConfig,
    segment_memory_estimate,
    sieve_mu_km,
    sieve_qk,
    stream_sum,
)
from .summatory import (
    MainTermParts,
    SumQuery,
    convolution_sums,
    main_term,
    qk_count,
    sum_convolution,
    sum_direct,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredInteger",
    "factorize",
    "gcd",
    "is_prime",
    "squarefree_divisors",
    "FitResult",
    "ScanRow",
    "fit_exponent",
    "geometric_checkpoints",
    "scan",
    "ConstantEstimate",
    "PrecisionError",
    "alpha",
    "alpha_n",
    "apostol_A",
    "euler_factor",
    "zeta",
    "OrderPair",
    "mu",
    "mu_apostol",
    "mu_km",
    "psi_k",
    "q_k",
    "theta",
    "SieveBlock",
    "SieveConfig",
    "segment_memory_estimate",
    "sieve_mu_km",
    "sieve_qk",
    "stream_sum",
    "MainTermParts",
    "SumQuery",
    "convolution_sums",
    "main_term",
    "qk_count",
    "sum_convolution",
    "sum_direct",
    "__version__",
]
