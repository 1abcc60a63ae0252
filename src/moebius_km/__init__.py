"""Generalized Moebius-type multiplicative functions and their summatory
asymptotics: exact point evaluation, segmented sieves with one NumPy kernel,
Euler-product constants with certified tail bounds, and empirical error-term
scans.
"""

from .arith import (
    FactoredInteger,
    eval_multiplicative,
    factorize,
    gcd,
    is_prime,
    squarefree_divisors,
)
from .asymptotics import (
    FitResult,
    ScanRow,
    ShapeParams,
    conjecture_scan,
    fit_exponent,
    geometric_checkpoints,
    reference_shape,
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
    sigma_star,
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
    L_n_sum,
    MainTermParts,
    SumQuery,
    coprime_count,
    main_term,
    mu_over_psi_sum,
    mu_over_psi_weighted_sum,
    qk_count,
    sum_convolution,
    sum_direct,
)

__version__ = "0.1.0"

__all__ = [
    "FactoredInteger",
    "eval_multiplicative",
    "factorize",
    "gcd",
    "is_prime",
    "squarefree_divisors",
    "FitResult",
    "ScanRow",
    "ShapeParams",
    "conjecture_scan",
    "fit_exponent",
    "geometric_checkpoints",
    "reference_shape",
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
    "sigma_star",
    "theta",
    "SieveBlock",
    "SieveConfig",
    "segment_memory_estimate",
    "sieve_mu_km",
    "sieve_qk",
    "stream_sum",
    "L_n_sum",
    "MainTermParts",
    "SumQuery",
    "coprime_count",
    "main_term",
    "mu_over_psi_sum",
    "mu_over_psi_weighted_sum",
    "qk_count",
    "sum_convolution",
    "sum_direct",
    "__version__",
]
