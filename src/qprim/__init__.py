"""Primitive-root streaks of quadratic polynomials.

Exact integer/rational machinery for streak statistics c_g(f), the
character-sum and Euler-product densities that predict them, and a
checkpointed search for record streaks.

Importing qprim loads numpy with one OpenBLAS thread: qprim calls no BLAS
routine, so the pool OpenBLAS would start is idle.  OPENBLAS_NUM_THREADS is
set for that one import and removed again, so os.environ and child processes
see the caller's environment.  A caller who wants threaded BLAS in the same
process sets OPENBLAS_NUM_THREADS or imports numpy first.
"""

import os
import sys

__version__ = "0.1.0"

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it.  Unset, it
# starts a thread per CPU but one, which costs about 60 ms of each start-up on
# 2 vCPUs and more on wider machines
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .arith import (
    Factorization,
    FactorizationError,
    factor,
    is_prime,
    is_primitive_root,
    kronecker,
    multiplicative_order,
    residual_index,
)
from .charsums import (
    FundamentalDiscriminant,
    admissible_discriminants,
    fundamental_discriminant,
    inert_proportion,
)
from .densities import (
    DensityReport,
    LValue,
    dirichlet_l,
    expected_max_streak,
    hardy_littlewood_constant,
    pr_density,
)
from .poly import PolyZ, QuadraticPoly, parse_poly
from .search import SearchConfig, SearchRecord, candidate_poly, sweep
from .streaks import PrimeValueStream, StreakResult, prime_count, streak

__all__ = [
    "Factorization",
    "FactorizationError",
    "FundamentalDiscriminant",
    "DensityReport",
    "LValue",
    "PolyZ",
    "PrimeValueStream",
    "QuadraticPoly",
    "SearchConfig",
    "SearchRecord",
    "StreakResult",
    "admissible_discriminants",
    "candidate_poly",
    "dirichlet_l",
    "expected_max_streak",
    "factor",
    "fundamental_discriminant",
    "hardy_littlewood_constant",
    "inert_proportion",
    "is_prime",
    "is_primitive_root",
    "kronecker",
    "multiplicative_order",
    "parse_poly",
    "pr_density",
    "prime_count",
    "residual_index",
    "streak",
    "sweep",
]
