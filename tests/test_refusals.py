"""Each public refusal that no other test reaches, with its message."""

import numpy as np
import pytest

from qprim.arith import euler_phi, residues
from qprim.criteria import excluded_index_primes
from qprim.poly import PolyZ, QuadraticPoly
from qprim.search import SearchConfig
from qprim.streaks import PrimeValueStream, empirical_max_streak, prime_count

REFUSALS = {
    "search-d1-divides-d": (lambda: SearchConfig(d=10, d1=3).validate(), "d1 must be a positive divisor of d"),
    "search-k-order": (lambda: SearchConfig(d=15, d1=15, k_lo=5, k_hi=4).validate(), "need k_lo <= k_hi"),
    "search-k-lo": (lambda: SearchConfig(d=15, d1=15, k_lo=0, k_hi=4).validate(), "k must be at least 1, got k_lo = 0"),
    "search-n-cap": (lambda: SearchConfig(d=15, d1=15, n_cap=-1).validate(), "n_cap must be >= 0"),
    "stream-leading": (lambda: PrimeValueStream(PolyZ((1, 0, -1))), "positive leading coefficient"),
    "stream-constant": (lambda: PrimeValueStream(PolyZ((5,))), "constant polynomials have no prime-value stream"),
    "prime-count-x": (lambda: prime_count(QuadraticPoly(1, 1, 41), -1), "x must be >= 0"),
    "max-streak-k-max": (lambda: empirical_max_streak(2, QuadraticPoly(1, 1, 41), 0), "k_max must be >= 1"),
    "euler-phi": (lambda: euler_phi(0), r"euler_phi\(\) requires n >= 1"),
    "residues-modulus": (lambda: residues(5, np.array([2**61])), r"int64 moduli must stay below 2\^61, got 2305843009213693952"),
    "excluded-d1-d2": (lambda: excluded_index_primes(0, 0, 1, 10), "d1 and d2 must be positive"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_reason(call, message):
    with pytest.raises(ValueError, match=message):
        call()
