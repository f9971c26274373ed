"""A seeded differential test of the proven-prime walk and the k-sweep.

streaks._residual_indices, streak, pr_stats and streaks.base_streaks are
compared with an enumeration of f(0..n_cap) by sympy.isprime, with indices
from sympy.n_order and p - 1 from sympy.factorint.  The random f have degree
1 to 3 and come in four shapes: small coefficients with negative middle ones,
a hump whose values repeat below the tail start, values near or crossing
2^50 (the sweep's int64 / Python-int split in arith.Lanes), and a value that is a base-2
strong pseudoprime with no factor up to the sieve depth.  Bases are signed
and may carry a square factor; k ranges are narrow or wide, n_cap small.
"""

import random
from functools import cache

import pytest

from qprim.arith import _QUOTIENT_PRIME_BOUND, is_strong_probable_prime
from qprim.charsums import is_valid_base
from qprim.poly import PolyZ
from qprim.streaks import PrimeValueStream, _residual_indices, base_streaks, pr_stats, streak

sympy = pytest.importorskip("sympy")

SEED = 20261019
# base-2 strong pseudoprimes above 2000^2 whose least prime factor exceeds 2000
PSEUDOPRIMES = (6952037, 7306261, 8725753, 9863461, 10425511, 12327121)


def through(coeffs: list[int], n0: int, value: int) -> PolyZ:
    """The PolyZ with coeffs (constant term first), its constant moved so that f(n0) = value."""
    f = PolyZ(tuple([0] + coeffs[1:]))
    return PolyZ(tuple([value - f.eval(n0)] + coeffs[1:]))


def random_case(rng: random.Random, shape: str) -> tuple:
    degree = rng.randint(1, 3)
    n_cap = rng.choice([0, 1, rng.randint(2, 60), rng.randint(60, 240)])
    lead = rng.randint(1, 6 if degree == 3 else 40)
    middle = [rng.randint(-60, 20) for _ in range(degree - 1)]
    coeffs = [rng.randint(-50, 50)] + middle + [lead]
    if shape == "small":
        f = PolyZ(tuple(coeffs))
    elif shape == "hump":  # a (X - v)^2 + c: f(v - t) = f(v + t)
        v, a = rng.randint(3, 30), rng.randint(1, 4)
        f = PolyZ((a * v * v + rng.randint(-20, 20), -2 * a * v, a))
        n_cap = max(n_cap, 2 * v + 5)
    elif shape == "near50":  # values below 2^50 to a prime f(n_cap): int64 groups at their widest p
        n_cap = rng.randint(100, 240)
        f = through(coeffs, n_cap, sympy.prevprime(_QUOTIENT_PRIME_BOUND - rng.randint(1, 1 << 20)))
    elif shape == "cross50":  # a prime just above 2^50 halfway
        n_cap = rng.randint(100, 240)
        f = through(coeffs, rng.randint(n_cap // 3, 2 * n_cap // 3), sympy.nextprime(_QUOTIENT_PRIME_BOUND))
    else:  # "pseudoprime"
        n_cap = rng.randint(20, 240)
        f = through(coeffs, rng.randint(0, n_cap), rng.choice(PSEUDOPRIMES))
    g = 0
    while not is_valid_base(g):
        g = rng.choice([1, -1]) * rng.choice([1, 1, 4, 9]) * rng.randint(2, 30)
    k_lo = rng.randint(1, 5) if rng.random() < 0.5 else rng.randint(1, 2000)
    k_hi = k_lo + (rng.randint(30, 80) if k_lo <= 5 else rng.randint(0, 3))
    return f, g, k_lo, k_hi, n_cap


def cases() -> list[tuple]:
    rng = random.Random(SEED)
    shapes = ["small"] * 10 + ["hump"] * 6 + ["near50"] * 5 + ["cross50"] * 5 + ["pseudoprime"] * 4
    return [random_case(rng, shape) for shape in shapes]


CASES = cases()


@cache
def entries(f: PolyZ, n_cap: int) -> tuple[tuple[int, int], ...]:
    """(n, f(n)) at the first n of each distinct prime value, n <= n_cap."""
    seen, out = set(), []
    for n in range(n_cap + 1):
        v = f.eval(n)
        if v not in seen and sympy.isprime(v):
            seen.add(v)
            out.append((n, v))
    return tuple(out)


@cache
def index(g: int, p: int) -> int | None:
    return None if g % p == 0 else (p - 1) // sympy.n_order(g % p, p)


def oracle_streak(f: PolyZ, g: int, n_cap: int) -> tuple:
    """streak's fields after g, from the enumeration."""
    count = seen = 0
    for n, p in entries(f, n_cap):
        seen += 1
        i = index(g, p)
        if i is not None and i > 1:
            return count, n, p, i, n + 1, seen
        count += i is not None
    return count, None, None, None, n_cap + 1, seen


@pytest.mark.parametrize("f, g, k_lo, k_hi, n_cap", CASES)
def test_walks_and_sweep_match_the_enumeration(f, g, k_lo, k_hi, n_cap):
    want = [(n, p, index(g, p)) for n, p in entries(f, n_cap)]
    walk = list(_residual_indices(f, g, n_cap))
    assert [(n, p, i) for n, p, _, i in walk] == want
    for _, p, pm1, _ in walk:
        assert (pm1.value, dict(pm1.factors)) == (p - 1, sympy.factorint(p - 1))

    r = streak(f, g, n_cap)
    got = (r.count, r.n_at_failure, r.failing_prime, r.residual_index_at_failure, r.n_scanned, r.primes_seen)
    assert got == oracle_streak(f, g, n_cap)

    hist = {}
    for *_, i in want:
        if i is not None:
            hist[i] = hist.get(i, 0) + 1
    stats = pr_stats(f, g, n_cap)
    assert stats.histogram == dict(sorted(hist.items()))
    assert (stats.primes_total, stats.primes_with_g_pr) == (sum(hist.values()), hist.get(1, 0))

    want_k = []
    for k in range(k_lo, k_hi + 1):
        count, _, failing_prime, *_ = oracle_streak(f, k * k * g, n_cap)
        want_k.append((k, count, failing_prime))
    assert list(base_streaks(f, g, k_lo, k_hi, n_cap)) == want_k


def test_the_cases_cover_what_they_claim():
    prime_values = {f: [p for _, p in entries(f, n_cap)] for f, _, _, _, n_cap in CASES}
    assert {f.degree() for f, *_ in CASES} == {1, 2, 3}
    assert any(c < 0 for f, *_ in CASES for c in f.coeffs[1:-1])
    assert any(any(g % (s * s) == 0 for s in (2, 3)) for _, g, *_ in CASES) and any(g < 0 for _, g, *_ in CASES)
    # a prime value that recurs at a later n
    recurring = ([v for n in range(n_cap + 1) if (v := f.eval(n)) in prime_values[f]] for f, *_, n_cap in CASES)
    assert any(len(vs) > len(set(vs)) for vs in recurring)
    # prime values just below 2^50 alone, and on both sides of it
    assert any(ps and _QUOTIENT_PRIME_BOUND // 2 <= max(ps) < _QUOTIENT_PRIME_BOUND for ps in prime_values.values())
    assert any(ps and min(ps) < _QUOTIENT_PRIME_BOUND <= max(ps) for ps in prime_values.values())
    # a prime value dividing a k in a case's range, and a pseudoprime value the walk must reject
    assert any(any(p <= k_hi and k_hi // p * p >= k_lo for p in prime_values[f]) for f, _, k_lo, k_hi, _ in CASES)
    assert all(is_strong_probable_prime(v) and not sympy.isprime(v) for v in PSEUDOPRIMES)
    candidates = {
        p for f, *_, n_cap in CASES for _, p in PrimeValueStream(f)._entries(n_cap, is_strong_probable_prime)
    }
    assert candidates & set(PSEUDOPRIMES)
    # narrow and wide k ranges, and an n_cap of at most 1
    assert {k_hi - k_lo <= 3 for _, _, k_lo, k_hi, _ in CASES} == {True, False}
    assert any(n_cap <= 1 for *_, n_cap in CASES)
