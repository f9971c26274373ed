"""Tests for the exact integer/modular primitives."""

import math
import random
from itertools import islice

import numpy as np
import pytest

from qprim import arith
from qprim.arith import (
    DETERMINISTIC_PRIMALITY_LIMIT,
    FactorizationError,
    euler_phi,
    factor,
    is_prime,
    is_primitive_root,
    iter_primes,
    kronecker,
    multiplicative_order,
    prime_chunks,
    primes_up_to,
    residual_index,
    sqrt_mod,
)

ODD_PRIMES_1000 = [p for p in primes_up_to(1000) if p > 2]


def sieve_oracle(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def test_is_prime_matches_sieve_to_1e6():
    flags = sieve_oracle(10**6)
    for n in range(10**6 + 1):
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_spot_values():
    assert is_prime(1838843753)  # 326*2375^2 + 3
    assert is_prime(7297)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(1838843753 * 7297)


def test_is_prime_rejects_out_of_range():
    # even/multiples of tiny primes are still answered (correctly) above the
    # limit; only numbers that would need Miller-Rabin must refuse
    assert not is_prime(4 * 10**24)
    n = 4 * 10**24 + 1
    while any(n % p == 0 for p in primes_up_to(100)):
        n += 2
    with pytest.raises(ValueError):
        is_prime(n)


def test_witness_tiers_ascend_to_seven_bases_below_2_64():
    bounds = [bound for bound, _ in arith._MR_TIERS]
    assert bounds == sorted(set(bounds))
    tier = next(w for bound, w in arith._MR_TIERS if 341_550_071_728_321 < bound)
    assert tier == (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    assert next(bound for bound, _ in arith._MR_TIERS if 341_550_071_728_321 < bound) == 2**64


def test_seven_witnesses_below_2_64_against_sympy():
    sympy = pytest.importorskip("sympy")
    lo, hi = 341_550_071_728_321, 2**64
    rng = random.Random(64)
    sample = [rng.randrange(lo, hi) | 1 for _ in range(3000)]
    sample += [
        18446744073709551557,  # the largest prime below 2^64
        3825123056546413051,  # a strong pseudoprime to the bases 2..23
    ]
    # products of two ~32-bit primes
    for _ in range(300):
        sample.append(sympy.nextprime(rng.randrange(2**31, 2**32)) * sympy.nextprime(rng.randrange(2**31, 2**32)))
    # Chernick numbers (6k+1)(12k+1)(18k+1): Carmichael when all three are prime
    chernick = []
    for k in range(64_000, 240_000):
        n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        if lo <= n < hi and is_prime(6 * k + 1) and is_prime(12 * k + 1) and is_prime(18 * k + 1):
            chernick.append(n)
    assert len(chernick) > 20
    sample += chernick
    assert all(lo <= n < hi for n in sample)
    for n in sample:
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(is_prime(n) for n in chernick)


def test_kronecker_euler_criterion():
    # (a/p) = a^((p-1)/2) mod p for all odd primes p <= 1000 and 0 <= a < p
    for p in ODD_PRIMES_1000:
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            expected = -1 if e == p - 1 else e
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_spot_values():
    squares_mod7 = {x * x % 7 for x in range(1, 7)}
    assert (2 in squares_mod7) == (kronecker(2, 7) == 1)
    assert kronecker(2, 7) == 1
    for a in (-5, -1, 0, 1, 7, 123456):
        assert kronecker(a, 1) == 1
    # exhaustive squares mod 41
    squares_mod41 = {x * x % 41 for x in range(1, 41)}
    assert ((-163) % 41 in squares_mod41) == (kronecker(-163, 41) == 1)
    assert kronecker(-163, 41) == 1
    # the first 11 odd primes all see -163 as a non-residue
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        assert kronecker(-163, q) == -1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0


def test_kronecker_against_gmp():
    gmpy2 = pytest.importorskip("gmpy2")
    for a in range(-100, 101):
        for n in range(-100, 101):
            assert kronecker(a, n) == gmpy2.kronecker(a, n), (a, n)
    rng = random.Random(1)
    for _ in range(5000):
        a = rng.randint(-(10**18), 10**18)
        n = rng.randint(-(10**9), 10**9)
        assert kronecker(a, n) == gmpy2.kronecker(a, n), (a, n)


def test_kronecker_negative_modulus_against_sympy():
    # (a/-n) = (a/-1)(a/n), (a/-1) = -1 for a < 0 and 1 otherwise; sympy's
    # Jacobi symbol at odd n > 0, not qprim's kronecker, gives (a/n)
    sympy = pytest.importorskip("sympy")
    for n in range(1, 120, 2):
        for a in range(-150, 151):
            assert kronecker(a, -n) == (-1 if a < 0 else 1) * sympy.jacobi_symbol(a, n), (a, n)
    rng = random.Random(11)
    for _ in range(500):
        a, n = rng.randint(-(10**18), 10**18), rng.randrange(1, 10**9, 2)
        assert kronecker(a, -n) == (-1 if a < 0 else 1) * sympy.jacobi_symbol(a, n), (a, n)


def test_kronecker_multiplicativity():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        n = rng.randint(1, 60)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def expand(fact):
    """The integer a Factorization stands for."""
    return math.prod(p**e for p, e in fact.factors)


def test_factor_roundtrip_exhaustive():
    flags = sieve_oracle(10**6)
    for n in range(1, 10**6 + 1):
        assert expand(factor(n)) == n
    for n in range(1, 20_000):
        f = factor(n)
        for p, e in f.factors:
            assert bool(flags[p]), (n, p)
            assert e >= 1
        assert list(f.prime_factors()) == sorted(set(f.prime_factors()))


def test_factor_budget_failure_is_loud(monkeypatch):
    semiprime = 1000000007 * 999999937
    with monkeypatch.context() as m, pytest.raises(FactorizationError):
        m.setattr(arith, "_RHO_BUDGET", 500)
        factor(semiprime)
    full = factor(semiprime)
    assert full.factors == ((999999937, 1), (1000000007, 1))


def test_factor_random_60bit():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.getrandbits(60) | 1
        if n < 2:
            continue
        f = factor(n)
        assert expand(f) == n
        for p, _ in f.factors:
            assert is_prime(p)


def test_factor_known_values():
    f = factor(1838843752)
    assert f.factors == ((2, 3), (83, 1), (2769343, 1))
    # 83 * 2769343 = 229855469; trial-division re-check of both cofactors
    for p in (83, 2769343):
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert factor(1).factors == ()
    assert factor(40).factors == ((2, 3), (5, 1))


def test_factor_short_trial_against_sympy():
    # factor trial-divides to 2000 and leaves larger factors to rho
    sympy = pytest.importorskip("sympy")
    cases = [
        2003**2,
        2003**5,
        2 * 2003**3 * 99991,
        99991**2,
        99991**3 * 2,
        1999 * 2003,
        2003 * 2011 * 99989 * 99991,
        3 * 99991 * 1000000007,
        2**7 * 3**4 * 2003 * 99991**2 * 999999937,
    ]
    for n in cases:
        assert dict(factor(n).factors) == sympy.factorint(n), n


def test_factor_huge_cofactor_keeps_long_trial():
    # after the primes to 2000 the cofactor is still >= 3.317e24, so trial
    # division goes on to 1e5 and leaves a cofactor in the primality range
    sympy = pytest.importorskip("sympy")
    big = 3001 * 5003 * 7001 * 99991
    for tail in (1000000007 * 999999937, sympy.nextprime(10**15)):
        n = 2**3 * big * tail
        assert n // 8 >= DETERMINISTIC_PRIMALITY_LIMIT
        assert dict(factor(n).factors) == sympy.factorint(n), n


def test_factor_beyond_primality_range_still_raises():
    # a cofactor at or above 3.317e24 with no factor up to 1e5 cannot be
    # certified, with or without small factors in front of it
    sympy = pytest.importorskip("sympy")
    big_prime = sympy.nextprime(4 * 10**24)
    semiprime = sympy.nextprime(10**13) * sympy.nextprime(10**13 + 10**6)
    for n in (big_prime, 2003 * big_prime, 6 * 99991 * big_prime, semiprime):
        with pytest.raises(ValueError, match="deterministic primality range"):
            factor(n)


@pytest.mark.parametrize(
    "preset_name",
    ["example1", "example2", "example2-g24", "example3", "example3-f1", "example3-f2"],
)
def test_factor_record_pm1_against_sympy(preset_name):
    sympy = pytest.importorskip("sympy")
    from qprim.cli import preset_registry
    from qprim.streaks import PrimeValueStream

    stream = PrimeValueStream(preset_registry()[preset_name].poly)
    primes = [p for _, p in islice(stream.entries_upto(10**6), 200)]
    assert len(primes) == 200
    for p in primes:
        assert dict(factor(p - 1).factors) == sympy.factorint(p - 1), p


def _sympy_factorizations(values):
    sympy = pytest.importorskip("sympy")
    return [sympy.factorint(n) for n in values]


def test_factor_many_against_sympy_below_and_above_2_64():
    rng = random.Random(2024)
    values = [rng.getrandbits(rng.randrange(2, 65)) | 1 for _ in range(150)]
    values += [rng.randrange(1 << 64, 1 << 80) for _ in range(40)]
    want = _sympy_factorizations(values)
    assert [dict(f.factors) for f in arith.factor_many(values)] == want
    assert [dict(factor(n).factors) for n in values] == want


def test_factor_prime_powers_and_products_just_above_2000():
    sympy = pytest.importorskip("sympy")
    above = list(sympy.primerange(2000, 2200))
    values = [p**e for p in (2003, 2011, 99991, 1000003) for e in range(1, 5)]
    values += [p * q for p, q in zip(above, above[1:])] + [2 * 3 * p * p * q for p, q in zip(above, above[2:])]
    assert [dict(f.factors) for f in arith.factor_many(values)] == _sympy_factorizations(values)


def test_factor_many_batch_with_duplicates_and_shared_primes():
    # equal cofactors, and cofactors with a common prime above 2000, in one
    # batch whose rho lanes must be packed pairwise coprime
    shared = [2003 * 3001, 2003 * 4001, 2 * 2003 * 5003, 3001 * 4001 * 7, 1000003 * 2003]
    values = shared + shared[:3] + [2 * 1000003 * 1000033, 2 * 1000033 * 999983, 1000003 * 999983]
    assert [dict(f.factors) for f in arith.factor_many(values)] == _sympy_factorizations(values)
    assert [f.value for f in arith.factor_many(values)] == values


def _closes_mod_both(n, c):
    """Brent's rho with increment c from y = 2, told as one scalar loop:
    True when its first nontrivial gcd is n itself, that is, its cycle
    closes modulo every prime of n at the same step."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g == n


def test_factor_rho_lane_closing_mod_both_primes_retries():
    lanes = [2003 * 2251, 2029 * 2137, 2053 * 2081]
    assert all(_closes_mod_both(m, 1) for m in lanes)  # c = 1 cannot split them
    values = [2 * lanes[0], 2003 * 2011] + lanes[1:] + [6 * 2011 * 2017]
    assert [dict(f.factors) for f in arith.factor_many(values)] == _sympy_factorizations(values)


def test_factor_many_reports_errors_per_value(monkeypatch):
    sympy = pytest.importorskip("sympy")
    monkeypatch.setattr(arith, "_RHO_BUDGET", 500)
    semiprime = 1000000007 * 999999937
    big_prime = sympy.nextprime(4 * 10**24)  # above the primality range
    out = arith.factor_many([semiprime, 12, 0, 2003 * 2011 * 7, 6 * 99991 * big_prime])
    assert isinstance(out[0], FactorizationError)
    assert (out[1].factors, out[3].factors) == (((2, 2), (3, 1)), ((7, 1), (2003, 1), (2011, 1)))
    assert isinstance(out[2], ValueError) and "n >= 1" in str(out[2])
    assert isinstance(out[4], ValueError) and "deterministic primality range" in str(out[4])
    # among 16 more cofactors to test, the batch takes one strong-test pass
    # on Lanes: each value keeps its own answer or error
    batches, strong_batch = [], arith._strong_batch
    monkeypatch.setattr(arith, "_strong_batch", lambda ns: batches.append(len(ns)) or strong_batch(ns))
    padding = [2 * int(sympy.nextprime(10**7 + 1000 * i)) for i in range(16)]
    batch = arith.factor_many([semiprime, 12, 0, 2003 * 2011 * 7, 6 * 99991 * big_prime] + padding)
    assert batches and batches[0] >= arith._STRONG_BATCH
    assert [(type(r), str(r)) if isinstance(r, Exception) else r for r in batch[:5]] == [
        (type(r), str(r)) if isinstance(r, Exception) else r for r in out
    ]
    assert [dict(r.factors) for r in batch[5:]] == [sympy.factorint(n) for n in padding]


def test_strong_batch_matches_sympy_isprime():
    # factor_many's batched strong test on odd n with no prime factor up to
    # 61: seeded n in [4e6, 2^50), on int64 lanes, and above 2^50, on Python
    # ints, with primes among them; and strong pseudoprimes to base 2 (and to
    # more bases: 3825123056546413051 to every prime base up to 23)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(38)
    tiny = math.prod(arith._TINY_PRIMES)

    def seeded(lo, hi, count):
        ns = [n for n in (rng.randrange(lo, hi) | 1 for _ in range(count)) if math.gcd(n, tiny) == 1]
        return ns + [int(sympy.nextprime(rng.randrange(lo, hi))) for _ in range(count // 10)]

    low, high = seeded(4_000_000, 1 << 50, 600), seeded(1 << 50, arith.DETERMINISTIC_PRIMALITY_LIMIT, 200)
    pseudo = [3511**2, 9839449621, 3825123056546413051]
    assert all(arith.is_strong_probable_prime(n) and not sympy.isprime(n) for n in pseudo)
    for ns in (low, high, low[:20] + pseudo + high[:20]):
        want = [sympy.isprime(n) for n in ns]
        assert True in want and False in want
        assert arith._strong_batch(ns) == want


def test_factor_many_batch_splits_base2_pseudoprime_cofactors(monkeypatch):
    # 3511^2 and 70141 * 140281, above 2^32, pass the base-2 strong test and
    # have no prime factor up to 2000: as cofactors of p - 1 among 16 or
    # more to test, the batched pass must find them composite for the rho
    sympy = pytest.importorskip("sympy")
    pseudo = [3511**2, 9839449621]
    assert all(arith.is_strong_probable_prime(n) and min(sympy.factorint(n)) > 2000 for n in pseudo)
    rng = random.Random(3511)
    values = [2 * n for n in pseudo] + [2**5 * 3 * n for n in pseudo]
    values += [2 * int(sympy.nextprime(rng.randrange(10**7, 10**12))) for _ in range(16)]
    batches, strong_batch = [], arith._strong_batch
    monkeypatch.setattr(arith, "_strong_batch", lambda ns: batches.append(ns) or strong_batch(ns))
    assert [dict(f.factors) for f in arith.factor_many(values)] == [sympy.factorint(n) for n in values]
    assert set(pseudo) <= set(batches[0]) and len(batches[0]) >= arith._STRONG_BATCH


def test_lucas_certifies_proves_primes_and_no_base_of_3511_squared():
    # 3511^2 = 12327121 is a strong pseudoprime to base 2 (3511 is a
    # Wieferich prime).  Testing the q = 2 power only for != 1 would let
    # 390 of these bases "prove" it prime, the first being g = 3.  On primes
    # _lucas_batch certifies exactly the primitive roots; never p = 2.
    sympy = pytest.importorskip("sympy")
    n = 3511**2
    assert arith.is_strong_probable_prime(n) and not is_prime(n)
    ps = [n, 2, 5, 7, 1838843753, 18465947]
    pm1s = arith.factor_many([p - 1 for p in ps])
    for g in range(-60, 400):
        want = [p > 2 and g % p != 0 and sympy.n_order(g % p, p) == p - 1 for p in ps[1:]]
        assert arith._lucas_batch(g, ps, pm1s) == [False] + want, g


def test_factor_divisors():
    assert factor(12).divisors() == [1, 2, 3, 4, 6, 12]
    assert factor(12).divisors(limit=4) == [1, 2, 3, 4]


def test_multiplicative_order():
    assert multiplicative_order(10, 7) == 6  # decimal period of 1/7
    assert multiplicative_order(1, 13) == 1
    p = 1838843753
    assert multiplicative_order(326, p) == (p - 1) // 83
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)


def test_residual_index():
    assert residual_index(326, 1838843753) == 83
    assert residual_index(10, 7297) == 3  # > 1: the Griffin failure
    assert residual_index(2, 11) == 1
    with pytest.raises(ValueError):
        residual_index(7297, 7297)


def test_order_times_index_is_group_order():
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice(ODD_PRIMES_1000)
        g = rng.randint(1, p - 1)
        assert multiplicative_order(g, p) * residual_index(g, p) == p - 1


def test_is_primitive_root_against_subgroup_oracle():
    # oracle: find one generator by brute force, then the primitive roots
    # are exactly its powers with exponent coprime to p-1
    for p in ODD_PRIMES_1000:
        gen = None
        for g in range(2, p):
            seen = set()
            x = 1
            for _ in range(p - 1):
                x = x * g % p
                seen.add(x)
            if len(seen) == p - 1:
                gen = g
                break
        roots = set()
        x = 1
        for j in range(1, p):
            x = x * gen % p
            if math.gcd(j, p - 1) == 1:
                roots.add(x)
        for g in range(1, p):
            assert is_primitive_root(g, p) == (g in roots), (g, p)


def test_is_primitive_root_examples():
    assert is_primitive_root(326, 3)  # 326 = 2 mod 3
    assert is_primitive_root(2, 11)
    assert is_primitive_root(10, 7)
    assert is_primitive_root(3, 2)  # p = 2: odd base
    assert is_primitive_root(-163, 3)  # negative bases reduce mod p
    with pytest.raises(ValueError):
        is_primitive_root(326, 163)


def test_sqrt_mod():
    for p in primes_up_to(200):
        squares = {x * x % p: x for x in range(p)}
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in squares:
                assert r is not None and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(4) == 2
    assert euler_phi(6) == 2
    vals = [euler_phi(n) for n in range(1, 200)]
    brute = [sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1) for n in range(1, 200)]
    assert vals == brute


def test_iter_primes_blocks():
    assert list(iter_primes(2, 30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    big = list(iter_primes(99_990, 100_050))
    flags = sieve_oracle(100_050)
    assert big == [n for n in range(99_990, 100_051) if flags[n]]


CAP = arith._PRIME_CACHE_CAP
PAST_CAP = CAP + 1 + arith._SEGMENT  # where the second segment past the table starts


def sympy_primes(start, stop):
    return list(pytest.importorskip("sympy").primerange(start, stop + 1))


@pytest.mark.parametrize("n", [0, 1, 2, 3, CAP - 1, CAP, CAP + 1])
def test_primes_up_to_against_sympy(n):
    assert primes_up_to(n) == sympy_primes(0, n)


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 0),
        (0, 1),
        (0, 2),
        (3, 3),
        (CAP - 1, CAP + 1),
        (CAP - 100, CAP + 100),
        (CAP + 1, PAST_CAP + 100),
        (PAST_CAP, PAST_CAP + 1000),
        (3, 2_100_000),
    ],
)
def test_prime_chunks_and_iter_primes_against_sympy(start, stop):
    want = sympy_primes(start, stop)
    chunks = list(prime_chunks(start, stop))
    assert all(c.dtype == np.int64 and not c.flags.writeable for c in chunks)
    assert [p for c in chunks for p in c.tolist()] == want
    assert list(iter_primes(start, stop)) == want


def test_prime_listing_stops_at_1e10():
    assert list(iter_primes(10**10 - 100, 10**10)) == sympy_primes(10**10 - 100, 10**10)
    with pytest.raises(ValueError, match="1e10"):
        next(iter_primes(2, 10**10 + 1))


def test_factor_gcd_ending_in_one_prime_against_sympy():
    # what is left of the primorial gcd is one prime near the trial bound
    sympy = pytest.importorskip("sympy")
    values = [2 * 1999, 1999**2, 3 * 5 * 7 * 1993, 2**10 * 1997 * 1999]
    assert [dict(factor(n).factors) for n in values] == [sympy.factorint(n) for n in values]
    assert [dict(f.factors) for f in arith.factor_many(values)] == [sympy.factorint(n) for n in values]


def test_factor_many_proves_no_factor_below_the_square_of_its_trial_bound(monkeypatch):
    # rho's factors of a cofactor with no prime up to the bound (2000, or 1e5
    # on the huge path) are prime below the bound squared without a test
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2000)
    mid = [int(sympy.nextprime(rng.randrange(2000, 3_990_000))) for _ in range(60)]  # in (2000, 2000^2)
    wide = [int(sympy.nextprime(rng.randrange(10**5, 10**10 - 10**4))) for _ in range(8)]  # in (1e5, 1e10)
    values = [mid[i] * mid[i + 1] * rng.choice((1, 6, 2**5 * 3)) for i in range(0, 40, 2)]
    values += [mid[i] * mid[i + 1] * mid[i + 2] for i in range(40, 58, 3)]
    values += [mid[i] * int(sympy.nextprime(rng.randrange(10**12, 10**13))) for i in range(10)]
    huge = math.prod(sympy.primerange(99_900, 10**5))  # its cofactors take the huge path
    values += [huge * wide[i] * wide[i + 1] for i in range(0, 8, 2)]
    assert all(n >= arith.DETERMINISTIC_PRIMALITY_LIMIT for n in values[-4:])
    tested, batches = [], []

    def counted(n):
        tested.append(n)
        return is_prime(n)

    def batched(ns):  # _STRONG_BATCH or more cofactors of one round take one pass, not is_prime
        tested.extend(ns)
        batches.append(len(ns))
        return strong_batch(ns)

    strong_batch = arith._strong_batch
    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(arith, "_strong_batch", batched)
    assert [dict(f.factors) for f in arith.factor_many(values)] == [sympy.factorint(n) for n in values]
    assert batches and min(batches) >= arith._STRONG_BATCH
    # one test per composite cofactor (each has two primes above the bound,
    # so it is above the bound squared) and per prime above 2000^2: 20 values
    # p q s give 1 each, 6 values p q r 2 each, 10 values p P 2 each, and the
    # 4 huge ones 1 each; the rho factors below the squares take none
    assert len(tested) == 20 + 12 + 20 + 4
    assert min(tested) >= 2000**2
    assert all(n >= 10**10 for n in tested if any(v % n == 0 for v in values[-4:]))
