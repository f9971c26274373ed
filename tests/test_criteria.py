"""Tests for the checkable primitive-root criteria."""

import math

import pytest

from qprim.arith import is_prime, is_primitive_root, primes_up_to, residual_index
from qprim.charsums import fundamental_discriminant, require_valid_base
from qprim.criteria import (
    chebyshev_criterion,
    chebyshev_offset,
    excluded_index_primes,
    extended_chebyshev,
    fueter_criterion,
    lehmer_index_coprimality,
)
from qprim.poly import QuadraticPoly
from qprim.streaks import PrimeValueStream


def test_chebyshev_reads_g1_and_g2_from_the_fundamental_discriminant():
    # g = g0^2 * g1, g1 squarefree, g2 the odd part of |g1|: g1 = +-2 is D = +-8
    for g, D, g2 in ((326, 1304, 163), (12, 12, 3), (8, 8, 1), (-10, -40, 5), (-2, -8, 1), (-4, -4, 1)):
        fd = fundamental_discriminant(g)
        assert (fd.D, math.prod(fd.odd_primes)) == (D, g2), g
    with pytest.raises(ValueError):
        fundamental_discriminant(9)


def test_excluded_index_primes_lehmer_shape():
    # p = 2*163*n^2 + 2*1 + 1 = 326 n^2 + 3
    excluded = excluded_index_primes(1, 163, 1, 40)
    assert set(excluded) >= {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    assert 41 not in excluded  # (-163/41) = 1
    # q | d2 disqualifies
    assert 3 not in excluded_index_primes(1, 163, 3, 40)
    with pytest.raises(ValueError):
        excluded_index_primes(1, -1, 1, 40)


def test_excluded_primes_never_divide_residual_index():
    # direct verification over the first 200 primes of the shape
    excluded = excluded_index_primes(1, 163, 1, 40)
    stream = PrimeValueStream(QuadraticPoly(326, 0, 3))
    checked = 0
    for _, p in stream.entries_upto(10**6):
        r = residual_index(326, p, stream.pm1_factorization(p))
        for q in excluded:
            assert r % q != 0, (p, q)
        checked += 1
        if checked >= 200:
            break
    assert checked == 200


def test_lehmer_index_coprimality():
    assert lehmer_index_coprimality(1, 2000)
    assert lehmer_index_coprimality(5, 500)
    with pytest.raises(ValueError):
        lehmer_index_coprimality(0, 100)
    # the known failure index 83 is itself coprime to 2*3*...*37
    assert math.gcd(83, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37) == 1


def test_lehmer_index_coprimality_finds_a_shared_factor(monkeypatch):
    # with 83 in place of the primorial the check must fail at n = 2375,
    # p = 1838843753, where base 326 has residual index 83, and not before
    sympy = pytest.importorskip("sympy")
    from qprim import criteria

    monkeypatch.setattr(criteria, "_PRIMORIAL_37", 83)

    def oracle(n_cap):
        for n in range(n_cap + 1):
            p = 326 * n * n + 3
            if sympy.isprime(p):
                for b in (-163, -3, 6, 326):
                    if b % p and ((p - 1) // sympy.n_order(b % p, p)) % 83 == 0:
                        return False
        return True

    assert lehmer_index_coprimality(1, 2374) is oracle(2374) is True
    assert lehmer_index_coprimality(1, 2375) is oracle(2375) is False


def test_chebyshev_classic_spots():
    assert chebyshev_criterion(5)  # p2 = 11
    assert not chebyshev_criterion(13)  # 27 composite
    assert not chebyshev_criterion(7)  # 7 = 3 mod 4
    assert not chebyshev_criterion(4)


def test_chebyshev_reads_the_congruence_before_primality():
    # p1 past the deterministic primality range, in the wrong class mod 4:
    # inapplicable, with no primality test to raise.  4 * 10**24 + 3 has the
    # factor 7, which is_prime finds before it checks the range.
    assert chebyshev_criterion(4 * 10**24 + 3) is False
    for p1 in (4 * 10**24 + 19, 4 * 10**24 + 1):
        with pytest.raises(ValueError, match="deterministic primality range"):
            is_prime(p1)
    assert chebyshev_criterion(4 * 10**24 + 19) is False
    assert extended_chebyshev(2, 4 * 10**24 + 19) is False
    assert extended_chebyshev(-2, 4 * 10**24 + 1) is False  # -2 needs p1 = 3 mod 4


def test_chebyshev_classic_exhaustive():
    applicable = 0
    for p1 in primes_up_to(100_000):
        if chebyshev_criterion(p1):  # raises on any violation
            applicable += 1
    assert applicable > 400


def test_chebyshev_offset():
    assert chebyshev_offset(3) == 2
    assert chebyshev_offset(15) == 11  # frozen from the enumeration oracle
    for g2 in (3, 5, 7, 15, 21, 33):
        a = chebyshev_offset(g2)
        assert math.gcd(a, g2) == 1
        for smaller in range(1, a):
            from qprim.arith import kronecker

            assert not (math.gcd(smaller, g2) == 1 and kronecker(8 * smaller + 1, g2) == -1)
    with pytest.raises(ValueError):
        chebyshev_offset(9)
    with pytest.raises(ValueError):
        chebyshev_offset(4)


def test_extended_chebyshev_spot():
    # g = 3: offset 2 mod 3; p1 = 2 gives p2 = 17 and 3 generates mod 17
    assert extended_chebyshev(3, 2)
    # g = 8 = 2^2 * 2: the 2*p1+1 branch with p1 = 1 mod 4
    assert extended_chebyshev(8, 5)
    assert not extended_chebyshev(8, 7)  # wrong residue class mod 4
    with pytest.raises(ValueError):
        extended_chebyshev(4, 5)  # square base
    with pytest.raises(ValueError):
        extended_chebyshev(-4, 5)  # odd squarefree part is 1


def test_extended_chebyshev_scan():
    for g in (3, 5, 6, 8, -10, 12):
        applicable = 0
        for p1 in primes_up_to(10_000):
            if extended_chebyshev(g, p1):  # raises on any violation
                applicable += 1
        assert applicable > 10, g


def test_fueter_spots():
    assert fueter_criterion(5)  # q = 31: no representation, 3 primitive
    assert fueter_criterion(7)  # q = 43
    assert fueter_criterion(11)  # q = 67: 4q = 268 = 5^2 + 243, 3 has order 22
    assert fueter_criterion(13)  # q = 79
    assert not fueter_criterion(91)  # composite p: inapplicable
    assert not fueter_criterion(19)  # q = 115 = 5*23: inapplicable


def test_fueter_scan():
    applicable = 0
    for p in primes_up_to(10_000):
        if p > 2 and fueter_criterion(p):  # raises on any disagreement
            applicable += 1
    assert applicable > 100


def verify_construction(a1, c1, n_count, bases):
    """Oracle: a1*n^2 + c1 is prime for n = 1..n_count and every given base
    is a primitive root modulo each of those primes."""
    if n_count < 1:
        raise ValueError("n_count must be >= 1")
    base_list = [bases] if isinstance(bases, int) else list(bases)
    for g in base_list:
        require_valid_base(g)
    for n in range(1, n_count + 1):
        v = a1 * n * n + c1
        if v < 2 or not is_prime(v):
            return False
        for g in base_list:
            if g % v == 0 or not is_primitive_root(g, v):
                return False
    return True


def test_verify_construction():
    # A1 = 2, C1 = 11: 13, 19, 29 all prime with 2 a primitive root
    assert verify_construction(2, 11, 3, 2)
    assert not verify_construction(2, 13, 3, 2)  # negative control
    assert verify_construction(2, 11, 3, [2])
    assert not verify_construction(2, 11, 3, [2, 5])  # 5 is not a PR mod 13
    with pytest.raises(ValueError):
        verify_construction(2, 11, 0, 2)
    with pytest.raises(ValueError):
        verify_construction(2, 11, 3, 4)  # square base
