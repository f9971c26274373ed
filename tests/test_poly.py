"""Tests for polynomials and residue counting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qprim.arith import is_prime, primes_up_to
from qprim.poly import (
    PolyZ,
    QuadraticPoly,
    in_conjecture_f_family,
    mod8_profile,
    parse_poly,
    roots_mod,
    values_mod,
)

L = QuadraticPoly(a=326, b=0, c=3)


def count_residue_class(f, m, t):
    """#{s mod m : f(s) = t (mod m)} from the values_mod enumeration."""
    return int(np.count_nonzero(values_mod(f, m) == t % m))


def count_roots_mod(f, m):
    return count_residue_class(f, m, 0)


def test_eval():
    assert L.eval(2375) == 1838843753
    assert PolyZ((7, -3, 2)).eval(0) == 7
    f41 = QuadraticPoly(1, 1, 41)
    assert f41.eval(39) == 1601
    assert is_prime(1601)
    assert PolyZ((1, 2, 3, 4)).eval(-2) == 1 - 4 + 12 - 32


def test_quadratic_invariants():
    assert L.d == -4 * 326 * 3
    with pytest.raises(ValueError):
        QuadraticPoly(0, 1, 1)
    with pytest.raises(ValueError):
        QuadraticPoly(-2, 1, 1)


def test_shift():
    f = PolyZ((41, 1, 1))  # X^2 + X + 41
    g = f.shift(5)
    for n in range(-3, 10):
        assert g.eval(n) == f.eval(n + 5)
    q = QuadraticPoly(866416, 0, 2903975582404049).shift(599206)
    base = QuadraticPoly(866416, 0, 2903975582404049)
    for n in (0, 1, 17):
        assert q.eval(n) == base.eval(n + 599206)


def test_family_membership():
    assert in_conjecture_f_family(L)
    assert not in_conjecture_f_family(QuadraticPoly(2, 2, 2))  # content 2
    assert not in_conjecture_f_family(QuadraticPoly(1, 2, 1))  # square disc
    assert in_conjecture_f_family(QuadraticPoly(1, 1, 41))
    assert not in_conjecture_f_family(PolyZ((1, 1, 1, 1)))  # not quadratic


def test_count_roots_examples():
    assert count_roots_mod(L, 3) == 1  # f(0)=3, f(1)=329=2, f(2)=1307=2 mod 3
    assert count_roots_mod(PolyZ((0, 1)), 7) == 1
    assert count_roots_mod(PolyZ((1, 0, 1)), 5) == 2  # 2^2+1 and 3^2+1


def test_count_residue_class_examples():
    assert count_residue_class(PolyZ((1, 0, 1)), 8, 1) == 2  # s in {0, 4}
    assert count_residue_class(QuadraticPoly(10, 0, 7), 3, 1) == 1
    f = PolyZ((5, 3, 2))
    m = 12
    assert sum(count_residue_class(f, m, t) for t in range(m)) == m


def test_counts_match_enumeration_and_numpy_path():
    rng = random.Random(3)
    for _ in range(100):
        f = PolyZ(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))))
        for m in (129, 257, 1000):  # numpy path
            want = sum(1 for s in range(m) if f.eval(s) % m == 0)
            assert count_roots_mod(f, m) == want


def test_count_roots_equals_residue_zero():
    rng = random.Random(11)
    from qprim.arith import primes_up_to

    for p in primes_up_to(100):
        for _ in range(5):
            f = PolyZ((rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 50)))
            assert count_roots_mod(f, p) == count_residue_class(f, p, 0)


def test_count_roots_crt():
    rng = random.Random(17)
    for _ in range(200):
        f = PolyZ((rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 30)))
        m1 = rng.randint(2, 30)
        m2 = rng.randint(2, 30)
        if math.gcd(m1, m2) != 1:
            continue
        assert count_roots_mod(f, m1 * m2) == count_roots_mod(f, m1) * count_roots_mod(f, m2)


def _solver_polys():
    """Degrees -1 to 4 with negative coefficients and coefficients above
    2^63, among them example2 shifted to its failing prime (constant term
    20224247350881408449)."""
    rng = random.Random(29)
    big = 2**63
    polys = [
        PolyZ((0,)),
        PolyZ((5,)),
        PolyZ((-3, 7)),
        PolyZ((1, 0, 1)),
        PolyZ((7, 3, 15)),
        PolyZ((1, 1, 0, 1)),
        PolyZ((1, 0, 0, 0, 1)),
        PolyZ((-2, 0, -3, 0, 5)),
        PolyZ((big + 1, -(big + 3), 3 * big + 5)),
        PolyZ((-(big + 7), big - 1, 0, -(5 * big + 1))),
        QuadraticPoly(14774336, 21513472074368, 7830405969748235009).shift(441957).as_poly(),
    ]
    for degree in range(5):
        coeffs = [rng.randint(-10**12, 10**12) for _ in range(degree + 1)]
        coeffs[-1] = coeffs[-1] or 1
        polys.append(PolyZ(tuple(coeffs)))
    return polys


def test_roots_mod_against_enumeration():
    rng = random.Random(31)
    polys = _solver_polys()
    assert sorted({f.degree() for f in polys}) == [-1, 0, 1, 2, 3, 4]
    assert max(abs(c) for f in polys for c in f.coeffs) > 2**64
    for q in primes_up_to(500):
        u = [rng.randint(-999, 999) for _ in range(3)]
        special = [
            PolyZ((u[0], u[1], q * (u[2] or 1))),  # q | a: linear mod q
            PolyZ((u[0], q * u[1], u[2] or 1)),  # q | b
            PolyZ((1 + 3 * q, q, q)),  # q | a, b but not c: no root
            PolyZ((q, -q, 2 * q)),  # q divides every value
            PolyZ((u[0], 0, 0, q * u[1], 1)),
        ]
        for f in polys + special:
            values = [f.eval_mod(s, q) for s in range(q)]
            for t in (0, 1):
                want = tuple(s for s in range(q) if values[s] == t % q)
                got = roots_mod(f, q, t)
                assert got == want, (f, q, t)
                assert all(type(r) is int for r in got)


def test_values_mod_against_eval_mod():
    for m in (1, 2, 3, 4, 8, 9, 12, 15, 30, 97, 100, 210, 256, 1001):  # composite m too
        for f in _solver_polys():
            values = values_mod(f, m)
            assert values.dtype == np.int64
            assert values.tolist() == [f.eval_mod(s, m) for s in range(m)], (f, m)


def test_mod8_profile_higher_degree_against_enumeration():
    for f in _solver_polys():
        values = [f.eval_mod(s, 8) for s in range(8)]
        odd = [v for v in values if v % 2]
        if not odd:
            with pytest.raises(ValueError):
                mod8_profile(f)
            continue
        want = tuple(Fraction(values.count(j), len(odd)) for j in (1, 3, 5, 7))
        assert mod8_profile(f).as_tuple() == want, f


def test_mod8_profiles():
    assert mod8_profile(PolyZ((1, 0, 1))).as_tuple() == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
    )
    assert mod8_profile(PolyZ((0, 1))).as_tuple() == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
    )
    # oracle-computed: 326 s^2 + 3 cycles 3,1,3,1,... mod 8
    prof = mod8_profile(L)
    assert prof.as_tuple() == (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    enumerated = [L.eval(s) % 8 for s in range(8)]
    assert enumerated == [3, 1, 3, 1, 3, 1, 3, 1]


def test_mod8_profile_sums_to_one():
    rng = random.Random(23)
    produced = 0
    while produced < 100:
        f = QuadraticPoly(rng.randint(1, 99), rng.randint(-99, 99), rng.randint(-99, 99))
        try:
            prof = mod8_profile(f)
        except ValueError:
            continue
        produced += 1
        assert sum(prof.as_tuple()) == 1


def test_mod8_profile_no_odd_values():
    with pytest.raises(ValueError):
        mod8_profile(QuadraticPoly(2, 2, 2))


def test_parse_poly():
    q = parse_poly("326,0,3")
    assert isinstance(q, QuadraticPoly) and (q.a, q.b, q.c) == (326, 0, 3)
    p = parse_poly("41,1,1,1")  # constant-first general form
    assert isinstance(p, PolyZ) and p.coeffs == (41, 1, 1, 1)
    lin = parse_poly("0,1")
    assert lin.coeffs == (0, 1)
    with pytest.raises(ValueError):
        parse_poly("0,0,0")  # a = 0 quadratic
    with pytest.raises(ValueError):
        parse_poly("1,x,3")
