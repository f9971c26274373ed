"""Tests for polynomials and residue counting."""

import copy
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qprim.arith import Lanes, is_prime, iter_primes, primes_up_to
from qprim.densities import bateman_horn_constant, pr_density
from qprim.poly import (
    PolyZ,
    QuadraticPoly,
    in_conjecture_f_family,
    inadmissible,
    mod8_profile,
    parse_poly,
    roots_mod,
    roots_table,
    values_mod,
)
from qprim.search import SearchConfig, candidate_poly
from qprim.streaks import pr_stats, prime_count, streak

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
    # the records' shift is candidate_poly's: example3 shifted by 599206 is example3-f1
    example3 = SearchConfig(d=9828323860172600203, d1=54151, alpha=4)
    base = candidate_poly(example3)
    q = candidate_poly(replace(example3, shift=599206))
    assert base == QuadraticPoly(866416, 0, 2903975582404049)
    for n in (-3, 0, 1, 17):
        assert q.eval(n) == base.eval(n + 599206)


def test_family_membership():
    assert in_conjecture_f_family(L)
    assert not in_conjecture_f_family(QuadraticPoly(2, 2, 2))  # content 2
    assert not in_conjecture_f_family(QuadraticPoly(1, 2, 1))  # square disc
    assert in_conjecture_f_family(QuadraticPoly(1, 1, 41))
    assert not in_conjecture_f_family(PolyZ((1, 1, 1, 1)))  # not quadratic
    assert not in_conjecture_f_family(QuadraticPoly(1, 1, 2))  # content 1, every value even


def test_family_equals_its_five_conditions_on_seeded_quadratics():
    # a > 0, content 1, discriminant not a square, a + b and c not both even
    rng = random.Random(42)
    for _ in range(20_000):
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        want = a > 0 and math.gcd(a, b, c) == 1 and not _is_square(b * b - 4 * a * c) and ((a + b) % 2 or c % 2)
        assert in_conjecture_f_family(PolyZ((c, b, a))) == bool(want), (a, b, c)


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_inadmissible_names_each_reason():
    for f, why in (
        (PolyZ((5,)), "constant polynomial"),
        (PolyZ((0,)), "constant polynomial"),
        (QuadraticPoly(3, 0, -12), "reducible quadratic"),  # 3(X - 2)(X + 2): square before content
        (QuadraticPoly(1000003, 1000003, 41 * 1000003), "every value is divisible by 1000003"),
        (PolyZ((4, 6)), "every value is divisible by 2"),  # linear: only the content can fix a divisor
        (QuadraticPoly(1, 1, 2), "every value is divisible by 2"),
        (PolyZ((3, -1, 0, 1)), "every value is divisible by 3"),  # X^3 - X + 3
        (PolyZ((0, 2, 3, 1)), "every value is divisible by 2"),  # X(X + 1)(X + 2), 2 before 3
    ):
        assert why in inadmissible(f), f
    for f in (QuadraticPoly(1, 1, 41), PolyZ((1, 2)), PolyZ((1, 1, 0, 0, 1)), QuadraticPoly(326, 0, 3)):
        assert inadmissible(f) is None, f


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
        candidate_poly(SearchConfig(d=4472988326827347533, d1=230849, alpha=6, sign=-1, shift=728069 + 441957)),
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
            values = [f.eval(s) % q for s in range(q)]
            for t in (0, 1):
                want = tuple(s for s in range(q) if values[s] == t % q)
                got = roots_mod(f, q, t)
                assert got == want, (f, q, t)
                assert all(type(r) is int for r in got)


def assert_table_is_roots_mod(f, P, t):
    Q, R = roots_table(f, np.array(P, dtype=np.int64), t)
    assert Q.dtype == R.dtype == np.int64
    assert list(zip(Q.tolist(), R.tolist())) == [(q, r) for q in P for r in roots_mod(f, q, t)], (f, t, P[0], P[-1])


def test_roots_table_near_2_32_equals_roots_mod():
    # literal primes just below 2^32, where residues run in int64: a root's
    # product (-b +- s) / (2a) taken raw as int64 overflows past 2^31.5, so
    # it is Lanes.mul's
    rng = random.Random(31)
    P = [4294967231, 4294967279, 4294967291]
    for _ in range(40):
        f = QuadraticPoly(rng.randint(1, 10**6), rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
        for t in (0, 1):
            assert_table_is_roots_mod(f, P, t)
    assert_table_is_roots_mod(PolyZ((3, 7)), P, 0)


# literal primes on either side of 2^31, 2^32 and 2^50, and just below 2^63,
# each chunk ascending, with a prime p of a high power of 2 in p - 1 (the
# deepest Tonelli-Shanks rounds) below the others
LITERAL_PRIMES = {
    "2^31": [2147483587, 2147483629, 2147483647, 2147483659, 2147483693, 2147483713],
    "2^32": [4076863489, 4294967231, 4294967279, 4294967291, 4294967311, 4294967357, 4294967371],  # 2^24 | 4076863488
    "2^50": [1072023837081601, 1125899906842573, 1125899906842589, 1125899906842597, 1125899906842679,
             1125899906842723, 1125899906842769],  # 2^40 | 1072023837081600
    "2^63": [7097673012735901697, 9223372036854775549, 9223372036854775643, 9223372036854775783],  # 2^55 | ...696
}


@pytest.mark.parametrize("P", LITERAL_PRIMES.values(), ids=LITERAL_PRIMES)
def test_roots_table_at_literal_primes_equals_roots_mod(P):
    # int64 lanes to 2^50, Python ints from there; degree 1 and 2, a double
    # root where q | disc, a q dividing the leading coefficient, t = 0 and 1
    rng = random.Random(P[0])
    polys = [QuadraticPoly(1, 1, 41), QuadraticPoly(326, 0, 3), QuadraticPoly(1, -10, 25), PolyZ((3, 7))]
    polys += [PolyZ((-P[0], 0, 1)), PolyZ((5, 3, P[1])), PolyZ((rng.getrandbits(80), -rng.getrandbits(80)))]
    polys += [PolyZ((rng.getrandbits(80), -rng.getrandbits(80), rng.getrandbits(40) + 1)) for _ in range(12)]
    for f in polys:
        for t in (0, 1):
            assert_table_is_roots_mod(f, P, t)


def test_roots_table_equals_roots_mod_prime_by_prime():
    # one numpy pass per chunk of primes: the float64 lanes below 2^26, int64
    # from there to just below 2^31, and chunks straddling 2^26
    rng = random.Random(29)

    def seeded(bits, degree):
        coeffs = [rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(degree + 1)]
        coeffs[-1] = coeffs[-1] or 1
        return PolyZ(tuple(coeffs))

    small = primes_up_to(3000)  # q = 2 included
    below = list(iter_primes(2**26 - 4000, 2**26 - 1))
    above = list(iter_primes(2**26, 2**26 + 4000))
    top = list(iter_primes(2**31 - 4000, 2**31 - 1))
    chunks = (small, below, below + above, top, small[1:40] + top)
    for P in chunks:
        q = P[len(P) // 2]
        polys = [seeded(bits, degree) for bits in (8, 80) for degree in (1, 2) for _ in range(3)]
        polys += [
            QuadraticPoly(1, 1, 41),  # 163 | disc: a double root at 163
            QuadraticPoly(1, -10, 25),  # disc 0: a double root at every q
            PolyZ((rng.getrandbits(80), -rng.getrandbits(80), q * rng.getrandbits(20))),  # q | a
            PolyZ((-rng.getrandbits(80), q * rng.getrandbits(20), 7)),  # q | b
            PolyZ((rng.getrandbits(80), q * 11)),  # a linear with q | b
            PolyZ((6, 3, 15)),  # 3 divides every value
            PolyZ((2, 2, 2)),  # 2 divides every value
        ]
        if P is small:  # q = 2003 divides every value: all 2003 residues; degree 3: roots_mod at every q
            polys += [PolyZ((2003 * 5, 2003 * 3, 2003 * 7)), PolyZ((1, 1, 0, 1))]
        for f in polys:
            for t in (0, 1):
                assert_table_is_roots_mod(f, P, t)
    Q, R = roots_table(PolyZ((6, 3, 15)), np.array([2, 3, 5], dtype=np.int64))
    assert (Q.tolist(), R.tolist()) == ([2, 2, 3, 3, 3, 5], [0, 1, 0, 1, 2, 3])


def test_roots_table_holds_to_the_lazy_contract(monkeypatch):
    # a lazy product may be any residue in (-p, p), though the kernel's
    # rounding gives the one nearest 0: with every positive one moved down
    # by p (1 held as 1 - p), on float64 and on int64 lanes, the root
    # tables, powers and products keep their answers
    lazy_mul = Lanes._mul

    def low_mul(self, x, y, out=None):
        r = lazy_mul(self, x, y, out)
        return np.subtract(r, self._p, out=r, where=r > 0)

    monkeypatch.setattr(Lanes, "_mul", low_mul)
    rng = random.Random(37)
    for P in (primes_up_to(3000)[1:], list(iter_primes(2**31 - 4000, 2**31 - 1))):
        for f in (QuadraticPoly(1, 1, 41), QuadraticPoly(1, -10, 25), PolyZ((rng.getrandbits(80), 7))):
            for t in (0, 1):
                assert_table_is_roots_mod(f, P, t)
        x, y, e = ([rng.randrange(p) for p in P] for _ in range(3))
        lanes = Lanes(np.array(P, np.int64))
        assert lanes.mul(np.array(x), np.array(y)).tolist() == [u * v % p for u, v, p in zip(x, y, P)]
        assert lanes.pow(np.array(x), np.array(e)).tolist() == [pow(u, v, p) for u, v, p in zip(x, e, P)]


def test_values_mod_against_eval_mod():
    for m in (1, 2, 3, 4, 8, 9, 12, 15, 30, 97, 100, 210, 256, 1001):  # composite m too
        for f in _solver_polys():
            values = values_mod(f, m)
            assert values.dtype == np.int64
            assert values.tolist() == [f.eval(s) % m for s in range(m)], (f, m)


def test_mod8_profile_higher_degree_against_enumeration():
    for f in _solver_polys():
        values = [f.eval(s) % 8 for s in range(8)]
        odd = [v for v in values if v % 2]
        if not odd:
            with pytest.raises(ValueError):
                mod8_profile(f)
            continue
        want = tuple(Fraction(values.count(j), len(odd)) for j in (1, 3, 5, 7))
        assert mod8_profile(f) == want, f


def test_mod8_profiles():
    assert mod8_profile(PolyZ((1, 0, 1))) == (
        Fraction(1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(0),
    )
    assert mod8_profile(PolyZ((0, 1))) == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
    )
    # oracle-computed: 326 s^2 + 3 cycles 3,1,3,1,... mod 8
    prof = mod8_profile(L)
    assert prof == (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
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
        assert sum(prof) == 1


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
    with pytest.raises(ValueError, match="polynomial coefficients must be integers: ''"):
        parse_poly("")


def _seeded_quadratics(seed, n):
    rng = random.Random(seed)
    return [(rng.randint(1, 60), rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(n)]


@pytest.mark.parametrize("a, b, c", [(326, 0, 3), (1, 1, 41), (3, -7, -5)] + _seeded_quadratics(5, 20))
def test_quadratic_is_the_polyz_of_its_coefficients(a, b, c):
    q, p = QuadraticPoly(a, b, c), PolyZ((c, b, a))
    assert q == p and p == q and isinstance(q, PolyZ)
    assert hash(q) == hash(p) and len({q, p}) == 1
    assert (str(q), q.degree(), q.coeffs) == (str(p), p.degree(), p.coeffs)
    assert all(q.eval(n) == p.eval(n) == q(n) for n in range(-5, 6))
    assert (q.a, q.b, q.c, q.d) == (a, b, c, b * b - 4 * a * c)
    assert q != QuadraticPoly(a, b, c + 1) and q != (c, b, a)


def test_quadratic_views_are_read_only():
    q = QuadraticPoly(326, 0, 3)
    for name in ("a", "b", "c", "d", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(q, name, 1)


@pytest.mark.parametrize("clone", [lambda q: pickle.loads(pickle.dumps(q)), copy.deepcopy, copy.copy])
def test_quadratic_survives_pickle_and_copy(clone):
    q = QuadraticPoly(54151, 2 * 54151 * 1484224, 7)
    r = clone(q)
    assert type(r) is QuadraticPoly and r == q and hash(r) == hash(q)
    assert (r.a, r.b, r.c, r.d) == (q.a, q.b, q.c, q.d)


@pytest.mark.parametrize("a, b, c", [(326, 0, 3)] + _seeded_quadratics(37, 12))
def test_repr_evaluates_to_an_equal_poly_of_the_same_type(a, b, c):
    for f in (QuadraticPoly(a, b, c), PolyZ((c, b, a)), PolyZ((c, b))):
        again = eval(repr(f), {"QuadraticPoly": QuadraticPoly, "PolyZ": PolyZ})
        assert type(again) is type(f) and again == f
    assert repr(QuadraticPoly(a, b, c)) == f"QuadraticPoly(a={a}, b={b}, c={c})"


def test_quadratic_defines_only_its_views():
    # everything else, evaluation above all, is PolyZ's own
    assert {name for name in QuadraticPoly.__dict__ if not name.startswith("__")} == {"a", "b", "c", "d"}
    assert not {"__call__", "__str__", "__eq__", "__hash__"} & set(QuadraticPoly.__dict__)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # an f outside a function's domain: the same refusal
        return str(exc)


@pytest.mark.parametrize("a, b, c", [(326, 0, 3), (10, 0, 7)] + _seeded_quadratics(29, 12))
def test_both_forms_give_identical_results(a, b, c):
    q, p = QuadraticPoly(a, b, c), PolyZ((c, b, a))
    g = 2 if a != 326 else 326
    calls = [
        (streak, g, 300),
        (prime_count, 2000),
        (pr_stats, g, 300),
        (lambda f: pr_density(f, cutoff=3000, accelerate=False),),
        (lambda f: bateman_horn_constant(f, cutoff=3000),),
        (mod8_profile.__wrapped__,),  # uncached: the cache would hand p the profile of q
    ]
    for fn, *args in calls:
        assert _outcome(fn, q, *args) == _outcome(fn, p, *args), fn
    for m in (2, 3, 7, 163, 9973):
        for t in (0, 1, 5):
            assert roots_mod(q, m, t) == roots_mod(p, m, t)
