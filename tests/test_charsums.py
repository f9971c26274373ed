"""Tests for character sums, averages, and inert proportions (all exact)."""

import math
import random
from fractions import Fraction

import pytest

from qprim.arith import factor, kronecker, primes_up_to
from qprim.charsums import (
    TWO_PART_CHARACTERS,
    FundamentalDiscriminant,
    admissible_discriminants,
    brute_char_average,
    char_average,
    complete_char_sum,
    fundamental_discriminant,
    inert_proportion,
    is_valid_base,
    jacobsthal_sum,
    local_char_average,
)
from qprim.poly import PolyZ, QuadraticPoly, in_conjecture_f_family
from qprim.streaks import PrimeValueStream

ODD_PRIMES_199 = [p for p in primes_up_to(199) if p > 2]
L = QuadraticPoly(326, 0, 3)


def char_average_gcd_form(f, d):
    """Oracle: the closed form of the average mod an odd squarefree d via gcd
    bookkeeping:
    (c/(d,a,e)) * (a/(d/(d,a))) * prod_{q|d, q coprime to a*e} -1/(q-1-(e/q)),
    and 0 when (d,a) does not divide e  (e = discriminant)."""
    a, c, e = f.a, f.c, f.d
    da = math.gcd(d, a)
    if e % da != 0:
        return Fraction(0)
    dae = math.gcd(da, abs(e)) if e != 0 else da
    out = Fraction(kronecker(c, dae) * kronecker(a, d // da))
    for q, _ in factor(d).factors:
        if a % q != 0 and e % q != 0:
            out *= Fraction(-1, q - 1 - kronecker(e, q))
    return out


def char_average_enumeration(f, d):
    """Oracle: the defining enumeration of the average over a full period mod
    an odd squarefree d."""
    total = 0
    units = 0
    for r in range(d):
        v = f.eval(r) % d
        if math.gcd(v, d) == 1:
            units += 1
            total += kronecker(v, d)
    if units == 0:
        raise ValueError(f"no residue class mod {d} is coprime to f")
    return Fraction(total, units)


def fundamental(D):
    """FundamentalDiscriminant.from_integer(D), or None where D is not fundamental."""
    try:
        return FundamentalDiscriminant.from_integer(D)
    except ValueError:
        return None


def random_quadratics(seed, count, coeff=60):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = QuadraticPoly(rng.randint(1, coeff), rng.randint(-coeff, coeff), rng.randint(-coeff, coeff))
        out.append(f)
    return out


def test_fundamental_discriminants():
    assert fundamental_discriminant(326).D == 1304  # 326 = 2 mod 4
    assert fundamental_discriminant(-163).D == -163
    assert fundamental_discriminant(12).D == 12  # squarefree part 3 = 3 mod 4
    assert fundamental_discriminant(6).D == 24
    assert fundamental_discriminant(-3).D == -3
    assert fundamental_discriminant(5).D == 5
    assert fundamental_discriminant(1304).odd_primes == (163,)
    for g in (-1, 0, 1, 4, 9, 144):
        with pytest.raises(ValueError):
            fundamental_discriminant(g)


def test_fundamental_discriminant_reads_the_squarefree_kernel():
    # g = s^2 * g1 with g1 squarefree: D is g1 or 4 * g1, and its odd primes are g1's
    assert fundamental_discriminant(326) == FundamentalDiscriminant(1304, (163,))
    assert fundamental_discriminant(-163) == FundamentalDiscriminant(-163, (163,))
    assert fundamental_discriminant(12) == FundamentalDiscriminant(12, (3,))  # 12 = 2^2 * 3
    assert fundamental_discriminant(-18) == FundamentalDiscriminant(-8, ())  # -18 = 3^2 * -2
    with pytest.raises(ValueError):
        fundamental_discriminant(0)


def test_is_fundamental():
    good = [-163, -3, -4, -8, 5, 8, 12, 24, 1304, -3912]
    bad = [0, 2, 3, -5, 9, 16, 48, -12]
    for D in good:
        assert FundamentalDiscriminant.from_integer(D).D == D
    for D in bad:
        with pytest.raises(ValueError, match="not a fundamental discriminant"):
            FundamentalDiscriminant.from_integer(D)
    assert FundamentalDiscriminant.from_integer(-3912).odd_primes == (3, 163)  # -3912 = -8 * 3 * 163


def test_two_part_splits_every_fundamental_discriminant_to_5000():
    # D = two_part * prod p*, p* = +-p = 1 mod 4; the oracle factors with sympy
    factorint = pytest.importorskip("sympy").factorint
    two_parts = set()
    for t in range(1, 5001):
        for D in (t, -t):
            fd = fundamental(D)
            m = D if D % 4 == 1 else D // 4 if D % 4 == 0 and D // 4 % 4 in (2, 3) else 0
            assert (fd is not None) == (m != 0 and max(factorint(abs(m)).values(), default=1) == 1), D
            if fd is None:
                continue
            assert fd.odd_primes == tuple(sorted(p for p in factorint(abs(D)) if p > 2)), D
            assert fd.two_part in (1, -4, 8, -8), D
            assert fd.D == fd.two_part * math.prod(p if p % 4 == 1 else -p for p in fd.odd_primes), D
            two_parts.add(fd.two_part)
    assert two_parts == {1, -4, 8, -8}


def test_two_part_characters_are_kronecker_symbols():
    assert sorted(TWO_PART_CHARACTERS) == [-8, -4, 8]
    for t, chi in TWO_PART_CHARACTERS.items():
        assert list(chi) == [kronecker(t, j) for j in range(8)], t


def test_fundamental_discriminant_against_factorint():
    # D of Q(sqrt(g)) from g's squarefree part g1, by sympy's factorization
    factorint = pytest.importorskip("sympy").factorint
    for g in range(-2000, 2001):
        if not is_valid_base(g):
            with pytest.raises(ValueError, match="invalid base"):
                fundamental_discriminant(g)
            continue
        g1 = (1 if g > 0 else -1) * math.prod(p for p, e in factorint(abs(g)).items() if e % 2)
        D = g1 if g1 % 4 == 1 else 4 * g1
        odd_primes = tuple(sorted(p for p in factorint(abs(g1)) if p > 2))
        assert fundamental_discriminant(g) == FundamentalDiscriminant(D, odd_primes), g


def test_jacobsthal_closed_vs_brute():
    for p in ODD_PRIMES_199:
        table = [kronecker(m, p) for m in range(p)]
        for a in range(p):
            brute = sum(table[(m * m + a) % p] for m in range(p))
            assert jacobsthal_sum(a, p) == brute, (a, p)
    assert jacobsthal_sum(0, 7) == 6
    assert jacobsthal_sum(1, 7) == -1
    assert jacobsthal_sum(14, 7) == 6


def brute_t_sum(f, p):
    return sum(kronecker(f.eval(m), p) for m in range(p))


def test_complete_char_sum_examples():
    assert complete_char_sum(QuadraticPoly(1, 0, 1), 5) == -1
    assert complete_char_sum(QuadraticPoly(3, 3, 3), 3) == 0  # p | gcd(a,d), (3/3) = 0
    assert complete_char_sum(QuadraticPoly(5, 0, 1), 5) == 5  # p | (a,d), five 1s


def test_complete_char_sum_closed_vs_brute():
    # includes engineered degenerate cases p|a, p|d, p|(a,d)
    rng = random.Random(41)
    fs = random_quadratics(42, 460)
    for p in (3, 5, 7):
        fs.append(QuadraticPoly(p, rng.randint(-20, 20), rng.randint(-20, 20)))
        fs.append(QuadraticPoly(p, 0, p))  # p | a and p | d
        fs.append(QuadraticPoly(1, 0, -p))  # d = 4p: p | d only
    for f in fs:
        for p in ODD_PRIMES_199:
            assert complete_char_sum(f, p) == brute_t_sum(f, p), (f, p)


def test_local_average_examples():
    assert local_char_average(L, 3) == Fraction(-1)
    assert local_char_average(QuadraticPoly(1, 0, 1), 5) == Fraction(-1, 3)
    assert local_char_average(QuadraticPoly(3, 0, 7), 5) == Fraction(1, 3)
    assert local_char_average(QuadraticPoly(3, 1, 1), 3) == Fraction(0)  # p|a, p not | d


def test_local_average_is_0_where_p_divides_every_value():
    # no unit class to average over: the enumeration form refuses, the
    # closed form reads 0 (its complete sum is p * (0/p) = 0)
    f = QuadraticPoly(3, 3, 3)
    with pytest.raises(ValueError, match="divisible by 3"):
        brute_char_average(f, 3)
    assert local_char_average(f, 3) == 0
    assert local_char_average(PolyZ((35, 14, 7)), 7) == 0


def test_local_average_closed_vs_brute():
    for f in random_quadratics(43, 120):
        for p in ODD_PRIMES_199:
            try:
                brute = brute_char_average(f, p)
            except ValueError:
                continue  # degenerate denominator
            assert local_char_average(f, p) == brute, (f, p)


def test_local_average_bounded():
    for f in random_quadratics(44, 200):
        for p in (3, 5, 7, 11, 13):
            assert abs(local_char_average(f, p)) <= 1


def test_brute_average_any_degree():
    # X^3 + k permutes F_p when gcd(p-1, 3) = 1, so the average vanishes
    for p in (5, 11, 17, 23, 29, 41):
        assert math.gcd(p - 1, 3) == 1
        assert brute_char_average(PolyZ((2, 0, 0, 1)), p) == 0
    with pytest.raises(ValueError):
        brute_char_average(QuadraticPoly(3, 3, 3), 3)


def test_char_average_multiplicative_and_forms():
    assert char_average(QuadraticPoly(1, 0, 1), 15) == Fraction(1, 9)
    assert char_average(QuadraticPoly(3, 1, 1), 3) == 0  # (d,a) does not divide disc
    for f in random_quadratics(45, 24):
        for p in (3, 5, 7, 11):
            assert char_average(f, p) == local_char_average(f, p)


def test_char_average_three_routes_agree():
    squarefree_odd = [d for d in range(3, 1001, 2) if all(d % (q * q) for q in range(2, 32))]
    for f in random_quadratics(46, 100):
        for d in squarefree_odd[:: 7]:  # every 7th modulus keeps this quick
            product = char_average(f, d)
            assert product == char_average_gcd_form(f, d), (f, d)
            try:
                enum = char_average_enumeration(f, d)
            except ValueError:
                continue
            assert product == enum, (f, d)


def test_char_average_full_enumeration_sweep():
    squarefree_odd = [d for d in range(3, 1001, 2) if all(d % (q * q) for q in range(2, 32))]
    fs = random_quadratics(47, 12)
    for f in fs:
        for d in squarefree_odd:
            assert char_average(f, d) == char_average_gcd_form(f, d)


def test_char_average_multiplicativity():
    pairs = [(3, 5), (3, 7), (5, 11), (15, 7), (5, 33), (21, 55)]
    for f in random_quadratics(48, 30):
        for d1, d2 in pairs:
            if math.gcd(d1, d2) != 1:
                continue
            assert char_average(f, d1 * d2) == char_average(f, d1) * char_average(f, d2)


def test_char_average_invalid_modulus():
    with pytest.raises(ValueError):
        char_average(L, 9)
    with pytest.raises(ValueError):
        char_average(L, 6)
    with pytest.raises(ValueError):
        char_average(L, 1)


def test_inert_proportion_exact_values():
    assert inert_proportion(QuadraticPoly(3, 0, 7), 5) == Fraction(1, 3)
    assert inert_proportion(QuadraticPoly(1, 0, 1), 5) == Fraction(2, 3)
    assert inert_proportion(QuadraticPoly(1, 0, 5), -3) == Fraction(1)
    assert inert_proportion(QuadraticPoly(1, 0, 1), 12) == Fraction(2, 3)
    # f41 has the uniform mod-8 profile, so every even discriminant gives 1/2
    for D in (-8 * 3, 24, 12, -4 * 41):
        assert inert_proportion(QuadraticPoly(1, 1, 41), D) == Fraction(1, 2)


def test_inert_proportion_general_polynomial_path():
    # routes go by degree, so both spellings of 3X^2 + 7 take the closed form
    # and must agree; test_local_average_closed_vs_brute checks that closed
    # form against enumeration
    assert inert_proportion(PolyZ((7, 0, 3)), 5) == inert_proportion(QuadraticPoly(3, 0, 7), 5)
    assert inert_proportion(PolyZ((1, 0, 1)), 12) == Fraction(2, 3)
    # permutation cubic: zero average, proportion exactly 1/2
    assert inert_proportion(PolyZ((2, 0, 0, 1)), 5) == Fraction(1, 2)


def test_inert_proportion_errors():
    with pytest.raises(ValueError):
        inert_proportion(L, 8)  # odd part 1
    with pytest.raises(ValueError):
        inert_proportion(L, 48)  # not fundamental


def test_quadratic_closed_forms_take_any_degree_2_poly():
    rng = random.Random(41)
    assert [fd.D for fd in admissible_discriminants(PolyZ((3, 0, 326)), 2000)] == [-163, -3, 24, 1304]
    checked = 0
    while checked < 25:
        a, b, c = rng.randint(1, 40), rng.randint(-40, 40), rng.randint(-40, 40)
        q, p = QuadraticPoly(a, b, c), PolyZ((c, b, a))
        for prime in (3, 5, 7, 13, 163):
            assert complete_char_sum(p, prime) == complete_char_sum(q, prime)
            assert local_char_average(p, prime) == local_char_average(q, prime)
        if in_conjecture_f_family(q):
            checked += 1
            assert admissible_discriminants(p, 300) == admissible_discriminants(q, 300)
    cubic, linear = PolyZ((3, 0, 0, 1)), PolyZ((3, 2))
    for f in (cubic, linear):
        with pytest.raises(ValueError, match="quadratic"):
            complete_char_sum(f, 5)
        with pytest.raises(ValueError, match="quadratic"):
            local_char_average(f, 5)
        with pytest.raises(ValueError, match="quadratic"):
            admissible_discriminants(f, 100)


def test_admissible_discriminants():
    assert [fd.D for fd in admissible_discriminants(L, 2000)] == [-163, -3, 24, 1304]
    assert admissible_discriminants(QuadraticPoly(1, 1, 41), 2000) == []
    assert -3 in [fd.D for fd in admissible_discriminants(QuadraticPoly(1, 0, 5), 10)]
    with pytest.raises(ValueError):
        admissible_discriminants(QuadraticPoly(2, 2, 2), 100)
    for bound in (0, -5):  # no discriminant has |D| < 1: refused, not an empty list
        with pytest.raises(ValueError, match="bound must be >= 1"):
            admissible_discriminants(L, bound)
    # trial division stops once 24*a*|d| is used up, so a large bound stays cheap
    assert [fd.D for fd in admissible_discriminants(L, 10**7)] == [-163, -3, 24, 1304]


def test_admissible_discriminants_reads_the_mod8_profile_once_per_f():
    # inert_proportion reads it at each candidate D with a 2-part other than 1
    from qprim import poly

    for f in (L, QuadraticPoly(1, 0, 5), QuadraticPoly(3, 1, 7)):
        poly.mod8_profile.cache_clear()
        admissible_discriminants(f, 2000)
        info = poly.mod8_profile.cache_info()
        assert (info.misses, info.hits > 0) == (1, True), f


@pytest.mark.parametrize(
    "d, d1, alpha, sign",
    [
        # 24*a*|disc| has a cofactor beyond the primality range: these raised
        # before only the 2000-smooth part was factored
        (4472988326827347533, 252017, 4, 1),
        (9828323860172600203, 181498473900253, 4, -1),
    ],
)
def test_admissible_discriminants_against_brute_force(d, d1, alpha, sign):
    from qprim.search import SearchConfig, candidate_poly

    f = candidate_poly(SearchConfig(d=d, d1=d1, alpha=alpha, sign=sign, shift=0))
    brute = []
    for t in range(1, 2001):
        for D in (t, -t):
            if (fd := fundamental(D)) and fd.odd_primes and inert_proportion(f, fd) == 1:
                brute.append(D)
    assert [fd.D for fd in admissible_discriminants(f, 2000)] == sorted(brute)
    assert brute


def test_prop5_bounds_and_divisibility():
    fund = []
    for t in range(2, 201):
        for D in (t, -t):
            if (fd := fundamental(D)) and fd.odd_primes:
                fund.append(fd)
    fs = [f for f in random_quadratics(12345, 800) if in_conjecture_f_family(f)][:500]
    assert len(fs) == 500
    for f in fs:
        for fd in fund:
            try:
                tau = inert_proportion(f, fd)
            except ValueError:
                continue
            if tau == 0 or tau == 1:
                assert (24 * f.a * f.d) % fd.D == 0, (f, fd.D, tau)
            else:
                assert Fraction(1, 3) <= tau <= Fraction(2, 3), (f, fd.D, tau)


def test_hasse_bound_for_cubics():
    # y^2 = f(x) nonsingular: complete sums stay within 2 sqrt(p)
    curves = [(0, -1, 0, 1), (1, 1, 0, 1), (3, 2, 0, 1), (5, -7, 0, 1)]
    for c0, c1, _, _ in curves:
        f = PolyZ((c0, c1, 0, 1))
        disc = -4 * c1**3 - 27 * c0**2
        assert disc != 0
        for p in ODD_PRIMES_199:
            if p < 5 or disc % p == 0:
                continue
            units = sum(1 for r in range(p) if f.eval(r) % p != 0)
            total = brute_char_average(f, p) * units
            assert abs(total) <= 2 * math.sqrt(p), (f, p)


def test_empirical_inert_fraction_for_x2_plus_1():
    f = PolyZ((1, 0, 1))
    predicted = inert_proportion(QuadraticPoly(1, 0, 1), 12)
    stream = PrimeValueStream(f)
    inert = 0
    total = 0
    for _, p in stream.entries_upto(10**7):
        if kronecker(12, p) == -1:
            inert += 1
        total += 1
        if total >= 2000:
            break
    assert total == 2000
    assert abs(inert / total - float(predicted)) <= 0.05


def _answer(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # a refusal is an answer too: both spellings must give the same one
        return f"ValueError: {exc}"


SPELLING_MODULI = (3, 5, 7, 15, 21, 105)
SPELLING_DISCS = (-3, -4, 5, -7, 8, -8, 12, -15, -20, 21, 24, -163, 1304)


def test_spelling_never_changes_an_answer():
    # every value of 5X^2 + 5 is divisible by 5, and of 3X^2 + 3X + 3 by 3: the
    # closed form answers both, whichever class spells them
    assert inert_proportion(PolyZ((5, 0, 5)), 5) == Fraction(1, 2)
    assert char_average(PolyZ((3, 3, 3)), 3) == 0
    rng = random.Random(2025)
    seeded = [(rng.randint(1, 60), rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(24)]
    for a, b, c in [(5, 0, 5), (3, 3, 3)] + seeded:
        q, p = QuadraticPoly(a, b, c), PolyZ((c, b, a))
        for d in SPELLING_MODULI:
            assert _answer(char_average, q, d) == _answer(char_average, p, d), (a, b, c, d)
        for D in SPELLING_DISCS:
            assert _answer(inert_proportion, q, D) == _answer(inert_proportion, p, D), (a, b, c, D)


def test_from_integer_returns_an_instance_unchanged():
    fd = FundamentalDiscriminant.from_integer(-163)
    assert FundamentalDiscriminant.from_integer(fd) is fd
    assert inert_proportion(L, fd) == inert_proportion(L, -163)
