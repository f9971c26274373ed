"""Tests for Euler products, L-values, and the expected-maximum model."""

import math
import random

import numpy as np
import pytest

from qprim.arith import factor, iter_primes, kronecker, primes_up_to
from qprim.charsums import FundamentalDiscriminant, is_fundamental_discriminant
from qprim.densities import (
    _kronecker_chunk,
    _legendre,
    _ratio,
    _split_cutoff,
    asymptotic_max_estimate,
    bateman_horn_constant,
    dirichlet_l,
    expected_max_streak,
    harmonic_max_estimate,
    hardy_littlewood_constant,
    lehmer_corrected_density,
    lehmer_naive_density,
    pr_density,
    pr_density_simple,
    residue_counts_mod_prime,
    simulate_max_streak,
    totient_ratio_constant,
    totient_ratio_product,
)
from qprim.poly import PolyZ, QuadraticPoly, in_conjecture_f_family
from qprim.search import SearchConfig, candidate_poly

ARTIN = 0.3739558136192022880547280543464164151116292083214186298

EXAMPLE1 = candidate_poly(
    SearchConfig(d=4472988326827347533, d1=252017, alpha=2, sign=-1, shift=8393)
)
EXAMPLE3_F2 = candidate_poly(
    SearchConfig(d=9828323860172600203, d1=54151, alpha=0, sign=1, shift=1484224)
)


# ---------------------------------------------------------------------------
# scalar oracles: plain loops over arith.kronecker, one prime or residue at a
# time, for the chunked numpy kernel of qprim.densities
# ---------------------------------------------------------------------------


def odd_primes(limit):
    return [q for q in primes_up_to(limit) if q > 2]


def count_residue_class(f, m, t):
    """#{s mod m : f(s) = t (mod m)}, one PolyZ.eval_mod at a time."""
    return sum(1 for s in range(m) if f.eval_mod(s, m) == t % m)


def count_roots_mod(f, m):
    return count_residue_class(f, m, 0)


def hl_constant_direct(D, cutoff=100_000):
    """Defining slow product prod_{q >= 3}(1 - (D/q)/(q-1)), truncated, with
    the random-sign tail estimate 3 * value / sqrt(cutoff * ln cutoff)."""
    value = 1.0
    for q in odd_primes(cutoff):
        ch = kronecker(D, q)
        if ch:
            value *= 1.0 - ch / (q - 1.0)
    return value, 3.0 * value / math.sqrt(cutoff * math.log(cutoff))


def character_euler_product(s, D, tol=1e-6):
    """prod_{q >= 3}(1 - chi_D(q)/(q^s - 1)) via the L-value identity
    eps(s) * zeta(2s)/L(s,chi) * prod_{q | D}(1 - q^-2s)
    * prod_{split q >= 3}(1 - 2/(q^s (q^s - 1))), eps(s) = 1 + 2^-s (D/2)."""
    eps = 1.0 + kronecker(D, 2) * 2.0 ** -s
    zeta_2s = math.pi ** 2 / 6.0 if s == 1 else math.pi ** 4 / 90.0
    value = eps * zeta_2s / dirichlet_l(s, D, tol=1e-10).value
    for p, _ in factor(abs(D)).factors:
        value *= 1.0 - 1.0 / float(p) ** (2 * s)
    for q in odd_primes(_split_cutoff(tol, power=s)):
        if kronecker(D, q) == 1:
            qs = float(q) ** s
            value *= 1.0 - 2.0 / (qs * (qs - 1.0))
    return value


def character_euler_product_direct(s, D, cutoff=100_000):
    """Direct truncation of prod_{q >= 3}(1 - chi_D(q)/(q^s - 1)), with the
    tail bound 2/(cutoff^2 ln cutoff) at s = 2 and the random-sign model
    3/sqrt(cutoff ln cutoff) at s = 1."""
    value = 1.0
    for q in odd_primes(cutoff):
        ch = kronecker(D, q)
        if ch:
            value *= 1.0 - ch / (float(q) ** s - 1.0)
    if s == 1:
        return value, 3.0 * abs(value) / math.sqrt(cutoff * math.log(cutoff))
    return value, 2.0 * abs(value) / (float(cutoff) ** s * math.log(cutoff))


_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510)


def digamma_scalar(x):
    acc = 0.0
    while x < 24.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    val = math.log(x) - 0.5 * inv
    t = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        val -= b * t / (2 * k)
        t *= inv2
    return val + acc


def trigamma_scalar(x):
    acc = 0.0
    while x < 24.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    val = inv + 0.5 * inv2
    t = inv * inv2
    for b in _BERNOULLI:
        val += b * t
        t *= inv2
    return val + acc


def dirichlet_l_scalar(s, D):
    q = abs(D)
    psi = digamma_scalar if s == 1 else trigamma_scalar
    terms = []
    for a in range(1, q):
        ch = kronecker(D, a)
        if ch:
            terms.append(ch * psi(a / q))
    return -math.fsum(terms) / q if s == 1 else math.fsum(terms) / (q * q)


def hl_constant_scalar(D, tol=1e-8):
    value = (math.pi ** 4 / 90.0) / (2.0 * dirichlet_l_scalar(1, D) * dirichlet_l_scalar(2, D))
    for p, _ in factor(abs(D)).factors:
        value *= 1.0 - 1.0 / float(p) ** 4
    for q in odd_primes(_split_cutoff(tol, power=2)):
        if kronecker(D, q) == 1:
            value *= 1.0 - 2.0 / (q * (q - 1.0) ** 2)
    return value


def pr_density_scalar(f, limit):
    value = 1.0
    for q in odd_primes(limit):
        n_roots, n_ones = residue_counts_mod_prime(f, q)
        if n_ones:
            value *= 1.0 - n_ones / (q * (q - n_roots))
    return value


def pr_density_simple_scalar(A, B, cutoff=1_000_000):
    value = 1.0
    for q, _ in factor(math.gcd(A, B - 1)).factors:
        if q > 2:
            value *= 1.0 - 1.0 / q
    for q in odd_primes(cutoff):
        if A % q:
            value *= 1.0 - (1 + kronecker(-A * (B - 1), q)) / (q * q)
    return value


def lehmer_scalar(disc, twist=None, cutoff=1_000_000):
    value = 1.0
    for q in odd_primes(cutoff):
        if kronecker(disc, q) == 1:
            if twist is None:
                value *= 1.0 - 2.0 / (q * q)
            else:
                value *= 1.0 - 2.0 / (q * (q - 1 - kronecker(twist, q)))
    return value


def totient_ratio_scalar(cutoff):
    value, last = 1.0, 2
    for q in iter_primes(2, cutoff):
        value *= 1.0 + 1.0 / (q - 1.0) ** 2
        last = q
    return value, last


def test_dirichlet_l_closed_form_oracles():
    assert abs(dirichlet_l(1, -3).value - math.pi / (3 * math.sqrt(3))) < 1e-12
    assert abs(dirichlet_l(1, -4).value - math.pi / 4) < 1e-12
    golden = (1 + math.sqrt(5)) / 2
    assert abs(dirichlet_l(1, 5).value - 2 * math.log(golden) / math.sqrt(5)) < 1e-12
    # class number one: L(1, chi_-163) = pi / sqrt(163)
    assert abs(dirichlet_l(1, -163).value - math.pi / math.sqrt(163)) < 1e-12


def test_dirichlet_l_s2_series_oracle():
    # direct series sum converges fine for a crude cross-check
    for D in (-4, 5, -163):
        from qprim.arith import kronecker

        series = sum(kronecker(D, n) / n**2 for n in range(1, 200_000))
        assert abs(dirichlet_l(2, D).value - series) < 1e-9


def test_dirichlet_l_guards():
    with pytest.raises(ValueError):
        dirichlet_l(1, 1)
    with pytest.raises(ValueError):
        dirichlet_l(3, -4)
    with pytest.raises(ValueError):
        dirichlet_l(1, -4, tol=1e-18)  # precision-exceeded
    with pytest.raises(ValueError):
        dirichlet_l(1, 48)  # not fundamental
    assert dirichlet_l(1, -4).abs_error <= 1e-9


def test_hardy_littlewood_constants():
    c163 = hardy_littlewood_constant(-163)
    assert abs(c163.value - 3.3197732) < 1e-5
    c111763 = hardy_littlewood_constant(-111763)
    assert abs(c111763.value - 3.6319998) < 1e-5
    assert c163.tail_bound > 0


def test_hardy_littlewood_cutoff_stability():
    tol = 1e-8
    a = hardy_littlewood_constant(-163, tol=tol)
    b = hardy_littlewood_constant(-163, tol=tol / 4)  # doubles the cutoff twice
    assert abs(a.value - b.value) <= 2 * tol


def test_hardy_littlewood_direct_cross_check():
    eq = hardy_littlewood_constant(-163)
    direct, tail = hl_constant_direct(-163, cutoff=100_000)
    assert abs(direct - eq.value) <= tail


def test_hardy_littlewood_guards():
    with pytest.raises(ValueError):
        hardy_littlewood_constant(-4)  # = 4 mod 8
    with pytest.raises(ValueError):
        hardy_littlewood_constant(5)  # positive
    with pytest.raises(ValueError):
        hardy_littlewood_constant(-45)  # not fundamental


def test_character_euler_product_identity():
    # L-value form vs direct truncation at 1e5, s = 2
    for D in (-163, -3912, 5, 12):
        lform = character_euler_product(2, D, tol=1e-9)
        direct, _ = character_euler_product_direct(2, D, cutoff=100_000)
        assert abs(lform - direct) < 1e-8, D


def test_character_euler_product_s1_is_prime_density_constant():
    # at s = 1 the product is the defining slow product of the HL constant
    ep = character_euler_product(1, -163, tol=1e-7)
    hl = hardy_littlewood_constant(-163)
    assert abs(ep - hl.value) < 1e-6


def test_character_euler_product_s1_direct_within_its_tail():
    for D in (5, 12, -163):
        lform = character_euler_product(1, D, tol=1e-7)
        direct, tail = character_euler_product_direct(1, D, cutoff=100_000)
        assert abs(lform - direct) <= tail, D


def test_character_euler_product_eps():
    # (D/2) = -1 for D = 5 mod 8: eps(1) = 1/2 absorbed into the value
    from qprim.arith import kronecker

    assert kronecker(-163, 2) == -1
    assert kronecker(5, 2) == -1


def test_residue_counts_closed_form_matches_enumeration():
    rng = random.Random(3)
    from qprim.arith import primes_up_to

    primes = [p for p in primes_up_to(500) if p > 2]
    for _ in range(300):
        f = PolyZ(
            (
                rng.randint(-10**9, 10**9),
                rng.randint(-10**9, 10**9),
                rng.randint(1, 10**6),
            )
        )
        q = rng.choice(primes)
        n_roots, n_ones = residue_counts_mod_prime(f, q)
        assert n_roots == count_roots_mod(f, q)
        assert n_ones == count_residue_class(f, q, 1)
    # linear, constant, cubic and quartic degrees
    for coeffs in ((5, 3), (1, 0, 0), (7,), (1, 1, 0, 1), (-5, 3, 0, 2), (1, 0, 0, 0, 1), (2, -7, 0, 3, 6)):
        f = PolyZ(coeffs)
        for q in (3, 5, 7):
            n_roots, n_ones = residue_counts_mod_prime(f, q)
            assert n_roots == count_roots_mod(f, q)
            assert n_ones == count_residue_class(f, q, 1)


def test_pr_density_artin_double():
    rep = pr_density(PolyZ((0, 1)))
    assert rep.method == "accelerated"
    assert abs(rep.value - 2 * ARTIN) < 1e-6


def test_pr_density_examples():
    assert abs(pr_density(EXAMPLE1).value - 0.999453) < 2e-5
    assert abs(pr_density(EXAMPLE3_F2).value - 0.999535) < 2e-5


def test_pr_density_direct_vs_accelerated():
    f = QuadraticPoly(326, 0, 3)
    direct = pr_density(f, cutoff=10_000, accelerate=False)
    accel = pr_density(f, cutoff=10_000, accelerate=True)
    assert direct.method == "direct"
    assert abs(direct.value - accel.value) <= direct.tail_bound
    simple = pr_density_simple(326, 3)
    assert abs(simple.value - accel.value) < 1e-2


def test_pr_density_simple_values():
    rep = pr_density_simple(10, 7)
    assert 0 < rep.value < 1
    assert abs(rep.value - 0.8686838205432269) < 1e-9  # frozen from the oracle run
    with pytest.raises(ValueError):
        pr_density_simple(-3, 7)


def test_pr_density_degenerate():
    with pytest.raises(ValueError):
        pr_density(QuadraticPoly(3, 3, 3))  # content 3
    with pytest.raises(ValueError):
        pr_density(PolyZ((5,)))  # constant


def test_pr_density_below_one_for_random_family():
    rng = random.Random(2024)
    produced = 0
    while produced < 200:
        f = QuadraticPoly(rng.randint(1, 80), rng.randint(-80, 80), rng.randint(-80, 80))
        if not in_conjecture_f_family(f):
            continue
        produced += 1
        rep = pr_density(f, cutoff=10_000, accelerate=False)
        assert rep.value + rep.tail_bound < 1, f


def test_lehmer_products():
    naive = lehmer_naive_density()
    assert abs(naive.value - 0.99337) < 1e-4
    assert naive.tail_bound < 1e-6
    corrected = lehmer_corrected_density()
    assert abs(corrected.value - 0.99323) < 1e-4
    ratio = corrected.value / (1 - corrected.value)
    assert abs(ratio - 146.79) < 0.1  # "about 150"
    # first split prime for -163 is 41; partial product below it is empty
    from qprim.arith import kronecker, primes_up_to

    splits = [q for q in primes_up_to(100) if q > 2 and kronecker(-163, q) == 1]
    assert splits[0] == 41


def test_totient_ratio_constant():
    assert totient_ratio_constant(2).value == 2.0
    b6 = totient_ratio_constant(10**6)
    assert abs(b6.value - 2.826419997067) < 1e-6
    values = [totient_ratio_constant(c).value for c in (10, 100, 10_000)]
    assert values == sorted(values)


def test_totient_ratio_product():
    assert totient_ratio_product([3]) == 2.0
    assert totient_ratio_product([3, 5]) == 4.0
    assert totient_ratio_product([7]) == 3.0
    with pytest.raises(ValueError):
        totient_ratio_product([4])
    with pytest.raises(ValueError):
        totient_ratio_product([2])


def test_bateman_horn():
    assert bateman_horn_constant(PolyZ((0, 1))).value == 1.0
    h = bateman_horn_constant(QuadraticPoly(1, 0, 1), cutoff=1_000_000)
    assert abs(h.value - 1.3728) < 5e-3
    with pytest.raises(ValueError):
        bateman_horn_constant(QuadraticPoly(1, 2, 1))  # reducible
    with pytest.raises(ValueError):
        bateman_horn_constant(PolyZ((1, 0, 0, 1)))  # cubic without the flag
    h3 = bateman_horn_constant(PolyZ((1, 1, 0, 1)), cutoff=2000, assume_irreducible=True)
    assert h3.value > 0


def test_bateman_horn_consistent_with_hl_constant():
    h = bateman_horn_constant(QuadraticPoly(1, 1, 41), cutoff=1_000_000)
    c = hardy_littlewood_constant(-163)
    assert abs(h.value / 2 - c.value) <= h.tail_bound + c.tail_bound


def test_expected_max_s1_is_geometric_mean():
    for p1 in (0.3, 0.5, 0.9, 0.99):
        assert abs(expected_max_streak(p1, 1) - p1 / (1 - p1)) < 1e-9 * (1 + p1 / (1 - p1))


def test_expected_max_monotone():
    assert expected_max_streak(0.9, 10) <= expected_max_streak(0.9, 100)
    assert expected_max_streak(0.9, 100) <= expected_max_streak(0.9, 1000)
    assert expected_max_streak(0.9, 100) <= expected_max_streak(0.95, 100)


def test_expected_max_matches_harmonic_approximation():
    for p1, s in ((0.99323, 350), (0.99323, 25000), (0.999453, 145700)):
        assert abs(expected_max_streak(p1, s) - harmonic_max_estimate(p1, s)) < 1.0


def test_expected_max_asymptotic_ratio():
    m = expected_max_streak(0.99, 10**6)
    assert abs(m / asymptotic_max_estimate(0.99, 10**6) - 1) < 0.15


def test_expected_max_guards():
    with pytest.raises(ValueError):
        expected_max_streak(1.0, 10)
    with pytest.raises(ValueError):
        expected_max_streak(0.0, 10)
    with pytest.raises(ValueError):
        expected_max_streak(0.5, 0)


def test_simulate_max_streak():
    mean, stderr = simulate_max_streak(0.5, 1, trials=20_000, seed=11)
    assert abs(mean - 1.0) < 4 * stderr
    again, _ = simulate_max_streak(0.5, 1, trials=20_000, seed=11)
    assert mean == again  # deterministic under a fixed seed
    for p1, s in ((0.9, 100), (0.99, 1000)):
        mean, stderr = simulate_max_streak(p1, s, trials=4000, seed=7)
        assert abs(mean - expected_max_streak(p1, s)) <= 3 * stderr
    with pytest.raises(ValueError):
        simulate_max_streak(0.5, 10, trials=10, seed=1)


def small_base_bound_definition(streak):
    """10^(streak/3): the defining smallness threshold for a base."""
    return 10.0 ** (streak / 3.0)


def small_base_bound_heuristic(streak):
    """10^(0.45*streak): the threshold the residue-class counting argument
    suggests.  Disagrees with the defining one."""
    return 10.0 ** (0.45 * streak)


def test_small_base_bounds():
    assert small_base_bound_definition(3) == 10.0
    assert small_base_bound_heuristic(2) == pytest.approx(10.0 ** 0.9)
    assert small_base_bound_definition(206) < small_base_bound_heuristic(206)


# ---------------------------------------------------------------------------
# the chunked character kernel against independent oracles
# ---------------------------------------------------------------------------


def class_number(D):
    """h(D) for D < -4 by counting the reduced forms (a, b, c), b^2 - 4ac = D:
    |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            h += 1
        a += 1
    return h


def test_dirichlet_l_class_number_formula():
    h = class_number(-111763)
    assert h == 24
    # L(1, chi_D) = pi h / sqrt|D| for D < -4
    assert abs(dirichlet_l(1, -111763).value - math.pi * h / math.sqrt(111763)) < 2e-16
    assert class_number(-163) == 1


def test_dirichlet_l_s2_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for D in (-163, -84, 1001):
            chi = [kronecker(D, a) for a in range(abs(D))]
            want = mpmath.dirichlet(2, chi)
            assert abs(dirichlet_l(2, D).value - float(want)) < 1e-15, D


def test_kronecker_chunk_matches_kronecker():
    checked = 0
    for t in range(3, 201):
        for D in (t, -t):
            if not is_fundamental_discriminant(D):
                continue
            a = np.arange(3 * t, dtype=np.int64)
            assert _kronecker_chunk(D, a).tolist() == [kronecker(D, int(x)) for x in a], D
            checked += 1
    assert checked > 100


def test_legendre_matches_kronecker_and_guards_int64():
    P = np.array(odd_primes(5000), dtype=np.int64)
    for a in (-163, 0, 1, -1, 2**150 + 12345, -(3**90), 4 * 10**40 + 7):
        assert _legendre(a, P).tolist() == [kronecker(a, int(q)) for q in P], a
    with pytest.raises(ValueError, match="2\\^31"):
        _legendre(3, np.array([2**31 + 11], dtype=np.int64))


def test_ratio_rounds_once_like_python():
    den = 1822851097 * 1822851096  # q (q - 1) above 2^53, as for q > 9.5e7
    assert 1 / den != 1.0 / float(den)  # converting first rounds twice
    assert _ratio(np.array([1, 1]), np.array([6, den])).tolist() == [1 / 6, 1 / den]


def test_l_values_bit_identical_to_scalar_loop():
    for D in (-3, -4, 5, 8, -8, 12, -84, -163, 1001, -3912, -111763):
        for s in (1, 2):
            assert dirichlet_l(s, D).value == dirichlet_l_scalar(s, D), (s, D)
    psi = [digamma_scalar(s + 1.0) - digamma_scalar(1.0) for s in (1, 350, 145700)]
    assert [harmonic_max_estimate(0.5, s) for s in (1, 350, 145700)] == [
        h / math.log(2.0) - 0.5 for h in psi
    ]


def test_hardy_littlewood_bit_identical_to_scalar_loop():
    for D in (-163, -111763):
        assert hardy_littlewood_constant(D).value == hl_constant_scalar(D), D


def test_pr_density_bit_identical_to_scalar_loop():
    lead_factors = QuadraticPoly(2 * 3 * 7919 * 999983, 3 * 7919, 7)  # 3, 7919 | a and b
    for f in (EXAMPLE1, EXAMPLE3_F2, PolyZ((1, 6)), lead_factors):
        rep = pr_density(f)
        assert rep.value == pr_density_scalar(f, 1_000_000), f
        assert rep.cutoff == 999983
    direct = pr_density(QuadraticPoly(326, 0, 3), cutoff=10_000, accelerate=False)
    assert direct.value == pr_density_scalar(QuadraticPoly(326, 0, 3), 10_000)
    assert direct.cutoff == 9973


def test_split_products_bit_identical_to_scalar_loop():
    assert lehmer_naive_density().value == lehmer_scalar(-163)
    assert lehmer_corrected_density().value == lehmer_scalar(-163, twist=-978)
    for A, B in ((10, 7), (326, 3), (2 * 3 * 7 * 999983, 22)):
        assert pr_density_simple(A, B).value == pr_density_simple_scalar(A, B), (A, B)


def test_totient_ratio_constant_bit_identical_to_scalar_loop():
    for cutoff in (2, 3, 1000, 2_100_000):  # the last runs past the prime table
        rep = totient_ratio_constant(cutoff)
        assert (rep.value, rep.cutoff) == totient_ratio_scalar(cutoff), cutoff


def test_pr_density_rejects_even_and_reducible():
    with pytest.raises(ValueError, match="even"):
        pr_density(QuadraticPoly(2, 2, 2))
    with pytest.raises(ValueError, match="even"):
        pr_density(QuadraticPoly(1, 1, 2))  # X^2 + X + 2: irreducible, always even
    with pytest.raises(ValueError, match="reducible"):
        pr_density(QuadraticPoly(1, 0, 0))
    with pytest.raises(ValueError, match="reducible"):
        pr_density(QuadraticPoly(1, 0, -4))
