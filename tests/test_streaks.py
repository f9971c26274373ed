"""Tests for the streak statistic, prime counts, and residual-index stats."""

from functools import cache
from itertools import islice

import pytest

from qprim.arith import factor, is_prime, is_primitive_root, primes_up_to
from qprim.poly import PolyZ, QuadraticPoly, roots_mod as _quadratic_roots_mod
from qprim.streaks import (
    PrimeValueStream,
    empirical_max_streak,
    pr_stats,
    prime_count,
    streak,
    verify_primitive_root_prefix,
)

L = QuadraticPoly(326, 0, 3)
GRIFFIN = QuadraticPoly(10, 0, 7)


def test_lehmer_streak():
    res = streak(L, 326, 4000)
    assert res.count == 206
    assert res.failing_prime == 1838843753
    assert res.n_at_failure == 2375
    assert res.residual_index_at_failure == 83


def test_griffin_streak():
    res = streak(GRIFFIN, 10, 2000)
    assert res.count == 16
    assert res.failing_prime == 7297
    assert res.n_at_failure == 27  # frozen from the oracle run
    assert res.residual_index_at_failure == 3


def test_streak_double_entry():
    # every prime in the successful prefix re-verifies independently
    res = streak(L, 326, 4000)
    stream = PrimeValueStream(L)
    counted = 0
    for n, p in stream.entries_upto(res.n_at_failure - 1):
        assert is_prime(p)
        assert is_primitive_root(326, p)
        counted += 1
    assert counted == res.count
    assert not is_primitive_root(326, res.failing_prime)


def test_streak_invalid_bases():
    for g in (-1, 0, 1, 4, 9, 326**2):
        with pytest.raises(ValueError):
            streak(QuadraticPoly(1, 1, 41), g, 100)


def test_streak_monotone_in_cap():
    prev = -1
    for cap in (10, 100, 500, 2375, 3000):
        res = streak(L, 326, cap)
        assert res.count >= prev
        prev = res.count
    full = streak(L, 326, 2375)
    assert full.count == 206 and full.n_at_failure == 2375
    more = streak(L, 326, 100_000)
    assert (more.count, more.n_at_failure) == (206, 2375)  # stabilized


def test_streak_cap_without_failure():
    res = streak(L, 326, 100)
    assert res.n_at_failure is None
    assert res.failing_prime is None
    assert res.residual_index_at_failure is None
    assert res.n_scanned == 101
    assert res.count > 0


def test_streak_skips_primes_dividing_base():
    # k = 3: L(0) = 3 divides 9*326, so the prime 3 is skipped, not failed
    res3 = streak(L, 9 * 326, 4000)
    res1 = streak(L, 326, 4000)
    assert res3.primes_seen >= 1
    stream = PrimeValueStream(L)
    first = next(iter(stream.entries_upto(10)))
    assert first == (0, 3)
    assert res1.count != res3.count or res1.failing_prime != res3.failing_prime


def test_streak_dedupe_matches_set_oracle():
    # vertex inside the range: values repeat symmetrically
    f = PolyZ((29, -10, 1))  # (X-5)^2 + 4
    seen = set()
    expected = []
    for n in range(0, 41):
        v = f.eval(n)
        if v >= 2 and is_prime(v) and v not in seen:
            seen.add(v)
            expected.append((n, v))
    stream = PrimeValueStream(f)
    got = list(stream.entries_upto(40))
    assert got == expected
    res = streak(f, 2, 40)
    assert res.count == 5
    assert res.failing_prime == 229
    assert res.n_at_failure == 20


def test_streak_skips_small_values():
    f = PolyZ((-4, 0, 1))  # X^2 - 4: negative and tiny values at n <= 2
    stream = PrimeValueStream(f)
    first = next(iter(stream.entries_upto(10)))
    assert first == (3, 5)


def test_degenerate_and_even_valued_streams():
    # content 3: the only prime value is 3 itself, then everything is 3k > 3
    f = QuadraticPoly(3, 3, 3)
    assert list(PrimeValueStream(f).entries_upto(100)) == [(0, 3)]
    assert prime_count(f, 100) == 1
    res = streak(f, 10, 50)  # 10 = 1 mod 3 is not a primitive root mod 3
    assert (res.count, res.failing_prime) == (0, 3)
    # always even and > 2: no prime values at all
    assert list(PrimeValueStream(QuadraticPoly(1, 1, 4)).entries_upto(2000)) == []


def test_prime_count_examples():
    assert prime_count(QuadraticPoly(1, 1, 41), 39) == 40
    assert prime_count(QuadraticPoly(1, 1, 27941), 39) == 30
    assert prime_count(PolyZ((41,)), 10) == 11  # constant prime counts every n
    assert prime_count(PolyZ((40,)), 10) == 0


def test_prime_count_matches_brute():
    for coeffs in ((7, 0, 10), (3, 0, 326), (41, 1, 1), (29, -10, 1), (5, 3)):
        f = PolyZ(coeffs)
        for x in (0, 1, 17, 400, 3001):
            brute = sum(
                1 for n in range(x + 1) if f.eval(n) >= 2 and is_prime(f.eval(n))
            )
            assert prime_count(f, x) == brute, (coeffs, x)


def test_pr_stats_lehmer():
    st = pr_stats(L, 326, 100_000)
    # frozen from the oracle run; fraction sits in the expected band
    assert st.primes_total == 6158
    assert st.primes_with_g_pr == 6121
    frac = st.primes_with_g_pr / st.primes_total
    assert 0.988 <= frac <= 0.998
    assert st.histogram[1] == st.primes_with_g_pr
    assert sum(st.histogram.values()) == st.primes_total
    # residual indices of failures stay coprime to the small primes
    for r in st.histogram:
        if r > 1:
            assert r >= 41


def test_pr_stats_zero():
    st = pr_stats(QuadraticPoly(1, 0, 4), 10, 0)  # f(0) = 4 composite
    assert st.primes_total == 0
    assert st.primes_with_g_pr == 0
    assert st.histogram == {}


def test_empirical_max_streak_k1_reduces_to_streak():
    k_best, c_best = empirical_max_streak(326, L, 1, n_cap=4000)
    assert (k_best, c_best) == (1, 206)


def test_empirical_max_streak_cap_guard():
    with pytest.raises(RuntimeError):
        empirical_max_streak(326, L, 4, n_cap=50)


def test_verify_prefix():
    assert verify_primitive_root_prefix(L, 326, 206, 4000)
    assert not verify_primitive_root_prefix(L, 326, 207, 4000)
    with pytest.raises(RuntimeError):
        # no failure below n = 1000, but nowhere near 10000 primes either
        verify_primitive_root_prefix(L, 326, 10_000, 1000)


def test_pr_stats_rejects_negative_n_cap():
    with pytest.raises(ValueError, match="n_cap must be >= 0"):
        pr_stats(L, 326, -5)


def sympy_count(f, x):
    sympy = pytest.importorskip("sympy")
    return sum(1 for n in range(x + 1) if sympy.isprime(f.eval(n)))


@pytest.mark.parametrize(
    "f",
    [
        QuadraticPoly(1, 1, 41),
        QuadraticPoly(1, 1, 27941),
        QuadraticPoly(1, 0, 10**12 + 39),  # large c: values beyond the default sieve
        # (X - 200)^2 + 3: small primes near the vertex are sieve kills, so
        # they must be tested directly although f(0) is above the sieve limit
        QuadraticPoly(1, -400, 40003),
        # degree > 2: sieve roots from the values_mod enumeration
        PolyZ((1, 1, 0, 1)),
        PolyZ((1, 0, 0, 0, 1)),
    ],
)
def test_prime_count_sieve_exact_against_sympy(f):
    # every survivor of the sieve is counted as prime without a test
    assert prime_count(f, 3000) == sympy_count(f, 3000)


@pytest.mark.parametrize(
    "f",
    [
        PolyZ((1, 2)),  # 2X + 1
        PolyZ((-1, 6)),  # 6X - 1
        PolyZ((10**12 + 39, 2)),  # sieved to 1e6, far past the default 2000
    ],
)
def test_prime_count_linear_exact_against_sympy(f):
    assert prime_count(f, 3000) == sympy_count(f, 3000)


def test_linear_roots_closed_form_against_enumeration():
    # linear f, and quadratics that are linear or constant mod q | a
    polys = [PolyZ((1, 2)), PolyZ((-1, 6)), PolyZ((7, 30)), PolyZ((0, 1)), PolyZ((7, 3, 15)), PolyZ((4, 1, 1001))]
    for q in primes_up_to(2000):
        for f in polys:
            want = [n for n in range(q) if f.eval(n) % q == 0]
            assert sorted(_quadratic_roots_mod(f, q)) == want, (f, q)
    assert _quadratic_roots_mod(PolyZ((6, 3, 15)), 3) == (0, 1, 2)  # 3 | every value


def test_prime_count_cubic_with_fixed_prime_divisor():
    # X^3 - X + 3: every value is divisible by 3, so only f(n) = 3 is prime
    f = PolyZ((3, -1, 0, 1))
    assert prime_count(f, 3000) == sympy_count(f, 3000) == 2
    assert list(PrimeValueStream(f).entries_upto(3000)) == [(0, 3)]


@cache
def pm1_factorization(p):
    return factor(p - 1)


def reference_streak(entries, g):
    """(count, failing prime) from arith.is_primitive_root on every prime."""
    count = 0
    for _, p in entries:
        if g % p == 0:
            continue
        if not is_primitive_root(g, p, pm1_factorization(p)):
            return count, p
        count += 1
    return count, None


# negative bases; bases whose square factor shares a prime with some f(n)
# (L(0) = 3 divides 9*326, GRIFFIN(0) = 7 divides 49*10)
SIGNED_AND_SQUARE_BASES = [(L, g) for g in (-326, -163, -3, 9 * 326, 4 * 3 * 326, -25 * 326)]
SIGNED_AND_SQUARE_BASES += [(GRIFFIN, g) for g in (-10, 49 * 10, -49 * 10, 4 * 10)]


def test_streak_matches_reference_loop():
    entries = {f: list(PrimeValueStream(f).entries_upto(3000)) for f in (L, GRIFFIN)}
    stream = PrimeValueStream(L)
    for f, g in SIGNED_AND_SQUARE_BASES:
        res = streak(f, g, 3000, stream=stream if f is L else None)
        assert (res.count, res.failing_prime) == reference_streak(entries[f], g), g
    # one stream's sieve roots serve every base k^2 * 326
    for k in range(1, 51):
        res = streak(L, k * k * 326, 3000, stream=stream)
        assert (res.count, res.failing_prime) == reference_streak(entries[L], k * k * 326), k


def test_entries_upto_tests_no_value_past_n_cap(monkeypatch):
    from qprim import streaks

    tested = []
    real = streaks.is_prime
    monkeypatch.setattr(streaks, "is_prime", lambda v: tested.append(v) or real(v))
    n_cap = 5000  # inside the first block
    entries = list(PrimeValueStream(L).entries_upto(n_cap))
    assert entries[-1][0] <= n_cap
    assert tested  # survivors above depth^2 reach Miller-Rabin
    assert max(tested) <= L.eval(n_cap)  # L increases on n >= 0


@pytest.mark.parametrize("f", [L, QuadraticPoly(1, -400, 40003)])  # the second repeats values
def test_extended_stream_equals_fresh_stream(f):
    n_cap = 3000
    stream = PrimeValueStream(f)
    first = list(stream.entries_upto(n_cap))
    extended = list(stream.entries_upto(3 * n_cap))
    fresh = list(PrimeValueStream(f).entries_upto(3 * n_cap))
    assert extended == fresh
    assert first == [(n, p) for n, p in fresh if n <= n_cap]


def sympy_entries(f, n_cap):
    """(n, f(n)) for the first n at which each prime value occurs, n <= n_cap,
    from sympy.isprime alone."""
    sympy = pytest.importorskip("sympy")
    want, seen = [], set()
    for n in range(n_cap + 1):
        v = f.eval(n)
        if v not in seen and sympy.isprime(v):
            seen.add(v)
            want.append((n, v))
    return want


def sympy_streak(entries, g):
    """(count, n_at_failure, failing_prime, residual index) from
    sympy.n_order on each prime not dividing g."""
    sympy = pytest.importorskip("sympy")
    count = 0
    for n, p in entries:
        if g % p == 0:
            continue
        index = (p - 1) // sympy.n_order(g % p, p)
        if index > 1:
            return count, n, p, index
        count += 1
    return count, None, None, None


def test_streak_matches_sympy_order():
    # independent of qprim's stream, factoring and order code
    entries = {f: sympy_entries(f, 3000) for f in (L, GRIFFIN)}
    stream = PrimeValueStream(L)
    cases = SIGNED_AND_SQUARE_BASES + [(L, k * k * 326) for k in range(1, 51)]
    for f, g in cases:
        res = streak(f, g, 3000, stream if f is L else None)
        got = (res.count, res.n_at_failure, res.failing_prime, res.residual_index_at_failure)
        assert got == sympy_streak(entries[f], g), (f, g)


def test_pr_stats_histogram_matches_sympy_order():
    sympy = pytest.importorskip("sympy")
    want: dict[int, int] = {}
    for _, p in sympy_entries(L, 2000):
        if 326 % p:
            index = (p - 1) // sympy.n_order(326 % p, p)
            want[index] = want.get(index, 0) + 1
    assert pr_stats(L, 326, 2000).histogram == dict(sorted(want.items()))


@pytest.mark.parametrize(
    "f",
    [
        "lehmer", "griffin", "example1", "example2", "example2-g24", "example3", "example3-f1", "example3-f2",
        # 31687 = f(22) = f(378), across the tail start n = 374
        pytest.param(QuadraticPoly(1, -400, 40003), id="X^2-400X+40003"),
    ],
)
def test_preset_entries_match_sympy_enumeration(f):
    # to n = 12000: past the 8192-n block boundary, and sieved to the ramped
    # depth max(2000, block end) below the 30000 sieve limit
    if isinstance(f, str):
        from qprim.cli import preset_registry

        f = preset_registry()[f].poly
    assert list(PrimeValueStream(f).entries_upto(12_000)) == sympy_entries(f, 12_000)


RECORD_PRESETS = ["example1", "example2", "example2-g24", "example3", "example3-f1", "example3-f2"]


@pytest.mark.parametrize("name", RECORD_PRESETS + ["lehmer"])
def test_stream_pm1_factorizations_against_sympy(name):
    # the walks' p - 1, factored 64 candidates at a time: 300 candidates
    # cross four group boundaries
    sympy = pytest.importorskip("sympy")
    from qprim.cli import preset_registry

    stream = PrimeValueStream(preset_registry()[name].poly)
    factored = list(islice(stream._factored(10**6), 300))
    assert len(factored) == 300
    for _, p, pm1 in factored:
        assert pm1.value == p - 1
        assert dict(pm1.factors) == sympy.factorint(p - 1), p


def test_walks_skip_a_base2_pseudoprime_with_no_small_factor():
    # f(1) = 3511^2 passes the base-2 strong test and has no prime factor up
    # to the linear sieve depth of 2000, so it reaches the walks as a
    # candidate; no Lucas witness may pass it off as prime
    from qprim.search import base_streaks
    from qprim.streaks import _residual_indices

    f = PolyZ((1, 3511**2 - 1))
    n_cap = 1500
    assert (1, 3511**2) in [(n, p) for n, p, _ in PrimeValueStream(f)._factored(n_cap)]
    entries = sympy_entries(f, n_cap)
    for g in (3, 5, 6, 7, 10, 11, -3):
        assert [(n, p) for n, p, _, _ in _residual_indices(f, g, n_cap)] == entries
        res = streak(f, g, n_cap)
        assert (res.count, res.n_at_failure, res.failing_prime, res.residual_index_at_failure) == (
            sympy_streak(entries, g)
        ), g
    for g_base in (3, 5, 7):
        got = [(c, p) for _, c, p in base_streaks(f, g_base, 1, 12, n_cap)]
        want = [sympy_streak(entries, k * k * g_base) for k in range(1, 13)]
        assert got == [(c, p) for c, _, p, _ in want], g_base


def test_tiny_rho_budget_raises_only_where_the_walk_reaches_that_prime(monkeypatch):
    from functools import partial

    from qprim import arith

    def needs_rho(p):
        try:
            factor(p - 1, rho_budget=1)
        except arith.FactorizationError:
            return True
        return False

    primes = [p for _, p in PrimeValueStream(L).entries_upto(3000)]
    first = next(j for j, p in enumerate(primes) if needs_rho(p))
    assert 0 < first < 64  # inside the walk's first group of candidates
    monkeypatch.setattr(arith, "factor_many", partial(arith.factor_many, rho_budget=1))
    assert verify_primitive_root_prefix(L, 326, first)
    with pytest.raises(arith.FactorizationError):
        verify_primitive_root_prefix(L, 326, first + 1)
