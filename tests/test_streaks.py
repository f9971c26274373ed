"""Tests for the streak statistic, prime counts, and residual-index stats."""

import math
from functools import cache
from itertools import accumulate, islice

import pytest

from qprim.arith import factor, is_prime, is_primitive_root, is_strong_probable_prime, primes_up_to
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


def test_verify_prefix_skips_a_prime_dividing_g():
    # f(0) = 3 divides g = 978, so the prefix starts at the next prime:
    # against sympy's multiplicative order over the primes f(n) not dividing g
    sympy = pytest.importorskip("sympy")
    g, primes = 978, []
    for n in range(200):
        p = L.eval(n)
        if sympy.isprime(p) and g % p and p not in primes:
            primes.append(p)
    assert L.eval(0) == 3 and g % 3 == 0
    for prefix in range(1, 8):
        want = all(sympy.n_order(g, p) == p - 1 for p in primes[:prefix])
        assert verify_primitive_root_prefix(L, g, prefix, 200) == want, prefix
    assert verify_primitive_root_prefix(L, g, 4, 200) and not verify_primitive_root_prefix(L, g, 5, 200)


def test_walks_refuse_another_polynomials_stream():
    from qprim.streaks import _residual_indices

    # a stream of GRIFFIN's primes would report its failing prime 7 as L's
    with pytest.raises(ValueError, match="stream"):
        streak(L, 326, 3000, stream=PrimeValueStream(GRIFFIN))
    with pytest.raises(ValueError, match="stream"):  # the walk pr_stats reads
        _residual_indices(L, 326, 3000, PrimeValueStream(GRIFFIN))
    # the same polynomial given as a PolyZ is the stream's own
    res = streak(L, 326, 3000, stream=PrimeValueStream(PolyZ((3, 0, 326))))
    assert (res.count, res.failing_prime) == (206, 1838843753)


@pytest.mark.parametrize("a, b, c, g", [(326, 0, 3, 326), (10, 0, 7, 10), (1, 1, 41, 2), (3, -7, 11, 5)])
def test_a_stream_of_either_form_serves_the_other(a, b, c, g):
    q, p = QuadraticPoly(a, b, c), PolyZ((c, b, a))
    fresh = streak(q, g, 2000)
    assert streak(q, g, 2000, stream=PrimeValueStream(p)) == fresh
    assert streak(p, g, 2000, stream=PrimeValueStream(q)) == fresh
    assert PrimeValueStream(q).poly is q  # the stream keeps the caller's polynomial


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


@pytest.mark.parametrize(
    "f, x",
    [
        (QuadraticPoly(1, 1, 41), 39),  # every f(n) a sieve prime below _direct_upto
        (QuadraticPoly(1, 1, 41), 5000),
        (QuadraticPoly(1, 1, 27941), 5000),
        (QuadraticPoly(10**7, 1, 41), 3000),  # the 1e6 sieve cap: f(x) > limit^2, survivors tested
        (PolyZ((-1, 6)), 8192),  # degree 1, x at a block edge: the second block holds one n
        (PolyZ((-1, 6)), 8193),
        (PolyZ((1, 1, 0, 1)), 150),  # degree 3: f(x) below 2000^2, survivors counted
        (PolyZ((1, 1, 0, 1)), 3000),  # and past it, tested
    ],
)
def test_prime_count_counts_the_sieve_against_sympy(f, x):
    assert prime_count(f, x) == sympy_count(f, x)


def test_prime_count_evaluates_only_the_head(monkeypatch):
    # past _direct_upto a block's survivors are counted, not evaluated: the
    # calls left are the head's, the tail-start searches and one per block
    f = QuadraticPoly(1, 1, 41)
    head = PrimeValueStream(f, sieve_limit=60_000)._direct_upto  # prime_count's limit at x = 60000
    calls = []
    evaluate = PolyZ.eval
    monkeypatch.setattr(PolyZ, "eval", lambda self, n: calls.append(n) or evaluate(self, n))
    assert prime_count(f, 60_000) == sum(1 for n in range(60_001) if is_prime(evaluate(f, n)))
    assert head == 245
    assert len(calls) <= head + 40


def test_prime_count_proves_live_head_values_up_to_the_depth_squared(monkeypatch):
    # (X - 50000)^2 + 41 to x = 60000 sieves to isqrt(f(0)) = 50000, and its
    # first 50174 n are head: a live value up to 50000^2 has no prime factor
    # up to the depth, so it is prime without a test; what is left to test
    # are the struck values up to the depth (f(0), above the square, is struck)
    from qprim import streaks

    f, depth = PolyZ((50_000**2 + 41, -100_000, 1)), 50_000
    tested = []
    monkeypatch.setattr(streaks, "is_prime", lambda v: tested.append(v) or is_prime(v))
    assert prime_count(f, 60_000) == sum(1 for n in range(60_001) if is_prime(f.eval(n)))
    assert [v for v in tested if depth < v <= depth * depth] == []
    assert tested


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


def reference_streak(entries, g):
    """(count, failing prime) from arith.is_primitive_root on every prime."""
    count = 0
    for _, p in entries:
        if g % p == 0:
            continue
        if not is_primitive_root(g, p):
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
    # the walk's p - 1, factored 64 candidates at a time: 300 primes, so at
    # least 300 candidates, cross four group boundaries
    sympy = pytest.importorskip("sympy")
    from qprim.cli import preset_registry
    from qprim.streaks import _residual_indices

    preset = preset_registry()[name]
    factored = list(islice(_residual_indices(preset.poly, preset.g, 10**6), 300))
    assert len(factored) == 300
    for _, p, pm1, _ in factored:
        assert pm1.value == p - 1
        assert dict(pm1.factors) == sympy.factorint(p - 1), p


def test_walk_groups_stop_at_the_block_edge(monkeypatch):
    # Lehmer's first block holds 634 candidates, 58 mod 64: its groups ramp
    # 64, 128, 256, the fourth is cut short at the edge, and the next block
    # starts a ramp of its own.  X^2 + X + 41's first block, 3476 candidates,
    # ramps to the cap of 512 and stays there up to its edge
    from qprim import arith
    from qprim.streaks import _GROUP, _GROUP_CAP, _residual_indices

    sizes = []
    factor_many = arith.factor_many
    monkeypatch.setattr(arith, "factor_many", lambda values: sizes.append(len(values)) or factor_many(values))
    rows = [(n, p) for n, p, _, _ in _residual_indices(L, 326, 12_000)]
    assert rows == sympy_entries(L, 12_000)
    first_block = len(list(next(PrimeValueStream(L)._blocks(12_000, is_strong_probable_prime))))
    assert first_block % _GROUP and first_block in accumulate(sizes)
    assert (_GROUP, _GROUP_CAP) == (64, 512)
    assert sizes == [64, 128, 256, 186, 64, 128, 80] and first_block == 634
    assert max(sizes) == 4 * _GROUP
    sizes.clear()
    euler = PolyZ((41, 1, 1))
    assert [(n, p) for n, p, _, _ in _residual_indices(euler, 7, 9000)] == sympy_entries(euler, 9000)
    assert sizes == [64, 128, 256, *[512] * 5, 468, 64, 128, 118]
    assert max(sizes) == _GROUP_CAP


def test_walk_that_stops_inside_a_group_tests_no_further(monkeypatch):
    # example2's first 20 primes lie in its first group of 64 candidates,
    # which 165 base-2 tests find; the rest of the block is never tested
    from qprim import arith
    from qprim.cli import preset_registry

    tested = []
    strong = arith.is_strong_probable_prime
    monkeypatch.setattr(arith, "is_strong_probable_prime", lambda v: tested.append(v) or strong(v))
    preset = preset_registry()["example2"]
    assert verify_primitive_root_prefix(preset.poly, preset.g, 20)
    assert len(tested) == 165


def test_a_block_keeps_the_depth_it_was_sieved_to():
    # block 0 of Lehmer's L is sieved to 8192; taking block 1 first grows the
    # roots to 16384, and block 0's survivors in (8192^2, 16384^2] must still
    # take the test, as some are products of two primes above 8192
    stream = PrimeValueStream(L)
    blocks = stream._blocks(16_383, is_prime)
    first, second = next(blocks), next(blocks)
    assert stream._depth == 16_384
    assert list(first) + list(second) == sympy_entries(L, 16_383)


def test_the_head_tests_survivors_and_struck_values_up_to_the_depth():
    # (X - 50000)^2 + 41 decreases over its whole first block, so every n of
    # it is in the head: only the survivors of the sieve to 8192 take the
    # test, as every struck f(n) there is above 8192 and so composite
    f = PolyZ((50_000**2 + 41, -100_000, 1))
    primorial = math.prod(primes_up_to(8192))
    survivors = sum(1 for n in range(8192) if math.gcd(f.eval(n), primorial) == 1)
    tested = []
    rows = list(next(PrimeValueStream(f)._blocks(8191, lambda v: tested.append(v) or is_prime(v))))
    assert rows == sympy_entries(f, 8191)
    assert len(tested) == survivors


def test_walks_skip_a_base2_pseudoprime_with_no_small_factor():
    # f(1) = 3511^2 passes the base-2 strong test and has no prime factor up
    # to the linear sieve depth of 2000, so it reaches the walks as a
    # candidate; no Lucas witness may pass it off as prime
    from qprim.streaks import _residual_indices, base_streaks

    f = PolyZ((1, 3511**2 - 1))
    n_cap = 1500
    assert (1, 3511**2) in next(PrimeValueStream(f)._blocks(n_cap, is_strong_probable_prime))  # n_cap: one block
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


def test_lucas_group_holding_3511_squared_agrees_batched_and_scalar(monkeypatch):
    # f(1) = 3511^2 sits in the walk's first group of 64 candidates: the
    # group's one Lanes pass certifies it for no base and, of the primes,
    # those the base generates (sympy.n_order), and the walk's rows are the
    # same whether factor_many tests its cofactors in one pass (threshold 1)
    # or one by one
    sympy = pytest.importorskip("sympy")
    from qprim import arith
    from qprim.streaks import _residual_indices

    f, n_cap = PolyZ((3511**2 - 1, 1)), 1500
    group = list(islice(next(PrimeValueStream(f)._blocks(n_cap, is_strong_probable_prime)), 64))
    assert len(group) == 64 and (1, 3511**2) in group
    ps = [p for _, p in group]
    pm1s = arith.factor_many([p - 1 for p in ps])
    for g in (3, 5, 6, 7, 10, 11, -3, 326):
        certified = arith._lucas_batch(g, ps, pm1s)
        assert certified == [sympy.isprime(p) and g % p != 0 and sympy.n_order(g % p, p) == p - 1 for p in ps]
        assert not certified[ps.index(3511**2)] and any(certified)
    rows = {}
    for threshold in (1, 10**9):
        monkeypatch.setattr(arith, "_STRONG_BATCH", threshold)
        rows[threshold] = [list(_residual_indices(f, g, n_cap)) for g in (3, 7, -3)]
    assert rows[1] == rows[10**9]
    assert all([(n, p) for n, p, *_ in walk] == sympy_entries(f, n_cap) for walk in rows[1])


def test_tiny_rho_budget_raises_only_where_the_walk_reaches_that_prime(monkeypatch):
    from qprim import arith

    def needs_rho(p):
        try:
            factor(p - 1)
        except arith.FactorizationError:
            return True
        return False

    primes = [p for _, p in PrimeValueStream(L).entries_upto(3000)]
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1)
    first = next(j for j, p in enumerate(primes) if needs_rho(p))
    assert 0 < first < 64  # inside the walk's first group of candidates
    assert verify_primitive_root_prefix(L, 326, first)
    with pytest.raises(arith.FactorizationError):
        verify_primitive_root_prefix(L, 326, first + 1)


def test_prime_count_matches_brute_at_block_edges():
    # a block is max(8192, sieve limit) n long: x on either side of both;
    # for X^2 + X + 41 and X^2 - 10X + 29 at x <= 30000 the limit is 30000
    for coeffs, limit in (((41, 1, 1), 30_000), ((29, -10, 1), 30_000), ((5, 3), 2_000), ((1, 1, 0, 1), 2_000)):
        f = PolyZ(coeffs)
        xs = (limit - 1, limit, limit + 1, 8191, 8192)
        prime = [f.eval(n) >= 2 and is_prime(f.eval(n)) for n in range(max(xs) + 1)]
        for x in xs:
            assert prime_count(f, x) == sum(prime[: x + 1]), (coeffs, x)


# degrees 1 to 3: 3X + 5; X^2 + X + 41; (X - 200)^2 + 3, whose values repeat;
# X^3 + X + 1; X^3 - X + 3, which 3 divides at every n, so 3 keeps all 3 roots
DIFF_COEFFS = [(5, 3), (41, 1, 1), (40003, -400, 1), (1, 1, 0, 1), (3, -1, 0, 1)]
DIFF_X = 60_000


@cache
def brute_prime_flags(coeffs):
    """[f(n) prime for n in 0..DIFF_X], from is_prime on every value."""
    f = PolyZ(coeffs)
    return [f.eval(n) >= 2 and is_prime(f.eval(n)) for n in range(DIFF_X + 1)]


@pytest.mark.parametrize("sieve_limit", [500, 2000, 30_000])
@pytest.mark.parametrize("coeffs", DIFF_COEFFS)
def test_reused_stream_matches_brute_scan(coeffs, sieve_limit):
    f = PolyZ(coeffs)
    want, seen = [], set()
    for n, prime in enumerate(brute_prime_flags(coeffs)):
        if prime and f.eval(n) not in seen:
            seen.add(f.eval(n))
            want.append((n, f.eval(n)))
    stream = PrimeValueStream(f, sieve_limit=sieve_limit)
    # either side of the first block edge, then past the depth ramp (blocks
    # sieve to max(2000, block end) until sieve_limit): the roots grow each
    # walk, the first time to the prime depth 8191, which must not come twice
    for n_cap in (8190, 8191, 8192, 33_000):
        assert list(stream.entries_upto(n_cap)) == [(n, p) for n, p in want if n <= n_cap], n_cap
    assert stream._depth == sieve_limit
    # roots of sieve primes, each once, ascending in q then r; up to 2000 (a
    # cubic's roots cost O(q) each) exactly the table built in one go
    roots = list(zip(stream._moduli, stream._residues))
    assert roots == sorted(set(roots))
    assert set(stream._moduli) <= set(primes_up_to(sieve_limit))
    assert all(f.eval(r) % q == 0 for q, r in roots)
    head = [(q, r) for q in primes_up_to(min(sieve_limit, 2000)) for r in _quadratic_roots_mod(f, q)]
    assert roots[: len(head)] == head


@pytest.mark.parametrize("coeffs", DIFF_COEFFS)
def test_prime_count_matches_brute_scan_past_the_block_edge(coeffs):
    prime = brute_prime_flags(coeffs)
    for x in (8191, 8192, DIFF_X):
        assert prime_count(PolyZ(coeffs), x) == sum(prime[: x + 1]), x
