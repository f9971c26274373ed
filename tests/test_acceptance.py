"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3's stated 1e6 counts are known-unattainable under the documented
counting convention (0 <= n <= x); see the companion reconciliation test and
the project decision log.  Everything else must be green at the stated
tolerances and runtime limits.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qprim.arith import is_prime, kronecker, primes_up_to
from qprim.charsums import (
    FundamentalDiscriminant,
    admissible_discriminants,
    char_average,
    complete_char_sum,
    inert_proportion,
    jacobsthal_sum,
    local_char_average,
)
from qprim.criteria import (
    chebyshev_criterion,
    extended_chebyshev,
    fueter_criterion,
    lehmer_index_coprimality,
)
from qprim.densities import (
    expected_max_streak,
    hardy_littlewood_constant,
    lehmer_corrected_density,
    lehmer_naive_density,
    pr_density,
    simulate_max_streak,
    totient_ratio_constant,
)
from qprim.poly import QuadraticPoly, in_conjecture_f_family
from qprim.search import SearchConfig, candidate_poly, sweep
from qprim.streaks import (
    empirical_max_streak,
    prime_count,
    streak,
    verify_primitive_root_prefix,
)

LEHMER = QuadraticPoly(326, 0, 3)
EULER41 = QuadraticPoly(1, 1, 41)
BEEGER = QuadraticPoly(1, 1, 27941)
EXAMPLE1 = candidate_poly(
    SearchConfig(d=4472988326827347533, d1=252017, alpha=2, sign=-1, shift=8393)
)
EXAMPLE3_F2 = candidate_poly(
    SearchConfig(d=9828323860172600203, d1=54151, alpha=0, sign=1, shift=1484224)
)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_lehmer_reproduction():
    start = time.perf_counter()
    res = streak(LEHMER, 326, 4000)
    elapsed = time.perf_counter() - start
    ok = (
        res.count == 206
        and res.failing_prime == 1838843753
        and res.n_at_failure == 2375
        and res.residual_index_at_failure == 83
        and elapsed < 5.0
    )
    _report(1, ok, f"count={res.count} p={res.failing_prime} n={res.n_at_failure} "
                   f"r={res.residual_index_at_failure} t={elapsed:.2f}s")
    assert res.count == 206
    assert res.failing_prime == 1838843753
    assert res.n_at_failure == 2375
    assert res.residual_index_at_failure == 83
    assert elapsed < 5.0


def test_criterion_02_griffin_reproduction():
    start = time.perf_counter()
    res = streak(QuadraticPoly(10, 0, 7), 10, 2000)
    elapsed = time.perf_counter() - start
    ok = res.count == 16 and res.failing_prime == 7297 and elapsed < 1.0
    _report(2, ok, f"count={res.count} p={res.failing_prime} t={elapsed:.2f}s")
    assert res.count == 16
    assert res.failing_prime == 7297
    assert elapsed < 1.0


def test_criterion_03_pi_counts_small():
    start = time.perf_counter()
    c41 = prime_count(EULER41, 39)
    c27941 = prime_count(BEEGER, 39)
    elapsed = time.perf_counter() - start
    ok = c41 == 40 and c27941 == 30 and elapsed < 1.0
    _report("3a", ok, f"pi41(39)={c41} pi27941(39)={c27941} t={elapsed:.2f}s")
    assert c41 == 40
    assert c27941 == 30
    assert elapsed < 1.0


def test_criterion_03_pi_counts_large():
    # Stated targets 261080 / 286128 are the counts over 1 <= n <= 1e6; the
    # documented convention 0 <= n <= x yields one more for each polynomial
    # (f(0) = 41 and 27941 are prime).  Asserted as stated: honest red.
    start = time.perf_counter()
    c41 = prime_count(EULER41, 10**6)
    c27941 = prime_count(BEEGER, 10**6)
    elapsed = time.perf_counter() - start
    ok = c41 == 261080 and c27941 == 286128 and elapsed < 300.0
    _report("3b", ok, f"pi41(1e6)={c41} (stated 261080) pi27941(1e6)={c27941} "
                      f"(stated 286128) t={elapsed:.1f}s")
    assert elapsed < 300.0
    assert c41 == 261080, (
        f"computed {c41} over 0 <= n <= 1e6; the stated 261080 equals the "
        f"count over 1 <= n <= 1e6 (f(0) = 41 is prime) - see decision log"
    )
    assert c27941 == 286128, (
        f"computed {c27941} over 0 <= n <= 1e6; the stated 286128 equals the "
        f"count over 1 <= n <= 1e6 (f(0) = 27941 is prime) - see decision log"
    )


def test_criterion_03_pi_counts_large_reconciliation():
    # machine-checked analysis of the off-by-one: the true inclusive counts,
    # independently confirmed by a full sympy recount, reconcile exactly by
    # dropping the n = 0 term
    start = time.perf_counter()
    c41 = prime_count(EULER41, 10**6)
    c27941 = prime_count(BEEGER, 10**6)
    elapsed = time.perf_counter() - start
    assert c41 == 261081
    assert c27941 == 286129
    assert is_prime(EULER41.eval(0)) and c41 - 1 == 261080
    assert is_prime(BEEGER.eval(0)) and c27941 - 1 == 286128
    _report("3b'", True, f"inclusive counts {c41}/{c27941} reconcile to the "
                         f"stated values by dropping n=0; t={elapsed:.1f}s")


def test_criterion_04_exact_rationals():
    t1 = inert_proportion(QuadraticPoly(3, 0, 7), 5)
    t2 = inert_proportion(QuadraticPoly(1, 0, 1), 5)
    t3 = inert_proportion(QuadraticPoly(1, 0, 5), -3)
    discs = [fd.D for fd in admissible_discriminants(LEHMER, 2000)]
    empty = admissible_discriminants(EULER41, 2000)
    ok = (
        t1 == Fraction(1, 3)
        and t2 == Fraction(2, 3)
        and t3 == 1
        and discs == [-163, -3, 24, 1304]
        and empty == []
    )
    _report(4, ok, f"tau={t1},{t2},{t3} discs={discs} euler41={empty}")
    assert t1 == Fraction(1, 3)
    assert t2 == Fraction(2, 3)
    assert t3 == Fraction(1)
    assert discs == [-163, -3, 24, 1304]
    assert empty == []


def test_criterion_05_density_constants():
    start = time.perf_counter()
    p1 = lehmer_corrected_density().value
    naive = lehmer_naive_density().value
    b = totient_ratio_constant(10**7).value
    c163 = hardy_littlewood_constant(-163).value
    c111763 = hardy_littlewood_constant(-111763).value
    elapsed = time.perf_counter() - start
    ok = (
        abs(p1 - 0.99323) < 1e-4
        and abs(naive - 0.99337) < 1e-4
        and abs(b - 2.826420) < 1e-5
        and abs(c163 - 3.3197732) < 1e-5
        and abs(c111763 - 3.6319998) < 1e-5
        and elapsed < 120.0
    )
    _report(5, ok, f"p1={p1:.6f} naive={naive:.6f} B={b:.7f} "
                   f"C(-163)={c163:.7f} C(-111763)={c111763:.7f} t={elapsed:.1f}s")
    assert abs(p1 - 0.99323) < 1e-4
    assert abs(naive - 0.99337) < 1e-4
    assert abs(b - 2.826420) < 1e-5
    assert abs(c163 - 3.3197732) < 1e-5
    assert abs(c111763 - 3.6319998) < 1e-5
    assert elapsed < 120.0


def test_criterion_06_example_qualities():
    d1 = pr_density(EXAMPLE1).value
    d2 = pr_density(EXAMPLE3_F2).value
    ok = abs(d1 - 0.999453) < 2e-5 and abs(d2 - 0.999535) < 2e-5
    _report(6, ok, f"delta1={d1:.8f} delta2={d2:.8f}")
    assert abs(d1 - 0.999453) < 2e-5
    assert abs(d2 - 0.999535) < 2e-5


def test_criterion_07_model_consistency():
    d1 = pr_density(EXAMPLE1).value
    d2 = pr_density(EXAMPLE3_F2).value
    m1 = expected_max_streak(d1, 145700)
    m2 = expected_max_streak(d2, 1066000)
    ok = abs(m1 - 22779) / 22779 < 0.01 and abs(m2 - 31082) / 31082 < 0.01
    mc_ok = True
    for p1, s in ((0.9, 100), (0.99, 1000)):
        mean, stderr = simulate_max_streak(p1, s, trials=4000, seed=7)
        mc_ok = mc_ok and abs(mean - expected_max_streak(p1, s)) <= 3 * stderr
    _report(7, ok and mc_ok, f"M1={m1:.0f} (target 22779) M2={m2:.0f} "
                             f"(target 31082) monte_carlo_ok={mc_ok}")
    assert abs(m1 - 22779) / 22779 < 0.01
    assert abs(m2 - 31082) / 31082 < 0.01
    assert mc_ok


def test_criterion_08_empirical_max_350():
    start = time.perf_counter()
    k_best, c_best = empirical_max_streak(326, LEHMER, 350)
    elapsed = time.perf_counter() - start
    ok = c_best == 1123 and elapsed < 600.0
    _report(8, ok, f"max streak {c_best} at k={k_best}, t={elapsed:.1f}s "
                   f"(k<=25000 and the 5e6 scan are long-run only)")
    assert c_best == 1123
    assert elapsed < 600.0


def test_criterion_09_record_prefixes():
    start = time.perf_counter()
    ok1 = verify_primitive_root_prefix(EXAMPLE1, 170363492, 500, 100_000)
    ok2 = verify_primitive_root_prefix(EXAMPLE3_F2, 17431902, 200, 100_000)
    elapsed = time.perf_counter() - start
    _report(9, ok1 and ok2, f"example1 first 500 ok={ok1}, f2 first 200 ok={ok2}, "
                            f"t={elapsed:.1f}s (full records are long-run only)")
    assert ok1
    assert ok2


def test_criterion_10_property_suites(monkeypatch):
    start = time.perf_counter()
    rng = random.Random(20260810)
    odd_primes_199 = [p for p in primes_up_to(199) if p > 2]

    # Jacobsthal and complete sums vs brute force
    sym_tables = {p: [kronecker(m, p) for m in range(p)] for p in odd_primes_199}
    for p in odd_primes_199:
        table = sym_tables[p]
        for a in range(p):
            assert jacobsthal_sum(a, p) == sum(table[(m * m + a) % p] for m in range(p))
    quads = []
    while len(quads) < 500:
        quads.append(
            QuadraticPoly(rng.randint(1, 60), rng.randint(-60, 60), rng.randint(-60, 60))
        )
    for f in quads:
        for p in odd_primes_199:
            table = sym_tables[p]
            total = 0
            units = 0
            for m in range(p):
                v = f.eval(m) % p
                total += table[v]
                if v:
                    units += 1
            assert complete_char_sum(f, p) == total, (f, p)
            if units:
                assert local_char_average(f, p) == Fraction(total, units), (f, p)

    # multiplicative average vs defining enumeration, d <= 1000
    squarefree_odd = [
        d for d in range(3, 1001, 2) if all(d % (q * q) for q in range(2, 32))
    ]
    d_tables = {}
    for d in squarefree_odd:
        d_tables[d] = (
            np.array([kronecker(v, d) for v in range(d)], dtype=np.int64),
            np.array([math.gcd(v, d) == 1 for v in range(d)]),
        )
    for f in quads[:100]:
        a_, b_, c_ = f.a, f.b, f.c
        for d in squarefree_odd:
            table, coprime = d_tables[d]
            s = np.arange(d, dtype=np.int64)
            vals = ((a_ % d) * s % d * s + (b_ % d) * s + c_ % d) % d
            units = int(coprime[vals].sum())
            if units == 0:
                continue
            total = int(table[vals].sum())
            assert char_average(f, d) == Fraction(total, units), (f, d)

    # dichotomy and bounds for the inert proportion
    fund = []
    for t in range(2, 201):
        for dd in (t, -t):
            try:
                fd = FundamentalDiscriminant.from_integer(dd)
            except ValueError:
                continue
            if fd.odd_primes:
                fund.append(fd)
    family = [f for f in quads if in_conjecture_f_family(f)][:500]
    for f in family:
        for fd in fund:
            try:
                tau = inert_proportion(f, fd)
            except ValueError:
                continue
            if tau == 0 or tau == 1:
                assert (24 * f.a * f.d) % fd.D == 0
            else:
                assert Fraction(1, 3) <= tau <= Fraction(2, 3)

    # quality density stays below 1
    produced = 0
    while produced < 200:
        f = QuadraticPoly(rng.randint(1, 80), rng.randint(-80, 80), rng.randint(-80, 80))
        if not in_conjecture_f_family(f):
            continue
        produced += 1
        rep = pr_density(f, cutoff=10_000, accelerate=False)
        assert rep.value + rep.tail_bound < 1

    # criteria scans (violations raise)
    for p1 in primes_up_to(100_000):
        chebyshev_criterion(p1)
    for g in (3, 5, 6, 8, -10, 12):
        for p1 in primes_up_to(10_000):
            extended_chebyshev(g, p1)
    for p in primes_up_to(10_000):
        if p > 2:
            fueter_criterion(p)
    assert lehmer_index_coprimality(1, 2000)

    # sweep determinism and checkpoint resume
    import json as _json
    import tempfile

    cfg = SearchConfig(
        d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=24, n_cap=3000
    )
    b1 = sweep(cfg, workers=1)
    b4 = sweep(cfg, workers=4)
    assert (b1.k, b1.g, b1.c) == (b4.k, b4.g, b4.c)
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    with tempfile.TemporaryDirectory() as tmp:
        full_path = f"{tmp}/full.jsonl"
        full = sweep(cfg, checkpoint_path=full_path)
        kept = [
            line
            for line in Path(full_path).read_text(encoding="utf-8").splitlines()
            if _json.loads(line)["k"] <= 12
        ]
        part_path = f"{tmp}/part.jsonl"
        with open(part_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept) + "\n")
        resumed = sweep(cfg, checkpoint_path=part_path)
        assert (resumed.k, resumed.c) == (full.k, full.c)

    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(10, ok, f"all property suites passed, t={elapsed:.1f}s")
    assert elapsed < 120.0
