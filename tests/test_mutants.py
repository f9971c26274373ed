"""Mutants that the tests must catch, re-run on every long run.

Each row names a module of src/qprim (or a test file, for the AST guards of
tests/test_imports.py), a source fragment that occurs in it exactly once, its
replacement, and the tests that must fail once it is made.  The rows run on
copies of src, tests and perfbench under tmp_path, each in a pytest
subprocess that runs only the named tests.  The control run first checks that
the named tests pass on an unmutated copy, so a failure below is the mutant's
doing.  A fragment a refactor moved or rewrote fails its row loudly: update
the row.

Enable with QPRIM_LONG_RUN=1, e.g.

    QPRIM_LONG_RUN=1 pytest tests/test_mutants.py -v
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    os.environ.get("QPRIM_LONG_RUN") != "1",
    reason="runs pytest once per mutant; set QPRIM_LONG_RUN=1 to enable",
)

ROOT = Path(__file__).resolve().parent.parent


def walk_cases(*ids: str) -> list[str]:
    """The seeded differential cases, by their pytest ids."""
    return [f"tests/test_differential.py::test_walks_and_sweep_match_the_enumeration[{i}]" for i in ids]


# (module, fragment, replacement, tests that must fail)
MUTANTS = [
    (  # Lanes' lazy residues without their + p correction: a negative x y - q p is kept
        "arith.py",
        "        s &= self.P\n        r += s\n",
        "",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^31]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f7-326-1000000-1000060-1300]",
            "tests/test_densities.py::test_legendre_float_and_int64_kernels_at_their_edges",
        ],
    ),
    (  # Lanes' pow without its final normalization: a lazy residue in (-p, 0), in float64 below 2^26, is returned
        "arith.py",
        "return self._normal(self._pow(self._in(x), E))",
        "return self._pow(self._in(x), E)",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^26]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^31]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f7-326-1000000-1000060-1300]",
            "tests/test_densities.py::test_legendre_float_and_int64_kernels_at_their_edges",
        ],
    ),
    (  # Lanes' mul without its normalization: its products leave [0, p)
        "arith.py",
        "return self._normal(self._mul(self._in(x), self._in(y)))",
        "return self._mul(self._in(x), self._in(y))",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^26]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^31]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f7-326-1000000-1000060-1300]",
        ],
    ),
    (  # Lanes' float64 residues returned as they are: lazy, in (-p, p), and not int64
        "arith.py",
        "if r.dtype == object:",
        "if r.dtype != np.int64:",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^26]",
            "tests/test_densities.py::test_legendre_float_and_int64_kernels_at_their_edges",
            "tests/test_streaks.py::test_pr_stats_lehmer",
            "tests/test_streaks.py::test_lucas_group_holding_3511_squared_agrees_batched_and_scalar",
        ],
    ),
    (  # sqrt's lazy 1 read as 1 alone: where a product holds it as 1 - p, x reads as no square
        "arith.py",
        "return (t == 1) | (t == 1 - self._p)",
        "return t == 1",
        ["tests/test_poly.py::test_roots_table_holds_to_the_lazy_contract"],
    ),
    (  # factor_many's batched strong test cut to the witness 2: 3511^2 and 70141 * 140281 pass as primes
        "arith.py",
        "tiers = [_witnesses(n) for n in ns]",
        "tiers = [(2,) for n in ns]",
        [
            "tests/test_arith.py::test_strong_batch_matches_sympy_isprime",
            "tests/test_arith.py::test_factor_many_batch_splits_base2_pseudoprime_cofactors",
        ],
    ),
    (  # the batched Lucas test's first pair, q = 2, taken when != 1 for == -1: 3511^2 is certified
        "arith.py",
        "passed[starts] = V[starts] == lanes.minus_one[starts]",
        "passed[starts] = V[starts] != 1",
        [
            "tests/test_arith.py::test_lucas_certifies_proves_primes_and_no_base_of_3511_squared",
            "tests/test_streaks.py::test_lucas_group_holding_3511_squared_agrees_batched_and_scalar",
            "tests/test_streaks.py::test_walks_skip_a_base2_pseudoprime_with_no_small_factor",
            *walk_cases("f28--26-5-61-200", "f29-56-383-385-125"),
        ],
    ),
    (  # the walk's group ramp carried across block edges: the next block starts at the last size
        "streaks.py",
        "        for block in stream._blocks(n_cap, arith.is_strong_probable_prime):\n            size = _GROUP\n",
        "        size = _GROUP\n        for block in stream._blocks(n_cap, arith.is_strong_probable_prime):\n",
        ["tests/test_streaks.py::test_walk_groups_stop_at_the_block_edge"],
    ),
    (  # the power plan's trial bound not rounded up to a power of two: a bound per k range stays cached
        "streaks.py",
        "min(1 << isqrt(max(live)).bit_length(), 1 << 16)",
        "min(isqrt(max(live)), 1 << 16)",
        ["tests/test_search.py::test_power_plan_keeps_few_trial_prime_bounds_cached"],
    ),
    (  # lvalue and hlconst without their --long-run gate: the sum over |D| terms starts
        "cli.py",
        "if abs(args.disc) > LONG_RUN_DISC:",
        "if False:",
        [
            "tests/test_cli.py::test_long_run_gate_refuses_before_the_walk[lvalue]",
            "tests/test_cli.py::test_long_run_gate_refuses_before_the_walk[hlconst]",
        ],
    ),
    (  # Lanes' int64 path raised from 2^50 to 2^53: the float quotient can miss by more than one
        "arith.py",
        "_QUOTIENT_PRIME_BOUND = 2**50",
        "_QUOTIENT_PRIME_BOUND = 2**53",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]",
            "tests/test_search.py::test_base_streaks_element_types_at_a_literal_2_50",
        ],
    ),
    (  # Lanes' float64 path raised from 2^26 to 2^28: a lazy product there can reach 2^56
        "arith.py",
        "_FLOAT_PRIME_BOUND = 2**26",
        "_FLOAT_PRIME_BOUND = 2**28",
        ["tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^28]"],
    ),
    (  # roots_table's root products taken raw in int64, not by Lanes.mul: past 2^31.5 they overflow
        "poly.py",
        "r1, r2 = lanes.mul((nb + s) % Pf, inv), lanes.mul((nb - s) % Pf, inv)",
        "r1, r2 = (nb + s) % Pf * inv % Pf, (nb - s) % Pf * inv % Pf",
        [
            "tests/test_poly.py::test_roots_table_near_2_32_equals_roots_mod",
            "tests/test_poly.py::test_roots_table_at_literal_primes_equals_roots_mod[2^32]",
        ],
    ),
    (  # sqrt reading 2^S, the power of 2 in p - 1, without its float64 cast: frexp refuses Python-int lanes
        "arith.py",
        "np.frexp(((P - 1) & (1 - P)).astype(np.float64))",
        "np.frexp((P - 1) & (1 - P))",
        [
            "tests/test_poly.py::test_roots_table_at_literal_primes_equals_roots_mod[2^50]",
            "tests/test_poly.py::test_roots_table_at_literal_primes_equals_roots_mod[2^63]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]",
        ],
    ),
    (  # Lanes' powers on Python-int lanes by the int64 windows, not pow: Python-int exponents cannot index the table
        "arith.py",
        "        if self._top >= _QUOTIENT_PRIME_BOUND:\n            return np.frompyfunc(pow, 3, 1)(x, E, self.P)\n",
        "",
        [
            "tests/test_poly.py::test_roots_table_at_literal_primes_equals_roots_mod[2^50]",
            "tests/test_poly.py::test_roots_table_at_literal_primes_equals_roots_mod[2^63]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]",
            "tests/test_search.py::test_base_streaks_element_types_at_a_literal_2_50",
            "tests/test_arith.py::test_strong_batch_matches_sympy_isprime",
        ],
    ),
    (  # Lanes' way of computing picked by the last p, not the largest: a falling group runs in int64 past 2^50,
        # or in float64 past 2^26
        "arith.py",
        "self._set(P, int(P.max()) if len(P) else 0)",
        "self._set(P, int(P[-1]) if len(P) else 0)",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f9-326-1-60-60]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f11-3-1-60-60]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f12-3-1099511627776-1099511627836-60]",
            "tests/test_search.py::test_base_streaks_covers_both_element_types",
        ],
    ),
    (  # streak stops one prime past its prefix: the walk reads, and tests, further than the prefix check needs
        "streaks.py",
        "if count == prefix:",
        "if count > prefix:",
        [
            "tests/test_streaks.py::test_verify_prefix",
            "tests/test_streaks.py::test_walk_that_stops_inside_a_group_tests_no_further",
            "tests/test_streaks.py::test_tiny_rho_budget_raises_only_where_the_walk_reaches_that_prime",
        ],
    ),
    (  # verify's prefix check without its too-few-primes raise: a walk cut short by n_cap reads as a failure
        "cli.py",
        """        elif res.failing_prime is None and res.count < prefix:  # before a failure, count skips p | g
            raise RuntimeError(f"only {res.count} usable primes found up to n_cap={n_cap}")
""",
        "",
        ["tests/test_cli.py::test_verify_prefix_short_of_its_primes_exits_1"],
    ),
    (  # z = g_base^e in place of g_base^(e(q-1)/2)
        "streaks.py",
        "lanes.pow(G, (lanes.P - 1 - E) >> 1)",
        "lanes.pow(G, E)",
        walk_cases("f1--16-4-55-43", "f5--18-2-69-121", "f10-45-366-368-23", "f13-12-2-46-37", "f14-23-5-45-53",
                   "f17--8-166-168-210", "f19-96-1800-1803-164", "f23-261-82-85-109", "f28--26-5-61-200",
                   "f29-56-383-385-125"),
    ),
    (  # a k's count less every earlier prime, not only those dividing k
        "streaks.py",
        "i < n and k % p == 0",
        "i < n",
        walk_cases("f5--18-2-69-121", "f7-12-1751-1753-216", "f10-45-366-368-23", "f13-12-2-46-37"),
    ),
    (  # the walk yielding a candidate that neither Lucas nor is_prime proved
        "streaks.py",
        "elif is_prime(p):",
        "else:",
        walk_cases("f28--26-5-61-200", "f29-56-383-385-125"),
    ),
    (  # the sweep's pair for q = 2 chosen by the wrong parity of the index
        "streaks.py",
        "if index % 2 else",
        "if index % 2 == 0 else",
        walk_cases("f1--16-4-55-43", "f5--18-2-69-121", "f7-12-1751-1753-216", "f10-45-366-368-23",
                   "f12-72-4-45-183", "f13-12-2-46-37", "f14-23-5-45-53", "f15--10-5-54-165", "f16-18-1-77-111",
                   "f17--8-166-168-210", "f18-23-1552-1555-176", "f19-96-1800-1803-164", "f20--52-271-274-107",
                   "f21-135-1-42-113", "f22--116-422-425-158", "f23-261-82-85-109", "f24--18-2-65-128",
                   "f25-13-466-469-223", "f26-270-5-61-112", "f27--5-4-39-33", "f28--26-5-61-200",
                   "f29-56-383-385-125"),
    ),
    (  # prime_count counting the walked survivors again, from 0 instead of where the walk ends
        "streaks.py",
        "alive.count(1, end)",
        "alive.count(1)",
        [
            "tests/test_streaks.py::test_prime_count_sieve_exact_against_sympy[f3]",
            "tests/test_streaks.py::test_prime_count_counts_the_sieve_against_sympy[f6-150]",
            "tests/test_streaks.py::test_prime_count_matches_brute_scan_past_the_block_edge[coeffs2]",
            "tests/test_streaks.py::test_prime_count_proves_live_head_values_up_to_the_depth_squared",
        ],
    ),
    (  # the root table's quadratic formula at a q dividing the leading coefficient
        "poly.py",
        "fast = (P != 2) & (lanes.lift(f.leading()) != 0) & (f.degree() in (1, 2))",
        "fast = (P != 2) & (f.degree() in (1, 2))",
        [
            "tests/test_poly.py::test_roots_table_equals_roots_mod_prime_by_prime",
            "tests/test_streaks.py::test_pr_stats_lehmer",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs0-2000]",
        ],
    ),
    (  # a double root kept twice in the root table
        "poly.py",
        "count = np.where(square, 2, disc == 0)",
        "count = np.where(square, 2, 2 * (disc == 0))",
        [
            "tests/test_poly.py::test_roots_table_equals_roots_mod_prime_by_prime",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs1-2000]",
        ],
    ),
    (  # the roots grown from the last depth sieved, not above it: a prime depth comes twice
        "streaks.py",
        "arith.prime_chunks(self._depth + 1, depth)",
        "arith.prime_chunks(self._depth, depth)",
        ["tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs0-30000]"],
    ),
    (  # _blocks without its head set: a value below _direct_upto met twice is yielded twice
        "streaks.py",
        "head.add(v)",
        "pass",
        [
            "tests/test_streaks.py::test_streak_dedupe_matches_set_oracle",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs2-2000]",
            *walk_cases("f12-72-4-45-183"),
        ],
    ),
    (  # a head value yielded again when it recurs past _direct_upto
        "streaks.py",
        "if v not in head:",
        "if n >= self._direct_upto or v not in head:",
        [
            "tests/test_streaks.py::test_preset_entries_match_sympy_enumeration[X^2-400X+40003]",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs2-500]",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs2-2000]",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs2-30000]",
        ],
    ),
    (  # a block walked eagerly: a walk that stops inside a group base-2-tests the rest of its block
        "streaks.py",
        "yield unseen(self._walk(lo, *self._sieve(lo, hi - lo, max(_MIN_DEPTH, hi)), test))",
        "yield iter(list(unseen(self._walk(lo, *self._sieve(lo, hi - lo, max(_MIN_DEPTH, hi)), test))))",
        ["tests/test_streaks.py::test_walk_that_stops_inside_a_group_tests_no_further"],
    ),
    (  # the walk trusting every sieve kill: an f(n) that is itself a sieve prime, as Lehmer's f(0) = 3, is lost
        "streaks.py",
        "or (live or v <= depth) and test(v)",
        "or live and test(v)",
        [
            "tests/test_streaks.py::test_lehmer_streak",
            "tests/test_streaks.py::test_prime_count_examples",
            "tests/test_streaks.py::test_prime_count_counts_the_sieve_against_sympy[f0-39]",
        ],
    ),
    (  # the walk testing every struck f(n): one above the depth, composite, takes the test too
        "streaks.py",
        "(live or v <= depth)",
        "(live or v >= 2)",
        [
            "tests/test_streaks.py::test_the_head_tests_survivors_and_struck_values_up_to_the_depth",
            "tests/test_streaks.py::test_prime_count_proves_live_head_values_up_to_the_depth_squared",
        ],
    ),
    (  # the walk without its depth^2 shortcut: a live head value that the sieve proves prime takes the test
        "streaks.py",
        "live and v <= exact or ",
        "",
        ["tests/test_streaks.py::test_prime_count_proves_live_head_values_up_to_the_depth_squared"],
    ),
    (  # a block read at the depth of the latest sieve: its survivors up to that depth^2 count unproven
        "streaks.py",
        "poly, exact = self.poly, depth * depth",
        "poly, exact = self.poly, self._depth**2",
        ["tests/test_streaks.py::test_a_block_keeps_the_depth_it_was_sieved_to"],
    ),
    (  # the walk's groups run across block edges
        "streaks.py",
        "for block in stream._blocks(n_cap, arith.is_strong_probable_prime):",
        "for block in [chain.from_iterable(stream._blocks(n_cap, arith.is_strong_probable_prime))]:",
        ["tests/test_streaks.py::test_walk_groups_stop_at_the_block_edge"],
    ),
    (  # the simulation without its running maximum: a trial in pieces keeps its last piece's
        "densities.py",
        "np.maximum(best, np.floor(np.log(u) / lp).max(axis=1), out=best)",
        "best = np.floor(np.log(u) / lp).max(axis=1)",
        [
            "tests/test_densities.py::test_simulation_in_pieces_draws_the_whole_row_values[11]",
            "tests/test_densities.py::test_simulation_in_pieces_draws_the_whole_row_values[25]",
        ],
    ),
    (  # a discriminant that keeps 3 out of its odd primes: its character, L-values and inert proportions lose chi_-3
        "charsums.py",
        "fact.prime_factors() if p > 2)",
        "fact.prime_factors() if p > 3)",
        [
            "tests/test_charsums.py::test_two_part_splits_every_fundamental_discriminant_to_5000",
            "tests/test_charsums.py::test_admissible_discriminants",
            "tests/test_charsums.py::test_inert_proportion_exact_values",
            "tests/test_densities.py::test_kronecker_chunk_matches_kronecker",
            "tests/test_densities.py::test_dirichlet_l_closed_form_oracles",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[text-tau --poly 326,0,3 --admissible]",
        ],
    ),
    (  # chi_8 and chi_-8 swapped: every D with 2-part +-8 reads the other character
        "charsums.py",
        "    8: (0, 1, 0, -1, 0, -1, 0, 1),\n    -8: (0, 1, 0, 1, 0, -1, 0, -1),",
        "    8: (0, 1, 0, 1, 0, -1, 0, -1),\n    -8: (0, 1, 0, -1, 0, -1, 0, 1),",
        [
            "tests/test_charsums.py::test_two_part_characters_are_kronecker_symbols",
            "tests/test_charsums.py::test_admissible_discriminants",
            "tests/test_densities.py::test_kronecker_chunk_matches_kronecker",
            "tests/test_densities.py::test_l_values_bit_identical_to_scalar_loop",
            "tests/test_search.py::test_admissible_bases_lehmer",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[text-tau --poly 326,0,3 --admissible]",
        ],
    ),
    (  # a base's squarefree part from its primes of even exponent: 326 reads D = 1
        "charsums.py",
        "if e % 2]",
        "if e % 2 == 0]",
        [
            "tests/test_charsums.py::test_fundamental_discriminants",
            "tests/test_charsums.py::test_fundamental_discriminant_reads_the_squarefree_kernel",
            "tests/test_charsums.py::test_fundamental_discriminant_against_factorint",
            "tests/test_criteria.py::test_chebyshev_reads_g1_and_g2_from_the_fundamental_discriminant",
            "tests/test_criteria.py::test_extended_chebyshev_spot",
            "tests/test_search.py::test_admissible_bases_lehmer",
            "tests/test_cli_golden.py::test_cli_output_matches_golden[text-criteria --mode extended --g 3 --max 2000]",
        ],
    ),
    (  # the local average without its zero-units guard: p dividing every value divides by zero
        "charsums.py",
        "return Fraction(total, units) if units else Fraction(0)",
        "return Fraction(total, units)",
        [
            "tests/test_charsums.py::test_local_average_is_0_where_p_divides_every_value",
            "tests/test_charsums.py::test_local_average_bounded",
        ],
    ),
    (  # Chebyshev's criterion testing primality before the congruence: past the range it raises
        "criteria.py",
        "if p1 % 4 != (1 if g > 0 else 3) or not is_prime(p1):",
        "if not is_prime(p1) or p1 % 4 != (1 if g > 0 else 3):",
        ["tests/test_criteria.py::test_chebyshev_reads_the_congruence_before_primality"],
    ),
    (  # Lehmer's tail at full density, 2/(L ln L), not half: split primes are half of all
        "densities.py",
        "tail_bound=1.0 / (_LEHMER_CUTOFF",
        "tail_bound=2.0 / (_LEHMER_CUTOFF",
        [
            f"tests/test_cli_golden.py::test_cli_output_matches_golden[{fmt}-density --lehmer-{kind}]"
            for fmt in ("text", "csv", "json")
            for kind in ("naive", "corrected")
        ],
    ),
    (  # sweep without its checkpoint lock: a second run reads and cuts a held file
        "search.py",
        "fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)",
        "pass",
        ["tests/test_search.py::test_sweep_refuses_a_checkpoint_another_run_holds"],
    ),
    (  # the power plan's trial primes up to isqrt(k) unbounded: k near 2^62 asks for the primes to 2^31
        "streaks.py",
        "bound, spf = min(1 << isqrt(max(live)).bit_length(), 1 << 16), {}",
        "bound, spf = 1 << isqrt(max(live)).bit_length(), {}",
        ["tests/test_search.py::test_base_streaks_near_2_62_sieve_no_prime_past_2_16"],
    ),
    (  # the power plan without its cofactor row: a k with a prime factor past the bound has no row to build from
        "streaks.py",
        "if m > 1 or k == 1:",
        "if k == 1:",
        [
            "tests/test_search.py::test_base_streaks_near_2_62_sieve_no_prime_past_2_16",
            "tests/test_search.py::test_power_plan_reads_each_k_from_one_factor_map",
        ],
    ),
    (  # the model's one check passing s = 0: the estimators return -0.5 or fail in math.log, the simulation divides by 0
        "densities.py",
        "if s < 1:",
        "if s < 0:",
        [
            *(f"tests/test_densities.py::test_model_refuses_s_below_1[{fn}]"
              for fn in ("expected", "harmonic", "asymptotic", "simulated")),
            "tests/test_densities.py::test_expected_max_guards",
            "tests/test_densities.py::test_simulate_max_streak",
        ],
    ),
    (  # the local average enumerating f mod p at any p: 16 GiB at p = 2^31 - 1
        "charsums.py",
        "if p > 1 << 20:",
        "if False:",
        [
            f"tests/test_cli.py::test_enumerated_local_average_refuses_p_past_2_20[{case}]"
            for case in ("charsum-local", "charsum-average", "tau")
        ],
    ),
    (  # the unset-default guard's allowlist keeping an entry no longer found: dirichlet_l's dropped tol
        "test_imports.py",
        "UNSET_DEFAULTS = {\n",
        'UNSET_DEFAULTS = {\n    ("densities.py", "dirichlet_l", "tol"): "a stale entry",\n',
        ["tests/test_imports.py::test_every_default_is_set_by_a_caller"],
    ),
    (  # the unset-default guard counting a positional call that stops at the parameter as setting it
        "test_imports.py",
        "n_args > index",
        "n_args >= index",
        ["tests/test_imports.py::test_unset_default_guard_sees_each_form"],
    ),
    (  # the unnamed-public guard not reading perfbench: residue_counts_mod_prime, which only perfbench calls, reads as unnamed
        "test_imports.py",
        r'words = set(re.findall(r"\w+", readers))',
        "words = set()",
        [
            "tests/test_imports.py::test_unnamed_public_guard_sees_each_form",
            "tests/test_imports.py::test_every_public_definition_is_named_read_or_exported",
        ],
    ),
    (  # the BLAS guard blind to @: a matrix product would run serial, unseen
        "test_imports.py",
        "        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):\n"
        '            found.append(f"line {node.lineno}: @")\n'
        "        elif isinstance(node, ast.Attribute)",
        "        if isinstance(node, ast.Attribute)",
        ["tests/test_imports.py::test_blas_guard_sees_each_form"],
    ),
    (  # the class-route guard reading isinstance alone: issubclass(type(f), QuadraticPoly) passes
        "test_imports.py",
        '("isinstance", "issubclass")',
        '("isinstance",)',
        ["tests/test_imports.py::test_class_route_guard_sees_each_form"],
    ),
    (  # the lazy-import guard blind to relative imports: from .arith import ... in a function passes
        "test_imports.py",
        '(child.level or (child.module or "").startswith("qprim"))',
        '(child.module or "").startswith("qprim")',
        ["tests/test_imports.py::test_lazy_import_guard_sees_each_form"],
    ),
    (  # the unread-import guard not reading __all__: a name imported only to re-export reads as unread
        "test_imports.py",
        "read.update(element.value for element in node.value.elts)",
        "pass",
        ["tests/test_imports.py::test_unread_import_guard_sees_each_form"],
    ),
    (  # the admissibility rule without its content test: 1000003 (X^2 + X + 41) gets a density
        "poly.py",
        "if (content := math.gcd(*f.coeffs)) > 1:",
        "if False:",
        [
            "tests/test_cli.py::test_density_simple_refuses_a_fixed_divisor[3,3-3]",
            "tests/test_densities.py::test_pr_density_degenerate",
            "tests/test_densities.py::test_pr_density_refuses_a_fixed_divisor_past_its_primes[accelerated]",
            "tests/test_densities.py::test_pr_density_refuses_a_fixed_divisor_past_its_primes[direct]",
            "tests/test_poly.py::test_family_equals_its_five_conditions_on_seeded_quadratics",
            "tests/test_poly.py::test_inadmissible_names_each_reason",
        ],
    ),
    (  # the admissibility rule without its scan of q <= deg f: X^3 - X + 3's fixed divisor 3 hides
        "poly.py",
        "for q in range(2, deg + 1):",
        "for q in ():",
        [
            "tests/test_densities.py::test_pr_density_rejects_even_and_reducible",
            "tests/test_densities.py::test_fixed_divisor_without_content_raises",
            "tests/test_densities.py::test_bateman_horn_refuses_a_constant_and_an_even_valued_f",
            "tests/test_poly.py::test_family_membership",
            "tests/test_poly.py::test_family_equals_its_five_conditions_on_seeded_quadratics",
            "tests/test_poly.py::test_inadmissible_names_each_reason",
        ],
    ),
    (  # the admissibility rule without its square-discriminant test: X^2 and (X - 2)(X + 2) get densities
        "poly.py",
        "if deg == 2 and is_perfect_square",
        "if False and is_perfect_square",
        [
            "tests/test_cli.py::test_density_rejects_even_valued_and_reducible",
            "tests/test_densities.py::test_bateman_horn",
            "tests/test_densities.py::test_pr_density_rejects_even_and_reducible",
            "tests/test_densities.py::test_pr_density_simple_refuses_reducible",
            "tests/test_poly.py::test_family_membership",
            "tests/test_poly.py::test_family_equals_its_five_conditions_on_seeded_quadratics",
            "tests/test_poly.py::test_inadmissible_names_each_reason",
        ],
    ),
]


def run_tests(root: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """pytest on `tests` in the copy at root, with qprim imported from its src:
    its exit code, the ids that failed, and its output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", run.stdout, re.M))  # an id may hold spaces
    return run.returncode, failed, run.stdout + run.stderr


def copy_tree(tmp_path: Path) -> Path:
    """src, tests and perfbench (which the guards read) copied to tmp_path,
    with pyproject.toml so that pytest's test ids stay relative to it."""
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    return tmp_path


def test_named_tests_pass_unmutated(tmp_path):
    tests = sorted({t for *_, named in MUTANTS for t in named})
    code, failed, output = run_tests(copy_tree(tmp_path), tests)
    assert (code, failed) == (0, set()), output[-3000:]
    assert f"{len(tests)} passed" in output


@pytest.mark.parametrize("module, fragment, replacement, tests", MUTANTS, ids=[f"{m}:{f}" for m, f, *_ in MUTANTS])
def test_mutant_fails_its_tests(tmp_path, module, fragment, replacement, tests):
    root = copy_tree(tmp_path)
    path = root / "tests" / module if module.startswith("test_") else root / "src" / "qprim" / module
    source = path.read_text()
    assert source.count(fragment) == 1, f"{module}: the fragment must occur exactly once: {fragment!r}"
    path.write_text(source.replace(fragment, replacement))
    code, failed, output = run_tests(root, tests)
    assert code == 1 and failed == set(tests), output[-3000:]
