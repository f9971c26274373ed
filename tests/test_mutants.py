"""Mutants that the tests must catch, re-run on every long run.

Each row names a module of src/qprim, a source fragment that occurs in it
exactly once, its replacement, and the tests that must fail once it is made.
The rows run on copies of src under tmp_path, each in a pytest subprocess
that runs only the named tests.  The control run first checks that the named
tests pass on an unmutated copy, so a failure below is the mutant's doing.  A
fragment a refactor moved or rewrote fails its row loudly: update the row.

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
    (  # Lanes' int64 products without their + p correction: a negative x y - q p is kept
        "arith.py",
        "np.multiply(q, self.P, out=q), out=out)\n        return np.add(r, self.P, out=r, where=r < 0)",
        "np.multiply(q, self.P, out=q), out=out)\n        return r",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^31]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f7-326-1000000-1000060-1300]",
            "tests/test_densities.py::test_legendre_float_and_int64_kernels_at_their_edges",
            *walk_cases("f13-12-2-46-37", "f28--26-5-61-200"),
        ],
    ),
    (  # Lanes' int64 path raised from 2^50 to 2^53: the float quotient can miss by more than one
        "arith.py",
        "_QUOTIENT_PRIME_BOUND = 2**50",
        "_QUOTIENT_PRIME_BOUND = 2**53",
        ["tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]"],
    ),
    (  # Lanes' representation picked by the last p, not the largest: a falling group runs in int64 past 2^50
        "arith.py",
        "top = int(P.max()) if len(P) else 0\n        self.balanced",
        "top = int(P[-1]) if len(P) else 0\n        self.balanced",
        [
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[below2^50]",
            "tests/test_search.py::test_lanes_are_exact_at_their_bounds[above2^50]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f8-3-1-60-60]",
            "tests/test_search.py::test_base_streaks_equals_per_base_streak[f9-326-1-60-60]",
            "tests/test_search.py::test_base_streaks_covers_both_element_types",
        ],
    ),
    (  # z = g_base^e in place of g_base^(e(q-1)/2)
        "streaks.py",
        "pow(g_base, (p - 1 - e) // 2, p)",
        "pow(g_base, e, p)",
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
    (  # Lucas's q = 2 test taking g^((p-1)/2) = 1 for -1
        "arith.py",
        "if pow(r, p >> 1, p) != p - 1:",
        "if pow(r, p >> 1, p) == 1:",
        walk_cases("f11-153-1582-1583-17", "f14-23-5-45-53", "f28--26-5-61-200", "f29-56-383-385-125"),
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
    (  # Lanes' float residues left unbalanced: _legendre's (2/3) reads 0
        "arith.py",
        "np.where(r > self.P >> 1, r - self.P, r).astype(np.float64)",
        "r.astype(np.float64)",
        ["tests/test_densities.py::test_legendre_float_and_int64_kernels_at_their_edges"],
    ),
    (  # prime_count counting the head's survivors again, from 0 instead of the split
        "streaks.py",
        "alive.count(1, split)",
        "alive.count(1)",
        [
            "tests/test_streaks.py::test_prime_count_sieve_exact_against_sympy[f3]",
            "tests/test_streaks.py::test_prime_count_counts_the_sieve_against_sympy[f6-150]",
            "tests/test_streaks.py::test_prime_count_matches_brute_scan_past_the_block_edge[coeffs2]",
        ],
    ),
    (  # the root table's quadratic formula at a q dividing the leading coefficient
        "poly.py",
        "fast = (P != 2) & (residues(f.leading(), P) != 0)",
        "fast = P != 2",
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
    (  # _entries without its head set: a value below _direct_upto met twice is yielded twice
        "streaks.py",
        "head.add(v)",
        "pass",
        [
            "tests/test_streaks.py::test_streak_dedupe_matches_set_oracle",
            "tests/test_streaks.py::test_reused_stream_matches_brute_scan[coeffs2-2000]",
            *walk_cases("f12-72-4-45-183"),
        ],
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
    (  # sweep without its checkpoint lock: a second run reads and cuts a held file
        "search.py",
        "fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)",
        "pass",
        ["tests/test_search.py::test_sweep_refuses_a_checkpoint_another_run_holds"],
    ),
]


def run_tests(src: Path, tests: list[str]) -> tuple[int, set[str], str]:
    """pytest on `tests` with qprim imported from src: its exit code, the ids
    that failed, and its output."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    return run.returncode, set(re.findall(r"^FAILED (\S+)", run.stdout, re.M)), run.stdout + run.stderr


def copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_named_tests_pass_unmutated(tmp_path):
    tests = sorted({t for *_, named in MUTANTS for t in named})
    code, failed, output = run_tests(copy_src(tmp_path), tests)
    assert (code, failed) == (0, set()), output[-3000:]
    assert f"{len(tests)} passed" in output


@pytest.mark.parametrize("module, fragment, replacement, tests", MUTANTS, ids=[f"{m}:{f}" for m, f, *_ in MUTANTS])
def test_mutant_fails_its_tests(tmp_path, module, fragment, replacement, tests):
    path = copy_src(tmp_path) / "qprim" / module
    source = path.read_text()
    assert source.count(fragment) == 1, f"{module}: the fragment must occur exactly once: {fragment!r}"
    path.write_text(source.replace(fragment, replacement))
    code, failed, output = run_tests(tmp_path / "src", tests)
    assert code == 1 and failed == set(tests), output[-3000:]
