"""Minutes-scale reproductions, excluded from default CI.

Enable with QPRIM_LONG_RUN=1, e.g.

    QPRIM_LONG_RUN=1 pytest tests/test_longrun.py -v -s
"""

import os
import random

import pytest

from qprim.cli import preset_registry
from qprim.poly import QuadraticPoly
from qprim.streaks import _residual_indices, empirical_max_streak, pr_stats, streak

pytestmark = pytest.mark.skipif(
    os.environ.get("QPRIM_LONG_RUN") != "1",
    reason="long-run reproduction; set QPRIM_LONG_RUN=1 to enable",
)

LEHMER = QuadraticPoly(326, 0, 3)


def test_residual_stats_to_5e6():
    st = pr_stats(LEHMER, 326, 5 * 10**6)
    assert st.primes_total == 240862
    assert st.primes_with_g_pr == 239239


def test_empirical_max_streak_25000():
    _, c_best = empirical_max_streak(326, LEHMER, 25000, n_cap=300_000)
    assert c_best == 1614


@pytest.mark.parametrize(
    "preset_name",
    ["example1", "example2", "example2-g24", "example3", "example3-f1", "example3-f2"],
)
def test_full_records(preset_name):
    preset = preset_registry()[preset_name]
    res = streak(preset.poly, preset.g, preset.long_run_n_cap)
    assert res.count == preset.expected_count, preset_name
    if preset.expected_failing_prime is not None:
        assert res.failing_prime == preset.expected_failing_prime


@pytest.mark.parametrize(
    "preset_name",
    ["example1", "example2", "example2-g24", "example3", "example3-f1", "example3-f2"],
)
def test_record_streak_primes_against_sympy(preset_name):
    # the walk proves each streak prime by Lucas with g as the witness;
    # sympy checks a seeded sample of them without that proof
    sympy = pytest.importorskip("sympy")
    preset = preset_registry()[preset_name]
    proven = []
    for _, p, index in _residual_indices(preset.poly, preset.g, preset.long_run_n_cap):
        if index == 1:
            proven.append(p)
        elif index is not None:
            break
    assert len(proven) == preset.expected_count
    for p in random.Random(2004).sample(proven, 200):
        assert sympy.isprime(p), p
        assert sympy.n_order(preset.g % p, p) == p - 1, p
