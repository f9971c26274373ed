"""Minutes-scale reproductions, excluded from default CI.

Enable with QPRIM_LONG_RUN=1, e.g.

    QPRIM_LONG_RUN=1 pytest tests/test_longrun.py -v -s
"""

import json
import os
import random

import pytest

from qprim.cli import _D_A, _D_B, main, preset_registry
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
    for _, p, _, index in _residual_indices(preset.poly, preset.g, preset.long_run_n_cap):
        if index == 1:
            proven.append(p)
        elif index is not None:
            break
    assert len(proven) == preset.expected_count
    for p in random.Random(2004).sample(proven, 200):
        assert sympy.isprime(p), p
        assert sympy.n_order(preset.g % p, p) == p - 1, p


@pytest.mark.parametrize(
    "preset_name, family, g_base, k, k_hi",
    [
        ("example1", (_D_A, 252017, 2, -1, 8393), 252017, 26, 40),
        ("example2", (_D_A, 230849, 6, -1, 728069), 230849, 17, 20),
        ("example2-g24", (_D_A, 230849, 6, -1, 56943), 6, 2, 4),
        ("example3", (_D_B, 54151, 4, 1, 0), 54151, 662, 700),
        ("example3-f1", (_D_B, 54151, 4, 1, 599206), 202, 19, 30),
        ("example3-f2", (_D_B, 54151, 0, 1, 1484224), 6702, 51, 60),
    ],
)
def test_search_rediscovers_each_record(capsys, preset_name, family, g_base, k, k_hi):
    # each record's g is k^2 g_base: a k-sweep of its family from k = 1, at
    # the preset's own n_cap, finds it as the certified best
    preset = preset_registry()[preset_name]
    flags = [f"--{name}={value}" for name, value in zip(("d", "d1", "alpha", "sign", "shift"), family)]
    argv = ["search", *flags, "--g-base", str(g_base), "--k-hi", str(k_hi), "--n-cap", str(preset.long_run_n_cap)]
    assert main([*argv, "--format", "json"]) == 0
    best = json.loads(capsys.readouterr().out)["outputs"]
    assert best["poly"] == str(preset.poly)
    assert (best["best_k"], best["best_g"]) == (k, k * k * g_base) and best["best_g"] == preset.g
    assert (best["best_c"], best["failing_prime"]) == (preset.expected_count, preset.expected_failing_prime)
    assert best["certified"] is True
