"""CLI surface tests: presets, output formats, exit codes."""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qprim import charsums, cli, densities
from qprim.charsums import brute_char_average
from qprim.cli import main, preset_registry
from qprim.poly import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_preset_registry_names():
    names = set(preset_registry())
    assert names == {
        "lehmer",
        "griffin",
        "euler41",
        "beeger27941",
        "example1",
        "example2",
        "example2-g24",
        "example3",
        "example3-f1",
        "example3-f2",
    }


def test_each_preset_sets_the_fields_its_kind_reads():
    # Preset fields default to "not set", so a streak preset that left one out
    # would verify against None or walk no n at all
    for preset in preset_registry().values():
        if preset.g is not None:
            assert preset.expected_count is not None, preset.name
            assert preset.expected_failing_prime is not None, preset.name
            assert preset.long_run_n_cap > 0, preset.name
        else:  # a count preset: verify reads pi_checks alone
            assert preset.pi_checks, preset.name
            assert (preset.long_run_n_cap, preset.default_prefix) == (0, None), preset.name


def test_preset_polynomials_match_published_coefficients():
    reg = preset_registry()
    assert (
        f"{reg['example1'].poly.a},{reg['example1'].poly.b},{reg['example1'].poly.c}"
        == "1008068,16921429448,15753313937"
    )
    assert (
        f"{reg['example3'].poly.a},{reg['example3'].poly.b},{reg['example3'].poly.c}"
        == "866416,0,2903975582404049"
    )
    assert f"{reg['lehmer'].poly.a},{reg['lehmer'].poly.b},{reg['lehmer'].poly.c}" == "326,0,3"
    assert f"{reg['griffin'].poly.a},{reg['griffin'].poly.b},{reg['griffin'].poly.c}" == "10,0,7"
    # construction identities for the presets whose expansion is not printed
    assert reg["example2"].poly.a == 64 * 230849
    assert reg["example2-g24"].poly.a == 64 * 230849
    assert reg["example3-f1"].poly.eval(0) == reg["example3"].poly.eval(599206)
    assert reg["example3-f2"].poly.a == 54151
    assert reg["example1"].g == 170363492 == 26 * 26 * 252017
    assert reg["example2"].g == 17 * 17 * 230849


def test_verify_lehmer(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "lehmer")
    assert code == 0
    assert "206" in out
    assert "1838843753" in out


def test_verify_griffin_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "griffin", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["ok"] is True
    assert doc["outputs"]["checks"][0]["count"] == 16
    assert doc["outputs"]["checks"][0]["failing_prime"] == 7297
    # lossless round-trip
    assert json.loads(json.dumps(doc)) == doc


def test_verify_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "verify", "--preset", "nope")
    assert code == 1
    assert "unknown preset" in err


def test_streak_cli_json(capsys):
    code, out, _ = run_cli(
        capsys, "streak", "--poly", "326,0,3", "--g", "326", "--n-cap", "4000",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["count"] == 206
    assert doc["outputs"]["failing_prime"] == 1838843753
    assert doc["outputs"]["residual_index_at_failure"] == 83
    assert doc["version"]


def test_pi_cli(capsys):
    code, out, _ = run_cli(capsys, "pi", "--poly", "1,1,41", "--x", "39")
    assert code == 0
    assert "40" in out
    code, _, err = run_cli(capsys, "pi", "--poly", "1,1,41", "--x", "5000000")
    assert code == 1
    assert "long-run" in err


def test_tau_cli_exact_rational(capsys):
    code, out, _ = run_cli(capsys, "tau", "--poly", "3,0,7", "--disc", "5")
    assert code == 0
    assert "1/3" in out
    code, out, _ = run_cli(
        capsys, "tau", "--poly", "3,0,7", "--disc", "5", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["outputs"]["value"] == {"num": 1, "den": 3}


def test_tau_admissible_cli(capsys):
    code, out, _ = run_cli(
        capsys, "tau", "--poly", "326,0,3", "--admissible", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["outputs"]["admissible_discriminants"] == [-163, -3, 24, 1304]


def test_charsum_cli_csv(capsys):
    code, out, _ = run_cli(
        capsys, "charsum", "--mode", "local", "--poly", "1,0,1", "--p", "5",
        "--format", "csv",
    )
    assert code == 0
    rows = {r["key"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
    assert rows["value.num"] == "-1"
    assert rows["value.den"] == "3"


def test_charsum_jacobsthal(capsys):
    code, out, _ = run_cli(
        capsys, "charsum", "--mode", "jacobsthal", "--a", "1", "--p", "7",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["value"] == -1


def _spelling_cases():
    """(a, b, c, p, D): 5X^2 + 5 and 3X^2 + 3X + 3, whose values p always
    divides, then seeded quadratics."""
    rng = random.Random(2026)
    seeded = []
    for _ in range(6):
        a, b, c = rng.randint(1, 40), rng.randint(-40, 40), rng.randint(-40, 40)
        seeded.append((a, b, c, rng.choice((3, 5, 7, 13)), rng.choice((-3, 5, -7, 12, 24, -163))))
    return [(5, 0, 5, 5, 5), (3, 3, 3, 3, -3)] + seeded


@pytest.mark.parametrize("a, b, c, p, D", _spelling_cases())
def test_spelling_never_changes_the_cli_answer(capsys, a, b, c, p, D):
    commands = [
        ("charsum", "--mode", "local", "--p", str(p)),
        ("charsum", "--mode", "complete", "--p", str(p)),
        ("tau", "--disc", str(D)),
        ("tau", "--admissible"),
    ]
    for argv in commands:
        runs = []
        for poly in (f"{a},{b},{c}", f"{c},{b},{a},0"):  # leading first; constant first
            code, out, err = run_cli(capsys, *argv, "--poly", poly, "--format", "json")
            runs.append((code, err, json.loads(out)["outputs"] if out else None))
        assert runs[0] == runs[1], argv


def test_cli_refusals_come_from_the_library(capsys):
    code, _, err = run_cli(capsys, "charsum", "--mode", "complete", "--poly", "1,0,0,1", "--p", "5")
    assert code == 1 and "the closed form needs a quadratic, not degree 3" in err
    code, _, err = run_cli(capsys, "tau", "--poly", "1,0,0,1", "--admissible")
    assert code == 1 and "outside the quadratic search family" in err
    for poly, d in (("1,0,0,1", 15), ("1,0,1,1", 105)):  # cubics: enumerated at each prime of d
        code, out, _ = run_cli(capsys, "charsum", "--mode", "average", "--poly", poly, "--d", str(d), "--format", "json")
        assert code == 0
        want = math.prod(brute_char_average(parse_poly(poly), q) for q in (3, 5, 7) if d % q == 0)
        value = json.loads(out)["outputs"]["value"]
        assert Fraction(value["num"], value["den"]) == want


def test_density_cli(capsys):
    code, out, _ = run_cli(capsys, "density", "--lehmer-corrected", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["value"] - 0.99323) < 1e-4
    code, out, _ = run_cli(
        capsys, "density", "--q-product", "3,5", "--format", "json"
    )
    assert json.loads(out)["outputs"]["value"] == 4.0


def test_lvalue_and_hlconst_cli(capsys):
    code, out, _ = run_cli(
        capsys, "lvalue", "--s", "1", "--disc", "-4", "--format", "json"
    )
    assert code == 0
    assert abs(json.loads(out)["outputs"]["value"] - 0.7853981633974483) < 1e-12
    code, out, _ = run_cli(capsys, "hlconst", "--disc", "-163", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["outputs"]["value"] - 3.3197732) < 1e-5


def test_mstat_cli_seeded(capsys):
    argv = (
        "mstat", "--p1", "0.9", "--s", "100", "--simulate", "--trials", "500",
        "--seed", "42", "--format", "json",
    )
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["outputs"]["simulated_mean"] == d2["outputs"]["simulated_mean"]
    assert d1["seed"] == 42


def test_criteria_cli(capsys):
    code, out, _ = run_cli(
        capsys, "criteria", "--mode", "classic", "--max", "2000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["violations"] == 0
    assert doc["outputs"]["applicable"] > 0
    code, out, _ = run_cli(
        capsys, "criteria", "--mode", "lemma1", "--alpha", "1", "--d1", "163",
        "--d2", "1", "--q-max", "40", "--format", "json",
    )
    assert json.loads(out)["outputs"]["excluded_primes"] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("mode", [["classic"], ["extended", "--g", "2"], ["fueter"]])
def test_criteria_scan_below_two_is_an_error(capsys, mode):
    # a scan over no primes would print violations 0, which reads as a pass
    for bound in ("-5", "1"):
        code, _, err = run_cli(capsys, "criteria", "--mode", *mode, "--max", bound)
        assert code == 1
        assert "--max must be >= 2" in err
    code, out, _ = run_cli(capsys, "criteria", "--mode", *mode, "--max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"]["max"] == 2


def test_bateman_horn_cli_refuses_degree_above_two(capsys):
    for poly in ("1,0,0,1", "41,1,1,1,1"):
        code, _, err = run_cli(capsys, "density", "--bateman-horn", poly)
        assert code == 1
        assert "density --bateman-horn needs degree <= 2" in err
        assert "assume_irreducible" not in err


def test_search_cli(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "search", "--d", "163", "--d1", "163", "--alpha", "1",
        "--g-base", "326", "--k-hi", "4", "--n-cap", "3000",
        "--checkpoint", str(tmp_path / "ck.jsonl"), "--workers", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["best_c"] >= 206
    assert (tmp_path / "ck.jsonl").exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["streak", "--bogus"])
    assert exc.value.code == 2


def test_missing_argument_combinations(capsys):
    for argv in (
        ["charsum", "--mode", "jacobsthal", "--p", "7"],
        ["charsum", "--mode", "local", "--poly", "1,0,1"],
        ["charsum", "--mode", "average", "--poly", "1,0,1"],
        ["charsum", "--mode", "complete", "--p", "5"],
        ["tau", "--poly", "1,0,1"],
        ["density"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err, argv


def test_density_rejects_even_valued_and_reducible(capsys):
    even = "every value is divisible by 2"
    cases = [("2,2,2", even), ("1,0,0", "reducible"), ("2,0,4", even)]
    cases += [("0,0,0,1", "density --poly needs degree <= 2"), ("7,-2", "negative leading coefficient")]  # X^3, 7 - 2X
    for poly, why in cases:
        code, _, err = run_cli(capsys, "density", "--poly", poly)
        assert code == 1, poly
        assert why in err, poly


@pytest.mark.parametrize(
    "argv, why",
    [
        (["density", "--bateman-horn", "7,-2"], "negative leading coefficient"),  # 7 - 2X
        (["density", "--simple", "-3,7"], "negative leading coefficient"),
        (["tau", "--poly", "2,2,2", "--admissible"], "every value is divisible by 2"),
        (["tau", "--poly", "1,0,0", "--admissible"], "reducible quadratic"),
        (["tau", "--poly", "2,2,2", "--disc", "-3"], "every value is divisible by 2"),
        (["tau", "--poly", "1,0,0", "--disc", "5"], "reducible quadratic"),
        (["tau", "--poly", "7,-2", "--disc", "5"], "negative leading coefficient"),  # 7 - 2X
    ],
    ids=["bateman-horn-sign", "simple-sign", "tau-content", "tau-square", "disc-content", "disc-square", "disc-sign"],
)
def test_admissibility_refusals_name_the_rules_reason(capsys, argv, why):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert why in err


def test_mstat_refuses_a_negative_seed(capsys):
    # numpy's own refusal, "expected non-negative integer", named no option
    argv = ["mstat", "--p1", "0.9", "--s", "10", "--simulate", "--trials", "100", "--seed"]
    code, out, err = run_cli(capsys, *argv, "-1")
    assert (code, out) == (1, "")
    assert "seed must be >= 0 (--seed), got -1" in err
    code, _, _ = run_cli(capsys, *argv, "0")
    assert code == 0


@pytest.mark.parametrize("pair, divisor", [("2,4", 2), ("3,3", 3)])
def test_density_simple_refuses_a_fixed_divisor(capsys, pair, divisor):
    code, out, err = run_cli(capsys, "density", "--simple", pair)
    assert (code, out) == (1, "")
    assert f"every value is divisible by {divisor}" in err


@pytest.mark.parametrize("cutoff", ["0", "1"])
@pytest.mark.parametrize(
    "mode", [["--poly", "1,1,41", "--no-accelerate"], ["--poly", "1,1,41"], ["--totient-constant"], ["--bateman-horn", "1,1,41"]]
)
def test_density_cutoff_below_two_is_an_error(capsys, mode, cutoff):
    code, _, err = run_cli(capsys, "density", *mode, "--cutoff", cutoff)
    assert code == 1
    assert "cutoff must be at least 2" in err


@pytest.mark.parametrize(
    "mode", [["--poly", "1,1,41", "--no-accelerate"], ["--poly", "1,1,41"], ["--bateman-horn", "1,1,41"]]
)
def test_density_cutoff_of_2_31_exits_before_reading_a_prime(capsys, monkeypatch, mode):
    def no_primes(start, stop):
        raise AssertionError("a prime was read")

    monkeypatch.setattr(densities, "prime_chunks", no_primes)
    code, _, err = run_cli(capsys, "density", *mode, "--cutoff", str(2**31))
    assert code == 1
    assert "cutoff must be at least 2 and below 2^31" in err


@pytest.mark.parametrize(
    "argv, why",
    [
        (["hlconst", "--disc", "-163", "--tol", "0"], "tol must be positive"),
        (["hlconst", "--disc", "-163", "--tol", "-1"], "tol must be positive"),
        (["tau", "--poly", "326,0,3", "--admissible", "--bound", "-5"], "bound must be >= 1"),
        (["tau", "--poly", "326,0,3", "--admissible", "--bound", "0"], "bound must be >= 1"),
    ],
)
def test_nonpositive_tol_and_bound_exit_1(capsys, argv, why):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert why in err


def test_density_simple_needs_two_integers(capsys):
    for bad in ("3", "1,2,3", "3,x"):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--simple", bad])
        assert exc.value.code == 2
        assert "expected A,B" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "density", "--simple", "326,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"]["kind"] == "simplified_quality"


def test_negative_coefficients_parse_in_both_spellings(capsys):
    for poly in (["--poly", "-1,2"], ["--poly=-1,2"]):
        code, out, _ = run_cli(capsys, "pi", *poly, "--x", "10", "--format", "json")
        assert code == 0, poly
        assert json.loads(out)["outputs"]["count"] == 7, poly
    for option in ("--poly", "--bateman-horn"):
        for argv in ([option, "-1,0,1"], [f"{option}=-1,0,1"]):
            code, _, err = run_cli(capsys, "density", *argv)
            assert code == 1, argv
            assert "requires a > 0" in err, argv


def test_maxstreak_long_run_gate(capsys):
    code, _, err = run_cli(
        capsys, "maxstreak", "--poly", "326,0,3", "--g-base", "326", "--k-max", "25000"
    )
    assert code == 1
    assert "long-run" in err


def test_lvalue_and_hlconst_run_to_the_disc_bound_and_past_it_with_long_run(capsys, monkeypatch):
    # |D| = 1e7 runs ungated; past it, --long-run lets the sum start
    started = []
    lvalue, hlconst = densities.dirichlet_l(1, -4), densities.hardy_littlewood_constant(-3)
    monkeypatch.setattr(cli, "dirichlet_l", lambda s, D: started.append(D) or lvalue)
    monkeypatch.setattr(cli, "hardy_littlewood_constant", lambda D, tol: started.append(D) or hlconst)
    for argv in (
        ["lvalue", "--s", "1", "--disc", "-10000000"],
        ["hlconst", "--disc", "-10000000"],
        ["lvalue", "--s", "2", "--disc", "100000001", "--long-run"],
        ["hlconst", "--disc", "-10000003", "--long-run"],
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert started == [-10**7, -10**7, 100000001, -10000003]


@pytest.mark.parametrize(
    "argv, walk",
    [
        (["prstats", "--poly", "326,0,3", "--g", "326", "--n-cap", "1000001"], "pr_stats"),
        (["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "2001"], "sweep"),
        (["lvalue", "--s", "1", "--disc", "-100000007"], "dirichlet_l"),
        (["hlconst", "--disc", "-10000003"], "hardy_littlewood_constant"),
    ],
    ids=["prstats", "search", "lvalue", "hlconst"],
)
def test_long_run_gate_refuses_before_the_walk(capsys, monkeypatch, argv, walk):
    def no_walk(*args, **kwargs):
        raise AssertionError(f"{walk} started")

    monkeypatch.setattr(cli, walk, no_walk)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith("needs --long-run (a minutes-scale computation)")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["charsum", "--mode", "local", "--poly", "1,0,0,1", "--p", "2147483647"], "--p"),
        (["charsum", "--mode", "average", "--poly", "1,0,0,1", "--d", "1048583"], "--d"),
        (["tau", "--poly", "1,0,0,1", "--disc", "-2147483647"], "--disc"),
    ],
    ids=["charsum-local", "charsum-average", "tau"],
)
def test_enumerated_local_average_refuses_p_past_2_20(capsys, monkeypatch, argv, option):
    # values_mod would ask for an int64 array of p entries: 16 GiB at p = 2^31 - 1
    def no_enumeration(f, m):
        raise AssertionError(f"values_mod enumerated f mod {m}")

    monkeypatch.setattr(charsums, "values_mod", no_enumeration)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "at most 2^20" in line and option in line


def test_lvalue_takes_no_tol(capsys):
    # its value never read a tolerance; hlconst --tol sets the split-product cutoff
    with pytest.raises(SystemExit) as exc:
        main(["lvalue", "--s", "1", "--disc", "-4", "--tol", "1e-9"])
    assert exc.value.code == 2
    code, _, _ = run_cli(capsys, "hlconst", "--disc", "-163", "--tol", "1e-7")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326",
         "--k-lo", "9223372036854775809", "--k-hi", "9223372036854775810", "--n-cap", "40"],
        ["maxstreak", "--poly", "326,0,3", "--g-base", "326", "--k-max", "9223372036854775808", "--long-run"],
    ],
    ids=["search", "maxstreak"],
)
def test_sweeps_refuse_k_of_2_63_or_more(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "below 2^63" in line


SEARCH = ["search", "--d", "163", "--d1", "163", "--g-base", "326", "--n-cap", "10"]
MAXSTREAK = ["maxstreak", "--poly", "326,0,3", "--g-base", "326", "--long-run", "--n-cap", "10"]
# (argv, the option its one error line names); without their bounds these
# asked numpy for TiBs, printed numpy's empty max() error, or Python's
# integer-printing limit, which names no option
PAST_A_BOUND = [
    (MAXSTREAK + ["--k-max", str(2**63 - 1)], "--k-max"),
    (MAXSTREAK + ["--k-max", str(2**40)], "--k-max"),
    (SEARCH + ["--k-hi", str(2**20 + 1), "--long-run"], "--k-hi"),
    (["lvalue", "--s", "1", "--disc", str(2**53 + 1), "--long-run"], "--disc"),  # its prime factor 28059810762433
    (["lvalue", "--s", "1", "--disc", str(2**53 + 1)], "--disc"),  # past |D| = 1e7 without --long-run
    (SEARCH + ["--alpha", str(2**64), "--k-hi", "2"], "--alpha"),
    (SEARCH + ["--alpha", "100000", "--k-hi", "2"], "--alpha"),
    (["tau", "--poly", "326,0,3", "--admissible", "--bound", str(10**11)], "--bound"),  # the prime listing's own limit
]

REFUSALS = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))  # an unrefused case fails here, not on the host
from qprim.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except BaseException as exc:
            code = repr(exc)
    out.append((code, err.getvalue(), time.perf_counter() - start))
print(json.dumps(out))
"""


def test_inputs_past_a_bound_exit_1_naming_their_option():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argvs = json.dumps([argv for argv, _ in PAST_A_BOUND])
    run = subprocess.run([sys.executable, "-c", REFUSALS, argvs], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    for (argv, option), (code, err, seconds) in zip(PAST_A_BOUND, json.loads(run.stdout), strict=True):
        [line] = err.splitlines()
        assert (code, line[:7]) == (1, "error: ") and option in line, (argv, code, err)
        assert seconds < 1, argv


def test_search_cli_reports_certified(capsys, tmp_path):
    args = ("--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326",
            "--workers", "1", "--format", "json")
    code, out, _ = run_cli(capsys, "search", *args, "--k-hi", "4", "--n-cap", "3000")
    assert code == 0
    assert json.loads(out)["outputs"]["certified"] is True
    # a truncated best is still reported, flagged as a lower bound
    code, out, _ = run_cli(capsys, "search", *args, "--k-hi", "24", "--n-cap", "300")
    assert code == 0
    doc = json.loads(out)["outputs"]
    assert (doc["best_k"], doc["best_c"], doc["certified"]) == (1, 40, False)
    # maxstreak errors on the same input
    code, _, err = run_cli(
        capsys, "maxstreak", "--poly", "326,0,3", "--g-base", "326", "--k-max", "24",
        "--n-cap", "300", "--workers", "1",
    )
    assert code == 1
    assert "n_cap=300 too small" in err


# (preset, n, failing prime f(n), residual index (p-1)/ord_p(g)) where each
# record streak ends
RECORD_ENDS = [
    ("example1", 646331, 432050978399143373, 521),
    ("example2", 441957, 20224247350881408449, 659),
    ("example2-g24", 343181, 2364119521193107649, 397),
    ("example3", 868857, 656972232441600833, 1669),
    ("example3-f1", 1504199, 3836199196047168449, 521),
    ("example3-f2", 3216839, 1196918237285051573, 421),
]


@pytest.mark.parametrize("name, n, p, index", RECORD_ENDS)
def test_record_failing_primes_pinned(name, n, p, index):
    sympy = pytest.importorskip("sympy")
    preset = preset_registry()[name]
    assert preset.expected_failing_prime == p
    assert preset.poly.eval(n) == p
    assert n <= preset.long_run_n_cap
    assert sympy.isprime(p)
    assert (p - 1) // sympy.n_order(preset.g, p) == index
    assert index > 1  # g is not a primitive root mod p: the streak ends here


@pytest.mark.parametrize("n_cap, count", [(100, 16), (2374, 206), (0, 1)])
def test_verify_streak_failure_exits_1_and_echoes_its_options(capsys, n_cap, count):
    # at n_cap = 2374 the count is right but the walk stops one n short of
    # the failing prime: a cut-off streak is not the record.  n_cap = 0 walks
    # f(0) = 3 alone, not the preset's own cap
    code, out, _ = run_cli(capsys, "verify", "--preset", "lehmer", "--n-cap", str(n_cap), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["outputs"]["checks"][0]["count"] == count
    assert doc["outputs"]["ok"] is False
    assert doc["inputs"]["n_cap"] == n_cap


def test_verify_prefix_short_of_its_primes_exits_1(capsys):
    # example1's walk to n = 10 ends with no failure and fewer than its 500
    # primes: neither a pass nor a failure, so an error
    code, out, err = run_cli(capsys, "verify", "--preset", "example1", "--n-cap", "10")
    assert code == 1
    assert out == ""
    assert "usable primes" in err and "n_cap=10" in err


@pytest.mark.parametrize("preset", ["euler41", "beeger27941"])
def test_verify_n_cap_on_a_count_preset_exits_1(capsys, preset):
    for n_cap in ("5", "0"):
        code, out, err = run_cli(capsys, "verify", "--preset", preset, "--n-cap", n_cap)
        assert code == 1
        assert out == ""
        assert preset in err and "--n-cap" in err


def test_verify_has_no_prefix_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "lehmer", "--prefix", "5"])
    assert exc.value.code == 2
    assert "--prefix" in capsys.readouterr().err


def test_inputs_echo_options_that_change_the_result(capsys):
    code, out, _ = run_cli(
        capsys, "maxstreak", "--poly", "10,0,7", "--g-base", "10", "--k-max", "3",
        "--n-cap", "300", "--workers", "1", "--format", "json",
    )
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert (inputs["n_cap"], inputs["workers"]) == (300, 1)
    code, out, _ = run_cli(
        capsys, "mstat", "--p1", "0.9", "--s", "100", "--simulate", "--trials", "500",
        "--seed", "42", "--format", "json",
    )
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert (inputs["trials"], inputs["seed"]) == (500, 42)
    code, out, _ = run_cli(
        capsys, "charsum", "--mode", "average", "--poly", "1,0,1", "--d", "15", "--format", "json"
    )
    assert json.loads(out)["inputs"]["d"] == 15


def test_inputs_echo_no_flag_that_was_not_given(capsys):
    code, out, _ = run_cli(capsys, "density", "--simple", "326,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"] == {"simple": [326, 3]}
    code, out, _ = run_cli(capsys, "mstat", "--p1", "0.9", "--s", "100", "--format", "json")
    assert code == 0
    assert "simulate" not in json.loads(out)["inputs"]


def _argv_from_inputs(command, inputs):
    argv = [command]
    for key, value in inputs.items():
        option = "--" + key.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not False:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv.append(f"{option}={text}")
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "lehmer", "--n-cap", "100"],
        ["density", "--simple", "326,3"],
        ["density", "--poly", "1,1,41", "--no-accelerate", "--cutoff", "2000"],
        ["mstat", "--p1", "0.9", "--s", "100", "--simulate", "--trials", "200", "--seed", "7"],
        ["pi", "--poly", "-1,2", "--x", "10"],
        ["criteria", "--mode", "prop2", "--k", "2", "--n-cap", "50"],
    ],
)
def test_report_reruns_from_its_inputs(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    code2, out2, _ = run_cli(capsys, *_argv_from_inputs(doc["command"], doc["inputs"]), "--format", "json")
    doc2 = json.loads(out2)
    assert code2 == code
    assert (doc2["inputs"], doc2["outputs"], doc2["seed"]) == (doc["inputs"], doc["outputs"], doc["seed"])


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--lehmer-naive", "--poly", "326,0,3"],
        ["density", "--simple", "326,3", "--q-product", "3,5"],
        ["lvalue", "--s", "1", "--disc", "-4", "--tol", "1e-8"],
        ["streak", "--poly", "326,0,3", "--g", "326", "--long-run"],
        ["verify", "--preset", "euler41", "--quick"],
        # options that only some modes read
        ["density", "--lehmer-naive", "--cutoff", "5"],
        ["density", "--lehmer-naive", "--no-accelerate"],
        ["density", "--simple", "326,3", "--cutoff", "0"],
        ["density", "--q-product", "3,5", "--cutoff", "100"],
        ["density", "--totient-constant", "--no-accelerate"],
        ["density", "--bateman-horn", "1,1,41", "--no-accelerate"],
        ["mstat", "--p1", "0.9", "--s", "100", "--trials", "500"],
        ["mstat", "--p1", "0.9", "--s", "100", "--seed", "42"],
        ["criteria", "--mode", "classic", "--max", "100", "--k", "7", "--d1", "5"],
        ["criteria", "--mode", "lemma1", "--max", "100"],
        ["criteria", "--mode", "fueter", "--g", "5"],
        ["tau", "--poly", "3,0,7", "--disc", "5", "--bound", "10"],
        ["tau", "--poly", "326,0,3", "--admissible", "--disc", "5"],
        ["charsum", "--mode", "jacobsthal", "--a", "1", "--p", "5", "--poly", "1,0,1", "--d", "15"],
        ["charsum", "--mode", "average", "--poly", "1,0,1", "--d", "15", "--p", "5"],
    ],
)
def test_conflicting_or_ignored_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (["density", "--lehmer-corrected", "--cutoff", "5"], "--cutoff"),
        (["density", "--simple", "326,3", "--no-accelerate"], "--no-accelerate"),
        (["mstat", "--p1", "0.9", "--s", "100", "--trials", "500"], "--trials"),
        (["mstat", "--p1", "0.9", "--s", "100", "--seed", "42"], "--seed"),
        (["criteria", "--mode", "classic", "--max", "100", "--k", "7"], "--mode prop2"),
        (["criteria", "--mode", "prop2", "--d1", "5"], "--d1"),
        (["tau", "--poly", "3,0,7", "--disc", "5", "--bound", "10"], "--bound"),
        (["charsum", "--mode", "jacobsthal", "--a", "1", "--p", "5", "--poly", "1,0,1"], "--poly"),
        (["charsum", "--mode", "complete", "--poly", "1,0,1", "--p", "5", "--a", "1"], "--mode jacobsthal"),
    ],
)
def test_ignored_option_error_names_the_option(capsys, argv, option):
    with pytest.raises(SystemExit):
        main(argv)
    assert option in capsys.readouterr().err.splitlines()[-1]


def test_refused_mode_option_prints_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charsum", "--mode", "jacobsthal", "--p", "7", "--poly", "1,0,1", "--a", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: qprim charsum")
    assert "qprim charsum: error: charsum --poly applies only with" in err


# each mode-scoped default, pinned: leaving the option out and giving its
# default value must produce the same report
@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["criteria", "--mode", "extended", "--max", "2000"], ["--g", "3"]),
        (["criteria", "--mode", "classic"], ["--max", "10000"]),
        (["criteria", "--mode", "extended"], ["--max", "10000"]),
        (["criteria", "--mode", "fueter"], ["--max", "10000"]),
        (["criteria", "--mode", "prop2"], ["--k", "1", "--n-cap", "2000"]),
        (["criteria", "--mode", "lemma1"], ["--alpha", "1", "--d1", "163", "--d2", "1", "--q-max", "40"]),
        (["tau", "--poly", "326,0,3", "--admissible"], ["--bound", "2000"]),
        (["mstat", "--p1", "0.9", "--s", "100", "--simulate"], ["--trials", "2000", "--seed", "20260810"]),
        (["density", "--poly", "1,1,41"], ["--cutoff", "10000"]),
        (["density", "--totient-constant"], ["--cutoff", "10000000"]),
        (["density", "--bateman-horn", "1,1,41"], ["--cutoff", "100000"]),
    ],
)
def test_mode_default_equals_giving_it(capsys, argv, defaults):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    code_given, out_given, _ = run_cli(capsys, *argv, *defaults, "--format", "json")
    doc, doc_given = json.loads(out), json.loads(out_given)
    assert code == code_given == 0
    assert (doc["outputs"], doc["seed"]) == (doc_given["outputs"], doc_given["seed"])
    assert not set(doc["inputs"]) & {d[2:].replace("-", "_") for d in defaults[::2]}
    if argv[0] == "mstat":
        assert doc["seed"] == 20260810


def test_mode_option_table_names_real_options_and_modes():
    import argparse

    from qprim.cli import _MODE_OPTIONS, _build_parser

    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, options in _MODE_OPTIONS.items():
        actions = {a.dest: a for a in commands[command]._actions}
        mode_choices = actions["mode"].choices if "mode" in actions else ()
        for option, modes in options.items():
            assert option in actions, (command, option)
            assert "read by" in actions[option].help, (command, option)
            for mode in modes:
                assert mode in actions or mode in mode_choices, (command, option, mode)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["charsum", "--mode", "jacobsthal", "--p", "7"], "--a"),
        (["charsum", "--mode", "jacobsthal", "--a", "1"], "--p"),
        (["charsum", "--mode", "average", "--poly", "1,0,1"], "--d"),
        (["charsum", "--mode", "average", "--d", "15"], "--poly"),
        (["charsum", "--mode", "local", "--poly", "1,0,1"], "--p"),
        (["charsum", "--mode", "complete", "--p", "5"], "--poly"),
        (["charsum", "--p", "5"], "--poly"),
    ],
)
def test_charsum_missing_required_option_names_it(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"needs {option}" in err


MAXSTREAK = ["maxstreak", "--poly", "326,0,3", "--g-base", "326", "--k-max", "10", "--n-cap", "20000"]
SEARCH = ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "12", "--n-cap", "3000"]


@pytest.mark.parametrize("argv", [MAXSTREAK, SEARCH])
def test_sweeps_default_to_one_worker_and_no_pool(capsys, monkeypatch, argv):
    import multiprocessing.process

    def no_process(*args, **kwargs):
        raise RuntimeError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    one = json.loads(out)
    assert one["inputs"]["workers"] == 1
    # --workers is accepted and changes nothing: the sweep stays in this process
    code, out, _ = run_cli(capsys, *argv, "--workers", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"] == one["outputs"]


@pytest.mark.parametrize("argv", [MAXSTREAK, SEARCH])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweeps_refuse_fewer_than_one_worker(capsys, argv, workers):
    code, out, err = run_cli(capsys, *argv, "--workers", workers)
    assert code == 1
    assert out == ""
    assert "workers must be >= 1" in err


def test_search_refusing_its_workers_leaves_the_checkpoint_alone(capsys, tmp_path):
    ck = tmp_path / "ck.jsonl"
    ck.write_text("kept\n")
    code, _, err = run_cli(capsys, *SEARCH, "--checkpoint", str(ck), "--fresh", "--workers", "0")
    assert code == 1
    assert "workers must be >= 1" in err
    assert ck.read_text() == "kept\n"
