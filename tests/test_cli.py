"""CLI surface tests: presets, output formats, exit codes."""

import csv
import io
import json

import pytest

from qprim.cli import main, preset_registry


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
    for poly, why in (("2,2,2", "even"), ("1,0,0", "reducible")):
        code, _, err = run_cli(capsys, "density", "--poly", poly)
        assert code == 1, poly
        assert why in err, poly


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


@pytest.mark.parametrize("n_cap, count", [(100, 16), (2374, 206)])
def test_verify_streak_failure_exits_1_and_echoes_its_options(capsys, n_cap, count):
    # at n_cap = 2374 the count is right but the walk stops one n short of
    # the failing prime: a cut-off streak is not the record
    code, out, _ = run_cli(capsys, "verify", "--preset", "lehmer", "--n-cap", str(n_cap), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["outputs"]["checks"][0]["count"] == count
    assert doc["outputs"]["ok"] is False
    assert doc["inputs"]["n_cap"] == n_cap


@pytest.mark.parametrize("preset", ["euler41", "beeger27941"])
def test_verify_n_cap_on_a_count_preset_exits_1(capsys, preset):
    code, out, err = run_cli(capsys, "verify", "--preset", preset, "--n-cap", "5")
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
        ["lvalue", "--s", "1", "--disc", "-4", "--long-run"],
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
