"""The benchmark's contract with the package.

perfbench/ wraps qprim functions by name (arith.factor, is_prime,
is_primitive_root, multiplicative_order, kronecker, PolyZ.eval,
PrimeValueStream.entries_upto and pm1_factorization,
densities.residue_counts_mod_prime, ...) and its workloads read names such
as cli._D_A.  Installing the tracer, building every workload and running the
benchmarked workloads' calls against their reference answers here makes a
change that deletes or renames one of them, or changes an answer, fail the
tests rather than the benchmark.  perfbench/ is only read.
"""

import sys
from pathlib import Path

import pytest

from qprim import arith, poly, streaks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(PERFBENCH))
    try:
        import rep
        import tracer
        import workloads

        yield rep, tracer, workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


def test_tracer_installs_and_uninstalls(perfbench):
    rep, tracer, _ = perfbench
    originals = (arith.factor, poly.PolyZ.eval, streaks.PrimeValueStream.pm1_factorization)
    t = tracer.Tracer()
    try:
        rep.install(t, lambda res: None)
        assert arith.factor is not originals[0]
    finally:
        t.uninstall()
    assert (arith.factor, poly.PolyZ.eval, streaks.PrimeValueStream.pm1_factorization) == originals


def test_every_workload_builds(perfbench, tmp_path):
    _, _, workloads = perfbench
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        assert cls(1, tmp_path).name == name


@pytest.mark.parametrize("name", ["paper_instances", "candidate_rank"])
def test_benchmark_calls_give_the_reference_answers(perfbench, tmp_path, name):
    # the benchmark's own serial calls (streaks.streak with a positional
    # stream among them), checked against perfbench/reference.json
    _, _, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, tmp_path)
    outcome = workloads.Outcome()
    answers = workload.serial()
    workload.check(answers, outcome, "serial")
    if hasattr(workload, "resume_check"):
        workload.resume_check(answers, outcome)
    assert outcome.attempted > 0
    assert (outcome.failed, outcome.mismatches) == (0, [])


def test_module_names_perfbench_reads_exist():
    # BaseSweep.resume_check patches search.streak; make_reference and the
    # workloads read the discriminants and the preset registry from cli
    from qprim import cli, search

    for module, name in ((search, "streak"), (cli, "_D_A"), (cli, "_D_B"), (cli, "preset_registry")):
        assert hasattr(module, name), f"{module.__name__}.{name}"
    # candidate_rank reads a, c and eval off candidate_poly; the tracer counts
    # evaluations at PolyZ.eval, so no subclass may define its own
    f = search.candidate_poly(search.SearchConfig(d=163, d1=163, alpha=1, shift=5))
    for name in ("a", "c", "eval"):
        assert hasattr(f, name), f"candidate_poly(cfg).{name}"
    assert "eval" not in poly.QuadraticPoly.__dict__
