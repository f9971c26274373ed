"""The benchmark's contract with the package.

perfbench/ wraps qprim functions by name (arith.factor, is_prime,
is_primitive_root, multiplicative_order, kronecker, PolyZ.eval,
PrimeValueStream.entries_upto and pm1_factorization,
densities.residue_counts_mod_prime, ...) and its workloads read names such
as cli._D_A.  Installing the tracer and building every workload here makes a
change that deletes or renames one of them fail the tests rather than the
benchmark.  perfbench/ is only read.
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


def test_module_names_perfbench_reads_exist():
    # BaseSweep.resume_check patches search.streak; make_reference and the
    # workloads read the discriminants and the preset registry from cli
    from qprim import cli, search

    for module, name in ((search, "streak"), (cli, "_D_A"), (cli, "_D_B"), (cli, "preset_registry")):
        assert hasattr(module, name), f"{module.__name__}.{name}"
