"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N [--pooled] [--traced]
                             [--oracle] [--launched T]

Set-up (importing qprim and building the inputs) is timed from `--launched`,
the parent's time.monotonic() just before it started this process, so that
interpreter start-up counts too.  With --pooled the pooled phase runs first,
forked from the set-up state; then the serial phase, under the tracer with
--traced.
Answers are checked after both; --oracle adds the sympy cross-checks.
Prints one JSON object as its last line.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def install(tracer, on_streak) -> None:
    from qprim import arith, charsums, densities, poly, search, streaks

    for fn in ("factor", "is_prime", "is_primitive_root", "multiplicative_order"):
        tracer.wrap(arith, fn, f"arith.{fn}")
    tracer.wrap(arith, "kronecker", "arith.kronecker", how="count")
    tracer.wrap(poly.PolyZ, "eval", "poly.eval", how="count")
    tracer.wrap(streaks.PrimeValueStream, "entries_upto", "streaks.entries", how="generator")
    tracer.wrap(streaks.PrimeValueStream, "pm1_factorization", "streaks.pm1")
    tracer.wrap(streaks, "streak", "streaks.streak", on_result=on_streak)
    tracer.wrap(streaks, "prime_count", "streaks.prime_count")
    tracer.wrap(search, "sweep", "search.sweep")
    for fn in ("pr_density", "dirichlet_l", "hardy_littlewood_constant"):
        tracer.wrap(densities, fn, f"densities.{fn}")
    tracer.wrap(densities, "residue_counts_mod_prime", "densities.residue_counts", how="count")
    tracer.wrap(charsums, "admissible_discriminants", "charsums.admissible_discriminants")


def layer_metrics(tracer, scanned: dict, extra: dict) -> dict:
    """The per-layer metrics of one traced serial phase.  `.s` is self
    (busy) time: a span's duration minus its child spans."""
    spans = tracer.summary()

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in (
        "arith.factor",
        "arith.is_prime",
        "arith.is_primitive_root",
        "arith.multiplicative_order",
        "streaks.streak",
        "densities.pr_density",
        "densities.dirichlet_l",
        "charsums.admissible_discriminants",
    ):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "self_s")
    for name in ("streaks.prime_count", "streaks.empirical_max_streak", "search.sweep", "densities.hardy_littlewood_constant"):
        m[f"{name}.s"] = get(name, "self_s")
    m["arith.factor.failed"] = get("arith.factor", "raised")
    m["charsums.admissible_discriminants.failed"] = get("charsums.admissible_discriminants", "raised")
    m["arith.is_prime.true_frac"] = frac(get("arith.is_prime", "true"), get("arith.is_prime", "calls"))
    for name in ("arith.kronecker", "poly.eval", "densities.residue_counts"):
        m[f"{name}.calls"] = tracer.count(name)
    m["streaks.entries.self_s"] = get("streaks.entries", "self_s")
    n_scanned = scanned["n"] + extra.get("streaks.n_scanned", 0)
    m["streaks.n_scanned"] = n_scanned
    m["streaks.primes"] = scanned["primes"] + extra.get("streaks.primes", 0)
    m["streaks.sieve_pass_frac"] = frac(m["poly.eval.calls"], n_scanned)
    pm1_calls = get("streaks.pm1", "calls")
    pm1_misses = spans.get("arith.factor", {}).get("parents", {}).get("streaks.pm1", 0)
    m["streaks.pm1.calls"] = pm1_calls
    m["streaks.pm1.hit_frac"] = frac(pm1_calls - pm1_misses, pm1_calls)
    m["search.bases"] = spans.get("streaks.streak", {}).get("parents", {}).get("search.sweep", 0)
    m["search.checkpoint.lines"] = extra.get("search.checkpoint.lines", 0)
    m["search.checkpoint.bytes"] = extra.get("search.checkpoint.bytes", 0)
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pooled", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--launched", type=float, default=T_START)
    args = ap.parse_args()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = time.monotonic() - args.launched

    workers = min(2, os.cpu_count() or 1)
    pooled = pooled_s = None
    if args.pooled:
        t0 = time.perf_counter_ns()
        pooled = wl.pooled(workers)
        pooled_s = (time.perf_counter_ns() - t0) / 1e9

    tracer = Tracer()
    scanned = {"n": 0, "primes": 0}
    if args.traced:
        span = getattr(wl, "empirical_max_streak_span", None)
        if span is not None:
            tracer.record("streaks.empirical_max_streak", *span)

        def on_streak(res) -> None:
            scanned["n"] += res.n_scanned
            scanned["primes"] += res.primes_seen

        install(tracer, on_streak)
    t2 = time.perf_counter_ns()
    try:
        serial = wl.serial()
    finally:
        t3 = time.perf_counter_ns()
        tracer.uninstall()
    rss = peak_rss_mb()

    outcome = workloads.Outcome()
    if args.pooled:
        wl.check(pooled, outcome, "pooled")
    wl.check(serial, outcome, "serial")
    if hasattr(wl, "resume_check"):
        wl.resume_check(serial, outcome)
    oracle = workloads.Outcome()
    if args.oracle:
        wl.oracle(serial, oracle)

    result = {
        "setup_s": setup_s,
        "wall_s": (t3 - t2) / 1e9,
        "wall_s_2w": pooled_s,
        "call_s": wl.call_s,
        "peak_rss_mb": rss,
        "workers": workers,
        "traced": args.traced,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "known_defects": outcome.known_defects,
        "mismatches": outcome.mismatches + oracle.mismatches,
        "work": wl.work(serial),
        "oracle_checks": oracle.attempted,
        "layers": None,
    }
    if args.traced:
        extra = dict(result["work"])
        extra.update(getattr(wl, "checkpoint_stats", {}))
        result["layers"] = layer_metrics(tracer, scanned, extra)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
