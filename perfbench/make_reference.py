"""Write perfbench/reference.json: the workload instances and the answers
qprim gives for them.

Run from the repository root at the commit whose answers become the
reference (about two minutes on one core):

    python3 perfbench/make_reference.py

Every candidate_rank answer depends only on (d, d1, alpha, sign), so all
such combinations are pinned and any seed's batch can be checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qprim import arith, cli, densities, search, streaks  # noqa: E402
from qprim.search import SearchConfig, candidate_poly  # noqa: E402
from workloads import REFERENCE_PATH, combo_key, proper_divisors, rank_candidate  # noqa: E402

# Longest first, so that a two-process pool finishes them evenly.
RECORD_PRESETS = ("example2", "example2-g24", "example1", "example3", "example3-f1", "example3-f2")
RECORD_N_CAP = 4095
PRIME_COUNT_X = 60_000
SWEEP = dict(d=163, d1=163, alpha=1, g_base=326, k_lo=1, k_hi=1000, n_cap=20_000)
CANDIDATES = 3
ADMISSIBLE_BOUND = 2000
HL_DISCS = (-111763, -163)


def record_verify() -> dict:
    registry = cli.preset_registry()
    out = {}
    for name in RECORD_PRESETS + ("lehmer", "griffin"):
        p = registry[name]
        n_cap = p.n_cap if name in ("lehmer", "griffin") else RECORD_N_CAP
        res = streaks.streak(p.poly, p.g, n_cap)
        out[name] = {"n_cap": n_cap, "count": res.count, "failing_prime": res.failing_prime}
    return {"streaks": out}


def base_sweep() -> dict:
    cfg = SearchConfig(**SWEEP)
    best = search.sweep(cfg, workers=1)
    k, c = streaks.empirical_max_streak(cfg.g_base, candidate_poly(cfg), cfg.k_hi, cfg.n_cap)
    assert (k, c) == (best.k, best.c), (k, c, best)
    return {"config": SWEEP, "best_k": best.k, "best_c": best.c, "best_failing_prime": best.failing_prime}


def prime_count() -> dict:
    registry = cli.preset_registry()
    counts = {name: streaks.prime_count(registry[name].poly, PRIME_COUNT_X) for name in ("euler41", "beeger27941")}
    return {"x": PRIME_COUNT_X, "counts": counts}


def candidate_rank() -> dict:
    d_primes = {}
    combos = {}
    for d in (cli._D_A, cli._D_B):
        primes = list(arith.factor(d).prime_factors())
        d_primes[str(d)] = primes
        for d1 in proper_divisors(primes):
            for alpha in range(7):
                for sign in (1, -1):
                    cfg = SearchConfig(d=d, d1=d1, alpha=alpha, sign=sign)
                    density, _, admissible = rank_candidate(candidate_poly(cfg), ADMISSIBLE_BOUND)
                    combos[combo_key(cfg)] = {"density": density, "admissible": admissible}
    hl = {str(D): densities.hardy_littlewood_constant(D).value for D in HL_DISCS}
    return {
        "count": CANDIDATES,
        "bound": ADMISSIBLE_BOUND,
        "d_primes": d_primes,
        "hl": hl,
        "combos": combos,
    }


def main() -> None:
    reference = {
        "record_verify": record_verify(),
        "base_sweep": base_sweep(),
        "prime_count": prime_count(),
        "candidate_rank": candidate_rank(),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
