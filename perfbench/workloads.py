"""The benchmark's workloads: inputs, the timed calls into qprim's
public functions, and the checks of every answer.

Each workload object is built once per repetition (that is set-up) and then
runs its calls in one or two phases: `pooled`, in traced runs only, spreads
them over worker processes, and `serial` runs them one after another in this
process, timing each call into `call_s`.  Both return answers in the same
form, which `check` compares with the answers the parent commit gave
(reference.json).  `oracle` cross-checks a seeded sample of results
with sympy, outside the timed phases; its checks are tallied apart from the
answers.

Calls go through module attributes (`streaks.streak`, not a name imported
from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import combinations, islice
from math import isqrt, prod
from multiprocessing import get_context
from pathlib import Path

from qprim import charsums, cli, densities, search, streaks
from qprim.search import SearchConfig, candidate_poly

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# admissible_discriminants factors 24*a*|disc| in full; above the Miller-Rabin
# range that raises.  This known defect is counted as a failed answer, not as
# a wrong one.
KNOWN_DEFECT = "exceeds the deterministic primality range"

# Workers start by fork from a process that has only done set-up, so, like
# the serial phase, they pay qprim's lazy tables themselves.  The benchmark
# process starts no thread before forking.
_FORK = get_context("fork")


def _pool_map(fn, jobs, workers: int) -> list:
    with ProcessPoolExecutor(max_workers=workers, mp_context=_FORK) as pool:
        return list(pool.map(fn, jobs))


def _timed(call_s: list[float], fn, *args):
    """fn(*args), its duration in seconds appended to call_s."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        call_s.append(time.perf_counter() - t0)


class Outcome:
    """Tally of answers checked: attempted, failed (raised or wrong) and the
    wrong ones by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.mismatches: list[str] = []

    def expect(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.mismatches.append(f"{label}: got {got!r}, want {want!r}")

    def known_defect(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.known_defects += 1


# ---------------------------------------------------------------------------
# record_verify: cold prime-value streams, every p-1 factored once
# ---------------------------------------------------------------------------


def _streak_answer(job) -> tuple[int, int | None, int, int]:
    _, poly, g, n_cap = job
    res = streaks.streak(poly, g, n_cap, stream=streaks.PrimeValueStream(poly))
    return res.count, res.failing_prime, res.n_scanned, res.primes_seen


class RecordVerify:
    name = "record_verify"

    def __init__(self, seed: int, out_dir: Path) -> None:
        ref = reference()[self.name]
        registry = cli.preset_registry()
        self.seed = seed
        self.jobs = [
            (name, registry[name].poly, registry[name].g, spec["n_cap"])
            for name, spec in ref["streaks"].items()
        ]
        self.streams: dict[str, streaks.PrimeValueStream] = {}
        self.call_s: list[float] = []

    def pooled(self, workers: int) -> list:
        return _pool_map(_streak_answer, self.jobs, workers)

    def serial(self) -> list:
        out = []
        for name, poly, g, n_cap in self.jobs:
            stream = self.streams[name] = _timed(self.call_s, streaks.PrimeValueStream, poly)
            res = _timed(self.call_s, streaks.streak, poly, g, n_cap, stream)
            out.append((res.count, res.failing_prime, res.n_scanned, res.primes_seen))
        return out

    def check(self, answers: list, outcome: Outcome, phase: str) -> None:
        ref = reference()[self.name]["streaks"]
        for (name, *_), (count, failing, _, _) in zip(self.jobs, answers):
            want = ref[name]
            outcome.expect(f"{phase} {name}", (count, failing), (want["count"], want["failing_prime"]))

    def work(self, answers: list) -> dict:
        return {"primes_certified": sum(a[0] for a in answers)}

    def oracle(self, answers: list, outcome: Outcome) -> None:
        rng = random.Random(self.seed)
        sample = []
        for (name, _, g, n_cap), (count, failing, _, _) in zip(self.jobs, answers):
            prefix = []
            for _, p in self.streams[name].entries_upto(n_cap):
                if p == failing:
                    break
                if g % p:
                    prefix.append(p)
            sample += [(name, g, p, True) for p in rng.sample(prefix, min(3, len(prefix)))]
            if failing is not None:
                sample.append((name, g, failing, False))
        _primitive_root_oracle(sample, outcome)


def _primitive_root_oracle(sample, outcome: Outcome) -> None:
    """Each (label, g, p, verdict): sympy must find p prime and agree with
    the verdict that g is (or is not) a primitive root mod p."""
    import sympy

    for label, g, p, verdict in sample:
        outcome.expect(f"oracle isprime {label} {p}", bool(sympy.isprime(p)), True)
        outcome.expect(
            f"oracle primitive root {label} g={g} p={p}",
            sympy.n_order(g % p, p) == p - 1,
            verdict,
        )


# ---------------------------------------------------------------------------
# base_sweep: thousands of bases re-reading one warm stream
# ---------------------------------------------------------------------------


class _Recomputed(RuntimeError):
    pass


def _no_recompute(*args, **kwargs):
    raise _Recomputed("a resumed sweep recomputed a streak")


class BaseSweep:
    name = "base_sweep"

    def __init__(self, seed: int, out_dir: Path) -> None:
        ref = reference()[self.name]
        self.seed = seed
        self.cfg = SearchConfig(**ref["config"])
        self.poly = candidate_poly(self.cfg)
        self.checkpoint = out_dir / f"sweep-{os.getpid()}.jsonl"
        self.checkpoint.unlink(missing_ok=True)
        self.checkpoint_stats = {"search.checkpoint.lines": 0, "search.checkpoint.bytes": 0}
        self.call_s: list[float] = []

    def pooled(self, workers: int) -> list:
        cfg = self.cfg
        t0 = time.perf_counter_ns()
        k, c = streaks.empirical_max_streak(cfg.g_base, self.poly, cfg.k_hi, cfg.n_cap, workers=workers)
        # traced as one span: the work in the pool's children is not traced
        self.empirical_max_streak_span = (t0, time.perf_counter_ns())
        return [(k, c)]

    def serial(self) -> list:
        best = _timed(self.call_s, search.sweep, self.cfg, str(self.checkpoint), 1)
        return [(best.k, best.c, best.failing_prime)]

    def check(self, answers: list, outcome: Outcome, phase: str) -> None:
        ref = reference()[self.name]
        want = (ref["best_k"], ref["best_c"], ref["best_failing_prime"])
        outcome.expect(f"{phase} best (k, c)", tuple(answers[0]), want[: len(answers[0])])

    def work(self, answers: list) -> dict:
        return {"bases_swept": self.cfg.k_hi - self.cfg.k_lo + 1}

    def resume_check(self, answers: list, outcome: Outcome) -> None:
        """Sweep again on the finished checkpoint: the best record must come
        back unchanged and no streak may be recomputed."""
        data = self.checkpoint.read_bytes()
        self.checkpoint_stats = {
            "search.checkpoint.lines": data.count(b"\n"),
            "search.checkpoint.bytes": len(data),
        }
        saved = search.streak
        search.streak = _no_recompute
        try:
            best = search.sweep(self.cfg, checkpoint_path=str(self.checkpoint), workers=1)
            got = (best.k, best.c, best.failing_prime)
        except _Recomputed as exc:
            got = str(exc)
        finally:
            search.streak = saved
            self.checkpoint.unlink(missing_ok=True)
        outcome.expect("resumed sweep", got, tuple(answers[0]))

    def oracle(self, answers: list, outcome: Outcome) -> None:
        k, c, failing = answers[0]
        g = k * k * self.cfg.g_base
        stream = streaks.PrimeValueStream(self.poly)
        res = streaks.streak(self.poly, g, self.cfg.n_cap, stream=stream)
        prefix = [p for _, p in stream.entries_upto(res.n_at_failure - 1) if g % p]
        rng = random.Random(self.seed)
        sample = [("best", g, p, True) for p in rng.sample(prefix, min(12, len(prefix)))]
        sample.append(("best", g, failing, False))
        _primitive_root_oracle(sample, outcome)


# ---------------------------------------------------------------------------
# prime_count: value sieve and Miller-Rabin, no factoring
# ---------------------------------------------------------------------------


def _prime_count_answer(job) -> int:
    _, poly, x = job
    return streaks.prime_count(poly, x)


class PrimeCount:
    name = "prime_count"

    def __init__(self, seed: int, out_dir: Path) -> None:
        ref = reference()[self.name]
        registry = cli.preset_registry()
        self.seed = seed
        self.jobs = [(name, registry[name].poly, ref["x"]) for name in ref["counts"]]
        self.call_s: list[float] = []

    def pooled(self, workers: int) -> list:
        return _pool_map(_prime_count_answer, self.jobs, workers)

    def serial(self) -> list:
        return [_timed(self.call_s, streaks.prime_count, poly, x) for _, poly, x in self.jobs]

    def check(self, answers: list, outcome: Outcome, phase: str) -> None:
        ref = reference()[self.name]["counts"]
        for (name, _, x), count in zip(self.jobs, answers):
            outcome.expect(f"{phase} pi({name}, {x})", count, ref[name])

    def work(self, answers: list) -> dict:
        n = sum(x + 1 for _, _, x in self.jobs)
        return {"n_classified": n, "streaks.n_scanned": n, "streaks.primes": sum(answers)}

    def oracle(self, answers: list, outcome: Outcome) -> None:
        """qprim's is_prime against sympy's on a seeded sample of values."""
        import sympy

        from qprim import arith

        rng = random.Random(self.seed)
        for name, poly, x in self.jobs:
            for n in rng.sample(range(x + 1), 100):
                v = poly.eval(n)
                outcome.expect(f"oracle isprime {name}({n})", arith.is_prime(v), bool(sympy.isprime(v)))


# ---------------------------------------------------------------------------
# candidate_rank: Euler products and character sums over seeded candidates
# ---------------------------------------------------------------------------


def proper_divisors(primes: list[int]) -> list[int]:
    return sorted(
        prod(c) for r in range(len(primes)) for c in combinations(primes, r)
    )


def draw_candidates(seed: int, count: int) -> list[SearchConfig]:
    """Seeded search-family configurations: d from the two published
    non-residue-rich numbers, d1 a proper divisor of d, alpha 0..6, sign
    +-1, shift <= 2e6."""
    rng = random.Random(seed)
    ref = reference()["candidate_rank"]
    ds = [cli._D_A, cli._D_B]
    divisors = {d: proper_divisors(ref["d_primes"][str(d)]) for d in ds}
    out = []
    for _ in range(count):
        d = rng.choice(ds)
        out.append(
            SearchConfig(
                d=d,
                d1=rng.choice(divisors[d]),
                alpha=rng.randint(0, 6),
                sign=rng.choice((1, -1)),
                shift=rng.randint(0, 2_000_000),
            )
        )
    return out


def combo_key(cfg: SearchConfig) -> str:
    # Neither discriminant of f or f-1 depends on the shift, so the density
    # and the admissible list are functions of (d, d1, alpha, sign).
    return f"{cfg.d}:{cfg.d1}:{cfg.alpha}:{cfg.sign}"


def rank_candidate(poly, bound: int) -> tuple[float, float, list[int] | None]:
    """(density, its tail bound, admissible discriminants up to `bound` or
    None when the known defect raised)."""
    report = densities.pr_density(poly)
    try:
        admissible = [fd.D for fd in charsums.admissible_discriminants(poly, bound)]
    except ValueError as exc:
        if KNOWN_DEFECT not in str(exc):
            raise
        admissible = None
    return report.value, report.tail_bound, admissible


def _hl_answer(D: int) -> tuple[float, float]:
    report = densities.hardy_littlewood_constant(D)
    return report.value, report.tail_bound


def _rank_job(job):
    kind, arg = job
    return rank_candidate(arg, reference()["candidate_rank"]["bound"]) if kind == "candidate" else _hl_answer(arg)


class CandidateRank:
    name = "candidate_rank"

    def __init__(self, seed: int, out_dir: Path) -> None:
        ref = reference()[self.name]
        self.seed = seed
        self.configs = draw_candidates(seed, ref["count"])
        self.polys = [candidate_poly(cfg) for cfg in self.configs]
        self.hl_discs = [int(D) for D in ref["hl"]]
        self.call_s: list[float] = []

    def jobs(self) -> list:
        return [("hl", D) for D in self.hl_discs] + [("candidate", f) for f in self.polys]

    def pooled(self, workers: int) -> list:
        return _pool_map(_rank_job, self.jobs(), workers)

    def serial(self) -> list:
        return [_timed(self.call_s, _rank_job, job) for job in self.jobs()]

    def check(self, answers: list, outcome: Outcome, phase: str) -> None:
        ref = reference()[self.name]
        hl = answers[: len(self.hl_discs)]
        for D, (value, tail) in zip(self.hl_discs, hl):
            want = ref["hl"][str(D)]
            outcome.expect(f"{phase} C({D}) within tail bound", abs(value - want) <= tail, True)
        for cfg, (value, tail, admissible) in zip(self.configs, answers[len(self.hl_discs):]):
            key = combo_key(cfg)
            want = ref["combos"][key]
            outcome.expect(f"{phase} density {key} within tail bound", abs(value - want["density"]) <= tail, True)
            if admissible is None:
                outcome.known_defect()
            elif want["admissible"] is None:
                # answered where the parent commit raised: judged by the oracle
                outcome.attempted += 1
            else:
                outcome.expect(f"{phase} admissible {key}", admissible, want["admissible"])

    def work(self, answers: list) -> dict:
        return {"candidates_ranked": len(self.configs)}

    def oracle(self, answers: list, outcome: Outcome) -> None:
        """Every listed discriminant D must make each sampled prime value
        f(n) inert in Q(sqrt(D)): the Legendre symbol (D/p) is -1."""
        import sympy

        rng = random.Random(self.seed)
        for cfg, poly, (_, _, admissible) in zip(self.configs, self.polys, answers[len(self.hl_discs):]):
            if not admissible:
                continue
            # f(n) >= a*n^2 + c, so values are positive from n_pos on
            n_pos = isqrt(abs(poly.c) // poly.a) + 2
            start = n_pos + rng.randrange(10_000)
            values = map(poly.eval, range(start, start + 2_000))
            primes = list(islice(filter(sympy.isprime, values), 3))
            for D in admissible:
                for p in primes:
                    if D % p:
                        outcome.expect(f"oracle inert {combo_key(cfg)} D={D} p={p}", sympy.legendre_symbol(D % p, p), -1)


# ---------------------------------------------------------------------------
# paper_instances: the three fixed-instance workloads above in one repetition
# ---------------------------------------------------------------------------


class PaperInstances:
    """record_verify, prime_count and base_sweep one after another, in each
    phase.  The benchmark's runs use this in place of the three: on a shared
    2-vCPU host their times drift with other tenants' load for minutes at a
    time, and one workload in longer runs rides that out better than three
    in short ones.  The three stay runnable on their own, to read each one's
    per-layer metrics apart."""

    name = "paper_instances"

    def __init__(self, seed: int, out_dir: Path) -> None:
        # record_verify first: like a CLI run, it pays qprim's lazy tables
        self.parts = (RecordVerify(seed, out_dir), PrimeCount(seed, out_dir), BaseSweep(seed, out_dir))

    @property
    def call_s(self) -> list[float]:
        return [t for part in self.parts for t in part.call_s]

    @property
    def checkpoint_stats(self) -> dict:
        return self.parts[-1].checkpoint_stats

    @property
    def empirical_max_streak_span(self) -> tuple[int, int] | None:
        return getattr(self.parts[-1], "empirical_max_streak_span", None)

    def pooled(self, workers: int) -> list:
        return [part.pooled(workers) for part in self.parts]

    def serial(self) -> list:
        return [part.serial() for part in self.parts]

    def check(self, answers: list, outcome: Outcome, phase: str) -> None:
        for part, part_answers in zip(self.parts, answers):
            part.check(part_answers, outcome, f"{phase} {part.name}")

    def resume_check(self, answers: list, outcome: Outcome) -> None:
        self.parts[-1].resume_check(answers[-1], outcome)

    def work(self, answers: list) -> dict:
        out = {}
        for part, part_answers in zip(self.parts, answers):
            out.update(part.work(part_answers))
        return out

    def oracle(self, answers: list, outcome: Outcome) -> None:
        for part, part_answers in zip(self.parts, answers):
            part.oracle(part_answers, outcome)


WORKLOADS = {w.name: w for w in (PaperInstances, RecordVerify, BaseSweep, PrimeCount, CandidateRank)}
