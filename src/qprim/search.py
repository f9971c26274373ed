"""Record-search machinery: build candidate quadratics from a non-residue-rich
number d and sweep k over k^2 * g_base with checkpointing and a deterministic
parallel merge.  base_streaks, the one k-sweep engine (streaks.empirical_max_streak
runs on it too), walks the prime values of f once for all the live bases: it
reads streaks._residual_indices with g_base as witness, the walk that proves
each prime, and tests every live k at each prime from the index of g_base and
the factorization of p - 1 that the walk yields.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from math import isqrt
from typing import Iterator

from .arith import primes_up_to
from .charsums import require_valid_base
from .poly import AnyPoly, QuadraticPoly, is_perfect_square

# streak is unused here: perfbench's resume check patches search.streak by
# name, so the binding stays
from .streaks import _residual_indices, streak  # noqa: F401

CHECKPOINT_SECONDS = 30.0  # longest wait for a checkpoint line while bases complete
_CHUNKS_PER_WORKER = 4  # pooled sweeps: k-chunks per worker


class CheckpointError(RuntimeError):
    """Checkpoint file unusable; recovery instructions are in the message."""


@dataclass(frozen=True)
class SearchConfig:
    """One sweep instance: the polynomial construction
    2^alpha * d1 * r1 * (X+shift)^2 + sign * 2^alpha * (d/d1) * r2 + 1
    plus the base family k^2 * g_base over k in [k_lo, k_hi].

    d is trusted squarefree (values come from published tables); d1 | d and
    r1*r2 being a perfect square are validated.
    """

    d: int
    d1: int
    alpha: int = 0
    sign: int = 1
    shift: int = 0
    r1: int = 1
    r2: int = 1
    g_base: int = 0
    k_lo: int = 1
    k_hi: int = 1
    n_cap: int = 100_000

    @property
    def d2(self) -> int:
        return self.d // self.d1

    def validate(self) -> None:
        if self.d <= 0 or self.d1 <= 0 or self.d % self.d1 != 0:
            raise ValueError("d1 must be a positive divisor of d")
        if self.alpha < 0 or self.shift < 0:
            raise ValueError("alpha and shift must be >= 0")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.r1 <= 0 or self.r2 <= 0 or not is_perfect_square(self.r1 * self.r2):
            raise ValueError("r1*r2 must be a positive perfect square")
        if self.k_lo < 1 or self.k_hi < self.k_lo:
            raise ValueError("need 1 <= k_lo <= k_hi")
        if self.n_cap < 0:
            raise ValueError("n_cap must be >= 0")


@dataclass(frozen=True)
class SearchRecord:
    config_hash: str
    k: int
    g: int
    c: int
    failing_prime: int | None
    timestamp: float
    certified: bool


def config_hash(cfg: SearchConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def candidate_poly(cfg: SearchConfig) -> QuadraticPoly:
    """Expand the configured construction to a*X^2 + b*X + c."""
    cfg.validate()
    scale = (1 << cfg.alpha) * cfg.d1 * cfg.r1
    const = cfg.sign * (1 << cfg.alpha) * cfg.d2 * cfg.r2 + 1
    a = scale
    b = 2 * scale * cfg.shift
    c = scale * cfg.shift * cfg.shift + const
    return QuadraticPoly(a=a, b=b, c=c)


def _power_plan(live: list[int], spf: dict[int, int], small: list[int]) -> list[tuple[int, int, int]]:
    """(k, l, k // l), ascending, for each k that the powers k^e of the live k
    are built from, l being the least prime factor of k (memoized in spf, by
    trial division by `small`): k -> k^e is completely multiplicative, so k^e
    is a pow for prime k (k // l = 1) and l^e * (k // l)^e otherwise."""
    need: set[int] = set()
    todo = set(live)
    while todo:
        need |= todo
        for k in todo - spf.keys():
            spf[k] = next((q for q in small if k % q == 0), k)
        todo = {m for k in todo for m in (spf[k], k // spf[k])} - need - {1}
    return [(k, spf[k], k // spf[k]) for k in sorted(need)]


def _streaks_serial(
    f: AnyPoly, g_base: int, k_lo: int, k_hi: int, n_cap: int
) -> Iterator[tuple[int, int, int | None]]:
    """The prime-major walk.  At each prime p of the walk not dividing
    g_base, the live k with p | k skip p and the others are tested together:
    (k^2 g_base / p) = (g_base / p) decides q = 2 for all of them, so an even
    index of g_base fails every one; at an odd index, for each odd q | p-1
    with e = (p-1)/q, (k^2 g_base)^e = 1 iff k^e = z with
    z = g_base^(e(q-1)/2), the one element of the q-th roots of unity with
    z^2 g_base^e = 1.  A k's count is the primes passed before it failed,
    less those dividing it."""
    if k_lo > k_hi:
        return
    small, spf = primes_up_to(isqrt(k_hi)), {}
    live = list(range(k_lo, k_hi + 1))
    plan, planned = _power_plan(live, spf, small), len(live)
    power = {1: 1}  # k^e mod p for the k in plan, per (p, q)
    passed, passed_small = 0, []  # primes so far not dividing g_base; those <= k_hi
    done: dict[int, tuple[int, int | None]] = {}

    def count(k: int) -> int:
        return passed - sum(1 for p in passed_small if k % p == 0)

    next_k = k_lo
    for _, p, pm1, index in _residual_indices(f, g_base, n_cap):
        if index is None:
            continue
        tested = live if p > k_hi else [k for k in live if k % p]
        failed = [] if index % 2 else tested  # an even index: g_base is a square mod p
        for q in pm1.prime_factors()[1:] if index % 2 else ():
            e = (p - 1) // q
            z = pow(g_base, e * (q - 1) // 2, p)
            for k, ell, m in plan:
                power[k] = pow(k, e, p) if m == 1 else power[ell] * power[m] % p
            failed += [k for k in tested if power[k] == z]
        if failed:
            done |= {k: (count(k), p) for k in failed}
            live = [k for k in live if k not in done]
            if 2 * len(live) <= planned:  # till then, dead k in the plan cost less
                plan, planned = _power_plan(live, spf, small), len(live)
            while next_k in done:
                yield (next_k, *done.pop(next_k))
                next_k += 1
            if not live:
                return
        passed += 1
        if p <= k_hi:
            passed_small.append(p)
    for k in range(next_k, k_hi + 1):
        yield (k, *done.pop(k, (count(k), None)))


def _streaks_chunk(args: tuple) -> list[tuple[int, int, int | None]]:
    return list(_streaks_serial(*args))


def base_streaks(
    f: AnyPoly, g_base: int, k_lo: int, k_hi: int, n_cap: int, workers: int = 1
) -> Iterator[tuple[int, int, int | None]]:
    """Yield (k, count, failing_prime) for the bases k^2 * g_base, k = k_lo..k_hi,
    in ascending k whatever the worker count; failing_prime is None when the
    streak reached n_cap unfinished.  g_base must be a valid base (then so is
    every k^2 * g_base).  One walk of the prime stream, in prime order, serves
    every base (pooled: each chunk of contiguous k walks it apart, and each
    worker gets _CHUNKS_PER_WORKER of them in k order, so results keep
    arriving while later chunks run); a k is yielded once it and every
    smaller k have finished.  An empty range yields nothing and builds no
    stream."""
    if workers <= 1 or k_hi - k_lo < 8:
        yield from _streaks_serial(f, g_base, k_lo, k_hi, n_cap)
        return
    chunk = -(-(k_hi - k_lo + 1) // (_CHUNKS_PER_WORKER * workers))
    jobs = [
        (f, g_base, lo, min(lo + chunk - 1, k_hi), n_cap)
        for lo in range(k_lo, k_hi + 1, chunk)
    ]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_streaks_chunk, jobs):
            yield from part


@dataclass
class BestStreak:
    """Fold over base_streaks output in ascending k: the longest streak (ties
    to the smallest k) and the longest unfinished one (None: unknown).

    The best is certified when every unfinished streak is shorter, itself
    included, so it ended in a failing prime; otherwise a larger n_cap could
    change it."""

    k: int = 0
    c: int = -1
    failing_prime: int | None = None
    max_unfinished: int | None = -1

    def add(self, k: int, c: int, failing_prime: int | None) -> bool:
        """Fold in one result; True when it becomes the new best."""
        if failing_prime is None and self.max_unfinished is not None:
            self.max_unfinished = max(self.max_unfinished, c)
        if c <= self.c:
            return False
        self.k, self.c, self.failing_prime = k, c, failing_prime
        return True

    @property
    def certified(self) -> bool:
        return self.max_unfinished is not None and self.max_unfinished < self.c


def _read_checkpoint(path: str, expected_hash: str) -> tuple[int, BestStreak, float]:
    """Last completed k, the fold state and its timestamp from a checkpoint
    file.  A final line without its newline is a write cut short by a crash:
    if it does not parse it counts as not written and is cut off the file."""
    best, found_at = BestStreak(), 0.0
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0, best, found_at
    lines = data.split(b"\n")  # the last piece lacks a newline: b"" unless torn
    last_k = 0
    for idx, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            k = int(rec["k"])
            best_k = int(rec["best_k"])
            best_c = int(rec["best_c"])
            h = rec["config_hash"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if idx < len(lines):
                raise CheckpointError(
                    f"{path}:{idx}: unreadable checkpoint line ({exc}); "
                    f"recover by truncating the file to the last valid line"
                ) from None
            with open(path, "r+b") as fh:
                fh.truncate(len(data) - len(line))
            break
        if h != expected_hash:
            raise CheckpointError(
                f"{path}:{idx}: checkpoint belongs to a different configuration "
                f"({h} != {expected_hash}); use a fresh checkpoint path"
            )
        if idx == len(lines):  # a complete record that lost its newline
            with open(path, "ab") as fh:
                fh.write(b"\n")
        last_k = k
        # lines written before max_unfinished existed leave it unknown
        best = BestStreak(
            best_k, best_c, rec.get("best_failing_prime"), rec.get("max_unfinished")
        )
        found_at = rec.get("timestamp", 0.0)
    return last_k, best, found_at


def sweep(
    cfg: SearchConfig,
    checkpoint_path: str | None = None,
    workers: int = 1,
    checkpoint_every: int = 16,
    resume: bool = True,
) -> SearchRecord:
    """Run the k-sweep, maintaining the best record (max streak, ties to the
    smallest k), appending a checkpoint line every `checkpoint_every`
    completed k values or every CHECKPOINT_SECONDS, whichever comes first,
    and after k_hi.  Any worker count produces the identical record.  With
    `resume`, an existing checkpoint for the same configuration is continued;
    without it, an existing checkpoint file is replaced.
    An uncertified best (see BestStreak) is returned with certified=False.
    """
    cfg.validate()
    require_valid_base(cfg.g_base)
    h = config_hash(cfg)
    start_k = cfg.k_lo
    best, found_at = BestStreak(), 0.0
    if checkpoint_path and resume:
        last_k, best, found_at = _read_checkpoint(checkpoint_path, h)
        if last_k >= cfg.k_lo:
            start_k = last_k + 1
    results = base_streaks(
        candidate_poly(cfg), cfg.g_base, start_k, cfg.k_hi, cfg.n_cap, workers
    )
    # a fresh sweep replaces the file: its lines alone must make it resumable
    mode = "a" if resume else "w"
    fh = open(checkpoint_path, mode, encoding="utf-8") if checkpoint_path else None
    since_write, last_write = 0, time.monotonic()
    try:
        for k, c, failing in results:
            if best.add(k, c, failing):
                found_at = time.time()
            since_write += 1
            if fh and (
                since_write >= checkpoint_every
                or k == cfg.k_hi
                or time.monotonic() - last_write >= CHECKPOINT_SECONDS
            ):
                line = {
                    "k": k,
                    "c": c,
                    "best_k": best.k,
                    "best_c": best.c,
                    "best_g": best.k * best.k * cfg.g_base,
                    "best_failing_prime": best.failing_prime,
                    "max_unfinished": best.max_unfinished,
                    "config_hash": h,
                    "timestamp": time.time(),
                }
                fh.write(json.dumps(line) + "\n")
                fh.flush()
                since_write, last_write = 0, time.monotonic()
    finally:
        if fh:
            fh.close()
    return SearchRecord(
        config_hash=h,
        k=best.k,
        g=best.k * best.k * cfg.g_base,
        c=best.c,
        failing_prime=best.failing_prime,
        timestamp=found_at,
        certified=best.certified,
    )
