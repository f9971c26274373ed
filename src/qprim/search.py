"""Record-search machinery: build candidate quadratics from a non-residue-rich
number d and sweep k over k^2 * g_base with checkpointing.  base_streaks, the
one k-sweep engine (streaks.empirical_max_streak runs on it too), walks the
prime values of f once for all the live bases: it reads
streaks._residual_indices with g_base as witness, the walk that proves each
prime, and tests every live k against a group of primes in one matrix pass,
from the index of g_base and the factorization of p - 1 it yields.
config_hash, which keys the checkpoint lines, takes SHA-256 from CPython's
built-in module, so no command loads hashlib or maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .arith import primes_up_to
from .charsums import require_valid_base
from .poly import PolyZ, QuadraticPoly, is_perfect_square

# streak is unused here: perfbench's resume check patches search.streak by
# name, so the binding stays
from .streaks import _GROUP, _residual_indices, streak  # noqa: F401

CHECKPOINT_SECONDS = 30.0  # longest wait for a checkpoint line while bases complete
_EXACT_BITS = 48  # a group whose p are all below 2^48 runs on uint64 arrays
_MATRIX_ELEMENTS = 1 << 14  # plan rows x (p, q) pairs per matrix pass: bounds its memory


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
    """The checkpoint key: the first 16 hex digits of the SHA-256 of cfg's sorted JSON."""
    try:  # CPython's own, as random takes sha512: hashlib maps OpenSSL's libcrypto (3.5 MB)
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            from hashlib import sha256
    return sha256(json.dumps(asdict(cfg), sort_keys=True).encode()).hexdigest()[:16]


def candidate_poly(cfg: SearchConfig) -> QuadraticPoly:
    """Expand the configured construction to a*X^2 + b*X + c."""
    cfg.validate()
    scale = (1 << cfg.alpha) * cfg.d1 * cfg.r1
    const = cfg.sign * (1 << cfg.alpha) * cfg.d2 * cfg.r2 + 1
    return QuadraticPoly(a=scale, b=2 * scale * cfg.shift, c=scale * cfg.shift * cfg.shift + const)


def _power_plan(live: list[int]) -> tuple:
    """(ks, level ends, the rows of l and k // l per composite row, the row of
    each live k), ks being the k that the powers k^e of the live k are built
    from, l the least prime factor of k: a pow for prime k (and k = 1), the
    first level, else l^e * (k // l)^e, at the level of k's bit length."""
    small, spf, need, todo = primes_up_to(isqrt(max(live))), {}, set(), set(live)
    while todo:
        need |= todo
        spf |= {k: next((q for q in small if k % q == 0), k) for k in todo}
        todo = {m for k in todo for m in (spf[k], k // spf[k])} - need - {1}
    level = {k: spf[k] != k and k.bit_length() for k in need}
    ks = sorted(need, key=lambda k: (level[k], k))
    row = {k: i for i, k in enumerate(ks)}
    ends = [i for i in range(1, len(ks) + 1) if i == len(ks) or level[ks[i]] > level[ks[i - 1]]]
    factors = np.array([(row[spf[k]], row[k // spf[k]]) for k in ks[ends[0] :]], np.intp)
    return ks, ends, factors.reshape(-1, 2), np.array([row[k] for k in live], np.intp)


def _mulmod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod p elementwise for a < p, on Python ints or exactly on uint64 for p < 2^_EXACT_BITS:
    b is taken w = 63 - bits(max p) bits at a time, so (r << w) + a * chunk < 2^64."""
    if p.dtype == object:
        return a * b % p
    r, w = 0, 63 - int(p.max()).bit_length()
    for shift in range((int(b.max()).bit_length() - 1) // w * w, -1, -w):
        r = ((r << w) + a * ((b >> shift) & ((1 << w) - 1))) % p
    return r


def _powmod(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise: pow on Python ints, square-and-multiply by _mulmod on uint64."""
    if p.dtype == object:
        return np.frompyfunc(pow, 3, 1)(base, e, p)
    r = np.ones(np.broadcast_shapes(base.shape, e.shape), np.uint64)
    for bit in reversed(range(int(e.max()).bit_length())):
        r = _mulmod(r, r, p)
        r = np.where((e >> bit) & 1 == 1, _mulmod(r, base, p), r)
    return r


def base_streaks(
    f: PolyZ, g_base: int, k_lo: int, k_hi: int, n_cap: int
) -> Iterator[tuple[int, int, int | None]]:
    """Yield (k, count, failing_prime) for the bases k^2 * g_base, k = k_lo..k_hi,
    in ascending k, each once it and every smaller k have finished;
    failing_prime is None when the streak reached n_cap unfinished.  g_base
    must be a valid base (then so is every k^2 * g_base).  An empty range
    yields nothing and builds no stream.

    One walk of the prime stream serves every base, a group of at most _GROUP
    primes at a time, fewer once their (p, q) pairs times the plan's rows
    reach _MATRIX_ELEMENTS.  At p not dividing g_base, a live k fails if
    k^e = z at one of p's pairs (e, z); one pass computes k^e mod p for every
    plan row and pair, on uint64 if every p < 2^_EXACT_BITS (p | k: k^e = 0,
    a skip).  (k^2 g_base / p) = (g_base / p), so an even index of g_base
    gives the pair (p - 1, 1); an odd one gives e = (p-1)/q,
    z = g_base^(e(q-1)/2) per odd q | p-1, as (k^2 g_base)^e = 1 iff k^e = z,
    or else (0, 0), which fails no k.  A k's count is the primes passed
    before it failed, less those dividing it."""
    if k_lo > k_hi:
        return
    live = np.arange(k_lo, k_hi + 1)
    (ks, ends, factors, live_rows), planned = _power_plan(live.tolist()), len(live)
    passed, passed_small = 0, []  # primes so far not dividing g_base; (position, p) of those <= k_hi
    done: dict[int, tuple[int, int | None]] = {}

    def count(k: int, n: int) -> int:  # k's count at the n-th prime
        return n - sum(1 for i, p in passed_small if i < n and k % p == 0)

    walk = (item for item in _residual_indices(f, g_base, n_cap) if item[3] is not None)
    next_k, error = k_lo, None
    while len(live):
        items, starts, pairs = [], [], []
        try:
            for _, p, pm1, index in walk:
                es = [(p - 1) // q for q in pm1.prime_factors()[1:]] if index % 2 else [p - 1]
                items.append(p)
                starts.append(len(pairs))
                pairs += [(p, e, pow(g_base, (p - 1 - e) // 2, p)) for e in es] or [(p, 0, 0)]  # e(q-1) = p-1-e
                if len(items) == _GROUP or len(pairs) * len(ks) >= _MATRIX_ELEMENTS:
                    break
        except Exception as exc:  # the walk raises in prime order: re-raised if a k is live there
            error = exc
        if not items:
            break
        dtype = np.uint64 if max(items) >> _EXACT_BITS == 0 else object
        P, E, Z = (np.array(v, dtype)[None, :] for v in zip(*pairs))
        V = np.empty((len(ks), len(pairs)), dtype)
        V[: ends[0]] = _powmod(np.array(ks[: ends[0]], dtype)[:, None], E, P)
        for lo, hi in zip(ends, ends[1:]):
            ell, m = factors[lo - ends[0] : hi - ends[0]].T
            V[lo:hi] = _mulmod(V[ell], V[m], P)
        fails = np.logical_or.reduceat(V[live_rows] == Z, starts, axis=1)
        failed, first = fails.any(axis=1), fails.argmax(axis=1)
        passed_small += [(passed + j, p) for j, p in enumerate(items) if p <= k_hi]
        dead = zip(live[failed].tolist(), first[failed].tolist())  # (k, the item it failed at)
        done |= {k: (count(k, passed + j), items[j]) for k, j in dead}
        passed += len(items)
        live, live_rows = live[~failed], live_rows[~failed]
        while next_k in done:
            yield (next_k, *done.pop(next_k))
            next_k += 1
        if 0 < 2 * len(live) <= planned:  # till then, dead k in the plan cost less
            (ks, ends, factors, live_rows), planned = _power_plan(live.tolist()), len(live)
    if error is not None and len(live):
        raise error
    for k in range(next_k, k_hi + 1):
        yield (k, *done.pop(k, (count(k, passed), None)))


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
    and after k_hi.  With `resume`, an existing checkpoint for the same
    configuration is continued; without it, an existing checkpoint file is
    replaced.  An uncertified best (see BestStreak) is returned with
    certified=False.  `workers` below 1 raises ValueError before the
    checkpoint is touched; any other count runs the same serial sweep.
    """
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    require_valid_base(cfg.g_base)
    h = config_hash(cfg)
    start_k = cfg.k_lo
    best, found_at = BestStreak(), 0.0
    if checkpoint_path and resume:
        last_k, best, found_at = _read_checkpoint(checkpoint_path, h)
        if last_k >= cfg.k_lo:
            start_k = last_k + 1
    results = base_streaks(candidate_poly(cfg), cfg.g_base, start_k, cfg.k_hi, cfg.n_cap)
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
