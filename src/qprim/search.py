"""Record-search machinery: build candidate quadratics from a non-residue-rich
number d and sweep k over k^2 * g_base with checkpointing, on
streaks.base_streaks, the one k-sweep engine.  A checkpoint line goes out
every CHECKPOINT_EVERY (16) completed k or CHECKPOINT_SECONDS (30 s), and
after the last k.  A checkpoint has one writer: sweep holds an exclusive flock
on it from before it reads the file to the end.
config_hash, which keys the checkpoint lines, takes SHA-256 from CPython's
built-in module, so no command loads hashlib or maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from .charsums import require_valid_base
from .poly import QuadraticPoly, is_perfect_square

# streak is unused here: perfbench's resume check patches search.streak by
# name, so the binding stays
from .streaks import BestStreak, _check_k_range, base_streaks, streak  # noqa: F401

try:
    import fcntl
except ImportError:  # not POSIX: two runs on one checkpoint go undetected
    fcntl = None

CHECKPOINT_EVERY = 16  # completed k values between checkpoint lines
CHECKPOINT_SECONDS = 30.0  # longest wait for a checkpoint line while bases complete


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
        if self.alpha > 81:  # 2^alpha divides the leading coefficient, and 2^82 > 3.3e24
            raise ValueError(f"alpha must be at most 81 (--alpha): 2^82 is past the primality range, got {self.alpha}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.r1 <= 0 or self.r2 <= 0 or not is_perfect_square(self.r1 * self.r2):
            raise ValueError("r1*r2 must be a positive perfect square")
        if self.k_hi < self.k_lo:
            raise ValueError("need k_lo <= k_hi")
        _check_k_range(self.k_lo, self.k_hi)  # base_streaks' bounds (k_lo >= 1 too), before sweep opens its checkpoint
        if self.n_cap < 0:
            raise ValueError("n_cap must be >= 0")


@dataclass(frozen=True)
class SearchRecord:
    config_hash: str
    k: int
    g: int
    c: int
    failing_prime: int | None
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


def _read_checkpoint(path: str, expected_hash: str) -> tuple[int, BestStreak]:
    """Last completed k and the fold state from a checkpoint file.  A final
    line without its newline is a write cut short by a crash: if it does not
    parse it counts as not written and is cut off the file."""
    best = BestStreak()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0, best
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
    return last_k, best


def sweep(cfg: SearchConfig, checkpoint_path: str | None = None, workers: int = 1, resume: bool = True) -> SearchRecord:
    """Run the k-sweep, maintaining the best record (max streak, ties to the
    smallest k), appending a checkpoint line every CHECKPOINT_EVERY
    completed k values or every CHECKPOINT_SECONDS, whichever comes first,
    and after k_hi.  With `resume`, an existing checkpoint for the same
    configuration is continued; without it, an existing checkpoint file is
    replaced.  A checkpoint another run holds raises CheckpointError and is
    left as it was.  An uncertified best (see BestStreak) is returned with
    certified=False.  `workers` below 1 raises ValueError before the
    checkpoint is touched; any other count runs the same serial sweep.
    """
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    require_valid_base(cfg.g_base)
    h = config_hash(cfg)
    best, last_k = BestStreak(), 0
    # opened without truncating: the file is read or cut only under the lock
    fh = open(checkpoint_path, "a", encoding="utf-8") if checkpoint_path else None
    try:
        if fh and fcntl:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise CheckpointError(f"{checkpoint_path}: checkpoint in use by another run") from None
        if fh and resume:
            last_k, best = _read_checkpoint(checkpoint_path, h)
        elif fh:
            fh.truncate(0)  # a fresh sweep replaces the file: its lines alone must make it resumable
        start_k, since_write, last_write = max(cfg.k_lo, last_k + 1), 0, time.monotonic()
        for k, c, failing in base_streaks(candidate_poly(cfg), cfg.g_base, start_k, cfg.k_hi, cfg.n_cap):
            best.add(k, c, failing)
            since_write += 1
            if fh and (
                since_write >= CHECKPOINT_EVERY
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
        certified=best.certified,
    )
