"""Tests for candidate construction, admissible bases, and the k-sweep."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
import sympy

from qprim.arith import _QUOTIENT_PRIME_BOUND, DETERMINISTIC_PRIMALITY_LIMIT, Lanes, squarefree_decomposition
from qprim.charsums import admissible_discriminants, is_valid_base
from qprim.poly import QuadraticPoly
from qprim.search import (
    CheckpointError,
    SearchConfig,
    candidate_poly,
    config_hash,
    sweep,
)
from qprim.streaks import streak

D_A = 4472988326827347533
D_B = 9828323860172600203

LEHMER_CFG = SearchConfig(
    d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=1, n_cap=4000
)


def test_candidate_poly_example1_digits():
    cfg = SearchConfig(d=D_A, d1=252017, alpha=2, sign=-1, shift=8393)
    f = candidate_poly(cfg)
    assert (f.a, f.b, f.c) == (1008068, 16921429448, 15753313937)


def test_candidate_poly_example3_digits():
    cfg = SearchConfig(d=D_B, d1=54151, alpha=4, sign=1, shift=0)
    f = candidate_poly(cfg)
    assert (f.a, f.b, f.c) == (866416, 0, 2903975582404049)


def test_candidate_poly_lehmer_shape():
    f = candidate_poly(LEHMER_CFG)
    assert (f.a, f.b, f.c) == (326, 0, 3)


def test_candidate_poly_trivial_construction():
    cfg = SearchConfig(d=15, d1=15, alpha=0, sign=1, shift=0)
    f = candidate_poly(cfg)
    assert (f.a, f.b, f.c) == (15, 0, 2)


def test_candidate_poly_validation():
    with pytest.raises(ValueError):
        candidate_poly(SearchConfig(d=10, d1=3))  # d1 does not divide d
    with pytest.raises(ValueError):
        candidate_poly(SearchConfig(d=10, d1=5, r1=2, r2=3))  # 6 not a square
    with pytest.raises(ValueError):
        candidate_poly(SearchConfig(d=10, d1=5, sign=0))
    cfg = SearchConfig(d=10, d1=5, r1=2, r2=8)  # 16 is a square
    assert candidate_poly(cfg).a == 10


def admissible_bases(f, g_bound):
    """All valid bases g with |g| <= g_bound whose quadratic field has inert
    proportion exactly 1 for the primes of f.  If g qualifies so does k^2*g;
    membership only depends on the squarefree part."""
    good = {fd.D for fd in admissible_discriminants(f, bound=4 * g_bound)}
    out = []
    for g in range(-g_bound, g_bound + 1):
        if not is_valid_base(g) or g == 0:
            continue
        _, g1 = squarefree_decomposition(g)
        D = g1 if g1 % 4 == 1 else 4 * g1
        if D in good:
            out.append(g)
    return out


def test_admissible_bases_lehmer():
    bases = admissible_bases(QuadraticPoly(326, 0, 3), 400)
    assert {-163, -3, 6, 326} <= set(bases)
    # squarefree-part closure: k^2 * g stays admissible
    assert {24, 54, 96, -12, -27} <= set(bases)
    assert 10 not in bases


def test_admissible_bases_empty_for_euler_poly():
    assert admissible_bases(QuadraticPoly(1, 1, 41), 400) == []


def test_config_hash_equals_hashlib_digest():
    # checkpoints written when config_hash used hashlib keep resuming
    rng = random.Random(20)
    for _ in range(20):
        d1 = rng.choice([1, 3, 163, 252017])
        cfg = SearchConfig(
            d=d1 * rng.randrange(1, 10**6), d1=d1, alpha=rng.randrange(5), sign=rng.choice([1, -1]),
            shift=rng.randrange(10**4), r1=rng.randrange(1, 50), r2=rng.randrange(1, 50),
            g_base=rng.randrange(-10**6, 10**6), k_lo=rng.randrange(1, 100), k_hi=rng.randrange(100, 10**5),
            n_cap=rng.randrange(10**7),
        )
        blob = json.dumps(asdict(cfg), sort_keys=True).encode()
        assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()[:16], cfg


def test_sweep_single_k_reduces_to_streak():
    best = sweep(LEHMER_CFG)
    assert (best.k, best.g, best.c) == (1, 326, 206)
    assert best.failing_prime == 1838843753


def test_sweep_reverifies_independently():
    cfg = SearchConfig(
        d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=24, n_cap=4000
    )
    best = sweep(cfg)
    res = streak(candidate_poly(cfg), best.g, cfg.n_cap)
    assert res.count == best.c
    assert res.failing_prime == best.failing_prime


def test_sweep_deterministic_across_workers():
    cfg = SearchConfig(
        d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=32, n_cap=4000
    )
    b1 = sweep(cfg, workers=1)
    b8 = sweep(cfg, workers=8)
    assert (b1.k, b1.g, b1.c, b1.failing_prime) == (b8.k, b8.g, b8.c, b8.failing_prime)


def test_sweep_checkpoint_resume_equivalence(tmp_path):
    cfg = SearchConfig(
        d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=24, n_cap=3000
    )
    full = sweep(cfg, checkpoint_path=str(tmp_path / "full.jsonl"), checkpoint_every=4)

    # simulate a crash: keep only lines up to k <= 12, then resume
    partial_path = tmp_path / "partial.jsonl"
    kept = []
    for line in (tmp_path / "full.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["k"] <= 12:
            kept.append(line)
    partial_path.write_text("\n".join(kept) + "\n")
    resumed = sweep(cfg, checkpoint_path=str(partial_path), checkpoint_every=4)
    assert (resumed.k, resumed.g, resumed.c) == (full.k, full.g, full.c)
    # the checkpoint now covers the full range; resuming again is a no-op
    again = sweep(cfg, checkpoint_path=str(partial_path))
    assert (again.k, again.c) == (full.k, full.c)


def test_sweep_corrupt_checkpoint(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text('{"k": 1, "c": 2, "best_k": 1, "best_c": 2, '
                    f'"config_hash": "{config_hash(LEHMER_CFG)}", "timestamp": 0}}\n'
                    "NOT JSON\n")
    with pytest.raises(CheckpointError, match="truncating"):
        sweep(LEHMER_CFG, checkpoint_path=str(path))


def test_sweep_foreign_checkpoint(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text('{"k": 1, "c": 2, "best_k": 1, "best_c": 2, '
                    '"config_hash": "deadbeef", "timestamp": 0}\n')
    with pytest.raises(CheckpointError, match="different configuration"):
        sweep(LEHMER_CFG, checkpoint_path=str(path))
    # --fresh semantics: ignore it
    best = sweep(LEHMER_CFG, checkpoint_path=str(path), resume=False)
    assert best.c == 206


README_CFG = SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_hi=40, n_cap=6000)
TRUNCATED_CFG = SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_hi=24, n_cap=300)


def test_sweep_readme_config_certified():
    best = sweep(README_CFG)
    assert (best.k, best.c, best.certified) == (15, 423, True)
    assert best.failing_prime == 8582654489


def test_sweep_truncated_best_uncertified():
    # k=1 reaches n_cap unfinished with the longest count: a lower bound only
    best = sweep(TRUNCATED_CFG)
    assert (best.k, best.c, best.certified) == (1, 40, False)
    assert best.failing_prime is None


def test_sweep_certified_agrees_across_workers():
    for cfg in (README_CFG, TRUNCATED_CFG):
        b1 = sweep(cfg, workers=1)
        b2 = sweep(cfg, workers=2)
        assert (b1.k, b1.c, b1.failing_prime, b1.certified) == (
            b2.k, b2.c, b2.failing_prime, b2.certified
        )


def test_sweep_resume_keeps_certified(tmp_path):
    for cfg in (README_CFG, TRUNCATED_CFG):
        path = tmp_path / f"{config_hash(cfg)}.jsonl"
        full = sweep(cfg, checkpoint_path=str(path), checkpoint_every=4)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # crash after k = 12
        resumed = sweep(cfg, checkpoint_path=str(path), checkpoint_every=4)
        again = sweep(cfg, checkpoint_path=str(path))  # nothing left to sweep
        for rec in (resumed, again):
            assert (rec.k, rec.c, rec.certified) == (full.k, full.c, full.certified)


def test_sweep_resume_legacy_line_uncertified(tmp_path):
    # a line without max_unfinished cannot vouch for the earlier k
    path = tmp_path / "ck.jsonl"
    sweep(README_CFG, checkpoint_path=str(path))
    rec = json.loads(path.read_text().splitlines()[-1])
    del rec["max_unfinished"]
    path.write_text(json.dumps(rec) + "\n")
    best = sweep(README_CFG, checkpoint_path=str(path))
    assert (best.k, best.c, best.certified) == (15, 423, False)


@pytest.mark.parametrize("g_base", [4, -1, 0])
def test_sweep_rejects_invalid_g_base(tmp_path, g_base):
    cfg = SearchConfig(d=163, d1=163, alpha=1, g_base=g_base, k_hi=3, n_cap=500)
    path = tmp_path / "ck.jsonl"
    with pytest.raises(ValueError, match="invalid base"):
        sweep(cfg, checkpoint_path=str(path))
    assert not path.exists()


def test_sweep_torn_final_line(tmp_path):
    path = tmp_path / "ck.jsonl"
    full = sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4)
    text = path.read_text()
    last = text.splitlines()[-1]
    path.write_text(text[: len(text) - len(last) // 2 - 1])  # crash mid-write
    resumed = sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4)
    assert (resumed.k, resumed.c, resumed.failing_prime, resumed.certified) == (
        full.k, full.c, full.failing_prime, full.certified
    )
    text = path.read_text()
    assert text.endswith("\n")
    ks = [json.loads(line)["k"] for line in text.splitlines()]
    assert ks == sorted(ks) and ks[-1] == README_CFG.k_hi


def test_sweep_unterminated_complete_line_is_kept(tmp_path):
    path = tmp_path / "ck.jsonl"
    sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]))  # last record intact, newline lost
    best = sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4)
    assert (best.k, best.c, best.certified) == (15, 423, True)
    ks = [json.loads(line)["k"] for line in path.read_text().splitlines()]
    assert ks[:3] == [4, 8, 12] and ks[3] == 16


def test_sweep_fresh_replaces_foreign_checkpoint(tmp_path):
    path = tmp_path / "ck.jsonl"
    sweep(LEHMER_CFG, checkpoint_path=str(path))
    fresh = sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4, resume=False)
    hashes = {json.loads(line)["config_hash"] for line in path.read_text().splitlines()}
    assert hashes == {config_hash(README_CFG)}
    resumed = sweep(README_CFG, checkpoint_path=str(path))
    assert (resumed.k, resumed.c, resumed.failing_prime, resumed.certified) == (
        fresh.k, fresh.c, fresh.failing_prime, fresh.certified
    )


def test_sweep_fresh_over_torn_file(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text('{"k": 1, "c": 2, "best_k"')  # a torn foreign line
    sweep(LEHMER_CFG, checkpoint_path=str(path), resume=False)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["config_hash"] == config_hash(LEHMER_CFG)


def test_sweep_refuses_a_checkpoint_another_run_holds(tmp_path, capsys):
    fcntl = pytest.importorskip("fcntl")
    from qprim.cli import main

    path = tmp_path / "ck.jsonl"
    sweep(README_CFG, checkpoint_path=str(path), checkpoint_every=4)
    path.write_bytes(path.read_bytes()[:-9])  # a torn tail: a resume would cut it, --fresh all of it
    before = path.read_bytes()
    with open(path, "rb") as other_run:  # its own open file description, as another process's
        fcntl.flock(other_run, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for resume in (True, False):
            with pytest.raises(CheckpointError, match="checkpoint in use by another run"):
                sweep(README_CFG, checkpoint_path=str(path), resume=resume)
        argv = ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "40"]
        assert main([*argv, "--n-cap", "6000", "--checkpoint", str(path)]) == 1
        assert "checkpoint in use by another run" in capsys.readouterr().err
        assert path.read_bytes() == before
    best = sweep(README_CFG, checkpoint_path=str(path))  # the lock went with its holder
    assert (best.k, best.c, best.certified) == (15, 423, True)


def test_sweep_resumes_after_a_sigkill(tmp_path):
    # a real crash: one `qprim search` killed once its first checkpoint line is
    # on disk.  This sweep writes its 1563 lines over about the last quarter of
    # its run (a k is written once every smaller k has finished), so the kill
    # lands mid-run.
    path = tmp_path / "ck.jsonl"
    argv = ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "25000"]
    argv += ["--n-cap", "300000", "--long-run", "--checkpoint", str(path)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.Popen([sys.executable, "-m", "qprim.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + 300
    try:
        while run.poll() is None and time.monotonic() < deadline:
            if path.exists() and b"\n" in path.read_bytes():
                break
            time.sleep(0.005)
        run.send_signal(signal.SIGKILL)
    finally:
        run.kill()
        run.wait()
    assert run.returncode == -signal.SIGKILL, f"the sweep ended with {run.returncode} before the kill landed"
    written = path.read_bytes()
    assert b"\n" in written, "no checkpoint line within 300 s"
    cfg = SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_hi=25000, n_cap=300_000)
    resumed, whole = sweep(cfg, checkpoint_path=str(path)), sweep(cfg)
    assert (resumed.k, resumed.c, resumed.failing_prime, resumed.certified) == (
        whole.k, whole.c, whole.failing_prime, whole.certified
    )
    text = path.read_text()
    assert text.startswith(written[: written.rindex(b"\n") + 1].decode())
    ks = [json.loads(line)["k"] for line in text.splitlines()]
    assert ks == sorted(set(ks)) and ks[-1] == 25000  # resumed after the last line, not restarted


def test_resumed_finished_sweep_builds_no_stream(tmp_path, monkeypatch):
    from qprim import search, streaks

    cfg = SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_lo=1, k_hi=20, n_cap=3000)
    path = str(tmp_path / "ck.jsonl")
    first = sweep(cfg, checkpoint_path=path)

    def no_stream(*args, **kwargs):
        raise AssertionError("resuming a finished sweep built a prime stream")

    monkeypatch.setattr(streaks, "PrimeValueStream", no_stream)
    again = sweep(cfg, checkpoint_path=path)
    assert (again.k, again.c, again.failing_prime, again.certified) == (
        first.k, first.c, first.failing_prime, first.certified
    )
    assert list(search.base_streaks(candidate_poly(cfg), 326, 21, 20, 3000)) == []


def per_base_streaks(f, g_base, k_lo, k_hi, n_cap):
    """(k, count, failing_prime) from streaks.streak, one base at a time."""
    from qprim.streaks import PrimeValueStream

    stream = PrimeValueStream(f)
    out = []
    for k in range(k_lo, k_hi + 1):
        res = streak(f, k * k * g_base, n_cap, stream=stream)
        out.append((k, res.count, res.failing_prime))
    return out


LEHMER = QuadraticPoly(326, 0, 3)
# the example2-g24 record family: every value lies above 2^55, past Lanes' int64 bound
RECORD_G24 = candidate_poly(SearchConfig(d=D_A, d1=230849, alpha=6, sign=-1, shift=56943))
# 326 (X + shift)^2 + 3, whose values reach that bound, 2^50, near n = 700
CROSSING = candidate_poly(SearchConfig(d=163, d1=163, alpha=1, shift=isqrt(_QUOTIENT_PRIME_BOUND // 326) - 700))
# 2^44 (X - 64)^2 + 37, whose prime values fall from 2^56 to 2^49 in one group
# of the sweep: the largest of them, not the last, picks the group's lanes
FALLING = QuadraticPoly(2**44, -(2**51), 2**56 + 37)


@pytest.mark.parametrize(
    "f, g_base, k_lo, k_hi, n_cap",
    [
        (LEHMER, 326, 1, 300, 4000),
        (LEHMER, 326, 57, 140, 4000),  # a range that does not start at 1
        (LEHMER, 9 * 326, 1, 60, 3000),  # a square factor; f(0) = 3 divides it
        # small prime values 41, 43, 47, ... divide some k
        (QuadraticPoly(1, 1, 41), -163, 1, 200, 2000),
        # 3 is a square mod 37 = 6^2 + 1: the q = 2 test fails there
        (QuadraticPoly(1, 0, 1), 3, 1, 100, 2000),
        (LEHMER, 326, 1, 200, 30),  # most streaks unfinished at n_cap
        (RECORD_G24, 3, 1, 25, 1000),  # Python-int groups alone
        (CROSSING, 326, 10**6, 10**6 + 60, 1300),  # int64 groups, then Python-int ones
        (FALLING, 3, 1, 60, 60),
        (FALLING, 326, 1, 60, 60),
    ],
)
def test_base_streaks_equals_per_base_streak(f, g_base, k_lo, k_hi, n_cap):
    from qprim.search import base_streaks

    got = list(base_streaks(f, g_base, k_lo, k_hi, n_cap))
    assert got == per_base_streaks(f, g_base, k_lo, k_hi, n_cap)


def test_base_streaks_covers_skips_q2_failures_and_unfinished():
    # the cases above exercise what they claim
    from qprim.search import base_streaks

    divides_k = [(k, p) for k, _, p in base_streaks(QuadraticPoly(1, 1, 41), -163, 1, 200, 2000) if p and k % 41 == 0]
    assert divides_k  # some k divisible by 41 = f(0) outlived it
    q2 = [p for _, _, p in base_streaks(QuadraticPoly(1, 0, 1), 3, 1, 100, 2000) if p]
    assert any(pow(3, (p - 1) // 2, p) == 1 for p in q2)
    unfinished = [k for k, _, p in base_streaks(LEHMER, 326, 1, 200, 30) if p is None]
    assert 0 < len(unfinished) < 200


def test_base_streaks_covers_both_element_types(monkeypatch):
    # the record family and the crossing above exercise what they claim
    from qprim import arith, search

    exact = []

    class Spy(Lanes):
        def pow(self, x, E):
            if not self.balanced:  # the sweep's lanes; the sieve's root tables run on float64 here
                exact.append(self.P.dtype != object)
            return super().pow(x, E)

    monkeypatch.setattr(arith, "Lanes", Spy)
    assert any(p for *_, p in search.base_streaks(RECORD_G24, 3, 1, 25, 1000)) and not any(exact)
    exact.clear()
    failing = [p for *_, p in search.base_streaks(CROSSING, 326, 10**6, 10**6 + 60, 1300) if p]
    assert True in exact and False in exact
    assert min(failing) < _QUOTIENT_PRIME_BOUND <= max(failing)
    exact.clear()
    assert list(search.base_streaks(FALLING, 3, 1, 60, 60)) and exact and not any(exact)


# 326 (X + shift)^2 + 3, whose values pass DETERMINISTIC_PRIMALITY_LIMIT
# near n = 20; is_prime raises on an uncertified prime above it
PAST_PROVABLE = candidate_poly(
    SearchConfig(d=163, d1=163, alpha=1, shift=isqrt(DETERMINISTIC_PRIMALITY_LIMIT // 326) - 20)
)


def test_sweep_reads_the_walk_no_further_than_its_last_live_k():
    # 3 fails every k at the first prime, below the limit; the walk raises
    # later, at a prime no k reaches.  31 keeps every k live up to there, so
    # the sweep raises as each streak does.
    from qprim.search import base_streaks
    from qprim.streaks import _residual_indices

    with pytest.raises(ValueError, match="deterministic primality range"):
        list(_residual_indices(PAST_PROVABLE, 3, 60))
    res = streak(PAST_PROVABLE, 3, 60)
    assert res.failing_prime < DETERMINISTIC_PRIMALITY_LIMIT
    assert list(base_streaks(PAST_PROVABLE, 3, 1, 1, 60)) == [(1, res.count, res.failing_prime)]
    assert list(base_streaks(PAST_PROVABLE, 3, 1, 9, 60)) == per_base_streaks(PAST_PROVABLE, 3, 1, 9, 60)
    with pytest.raises(ValueError, match="deterministic primality range"):
        streak(PAST_PROVABLE, 31, 60)
    with pytest.raises(ValueError, match="deterministic primality range"):
        list(base_streaks(PAST_PROVABLE, 31, 1, 5, 60))


def in_lanes(lanes, X):
    """The integers X, reduced mod p, in lanes' representation: a row of X
    has a column per lane, or one column that meets every lane."""
    R = np.array(X, object) % lanes.P
    if lanes.balanced:
        R = np.where(R > lanes.P // 2, R - lanes.P, R)
    return R.astype(np.float64 if lanes.balanced else lanes.P.dtype)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # int64 products wrap in arrays, unwarned
@pytest.mark.parametrize(
    "ps",
    [
        [3, 1021, sympy.prevprime(2**26)],
        [sympy.prevprime(2**31)],
        [3, 1021, 65521, sympy.prevprime(2**50)],
        [sympy.prevprime(2**50), sympy.nextprime(2**50), sympy.prevprime(2**53)],
    ],
    ids=["below2^26", "below2^31", "below2^50", "above2^50"],
)
def test_lanes_are_exact_at_their_bounds(ps):
    # the largest p, here the first lane, picks float64, int64 or Python
    # ints: operands p - 1 and exponents with the top bit set, then a seeded
    # sample, against Python's a * b % p and pow; products of a matrix by a
    # row of residues, and powers of a column of bases, reduced mod p,
    # against a row of lanes
    rng = random.Random(len(ps))
    cols = [(p, x) for p in ps[::-1] for x in [p - 1, p - 2, 0, 1] + [rng.randrange(p) for _ in range(40)]]
    lanes = Lanes(np.array([p for p, _ in cols], object))
    assert lanes.P.dtype == (object if max(ps) > _QUOTIENT_PRIME_BOUND else np.int64)
    assert lanes.balanced == (max(ps) < 2**26)
    a = [[p - 1, p - 2, 1, 0][i] if i < 4 else rng.randrange(p) for i in range(30) for p, _ in cols]
    A = np.array(a, object).reshape(30, len(cols))
    got = lanes.lower(lanes.mul(in_lanes(lanes, A), in_lanes(lanes, [[x for _, x in cols]])[0]))
    assert got.tolist() == [[u * x % p for u, (p, x) in zip(row, cols)] for row in A.tolist()]

    top = [(p, 1 << (p.bit_length() - 1)) for p in ps]
    exps = [(p, e) for p, t in top for e in (p - 1, p - 2, t, t | 1, t | rng.randrange(t))]
    exps = sorted(exps + [(p, rng.randrange(1, p)) for p in ps for _ in range(20)], reverse=True)
    bases = [0, 1, 2, 3, 25_000, max(ps) - 1, *(rng.randrange(1, 1 << 20) for _ in range(20))]
    lanes = Lanes(np.array([p for p, _ in exps], object))
    E = np.array([e for _, e in exps], lanes.P.dtype)
    got = lanes.lower(lanes.pow(in_lanes(lanes, [[b] for b in bases]), E))
    assert got.tolist() == [[pow(b, e, p) for p, e in exps] for b in bases]
