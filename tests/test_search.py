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

from qprim.arith import _QUOTIENT_PRIME_BOUND, DETERMINISTIC_PRIMALITY_LIMIT, Lanes, primes_up_to
from qprim.charsums import admissible_discriminants, fundamental_discriminant, is_valid_base
from qprim.poly import QuadraticPoly
from qprim.search import (
    CheckpointError,
    SearchConfig,
    candidate_poly,
    config_hash,
    sweep,
)
from qprim.streaks import base_streaks, empirical_max_streak, streak

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


def test_k_of_2_63_or_more_is_refused_before_the_sweep():
    # the k are an int64 array: past 2^63 numpy would make them float64
    f = candidate_poly(SearchConfig(d=163, d1=163, alpha=1))
    with pytest.raises(ValueError, match=r"2\^63"):
        SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_lo=2**63 + 1, k_hi=2**63 + 2).validate()
    with pytest.raises(ValueError, match=r"2\^63"):
        SearchConfig(d=163, d1=163, alpha=1, g_base=326, k_lo=1, k_hi=2**63).validate()
    with pytest.raises(ValueError, match=r"2\^63"):
        next(base_streaks(f, 326, 2**63 - 1, 2**63, 40))
    with pytest.raises(ValueError, match=r"2\^63"):
        empirical_max_streak(326, f, 2**63, n_cap=40)


def test_alpha_and_the_k_range_are_bounded_before_any_allocation(tmp_path):
    SearchConfig(d=163, d1=163, alpha=81).validate()  # 2^81 < 3.3e24 < 2^82
    with pytest.raises(ValueError, match=r"at most 81 \(--alpha\)"):
        SearchConfig(d=163, d1=163, alpha=82).validate()
    f = candidate_poly(SearchConfig(d=163, d1=163, alpha=1))
    with pytest.raises(ValueError, match=r"at most 2\^20 k .*got 1048577"):
        next(base_streaks(f, 326, 5, 5 + 2**20, 40))
    with pytest.raises(ValueError, match=r"at most 2\^20 k .*got 1048577"):  # and no checkpoint file is made
        sweep(SearchConfig(d=163, d1=163, g_base=326, k_lo=5, k_hi=5 + 2**20), checkpoint_path=str(tmp_path / "ck"))
    assert not (tmp_path / "ck").exists()


def admissible_bases(f, g_bound):
    """All valid bases g with |g| <= g_bound whose quadratic field has inert
    proportion exactly 1 for the primes of f.  If g qualifies so does k^2*g;
    membership only depends on the squarefree part."""
    good = {fd.D for fd in admissible_discriminants(f, bound=4 * g_bound)}
    out = []
    for g in range(-g_bound, g_bound + 1):
        if not is_valid_base(g) or g == 0:
            continue
        if fundamental_discriminant(g).D in good:
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


def test_sweep_checkpoint_resume_equivalence(tmp_path, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    cfg = SearchConfig(
        d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=24, n_cap=3000
    )
    full = sweep(cfg, checkpoint_path=str(tmp_path / "full.jsonl"))

    # simulate a crash: keep only lines up to k <= 12, then resume
    partial_path = tmp_path / "partial.jsonl"
    kept = []
    for line in (tmp_path / "full.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["k"] <= 12:
            kept.append(line)
    partial_path.write_text("\n".join(kept) + "\n")
    resumed = sweep(cfg, checkpoint_path=str(partial_path))
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


def test_sweep_resume_keeps_certified(tmp_path, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    for cfg in (README_CFG, TRUNCATED_CFG):
        path = tmp_path / f"{config_hash(cfg)}.jsonl"
        full = sweep(cfg, checkpoint_path=str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # crash after k = 12
        resumed = sweep(cfg, checkpoint_path=str(path))
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


def test_sweep_torn_final_line(tmp_path, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    path = tmp_path / "ck.jsonl"
    full = sweep(README_CFG, checkpoint_path=str(path))
    text = path.read_text()
    last = text.splitlines()[-1]
    path.write_text(text[: len(text) - len(last) // 2 - 1])  # crash mid-write
    resumed = sweep(README_CFG, checkpoint_path=str(path))
    assert (resumed.k, resumed.c, resumed.failing_prime, resumed.certified) == (
        full.k, full.c, full.failing_prime, full.certified
    )
    text = path.read_text()
    assert text.endswith("\n")
    ks = [json.loads(line)["k"] for line in text.splitlines()]
    assert ks == sorted(ks) and ks[-1] == README_CFG.k_hi


def test_sweep_unterminated_complete_line_is_kept(tmp_path, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    path = tmp_path / "ck.jsonl"
    sweep(README_CFG, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]))  # last record intact, newline lost
    best = sweep(README_CFG, checkpoint_path=str(path))
    assert (best.k, best.c, best.certified) == (15, 423, True)
    ks = [json.loads(line)["k"] for line in path.read_text().splitlines()]
    assert ks[:3] == [4, 8, 12] and ks[3] == 16


def test_sweep_fresh_replaces_foreign_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    path = tmp_path / "ck.jsonl"
    sweep(LEHMER_CFG, checkpoint_path=str(path))
    fresh = sweep(README_CFG, checkpoint_path=str(path), resume=False)
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


def test_sweep_refuses_a_checkpoint_another_run_holds(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("qprim.search.CHECKPOINT_EVERY", 4)
    fcntl = pytest.importorskip("fcntl")
    from qprim.cli import main

    path = tmp_path / "ck.jsonl"
    sweep(README_CFG, checkpoint_path=str(path))
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
# its twin with the shift written out, so that no bound in the code moves it
CROSSING_2_50 = candidate_poly(SearchConfig(d=163, d1=163, alpha=1, shift=1857708))
# 2^44 (X - 64)^2 + 37, whose prime values fall from 2^56 to 2^49 in one group
# of the sweep, across 2^50
FALLING = QuadraticPoly(2**44, -(2**51), 2**56 + 37)
# 2^18 (X - 64)^2 + 7, whose prime values fall across 2^26 in one group: the
# first, f(0) = 1073741831, is the largest and picks the group's lanes, the
# last two to n = 60 are 37748743 and 9437191
DIVING = QuadraticPoly(2**18, -(2**25), 2**30 + 7)


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
        # every k fails at f(10), where the index of 3 is even: only k^(p-1) = 1
        # is tested, and for k <= 60 int64 gets it right even past 2^50
        (FALLING, 3, 1, 60, 60),
        (FALLING, 326, 1, 60, 60),
        (CROSSING_2_50, 326, 10**6, 10**6 + 60, 1300),
        (DIVING, 3, 1, 60, 60),
        # k near 2^40 at that prime: the powers of k are large, and int64 past 2^50 gets them wrong
        (FALLING, 3, 2**40, 2**40 + 60, 60),
    ],
)
def test_base_streaks_equals_per_base_streak(f, g_base, k_lo, k_hi, n_cap):
    from qprim.search import base_streaks

    got = list(base_streaks(f, g_base, k_lo, k_hi, n_cap))
    assert got == per_base_streaks(f, g_base, k_lo, k_hi, n_cap)


def test_base_streaks_near_2_62_sieve_no_prime_past_2_16(monkeypatch):
    # the power plan once asked for the primes up to isqrt(k), to 2^31 at k = 2^62:
    # several GB for three k.  A k with no prime factor up to 2^16 takes a pow row
    from qprim import arith, streaks

    def divide_out(work, bound, fmap):
        if bound > 1 << 16:
            raise AssertionError(f"the power plan asked for the primes up to {bound}")
        return arith._divide_out(work, bound, fmap)

    monkeypatch.setattr(streaks, "_divide_out", divide_out)
    near = 65521 * 65537  # the primes on either side of 2^16
    for k_lo, k_hi in ((2**62, 2**62 + 2), (2**62 - 40, 2**62 - 30), (2**40 - 6, 2**40 + 6), (1, 60), (near - 3, near + 3)):
        got = list(base_streaks(LEHMER, 326, k_lo, k_hi, 300))
        assert got == per_base_streaks(LEHMER, 326, k_lo, k_hi, 300), (k_lo, k_hi)


def test_power_plan_keeps_few_trial_prime_bounds_cached():
    # the plan's trial bound follows isqrt(max(live)), rounded up to a power
    # of two: forty sweeps at k = 2^30 + i 2^22 share the bound 2^16, where
    # forty bounds of their own once each cached a primes list and primorial
    from qprim import arith

    arith._trial_primes.cache_clear()
    for i in range(40):
        k = 2**30 + i * 2**22
        assert list(base_streaks(LEHMER, 326, k, k, 60)) == per_base_streaks(LEHMER, 326, k, k, 60), k
    assert arith._trial_primes.cache_info().currsize <= 3  # 2^16, and factor_many's 2000 and 1e5
    with pytest.raises(ValueError, match="at least 1"):
        list(base_streaks(LEHMER, 326, 0, 5, 60))  # k = 0 is the base 0


def scan_power_plan(live):
    """The power plan by a scan, the reference streaks._power_plan must equal:
    each k's least prime factor tried against the primes up to the bound, then
    its cofactor's in turn."""
    small, spf, need, todo = primes_up_to(min(isqrt(max(live)), 1 << 16)), {}, set(), set(live)
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


def test_power_plan_reads_each_k_from_one_factor_map(monkeypatch):
    # one gcd with the cached primorial per live k, where the scan tried up to
    # 6542 primes for each k and each cofactor: about 0.25 ms per k near 2^62
    from qprim import arith, streaks

    calls = []

    def divide_out(work, bound, fmap):
        calls.append(work)
        return arith._divide_out(work, bound, fmap)

    monkeypatch.setattr(streaks, "_divide_out", divide_out)
    near = 65521 * 65537
    for lo, hi in ((1, 1000), (1, 60), (1, 1), (2, 2), (2**62 - 40, 2**62 + 2), (near - 3, near + 3), (10**12, 10**12 + 500)):
        for live in (list(range(lo, hi + 1)), list(range(lo, hi + 1, 3))):  # a re-plan's thinned list too
            calls.clear()
            ks, ends, factors, rows = streaks._power_plan(live)
            assert calls == live
            want = scan_power_plan(live)
            assert (ks, ends) == want[:2], (lo, hi)
            assert np.array_equal(factors, want[2]) and np.array_equal(rows, want[3]), (lo, hi)


def test_base_streaks_covers_skips_q2_failures_and_unfinished():
    # the cases above exercise what they claim
    from qprim.search import base_streaks

    divides_k = [(k, p) for k, _, p in base_streaks(QuadraticPoly(1, 1, 41), -163, 1, 200, 2000) if p and k % 41 == 0]
    assert divides_k  # some k divisible by 41 = f(0) outlived it
    q2 = [p for _, _, p in base_streaks(QuadraticPoly(1, 0, 1), 3, 1, 100, 2000) if p]
    assert any(pow(3, (p - 1) // 2, p) == 1 for p in q2)
    unfinished = [k for k, _, p in base_streaks(LEHMER, 326, 1, 200, 30) if p is None]
    assert 0 < len(unfinished) < 200


def element_types(monkeypatch, bound):
    """kinds, with arith.Lanes patched by a spy on pow: kinds() checks that
    every pow since its last call ran in int64 exactly where the largest
    modulus is below bound, and returns the int64 flags of the 2-D calls
    (the sweep's matrix) and of the 1-D ones (the walk's batched passes: the
    Lucas tests, the strong tests of factor_many and the sweep's z)."""
    from qprim import arith

    calls = []

    class Spy(Lanes):
        def pow(self, x, E):
            calls.append((x.ndim, self.P.dtype != object, int(self.P.max()) < bound))
            return super().pow(x, E)

    def kinds():
        exact = [e for ndim, e, _ in calls if ndim == 2]
        walked = [e for ndim, e, _ in calls if ndim == 1]
        assert all(e == below for _, e, below in calls)
        calls.clear()
        return exact, walked

    monkeypatch.setattr(arith, "Lanes", Spy)
    return kinds


def test_base_streaks_covers_both_element_types(monkeypatch):
    # the record family and the crossing above exercise what they claim: the
    # sweep's matrix and the walk's batched passes, each in int64 exactly
    # where its largest modulus is below 2^50
    kinds = element_types(monkeypatch, _QUOTIENT_PRIME_BOUND)
    assert any(p for *_, p in base_streaks(RECORD_G24, 3, 1, 25, 1000))
    exact, walked = kinds()
    assert exact and not any(exact) and False in walked
    failing = [p for *_, p in base_streaks(CROSSING, 326, 10**6, 10**6 + 60, 1300) if p]
    exact, walked = kinds()
    assert True in exact and False in exact
    assert True in walked and False in walked
    assert min(failing) < _QUOTIENT_PRIME_BOUND <= max(failing)
    assert list(base_streaks(FALLING, 3, 1, 60, 60))
    exact, walked = kinds()
    assert exact and not any(exact) and False in walked


def test_base_streaks_element_types_at_a_literal_2_50(monkeypatch):
    # the same split, read against 2^50 written out on CROSSING's literal
    # twin: a bound moved in the code cannot move this test with it
    kinds = element_types(monkeypatch, 2**50)
    failing = [p for *_, p in base_streaks(CROSSING_2_50, 326, 10**6, 10**6 + 60, 1300) if p]
    exact, walked = kinds()
    assert True in exact and False in exact
    assert True in walked and False in walked
    assert min(failing) < 1125899906842624 <= max(failing)


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
    """The integers X mod p, as Lanes takes them: a row of X has a column
    per lane, or one column that meets every lane."""
    return (np.array(X, object) % lanes.P).astype(lanes.P.dtype)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # int64 products wrap in arrays, unwarned
@pytest.mark.parametrize(
    "ps",
    [
        [3, 1021, 67108859],  # the last prime below 2^26
        [268435399, 268435367, 268435361],  # the primes just below 2^28: int64, not float64
        [2147483647],  # 2^31 - 1
        [3, 1021, 65521, 1125899906842597],  # the last prime below 2^50
        [1125899906842597, 1125899906842679, 9007199254740881],  # either side of 2^50; the last below 2^53
    ],
    ids=["below2^26", "below2^28", "below2^31", "below2^50", "above2^50"],
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
    assert lanes.P.dtype == (object if max(ps) > 2**50 else np.int64)
    assert lanes.minus_one.tolist() == [p - 1 for p, _ in cols]
    a = [[p - 1, p - 2, 1, 0][i] if i < 4 else rng.randrange(p) for i in range(30) for p, _ in cols]
    A = np.array(a, object).reshape(30, len(cols))
    got = lanes.mul(in_lanes(lanes, A), in_lanes(lanes, [[x for _, x in cols]])[0])
    assert got.dtype == lanes.P.dtype and got.tolist() == [[u * x % p for u, (p, x) in zip(row, cols)] for row in A.tolist()]

    top = [(p, 1 << (p.bit_length() - 1)) for p in ps]
    exps = [(p, e) for p, t in top for e in (p - 1, p - 2, t, t | 1, t | rng.randrange(t))]
    exps = sorted(exps + [(p, rng.randrange(1, p)) for p in ps for _ in range(20)], reverse=True)
    bases = [0, 1, 2, 3, 25_000, max(ps) - 1, *(rng.randrange(1, 1 << 20) for _ in range(20))]
    lanes = Lanes(np.array([p for p, _ in exps], object))
    E = np.array([e for _, e in exps], lanes.P.dtype)
    got = lanes.pow(in_lanes(lanes, [[b] for b in bases]), E)
    assert got.tolist() == [[pow(b, e, p) for p, e in exps] for b in bases]

    # chains of powers from the extremes of the residues, p - 1 and p - 2,
    # where the products run lazily in (-p, p): exponents of 49 bits
    # with the top bit set, each power the base of the next
    lanes = Lanes(np.array(ps * 2, object))
    want = [p - 1 for p in ps] + [p - 2 for p in ps]
    x = in_lanes(lanes, [want])[0]
    for _ in range(3):
        E = [1 << 48 | rng.getrandbits(48) for _ in want]
        x = lanes.pow(x, np.array(E, lanes.P.dtype))
        want = [pow(w, e, p) for w, e, p in zip(want, E, ps * 2)]
        assert x.tolist() == want

    # lift of integers of any size and sign, then square roots on the lanes
    # of cols: the nonzero squares are marked, and there R^2 = x
    lanes = Lanes(np.array([p for p, _ in cols], object))
    for a in (0, 1, -1, max(ps), -max(ps) - 1, 2**200 + 7, -(3**150), rng.getrandbits(100)):
        assert lanes.lift(a).tolist() == [a % p for p, _ in cols]
    R, square = lanes.sqrt(np.array([x for _, x in cols], lanes.P.dtype))
    assert square.tolist() == [x != 0 and pow(x, p >> 1, p) == 1 for p, x in cols]
    roots = [(r * r % p, x) for r, (p, x), sq in zip(R.tolist(), cols, square) if sq]
    assert roots and all(r2 == x for r2, x in roots)
