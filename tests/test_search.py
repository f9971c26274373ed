"""Tests for candidate construction, admissible bases, and the k-sweep."""

import json
import os

import pytest

from qprim.arith import squarefree_decomposition
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


def test_base_streaks_pooled_equals_serial():
    from qprim.search import base_streaks

    serial = list(base_streaks(LEHMER, 326, 3, 90, 3000, workers=1))
    assert list(base_streaks(LEHMER, 326, 3, 90, 3000, workers=2)) == serial


class _InlineExecutor:
    """A stand-in for ProcessPoolExecutor that runs map in this process and
    records the jobs it was given."""

    jobs: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        _InlineExecutor.jobs = jobs
        return map(fn, jobs)


def test_pooled_sweep_feeds_several_chunks_per_worker_in_k_order(monkeypatch):
    # pool.map yields nothing until its first chunk ends; with one chunk per
    # worker no checkpoint line is written for half the range
    import concurrent.futures

    from qprim import search

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    got = list(search.base_streaks(LEHMER, 326, 5, 104, 3000, workers=2))
    bounds = [(job[2], job[3]) for job in _InlineExecutor.jobs]
    assert len(bounds) >= 4 * 2
    assert bounds[0][0] == 5 and bounds[-1][1] == 104
    assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    assert [k for k, _, _ in got] == list(range(5, 105))


def test_base_streaks_identical_for_one_to_three_workers():
    from qprim.search import base_streaks

    serial = list(base_streaks(LEHMER, 326, 1, 150, 4000, workers=1))
    assert [k for k, _, _ in serial] == list(range(1, 151))
    for workers in (2, 3):
        assert list(base_streaks(LEHMER, 326, 1, 150, 4000, workers=workers)) == serial
