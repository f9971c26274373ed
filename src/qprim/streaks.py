"""Primes represented by a polynomial, primitive-root streaks, and counts.

The workhorse is PrimeValueStream: a forward pass over blocks of n that
yields the distinct primes f(n) in ascending n, from a block sieve on the
roots of f mod each sieve prime, from poly.roots_table a chunk of primes at
a time.  A survivor f(n) of the sieve has no prime factor up to the depth
sieved, so it is prime outright when 2 <= f(n) <= depth^2; only larger
survivors reach the deterministic Miller-Rabin test.  The stream sieves only
the n asked for, each block to depth max(2000, block end) within the sieve
limit: a prime above the range scanned strikes at most deg f of its n, and
its roots cost more than the tests they save.  The block sieve (_sieve)
returns its survivors; _walk evaluates them.  prime_count reads the same
sieve to the full limit and, past _direct_upto where f increases, counts a
block's survivors without evaluating f when its last value is at most the
limit squared.  The stream keeps only its roots table between walks; streak,
verify_primitive_root_prefix and pr_stats read the residual index of g at
each prime from one walk.

That walk, _residual_indices, is the only reader of the stream's base-2
candidates: it takes the larger survivors on the base-2 strong test alone,
factors their p - 1 in groups of _GROUP, and lets the powers of the
primitive-root test prove p prime by Lucas; is_prime proves a candidate its
witness does not.  criteria.lehmer_index_coprimality reads the same walk,
with its p - 1 factorizations, and so does base_streaks, the one k-sweep
engine (search.sweep and empirical_max_streak fold its output with
BestStreak): it tests every live base k^2 * g_base against a group of the
walk's primes in one matrix pass, from the index of g_base and the
factorization of p - 1.  entries_upto yields proven primes only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, islice
from math import isqrt
from typing import Iterator

import numpy as np

from . import arith
from .arith import Factorization, factor, is_prime, primes_up_to
from .charsums import require_valid_base
from .poly import PolyZ, roots_table

_BLOCK = 8192
_GROUP = 64  # walks factor the p - 1 of this many candidates in one batch
_MIN_DEPTH = 2_000  # a stream block is sieved to max(this, its end n)
_COUNT_SIEVE_CAP = 1_000_000  # prime_count's largest sieve limit (memory bound)
_MATRIX_ELEMENTS = 1 << 14  # plan rows x (p, q) pairs per matrix pass: bounds its memory


@dataclass(frozen=True)
class StreakResult:
    """Outcome of walking the prime values of f in order of n, testing g.

    count is the number of distinct primes in the successful prefix.  When
    the scan exhausts n_cap without a failure, the failure fields are None
    and count is only a lower bound.  primes_seen counts every distinct prime
    value examined (successes, divisors of g that were skipped, and the
    failing prime, if any).
    """

    poly: PolyZ
    g: int
    count: int
    n_at_failure: int | None
    failing_prime: int | None
    residual_index_at_failure: int | None
    n_scanned: int
    primes_seen: int


@dataclass(frozen=True)
class PrStats:
    """Residual-index tally over the distinct primes f(n), n <= n_cap."""

    primes_total: int
    primes_with_g_pr: int
    histogram: dict[int, int]
    n_cap: int


def _positive_tail_start(poly: PolyZ, value_floor: int) -> int:
    """Smallest N such that f is strictly increasing on [N, inf) with
    f(N) > value_floor (leading coefficient must be positive).

    Beyond N a sieve kill is trustworthy: the value exceeds every sieve prime.
    A quadratic increases from its vertex on and a linear f everywhere;
    higher degrees use the Cauchy bound on the roots of f and f'.
    """
    lead = poly.leading()
    if lead <= 0:
        raise ValueError("prime scans need a positive leading coefficient")
    if poly.degree() == 2:
        c, b, a = poly.coeffs
        bound = max(0, (-a - b) // (2 * a) + 1)  # f(n + 1) > f(n) from here on
    elif poly.degree() == 1:
        bound = 0
    else:
        bound = 1 + max(abs(c) for c in poly.coeffs) // lead + 1
    n = max(1, bound)
    while poly.eval(n) <= value_floor:
        n *= 2
    lo, hi = bound, n
    while lo < hi:  # f increasing past `bound`; binary search the crossing
        mid = (lo + hi) // 2
        if poly.eval(mid) > value_floor:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _default_sieve_limit(poly: PolyZ) -> int:
    return 30_000 if poly.degree() == 2 else 2_000


class PrimeValueStream:
    """Ordered, deduplicated primes among f(0), f(1), ...; the roots table is all it
    keeps between walks: one (q, r) per root r of f mod a sieve prime q, in two int64 arrays."""

    def __init__(self, f: PolyZ, sieve_limit: int | None = None):
        if f.degree() < 1:
            raise ValueError("constant polynomials have no prime-value stream")
        if sieve_limit is None:
            sieve_limit = _default_sieve_limit(f)
        self.poly = f
        self.sieve_limit = sieve_limit
        self._moduli, self._residues = array("q"), array("q")  # q and r, ascending in q then r
        self._depth = 0  # the roots cover the sieve primes up to this
        # below this n, sieve kills are double-checked
        self._direct_upto = _positive_tail_start(f, sieve_limit)

    def _sieve(self, lo: int, size: int, depth: int) -> tuple[bytearray, int]:
        """(alive, split) for the n in [lo, lo + size): alive[n - lo] is 0
        where a sieve prime divides f(n), sieving by the primes up to the
        largest depth asked for so far, within sieve_limit; split counts the n
        below _direct_upto.  The roots table grows to that depth a chunk of
        arith's cached primes at a time, by poly.roots_table."""
        depth = min(depth, self.sieve_limit)
        for P in arith.prime_chunks(self._depth + 1, depth):
            moduli, residues = roots_table(self.poly, P)  # all q roots if q divides every value
            self._moduli.extend(moduli.tolist())
            self._residues.extend(residues.tolist())
        self._depth = max(self._depth, depth)
        alive = bytearray([1]) * size
        for q, r in zip(self._moduli, self._residues):
            start = (r - lo) % q
            if start < size:
                alive[start::q] = bytearray(len(range(start, size, q)))
        return alive, min(max(self._direct_upto - lo, 0), size)

    def _head(self, lo: int, alive: bytearray, split: int) -> Iterator[tuple[int, int]]:
        """(n, f(n)) for the n in [lo, lo + split) with f(n) prime, each tested
        directly: below _direct_upto a sieve kill may be f(n) equal to a sieve
        prime.  A survivor f(n) >= 2 has no prime factor up to the depth
        sieved, so it is prime if f(n) <= depth^2."""
        poly, limit = self.poly, self._depth
        exact = limit * limit
        for i in range(split):
            n = lo + i
            v = poly.eval(n)
            if alive[i]:
                prime = v <= exact or is_prime(v)
            else:
                prime = v <= limit and is_prime(v)
            if v >= 2 and prime:
                yield n, v

    def _walk(self, lo: int, alive: bytearray, split: int, test) -> Iterator[tuple[int, int]]:
        """(n, f(n)) for the survivors n of the sieve (alive, split) from lo
        with f(n) prime, ascending: _head below split, and past it survivors
        above depth^2 only if `test` (is_prime or a weaker pre-filter) passes."""
        yield from self._head(lo, alive, split)
        poly, exact = self.poly, self._depth**2
        for n in compress(range(lo + split, lo + len(alive)), memoryview(alive)[split:]):
            v = poly.eval(n)
            if v >= 2 and (v <= exact or test(v)):
                yield n, v

    def entries_upto(self, n_cap: int) -> Iterator[tuple[int, int]]:
        """Yield (n, p) pairs with n <= n_cap in ascending n, sieving blocks of
        n from 0.  f strictly increases from _direct_upto on, so only values
        first met below it can recur; they are all this call remembers."""
        return self._entries(n_cap, is_prime)

    def _entries(self, n_cap: int, test) -> Iterator[tuple[int, int]]:
        head: set[int] = set()
        for lo in range(0, n_cap + 1, _BLOCK):
            hi = min(lo + _BLOCK, n_cap + 1)
            for n, v in self._walk(lo, *self._sieve(lo, hi - lo, max(_MIN_DEPTH, hi)), test):
                if v not in head:
                    if n < self._direct_upto:
                        head.add(v)
                    yield n, v

    def pm1_factorization(self, p: int) -> Factorization:
        """factor(p - 1).  No walk calls it (they factor in groups); it stays
        because perfbench wraps it by name for its streaks.pm1 counters."""
        return factor(p - 1)


def _residual_indices(
    f: PolyZ, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> Iterator[tuple[int, int, Factorization, int | None]]:
    """Yield (n, p, pm1, index) over the distinct primes p = f(n), n <= n_cap,
    in order: pm1 factors p - 1, and index is (p-1)/ord_p(g), 1 exactly when g
    is a primitive root mod p, or None when p divides g.  Arguments are
    checked before the walk.  The base-2 candidates' p - 1 are factored
    _GROUP at a time.  g is the Lucas witness; a candidate it does not certify
    counts only once is_prime proves it, and a p - 1 that failed to factor
    then raises (a composite's is dropped).  Every proven-prime walk reads this."""
    require_valid_base(g)
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    if stream is None:
        stream = PrimeValueStream(f)
    elif stream.poly != f:
        raise ValueError(f"the stream walks {stream.poly}, not {f}")

    def walk() -> Iterator[tuple[int, int, Factorization, int | None]]:
        candidates = stream._entries(n_cap, arith.is_strong_probable_prime)
        while group := list(islice(candidates, _GROUP)):
            for (n, p), pm1 in zip(group, arith.factor_many([p - 1 for _, p in group])):
                if not isinstance(pm1, Exception) and arith.lucas_certifies(g, p, pm1):
                    yield n, p, pm1, 1
                elif is_prime(p):
                    if isinstance(pm1, Exception):
                        raise pm1
                    yield n, p, pm1, None if g % p == 0 else arith.residual_index(g, p, pm1)

    return walk()


def streak(
    f: PolyZ, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> StreakResult:
    """Walk the distinct primes f(n), n = 0..n_cap in order, skipping primes
    dividing g, and count how many consecutive ones have g as a primitive
    root before the first failure.  A stream passed in lends its sieve roots;
    it must be f's own (ValueError otherwise)."""
    count = primes_seen = 0
    failure, n_scanned = (None, None, None), n_cap + 1
    for n, p, _, index in _residual_indices(f, g, n_cap, stream):
        primes_seen += 1
        if index == 1:
            count += 1
        elif index is not None:
            failure, n_scanned = (n, p, index), n + 1
            break
    return StreakResult(f, g, count, *failure, n_scanned, primes_seen)


def verify_primitive_root_prefix(f: PolyZ, g: int, prefix: int, n_cap: int = 10_000_000) -> bool:
    """True iff the first `prefix` distinct primes f(n) (those not dividing g)
    all have g as a primitive root.  Stops as soon as the answer is known;
    raises RuntimeError if fewer than `prefix` primes exist up to n_cap."""
    walk = _residual_indices(f, g, n_cap)
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    checked = 0
    for *_, index in walk:
        if index is None:
            continue
        if index > 1:
            return False
        checked += 1
        if checked >= prefix:
            return True
    raise RuntimeError(f"only {checked} usable primes found up to n_cap={n_cap}")


def prime_count(f: PolyZ, x: int) -> int:
    """#{0 <= n <= x : f(n) prime}.  Counts n, not distinct primes."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if f.degree() < 1:
        return (x + 1) if f.coeffs[0] >= 2 and is_prime(f.coeffs[0]) else 0
    limit = _default_sieve_limit(f)
    if f.degree() <= 2:
        # roots mod q have a closed form, so sieve to sqrt(max f): then every
        # survivor is prime without a test
        top = max(f.eval(0), f.eval(x), 0)
        limit = max(limit, min(isqrt(top), _COUNT_SIEVE_CAP))
    stream = PrimeValueStream(f, sieve_limit=limit)
    block = max(_BLOCK, limit)  # a block pays one pass over every root: at >= limit n, each root strikes it
    count = 0
    for lo in range(0, x + 1, block):
        alive, split = stream._sieve(lo, min(block, x + 1 - lo), limit)
        if f.eval(lo + len(alive) - 1) > limit * limit:  # a survivor may be composite
            count += sum(1 for _ in stream._walk(lo, alive, split, is_prime))
        else:  # past split f increases: each survivor is in (limit, limit^2], so prime
            count += sum(1 for _ in stream._head(lo, alive, split)) + alive.count(1, split)
    return count


def pr_stats(f: PolyZ, g: int, n_cap: int) -> PrStats:
    """Histogram of residual indices of g over the distinct primes f(n) with
    n <= n_cap and p not dividing g."""
    hist: dict[int, int] = {}
    for *_, index in _residual_indices(f, g, n_cap):
        if index is not None:
            hist[index] = hist.get(index, 0) + 1
    return PrStats(
        primes_total=sum(hist.values()),
        primes_with_g_pr=hist.get(1, 0),
        histogram=dict(sorted(hist.items())),
        n_cap=n_cap,
    )


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
    plan row and pair on arith.Lanes, in int64 if every p < 2^50, else in
    Python ints (p | k: k^e = 0, a skip).  (k^2 g_base / p) = (g_base / p),
    so an even index of g_base gives the pair (p - 1, 1); an odd one gives
    e = (p-1)/q, z = g_base^(e(q-1)/2) per odd q | p-1, as (k^2 g_base)^e = 1
    iff k^e = z, or else (0, 0), which fails no k.  A k's count is the primes
    passed before it failed, less those dividing it."""
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
        P, E, Z = zip(*pairs)
        lanes = arith.Lanes(np.array(P, object), balanced=False)
        E, Z = (np.array(v, lanes.P.dtype) for v in (E, Z))
        V = np.empty((len(ks), len(pairs)), lanes.P.dtype)
        V[: ends[0]] = lanes.pow(np.array(ks[: ends[0]], lanes.P.dtype)[:, None] % lanes.P, E)
        for lo, hi in zip(ends, ends[1:]):
            ell, m = factors[lo - ends[0] : hi - ends[0]].T
            V[lo:hi] = lanes.mul(V[ell], V[m])
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


def empirical_max_streak(
    g_base: int,
    f: PolyZ,
    k_max: int,
    n_cap: int = 200_000,
    workers: int = 1,
) -> tuple[int, int]:
    """(k_best, c_best): the maximum streak of k^2 * g_base over 1 <= k <= k_max,
    ties broken by the smallest k.

    Raises RuntimeError if some streak reaches n_cap unfinished while at least
    as long as the reported best (the maximum would then be uncertified).
    workers below 1 raises ValueError; any other count runs the same serial
    sweep.
    """
    require_valid_base(g_base)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    best = BestStreak()
    for k, c, failing in base_streaks(f, g_base, 1, k_max, n_cap):
        best.add(k, c, failing)
    if not best.certified:
        raise RuntimeError(
            f"n_cap={n_cap} too small: an unfinished streak ties or beats the best"
        )
    return best.k, best.c
