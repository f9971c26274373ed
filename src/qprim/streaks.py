"""Primes represented by a polynomial, primitive-root streaks, and counts.

The workhorse is PrimeValueStream: a forward pass over blocks of n that
yields the distinct primes f(n) in ascending n, from a block sieve on the
roots of f mod each sieve prime, from poly.roots_mod.  A survivor f(n) of the
sieve has no prime factor up to the depth sieved, so it is prime outright
when 2 <= f(n) <= depth^2; only larger survivors reach the deterministic
Miller-Rabin test.  The stream sieves only the n asked for, each block to
depth max(2000, block end) within the sieve limit: a prime above the range
scanned strikes at most deg f of its n, and its roots cost more than the
tests they save.  prime_count sieves to the full limit.  The stream keeps
only its sieve roots between walks; streak, verify_primitive_root_prefix and
pr_stats read the residual index of g at each prime from one walk.

That walk, _residual_indices, is the only reader of the stream's base-2
candidates: it takes the larger survivors on the base-2 strong test alone,
factors their p - 1 in groups of _GROUP, and lets the powers of the
primitive-root test prove p prime by Lucas; is_prime proves a candidate its
witness does not.  search's k-sweep and criteria.lehmer_index_coprimality
read the same walk, with its p - 1 factorizations.  entries_upto yields proven
primes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from math import isqrt
from typing import Iterator

from . import arith
from .arith import Factorization, factor, is_prime, primes_up_to
from .charsums import require_valid_base
from .poly import AnyPoly, PolyZ, as_polyz, roots_mod

_BLOCK = 8192
_GROUP = 64  # walks factor the p - 1 of this many candidates in one batch
_MIN_DEPTH = 2_000  # a stream block is sieved to max(this, its end n)
_COUNT_SIEVE_CAP = 1_000_000  # prime_count's largest sieve limit (memory bound)


@dataclass(frozen=True)
class StreakResult:
    """Outcome of walking the prime values of f in order of n, testing g.

    count is the number of distinct primes in the successful prefix.  When
    the scan exhausts n_cap without a failure, the failure fields are None
    and count is only a lower bound.  primes_seen counts every distinct prime
    value examined (successes, divisors of g that were skipped, and the
    failing prime, if any).
    """

    poly: AnyPoly
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
    """Ordered, deduplicated primes among f(0), f(1), ...; the roots table
    is all it keeps between walks."""

    def __init__(self, f: AnyPoly, sieve_limit: int | None = None):
        poly = as_polyz(f)
        if poly.degree() < 1:
            raise ValueError("constant polynomials have no prime-value stream")
        if sieve_limit is None:
            sieve_limit = _default_sieve_limit(poly)
        self.poly = poly
        self.sieve_limit = sieve_limit
        self._sieve_primes = primes_up_to(sieve_limit)
        self._roots: list[tuple[int, tuple[int, ...]]] = []
        self._depth = 0  # _roots covers the sieve primes up to this
        # below this n, sieve kills are double-checked
        self._direct_upto = _positive_tail_start(poly, sieve_limit)

    def _block_primes(self, lo: int, size: int, depth: int, test) -> Iterator[tuple[int, int]]:
        """Yield (n, f(n)) for the n in [lo, lo + size) with f(n) prime, ascending,
        sieving by the primes up to the largest depth asked for so far, within
        sieve_limit; the roots table grows to it.  A survivor f(n) >= 2 has no
        prime factor up to that depth, so it is prime if f(n) <= depth^2; only
        larger ones reach `test`, is_prime or a weaker pre-filter.  Below
        _direct_upto a sieve kill may be f(n) equal to a sieve prime, so those
        n are tested directly."""
        depth = min(depth, self.sieve_limit)
        new = [q for q in self._sieve_primes if self._depth < q <= depth]
        # a q dividing every value stays: survivors must be free of it
        self._roots += [(q, rs) for q in new if (rs := roots_mod(self.poly, q))]
        self._depth = max(self._depth, depth)
        alive = bytearray([1]) * size
        for q, rs in self._roots:
            for r in rs:
                start = (r - lo) % q
                if start < size:
                    alive[start::q] = bytearray(len(range(start, size, q)))
        poly = self.poly
        limit = self._depth
        exact = limit * limit
        split = min(max(self._direct_upto - lo, 0), size)
        for i in range(split):
            n = lo + i
            v = poly.eval(n)
            if alive[i]:
                prime = v <= exact or is_prime(v)
            else:
                prime = v <= limit and is_prime(v)
            if v >= 2 and prime:
                yield n, v
        for n in compress(range(lo + split, lo + size), memoryview(alive)[split:]):
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
            for n, v in self._block_primes(lo, hi - lo, max(_MIN_DEPTH, hi), test):
                if v not in head:
                    if n < self._direct_upto:
                        head.add(v)
                    yield n, v

    def pm1_factorization(self, p: int) -> Factorization:
        """factor(p - 1).  No walk calls it (they factor in groups); it stays
        because perfbench wraps it by name for its streaks.pm1 counters."""
        return factor(p - 1)

    def _factored(self, n_cap: int) -> Iterator[tuple[int, int, Factorization]]:
        """(n, p, factorization of p - 1) for the candidates p = f(n), n <= n_cap,
        which passed only the base-2 test: its one caller, _residual_indices,
        proves each p.  Each _GROUP of p - 1 is one factor_many batch.  A p
        whose p - 1 failed to factor raises that error here if it is prime,
        and is dropped if not."""
        candidates = self._entries(n_cap, arith.is_strong_probable_prime)
        while group := list(islice(candidates, _GROUP)):
            for (n, p), pm1 in zip(group, arith.factor_many([p - 1 for _, p in group])):
                if not isinstance(pm1, Exception):
                    yield n, p, pm1
                elif is_prime(p):
                    raise pm1


def _residual_indices(
    f: AnyPoly, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> Iterator[tuple[int, int, Factorization, int | None]]:
    """Yield (n, p, pm1, index) over the distinct primes p = f(n), n <= n_cap,
    in order: pm1 factors p - 1, and index is (p-1)/ord_p(g), 1 exactly when g
    is a primitive root mod p, or None when p divides g.  Arguments are
    checked before the walk.  g is the Lucas witness; a candidate it does not
    certify (a failing prime, an index above 1, p | g) counts only once
    is_prime proves it.  Every walk over proven primes reads this one."""
    require_valid_base(g)
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    if stream is None:
        stream = PrimeValueStream(f)

    def walk() -> Iterator[tuple[int, int, Factorization, int | None]]:
        for n, p, pm1 in stream._factored(n_cap):
            if arith.lucas_certifies(g, p, pm1):
                yield n, p, pm1, 1
            elif is_prime(p):
                yield n, p, pm1, None if g % p == 0 else arith.residual_index(g, p, pm1)

    return walk()


def streak(
    f: AnyPoly, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> StreakResult:
    """Walk the distinct primes f(n), n = 0..n_cap in order, skipping primes
    dividing g, and count how many consecutive ones have g as a primitive
    root before the first failure.  A stream passed in lends its sieve roots."""
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


def verify_primitive_root_prefix(f: AnyPoly, g: int, prefix: int, n_cap: int = 10_000_000) -> bool:
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


def prime_count(f: AnyPoly, x: int) -> int:
    """#{0 <= n <= x : f(n) prime}.  Counts n, not distinct primes."""
    if x < 0:
        raise ValueError("x must be >= 0")
    poly = as_polyz(f)
    if poly.degree() < 1:
        return (x + 1) if poly.coeffs[0] >= 2 and is_prime(poly.coeffs[0]) else 0
    if poly.leading() < 0:
        raise ValueError("prime scans need a positive leading coefficient")
    limit = _default_sieve_limit(poly)
    if poly.degree() <= 2:
        # roots mod q have a closed form, so sieve to sqrt(max f): then every
        # survivor is prime without a test
        top = max(poly.eval(0), poly.eval(x), 0)
        limit = max(limit, min(isqrt(top), _COUNT_SIEVE_CAP))
    stream = PrimeValueStream(poly, sieve_limit=limit)
    block = max(_BLOCK, limit // 8)  # a block pays one pass over every root
    return sum(
        1
        for lo in range(0, x + 1, block)
        for _ in stream._block_primes(lo, min(block, x + 1 - lo), limit, is_prime)
    )


def pr_stats(f: AnyPoly, g: int, n_cap: int) -> PrStats:
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


def empirical_max_streak(
    g_base: int,
    f: AnyPoly,
    k_max: int,
    n_cap: int = 200_000,
    workers: int = 1,
) -> tuple[int, int]:
    """(k_best, c_best): the maximum streak of k^2 * g_base over 1 <= k <= k_max,
    ties broken by the smallest k.

    Raises RuntimeError if some streak reaches n_cap unfinished while at least
    as long as the reported best (the maximum would then be uncertified).
    """
    # search builds on this module, so its sweep engine is imported on use
    from .search import BestStreak, base_streaks

    require_valid_base(g_base)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best = BestStreak()
    for k, c, failing in base_streaks(f, g_base, 1, k_max, n_cap, workers):
        best.add(k, c, failing)
    if not best.certified:
        raise RuntimeError(
            f"n_cap={n_cap} too small: an unfinished streak ties or beats the best"
        )
    return best.k, best.c
