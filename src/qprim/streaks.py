"""Primes represented by a polynomial, primitive-root streaks, and counts.

The workhorse is PrimeValueStream: a lazily extended, deduplicated list of
(n, f(n)) pairs with f(n) prime, backed by a block sieve on the roots of f
mod each sieve prime, from poly.roots_mod.  A survivor f(n)
of the sieve has no prime factor up to the sieve limit, so it is prime
outright when 2 <= f(n) <= limit^2; only larger survivors reach the
deterministic Miller-Rabin test, and prime_count sieves linear and quadratic
f far enough that none do.  The
stream also caches, per prime p, the factorization of p-1 and the exponents
(p-1)/q of its odd prime factors q, and, per squarefree part g1 of a base,
whether g1 is a quadratic non-residue mod p.  A base g = s^2 * g1 with p not
dividing g has (g/p) = (g1/p), so sweeping the bases k^2 * g_base over one
polynomial pays the Euler-criterion test once per prime, not once per base.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator

from . import arith
from .arith import (
    Factorization,
    factor,
    is_prime,
    primes_up_to,
    squarefree_decomposition,
)
from .charsums import require_valid_base
from .poly import AnyPoly, PolyZ, as_polyz, roots_mod

_BLOCK = 8192
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
    """Ordered, deduplicated primes among f(0), f(1), ... with cached p-1
    factorizations and quadratic characters."""

    def __init__(self, f: AnyPoly, sieve_limit: int | None = None):
        poly = as_polyz(f)
        if poly.degree() < 1:
            raise ValueError("constant polynomials have no prime-value stream")
        if sieve_limit is None:
            sieve_limit = _default_sieve_limit(poly)
        self.poly = poly
        self.sieve_limit = sieve_limit
        self._sieve_primes = primes_up_to(sieve_limit)
        self._roots: list[tuple[int, tuple[int, ...]]] | None = None
        self._direct_upto = 0  # below this n, sieve kills are double-checked
        self._entries: list[tuple[int, int]] = []  # (n, p), n ascending
        self._seen: set[int] = set()
        self._next_n = 0
        self._pm1: dict[int, Factorization] = {}
        self._odd_exponents: dict[int, tuple[int, ...]] = {}  # p -> (p-1)/q, q odd
        self._nonresidue: dict[int, dict[int, bool]] = {}  # g1 -> p -> (g1/p) == -1

    def _build_roots(self) -> None:
        if self._roots is not None:
            return
        self._direct_upto = _positive_tail_start(self.poly, self.sieve_limit)
        # a q dividing every value stays: survivors must be free of it
        self._roots = [(q, rs) for q in self._sieve_primes if (rs := roots_mod(self.poly, q))]

    def _block_primes(self, lo: int, size: int) -> Iterator[tuple[int, int]]:
        """Yield (n, f(n)) for the n in [lo, lo + size) with f(n) prime, ascending.
        A survivor f(n) >= 2 has no prime factor up to sieve_limit, so it is
        prime if f(n) <= sieve_limit^2; only larger ones reach Miller-Rabin.
        Below _direct_upto a sieve kill may be f(n) equal to a sieve prime,
        so those n are tested directly."""
        self._build_roots()
        alive = bytearray([1]) * size
        for q, rs in self._roots:
            for r in rs:
                start = (r - lo) % q
                if start < size:
                    alive[start::q] = bytearray(len(range(start, size, q)))
        poly = self.poly
        limit = self.sieve_limit
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
            if v >= 2 and (v <= exact or is_prime(v)):
                yield n, v

    def _extend_block(self) -> None:
        for n, v in self._block_primes(self._next_n, _BLOCK):
            if v not in self._seen:
                self._seen.add(v)
                self._entries.append((n, v))
        self._next_n += _BLOCK

    def entries_upto(self, n_cap: int) -> Iterator[tuple[int, int]]:
        """Yield (n, p) pairs with n <= n_cap in ascending n."""
        i = 0
        while True:
            while i >= len(self._entries) and self._next_n <= n_cap:
                self._extend_block()
            if i >= len(self._entries):
                return
            n, p = self._entries[i]
            if n > n_cap:
                return
            yield n, p
            i += 1

    def pm1_factorization(self, p: int) -> Factorization:
        fact = self._pm1.get(p)
        if fact is None:
            fact = factor(p - 1)
            self._pm1[p] = fact
        return fact

    def primitive_root_walk(self, g: int, n_cap: int) -> Iterator[tuple[int, int, bool | None]]:
        """Yield (n, p, verdict) for the entries with n <= n_cap: verdict is
        None when p divides g, else whether g is a primitive root mod p.

        The q = 2 test is Euler's criterion on the squarefree part g1 of g,
        cached per (g1, p); the odd q test g^((p-1)/q) != 1 with cached
        exponents.  Agrees with arith.is_primitive_root."""
        _, g1 = squarefree_decomposition(g)
        nonresidue = self._nonresidue.setdefault(g1, {})
        odd_exponents = self._odd_exponents
        for n, p in self.entries_upto(n_cap):
            r = g % p
            if r == 0:
                yield n, p, None
                continue
            ok = nonresidue.get(p)
            if ok is None:
                ok = nonresidue[p] = p == 2 or pow(g1 % p, p >> 1, p) == p - 1
            if ok:
                exps = odd_exponents.get(p)
                if exps is None:
                    exps = odd_exponents[p] = tuple(
                        (p - 1) // q for q in self.pm1_factorization(p).prime_factors() if q != 2
                    )
                for e in exps:
                    if pow(r, e, p) == 1:
                        ok = False
                        break
            yield n, p, ok

    def residual_index(self, g: int, p: int) -> int:
        return arith.residual_index(g, p, self.pm1_factorization(p))


def streak(
    f: AnyPoly, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> StreakResult:
    """Walk the distinct primes f(n), n = 0..n_cap in order, skipping primes
    dividing g, and count how many consecutive ones have g as a primitive
    root before the first failure."""
    require_valid_base(g)
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    if stream is None:
        stream = PrimeValueStream(f)
    count = 0
    primes_seen = 0
    for n, p, ok in stream.primitive_root_walk(g, n_cap):
        primes_seen += 1
        if ok:
            count += 1
        elif ok is False:
            return StreakResult(
                poly=f,
                g=g,
                count=count,
                n_at_failure=n,
                failing_prime=p,
                residual_index_at_failure=stream.residual_index(g, p),
                n_scanned=n + 1,
                primes_seen=primes_seen,
            )
    return StreakResult(
        poly=f,
        g=g,
        count=count,
        n_at_failure=None,
        failing_prime=None,
        residual_index_at_failure=None,
        n_scanned=n_cap + 1,
        primes_seen=primes_seen,
    )


def verify_primitive_root_prefix(
    f: AnyPoly,
    g: int,
    prefix: int,
    n_cap: int = 10_000_000,
    stream: PrimeValueStream | None = None,
) -> bool:
    """True iff the first `prefix` distinct primes f(n) (those not dividing g)
    all have g as a primitive root.  Stops as soon as the answer is known;
    raises RuntimeError if fewer than `prefix` primes exist up to n_cap."""
    require_valid_base(g)
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    if stream is None:
        stream = PrimeValueStream(f)
    checked = 0
    for _, _, ok in stream.primitive_root_walk(g, n_cap):
        if ok is None:
            continue
        if not ok:
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
        for _ in stream._block_primes(lo, min(block, x + 1 - lo))
    )


def pr_stats(
    f: AnyPoly, g: int, n_cap: int, stream: PrimeValueStream | None = None
) -> PrStats:
    """Histogram of residual indices of g over the distinct primes f(n) with
    n <= n_cap and p not dividing g."""
    require_valid_base(g)
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    if stream is None:
        stream = PrimeValueStream(f)
    hist: dict[int, int] = {}
    total = 0
    for _, p in stream.entries_upto(n_cap):
        if g % p == 0:
            continue
        total += 1
        r = stream.residual_index(g, p)
        hist[r] = hist.get(r, 0) + 1
    return PrStats(
        primes_total=total,
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
