"""Exact integer and modular primitives: symbols, primality, factorization, orders.

Everything here is deterministic and exact in its supported range.  Primality
uses fixed Miller-Rabin witness tiers proven complete below 3.317e24.
Factorization trial-divides by the primes up to 2000 (up to 1e5 while the
cofactor is still beyond that primality range), then splits what is left with
Brent's cycle-finding rho under an iteration budget that fails loudly instead
of hanging.

This is also the package's one prime sieve.  An odd-only numpy sieve fills a
cached table of the primes up to 2e6; prime_chunks hands out read-only int64
slices of it and, past it, sieves numpy segments by the table's primes.
primes_up_to, iter_primes, factor's trial primes and the Euler products of
densities all read from prime_chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from typing import Iterator

import numpy as np


class FactorizationError(RuntimeError):
    """An integer resisted factorization within the configured budget."""


# Witness sets proven deterministic below the paired bound.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),  # Sinclair 2011
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

DETERMINISTIC_PRIMALITY_LIMIT = _MR_TIERS[-1][0]

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

_SHORT_TRIAL = 2_000  # factor's trial bound; rho finds the factors above it
_TRIAL_LIMIT = 100_000  # factor's bound for huge cofactors; the least table size
_PRIME_CHUNK = 8192
_SEGMENT = 1 << 17
_PRIME_CACHE_CAP = 2_000_000
_prime_cache = np.zeros(0, dtype=np.int64)
_prime_cache_limit = 0


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, int64 (an odd-only sieve: entry i
    stands for 2i + 3)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit - 1) // 2, dtype=bool)
    for i in range((math.isqrt(limit) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 3)).astype(np.int64)


def _primes_to(limit: int) -> np.ndarray:
    """The primes <= min(limit, _PRIME_CACHE_CAP): a read-only view of the
    cached table, which is rebuilt (to at least 1e5) when a larger limit is
    asked for."""
    global _prime_cache, _prime_cache_limit
    limit = min(limit, _PRIME_CACHE_CAP)
    if limit > _prime_cache_limit:
        _prime_cache_limit = max(limit, _TRIAL_LIMIT)
        _prime_cache = _sieve(_prime_cache_limit)
        _prime_cache.flags.writeable = False
    return _prime_cache[: np.searchsorted(_prime_cache, limit, side="right")]


def prime_chunks(start: int, stop: int) -> Iterator[np.ndarray]:
    """The primes p with start <= p <= stop, ascending, in read-only int64
    arrays: slices of at most 8192 primes of the cached table, then, past its
    cap, the primes of one numpy-sieved segment of 2^17 integers at a time.
    stop <= 1e10."""
    if stop > 10**10:
        raise ValueError("primes are listed only up to stop <= 1e10")
    table = _primes_to(stop)
    for i in range(np.searchsorted(table, start), len(table), _PRIME_CHUNK):
        yield table[i : i + _PRIME_CHUNK]
    lo = max(start, _PRIME_CACHE_CAP + 1)
    while lo <= stop:
        hi = min(lo + _SEGMENT - 1, stop)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in _primes_to(math.isqrt(hi)).tolist():  # every p < lo
            flags[-lo % p :: p] = False
        segment = lo + np.flatnonzero(flags)
        segment.flags.writeable = False
        yield segment
        lo = hi + 1


def primes_up_to(n: int) -> list[int]:
    """All primes <= n."""
    return list(iter_primes(2, n))


@cache
def _trial_primes() -> list[int]:
    return primes_up_to(_TRIAL_LIMIT)


def _mr_composite_witness(n: int, d: int, s: int, a: int) -> bool:
    # True if a proves n composite; d * 2^s == n - 1 with d odd.
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.317e24.

    Raises ValueError above that limit rather than returning a
    probabilistic answer.
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 3721:  # 61^2: no factor <= 61 and below the square
        return True
    if n >= DETERMINISTIC_PRIMALITY_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic primality range (< 3.317e24)")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    for a in witnesses:
        if _mr_composite_witness(n, d, s, a):
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Exact prime-power decomposition: value == prod(p**e)."""

    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def prime_factors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def expand(self) -> int:
        return reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def divisors(self, limit: int | None = None) -> list[int]:
        """All positive divisors, optionally only those <= limit. Sorted."""
        divs = [1]
        for p, e in self.factors:
            block = []
            for d in divs:
                v = d
                for _ in range(e):
                    v *= p
                    if limit is not None and v > limit:
                        break
                    block.append(v)
            divs.extend(block)
        return sorted(divs)


def _brent_rho(n: int, budget: int) -> int | None:
    """One nontrivial factor of odd composite n, or None if the budget runs out."""
    spent = 0
    for c in (1, 3, 5, 7, 11, 13, 17):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(128, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # the sign of x - y leaves every gcd as is
                g = math.gcd(q, n)
                k += m
                spent += m
                if spent > budget:
                    return None
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                spent += 1
                if spent > budget:
                    return None
        if g != n:
            return g
    return None


def factor(n: int, rho_budget: int = 4_000_000) -> Factorization:
    """Factor n >= 1. Trial division to 2000, then Brent rho on the cofactor.

    A cofactor still at or above DETERMINISTIC_PRIMALITY_LIMIT after 2000 is
    trial-divided on to 1e5 first, so only cofactors that no primality test
    here can certify raise ValueError.  Raises FactorizationError when the
    rho budget is exhausted (the honest signal that n is outside the
    intended magnitude range).
    """
    if n < 1:
        raise ValueError("factor() requires n >= 1")
    fmap: dict[int, int] = {}
    work = n
    bound = _SHORT_TRIAL
    for p in _trial_primes():
        if p > bound:
            if work < DETERMINISTIC_PRIMALITY_LIMIT:
                break
            bound = _TRIAL_LIMIT
        if p * p > work:
            break
        if work % p == 0:
            e = 0
            while work % p == 0:
                work //= p
                e += 1
            fmap[p] = e
    if work > 1:
        if work < bound * bound or is_prime(work):
            # no factor up to the bound and below its square -> prime
            fmap[work] = fmap.get(work, 0) + 1
        else:
            stack = [work]
            while stack:
                m = stack.pop()
                if is_prime(m):
                    fmap[m] = fmap.get(m, 0) + 1
                    continue
                g = _brent_rho(m, rho_budget)
                if g is None or g in (1, m):
                    raise FactorizationError(f"cannot factor {m} within budget")
                stack.append(g)
                stack.append(m // g)
    return Factorization(value=n, factors=tuple(sorted(fmap.items())))


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise ValueError("euler_phi() requires n >= 1")
    result = n
    for p, _ in factor(n).factors:
        result -= result // p
    return result


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers (n = 0 included)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Smallest square root of a modulo prime p, or None if a is a non-residue.

    Tonelli-Shanks, with the p % 4 == 3 shortcut; residues are told apart by
    Euler's criterion.
    """
    a %= p
    if p == 2 or a == 0:
        return a
    half = (p - 1) >> 1
    if pow(a, half, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, half, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2i = t
            i = 0
            for i in range(1, m):
                t2i = t2i * t2i % p
                if t2i == 1:
                    break
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return min(r, p - r)


def _require_unit(g: int, p: int) -> int:
    r = g % p
    if r == 0:
        raise ValueError(f"base {g} is divisible by the modulus {p}")
    return r


def multiplicative_order(g: int, p: int, pm1: Factorization | None = None) -> int:
    """Smallest v >= 1 with g^v = 1 mod p, for prime p with p not dividing g.

    Pass the factorization of p-1 to skip refactoring in hot loops.
    """
    r = _require_unit(g, p)
    if p == 2:
        return 1
    fact = pm1 if pm1 is not None else factor(p - 1)
    order = p - 1
    for q, _ in fact.factors:
        while order % q == 0 and pow(r, order // q, p) == 1:
            order //= q
    return order


def residual_index(g: int, p: int, pm1: Factorization | None = None) -> int:
    """(p-1) / ord_p(g); equals 1 exactly when g is a primitive root mod p."""
    return (p - 1) // multiplicative_order(g, p, pm1)


def is_primitive_root(g: int, p: int, pm1: Factorization | None = None) -> bool:
    """True iff g generates the multiplicative group mod the prime p.

    Checks g^((p-1)/q) != 1 for every prime q | p-1. Negative g is reduced
    into [0, p) first. For p = 2 every odd g qualifies.
    """
    r = _require_unit(g, p)
    if p == 2:
        return True
    fact = pm1 if pm1 is not None else factor(p - 1)
    pm = p - 1
    for q, _ in fact.factors:
        if pow(r, pm // q, p) == 1:
            return False
    return True


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with m squarefree (sign carried by m). Returns (s, m)."""
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    sign = 1 if n > 0 else -1
    s, m = 1, 1
    for p, e in factor(abs(n)).factors:
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, sign * m


def iter_primes(start: int, stop: int) -> Iterator[int]:
    """Primes p with start <= p <= stop, ascending. stop <= 1e10."""
    for chunk in prime_chunks(start, stop):
        yield from chunk.tolist()
