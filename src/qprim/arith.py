"""Exact integer and modular primitives: symbols, primality, factorization, orders.

Everything here is deterministic and exact in its supported range.  Primality
uses fixed Miller-Rabin witness tiers proven complete below 3.317e24; the
walks pre-filter by the base-2 test alone and prove primes by Lucas
(lucas_certifies).  Factorization runs in batches (factor_many): the primes
up to 2000 come from one gcd with their cached primorial (up to 1e5 while the
cofactor is still beyond the primality range), and Brent's cycle-finding rho
splits the composite cofactors left together, in lockstep on products of
several, under an iteration budget that fails loudly instead of hanging.

This is also the package's one prime sieve.  An odd-only numpy sieve fills a
cached table of the primes up to 2e6; prime_chunks hands out read-only int64
slices of it and, past it, sieves numpy segments by the table's primes.
primes_up_to, iter_primes, factor's trial primes and the Euler products of
densities all read from prime_chunks.  Lanes, the one numpy modular kernel,
does exact arithmetic mod such a chunk, one lane per prime: the Legendre
symbols of densities, the value sieve's root tables (poly.roots_table) and
the k-sweep's matrix (streaks.base_streaks) all run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
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
_RHO_CS = (1, 3, 5, 7, 11, 13, 17)  # rho's increments c, tried in turn
_RHO_BLOCK = 128  # rho steps between gcds
_RHO_WIDTH = 256  # bits: rho lanes are packed into products at least this wide
_PRIME_CHUNK = 8192
_SEGMENT = 1 << 17
_PRIME_CACHE_CAP = 2_000_000
_prime_cache = np.zeros(0, dtype=np.int64)
_prime_cache_limit = 0


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, int64 (an odd-only sieve: entry i
    stands for 2i + 1, and entry 0, for 1, becomes 2)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)  # then scaled in place: no full-size temporaries
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


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


def _strong_test(n: int, witnesses: tuple[int, ...]) -> bool:
    """True when odd n > 2 passes the strong (Miller-Rabin) test to each base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    for a in witnesses:
        x = pow(a, d >> s, n) if a % n else 1  # a multiple of n proves nothing
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def is_strong_probable_prime(n: int) -> bool:
    """The strong test of odd n > 2 to base 2: every prime passes, and so do
    rare composites (2047 the least), so True proves nothing."""
    return _strong_test(n, (2,))


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
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    return _strong_test(n, witnesses)


@dataclass(frozen=True)
class Factorization:
    """Exact prime-power decomposition: value == prod(p**e)."""

    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def prime_factors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

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


def _pack(lanes: list, ys: list[int], found: list) -> list[list]:
    """The rho lanes at their values ys, in order, in products [lanes, n, y]
    at least _RHO_WIDTH bits wide: n is the product of the lanes' moduli and
    y the CRT of their values (Garner).  A lane sharing a proper factor with
    the product being filled is split by it; one dividing it starts the next."""
    out: list[list] = []
    for lane, y in zip(lanes, ys):
        m = lane[1]
        g = math.gcd(m, out[-1][1]) if out and out[-1][1].bit_length() < _RHO_WIDTH else m
        if g == m:
            out.append([[lane], m, y])
        elif g != 1:
            found[lane[0]] = g
        else:
            prod = out[-1]
            prod[0].append(lane)
            prod[2] += prod[1] * ((y - prod[2]) * pow(prod[1], -1, m) % m)
            prod[1] *= m
    return out


def _rho_round(prod: list, r: int, c: int, steps: int, budget: int, found: list, retry: list) -> None:
    """One doubling round of Brent's rho on all lanes of prod = [lanes, n, y]
    at once.  A gcd with n every _RHO_BLOCK steps shows which lanes closed
    their cycle; they leave, as do lanes past the budget.  A lane whose gcd is
    all of it backtracks alone, and is retried if that still takes all of it."""
    lanes, n, y = prod
    slack = budget - steps - max(spent for *_, spent in lanes)  # stays a lower bound
    x = y
    for _ in range(r):
        y = (y * y + c) % n
    k, q = 0, 1
    while k < r and lanes:
        ys, block = y, min(_RHO_BLOCK, r - k)
        for _ in range(block):
            y = (y * y + c) % n
            q = q * (x - y) % n  # the sign of x - y leaves every gcd as is
        k += block
        common = math.gcd(q, n)
        if common == 1 and k <= slack:
            continue
        keep = []
        for lane in lanes:
            i, m, spent = lane
            g = math.gcd(common, m)
            if g == m:
                z = ys % m
                for _ in range(block):
                    z = (z * z + c) % m
                    if (g := math.gcd(x - z, m)) != 1:
                        break
            if 1 < g < m:
                found[i] = g
            elif g == m:
                retry.append((i, m, spent + steps + k))
            elif spent + steps + k <= budget:
                keep.append(lane)
        if len(keep) < len(lanes):
            lanes, n = keep, math.prod(m for _, m, _ in keep)
            x, y, q = x % n, y % n, q % n
    prod[:] = lanes, n, y


def _brent_rho(ms: list[int], budget: int) -> list[int | None]:
    """A nontrivial factor of each odd composite in ms, or None where budget
    steps run out or every c fails: Brent's rho (1980), one attempt per c, on
    all lanes in lockstep through the doubling rounds.  Between rounds the
    lanes of products that have narrowed are repacked."""
    found: list[int | None] = [None] * len(ms)
    lanes = [(i, m, 0) for i, m in enumerate(ms)]  # (index, modulus, steps spent)
    for c in _RHO_CS:
        retry: list = []
        products, r, steps = _pack(lanes, [2] * len(lanes), found), 1, 0
        while products:
            for prod in products:
                _rho_round(prod, r, c, steps, budget, found, retry)
            steps, r = steps + r, 2 * r
            products = [p for p in products if p[0]]
            narrow = [p for p in products if p[1].bit_length() < _RHO_WIDTH]
            if len(narrow) > 1:
                products = [p for p in products if p[1].bit_length() >= _RHO_WIDTH]
                lanes = [lane for p in narrow for lane in p[0]]
                products += _pack(lanes, [p[2] % lane[1] for p in narrow for lane in p[0]], found)
        lanes = retry
    return found


@cache
def _trial_primes(bound: int) -> tuple[list[int], int]:
    """The primes up to bound, and their product."""
    primes = primes_up_to(bound)
    return primes, math.prod(primes)


def _divide_out(work: int, bound: int, fmap: dict[int, int]) -> int:
    """work with its primes up to bound divided out, each recorded in fmap
    with its exponent: one gcd with their primorial finds them all, and one
    pass over the primes takes them out, ending once what is left of that gcd
    is 1 or one prime."""
    primes, primorial = _trial_primes(bound)
    g = math.gcd(work, primorial)
    for p in primes:
        if g < p * p:  # g's primes are all >= p, so g is 1 or one prime
            break
        if g % p == 0:
            g //= p
            work = _strip(work, p, fmap)
    return work if g == 1 else _strip(work, g, fmap)


def _strip(work: int, p: int, fmap: dict[int, int]) -> int:
    """work with every factor p divided out, their count recorded in fmap."""
    fmap[p] = 0
    while work % p == 0:
        work //= p
        fmap[p] += 1
    return work


def factor_many(values: list[int], rho_budget: int = 4_000_000) -> list[Factorization | Exception]:
    """factor(n) for each n in values, as one batch: its Factorization, or
    the ValueError or FactorizationError that factor(n) raises.  The small
    primes come from gcds with primorials, and the composite cofactors left
    are split together by _brent_rho.  A cofactor or rho factor below the
    square of the trial bound has no prime factor up to it, so it is prime
    without an is_prime call."""
    fmaps: list[dict[int, int]] = [{} for _ in values]
    out: list = [None] * len(values)
    parts = []  # (index, cofactor with no prime factor up to bound, bound, is it prime)
    for i, n in enumerate(values):
        try:
            if n < 1:
                raise ValueError("factor() requires n >= 1")
            work, bound = _divide_out(n, _SHORT_TRIAL, fmaps[i]), _SHORT_TRIAL
            if work >= DETERMINISTIC_PRIMALITY_LIMIT:
                work, bound = _divide_out(work, _TRIAL_LIMIT, fmaps[i]), _TRIAL_LIMIT
            if work > 1:  # no factor up to the bound and below its square -> prime
                parts.append((i, work, bound, work < bound * bound or is_prime(work)))
        except ValueError as exc:
            out[i] = exc
    while parts:
        todo = [(i, m, bound) for i, m, bound, prime in parts if not prime and out[i] is None]
        for i, m, _, prime in parts:
            if prime:
                fmaps[i][m] = fmaps[i].get(m, 0) + 1
        parts = []
        for (i, m, bound), d in zip(todo, _brent_rho([m for _, m, _ in todo], rho_budget)):
            if d is None:
                out[i] = FactorizationError(f"cannot factor {m} within budget")
            else:  # d and m // d have no prime factor up to bound either
                parts += [(i, e, bound, e < bound * bound or is_prime(e)) for e in (d, m // d)]
    return [
        err if err is not None else Factorization(value=n, factors=tuple(sorted(fmap.items())))
        for n, err, fmap in zip(values, out, fmaps)
    ]


def factor(n: int, rho_budget: int = 4_000_000) -> Factorization:
    """Factor n >= 1 (factor_many on a batch of one).  Only a cofactor that no
    primality test here can certify, at or above DETERMINISTIC_PRIMALITY_LIMIT
    with no prime factor up to 1e5, raises ValueError; FactorizationError when
    the rho budget is exhausted (n is outside the intended magnitude range)."""
    result = factor_many([n], rho_budget)[0]
    if isinstance(result, Exception):
        raise result
    return result


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


_INT64_PRIME_BOUND = 2**31  # lift's and sqrt's bound: each limb of residues() is at least 31 bits
_FLOAT_PRIME_BOUND = 2**26  # keeps a product of balanced residues below 2^52
_QUOTIENT_PRIME_BOUND = 2**50  # keeps fl(x) fl(y) fl(1/p) within 0.375 of x y / p


def residues(a: int, P: np.ndarray) -> np.ndarray:
    """|a| mod each entry of the int64 array P, exact for any Python int a:
    Horner's rule over the limbs of |a|, each 62 - bits(max p) bits wide,
    keeps every intermediate below 2^62."""
    top = int(P.max()) if len(P) else 0
    if top >= _INT64_PRIME_BOUND:
        raise ValueError(f"moduli must stay below 2^31 for int64 arithmetic, got {top}")
    bits = 62 - top.bit_length()
    m = abs(a)
    limbs = []
    while m:
        limbs.append(m & ((1 << bits) - 1))
        m >>= bits
    r = np.zeros_like(P)
    for limb in reversed(limbs):
        r = ((r << bits) + limb) % P
    return r


class Lanes:
    """Exact arithmetic mod each odd prime p of an array P, in any order, one
    lane per p; residues broadcast against P, a column of them against a row
    of lanes.  The largest p picks the residues.  Below 2^26, float64 in
    [-(p-1)/2, (p-1)/2], and x y mod p is t - q p, t = x y and
    q = rint(t * (1/p)): |t| <= p^2/4 < 2^52, so t, q p and t - q p are
    exact; t * (1/p) is within about 2^-28 of t/p, which (p odd) lies at
    least 1/(2p) > 2^-27 from any half-integer.  Below 2^50 (or with
    balanced=False), int64 in [0, p), and q = rint(fl(x) fl(y) (1/p)) lies
    within 0.375 + 1/2 of x y / p, so x y - q p, exact in wrapping int64, needs
    at most one + p.  From 2^50, Python ints.  lift and sqrt take p below 2^31."""

    def __init__(self, P: np.ndarray, balanced: bool | None = None):
        top = int(P.max()) if len(P) else 0
        self.balanced = top < _FLOAT_PRIME_BOUND if balanced is None else balanced
        self.P = P.astype(object if top >= _QUOTIENT_PRIME_BOUND else np.int64, copy=False)
        if self.balanced:
            self.p = self.P.astype(np.float64)
            self.inv, self._t = 1.0 / self.p, np.empty_like(self.p)
        elif self.P.dtype != object:
            self.inv = 1.0 / self.P
        self.minus_one = -1.0 if self.balanced else self.P - 1

    def take(self, index: np.ndarray) -> "Lanes":
        """The lanes picked by index (a mask or positions), in this representation."""
        return Lanes(self.P[index], self.balanced)

    def lift(self, a: int) -> np.ndarray:
        """a mod each p as a residue of this representation; a negative a is
        negated after |a| is reduced, by a sign flip in the balanced one."""
        r = residues(a, self.P)
        if self.balanced:
            r = np.where(r > self.P >> 1, r - self.P, r).astype(np.float64)
            return np.negative(r, out=r) if a < 0 else r
        return np.subtract(self.P, r, out=r, where=r > 0) if a < 0 else r

    def lower(self, x: np.ndarray) -> np.ndarray:
        """The residues x in [0, p), as int64 below 2^50."""
        if not self.balanced:
            return x
        r = x.astype(np.int64)
        return np.add(r, self.P, out=r, where=r < 0)

    def mul(self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x y mod p lane by lane (into out, which may be x)."""
        if self.balanced:
            t = np.multiply(x, y, out=self._t if x.shape == y.shape == self._t.shape else None)
            q = np.rint(np.multiply(t, self.inv, out=out), out=out)
            return np.subtract(t, np.multiply(q, self.p, out=q), out=q)
        if self.P.dtype == object:
            return np.remainder(np.multiply(x, y, out=out), self.P, out=out)
        f = np.multiply(x, y, dtype=np.float64)
        q = np.rint(np.multiply(f, self.inv, out=f), out=f).astype(np.int64)
        r = np.subtract(np.multiply(x, y, out=out), np.multiply(q, self.P, out=q), out=out)
        return np.add(r, self.P, out=r, where=r < 0)

    def pow(self, x: np.ndarray, E: np.ndarray) -> np.ndarray:
        """x^E lane by lane for exponents E >= 0 (int64 below 2^50), over
        two-bit windows of E with x^0..x^3 from a table (a lane with E < 4
        reads x itself)."""
        if self.P.dtype == object:
            return np.frompyfunc(pow, 3, 1)(x, E, self.P)
        x2 = self.mul(x, x)
        powers = np.stack((np.ones_like(x), x, x2, self.mul(x2, x)), axis=-1).ravel()
        rows = np.arange(0, powers.size, 4).reshape(x.shape)
        k = max(int(E.max()).bit_length() - 1, 0) // 2 * 2 if E.size else 0  # the top window
        r = powers[rows + ((E >> k) & 3)]
        for k in range(k - 2, -1, -2):
            self.mul(r, r, out=r)
            self.mul(r, r, out=r)
            self.mul(r, powers[rows + ((E >> k) & 3)], out=r)
        return r

    def sqrt(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(R, square): square marks the lanes where x is a nonzero square
        mod p, and there R^2 = x, by Tonelli-Shanks over the lanes.  With
        p - 1 = Q 2^S, R = x^((Q+1)/2) and T = x^Q; x is a nonzero square iff
        T^(2^(S-1)) = x^((p-1)/2) = 1.  Each round multiplies R by
        c^(2^(M-i-1)), c of order 2^M and i the least with T^(2^i) = 1, until
        T = 1 in every lane.  c starts as z^Q for the least non-residue z of
        the lane's p, found by reciprocity, only where x is a square and
        T != 1 (so p = 1 mod 4)."""
        P = self.P
        S = np.frexp((P - 1) & (1 - P))[1] - 1  # the exponent of 2 in p - 1
        y = self.pow(x, (P - 1) >> S + 1)
        R = self.mul(y, x)
        T = self.mul(y, R)
        square = T == 1
        todo = np.flatnonzero(~square)
        lanes, T, M, R_todo, c = self.take(todo), T[todo], S[todo], R[todo], None
        while len(todo):
            i, t2 = np.zeros_like(M), T
            for j in range(1, int(M.max())):
                t2 = lanes.mul(t2, t2)
                i[(i == 0) & (t2 == 1)] = j
            if c is None:  # the first round: x is 0 or no square where T^(2^(M-1)) != 1
                keep = (0 < i) & (i < M)
                square[todo[keep]] = True
                lanes, todo, T, M, i, R_todo = lanes.take(keep), todo[keep], T[keep], M[keep], i[keep], R_todo[keep]
                Z = np.where(lanes.P % 8 == 5, 2, 0)  # here p = 1 mod 4: (2/p) = -1 iff p = 5 mod 8
                for z in iter_primes(3, math.isqrt(int(P.max())) + 1 if len(todo) else 0):
                    if Z.all():
                        break
                    residue = np.zeros(z, bool)
                    residue[np.arange(z) ** 2 % z] = True
                    Z[(Z == 0) & ~residue[lanes.P % z]] = z  # (z/p) = (p/z), by reciprocity
                c = lanes.pow(Z.astype(T.dtype), lanes.P - 1 >> M)  # z < sqrt(p) + 1 <= (p-1)/2: balanced
            b, e = c, M - i - 1
            for j in range(int(e.max(initial=0))):
                b = np.where(j < e, lanes.mul(b, b), b)
            R_todo, c = lanes.mul(R_todo, b), lanes.mul(b, b)
            T, M = lanes.mul(T, c), i
            done = T == 1
            R[todo[done]] = R_todo[done]
            keep = ~done
            lanes, todo, T, M, c, R_todo = lanes.take(keep), todo[keep], T[keep], M[keep], c[keep], R_todo[keep]
        return R, square


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

    For odd prime p this is exactly lucas_certifies: g^((p-1)/q) != 1 for
    every prime q | p-1, with -1 at q = 2. For p = 2 every odd g qualifies.
    """
    _require_unit(g, p)
    return p == 2 or lucas_certifies(g, p, pm1 or factor(p - 1))


def lucas_certifies(g: int, p: int, pm1: Factorization) -> bool:
    """True when g proves p prime by the converse of Fermat's theorem in
    D. H. Lehmer's form (1927): with pm1 the factorization of p - 1,
    g^((p-1)/2) = -1 and g^((p-1)/q) != 1 (mod p) for every odd prime q | p-1.
    g is then a primitive root mod p.  False proves nothing about p."""
    if p < 3 or p % 2 == 0:
        return False
    r = g % p
    if pow(r, p >> 1, p) != p - 1:  # -1, not merely != 1: that gives g^(p-1) = 1
        return False
    return all(pow(r, (p - 1) // q, p) != 1 for q in pm1.prime_factors()[1:])


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
