"""Exact integer and modular primitives: symbols, primality, factorization, orders.

Everything here is deterministic and exact in its supported range.  Primality
uses fixed Miller-Rabin witness tiers proven complete below 3.317e24; the
walks pre-filter by the base-2 test alone and prove primes by Lucas
(_lucas_batch, on a whole group of candidates in one Lanes pass).
Factorization runs in batches (factor_many): the primes up to 2000 come from
one gcd with their cached primorial (up to 1e5 while the cofactor is still
beyond the primality range), a round's cofactors to test take one
strong-test pass on Lanes once there are _STRONG_BATCH of them, and Brent's
cycle-finding rho splits the composite cofactors left together,
in lockstep on products of several, under a fixed budget (_RHO_BUDGET) that
fails loudly, not hangs.

This is also the package's one prime sieve.  An odd-only numpy sieve fills a
cached table of the primes up to 2e6; prime_chunks hands out read-only int64
slices of it and, past it, sieves numpy segments by the table's primes.
primes_up_to, iter_primes, factor's trial primes and the Euler products of
densities all read from prime_chunks.  Lanes, the one numpy modular kernel,
does exact arithmetic mod such a chunk, one lane per prime, on residues in
[0, p) that its callers pass and get back, for every odd p; how it computes
them is its own.
The Legendre symbols of densities, the value sieve's root tables
(poly.roots_table), the k-sweep's matrix (streaks.base_streaks) and the
batched strong and Lucas tests all run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain
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
_RHO_BUDGET = 4_000_000  # rho steps a cofactor may take before factor gives up
_RHO_WIDTH = 256  # bits: rho lanes are packed into products at least this wide
_STRONG_BATCH = 16  # factor_many's fewest cofactors tested in one Lanes pass, not one by one
_PRIME_CHUNK = 8192
_SEGMENT = 1 << 17
_PRIME_CACHE_CAP = 2_000_000
_prime_cache = np.zeros(0, dtype=np.int64)
_prime_cache_limit = 0


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, int64 (an odd-only sieve: entry i
    stands for 2i + 1, and entry 0, for 1, becomes 2).  limit >= 2."""
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
    _require_provable(n)
    return _strong_test(n, _witnesses(n))


def _require_provable(n: int) -> None:
    if n >= DETERMINISTIC_PRIMALITY_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic primality range (< 3.317e24)")


def _witnesses(n: int) -> tuple[int, ...]:
    """The strong-test witnesses of n's tier, n < DETERMINISTIC_PRIMALITY_LIMIT."""
    return next(witnesses for bound, witnesses in _MR_TIERS if n < bound)


def _strong_batch(ns: list[int]) -> list[bool]:
    """is_prime(n) for each n in ns, where every n is at least 3721, has no
    prime factor up to 61 and is below DETERMINISTIC_PRIMALITY_LIMIT (so
    is_prime is the strong test to its tier's witnesses, each below n): two
    passes of _strong_lanes, the first witness of every n, then the others
    of the n that passed it (most composites fail the first)."""
    tiers = [_witnesses(n) for n in ns]
    verdict = _strong_lanes(ns, [w[0] for w in tiers])
    rest = [(i, a) for i, w in enumerate(tiers) if verdict[i] for a in w[1:]]
    for (i, _), passed in zip(rest, _strong_lanes([ns[i] for i, _ in rest], [a for _, a in rest])):
        verdict[i] &= passed
    return verdict


def _strong_lanes(N: list[int], A: list[int]) -> list[bool]:
    """The strong test of each odd n in N to the base a beside it in A,
    1 < a < n, in one pass on Lanes.  With n - 1 = d 2^s, n passes where
    x = a^d is 1 or one of x, x^2, ..., x^(2^(s-1)) is -1; the squarings run
    to the largest s, and a -1 counts only within its lane's own s (past
    it, -1 means a^(n-1) = -1: n is composite)."""
    if not N:
        return []
    S = [((n - 1) & (1 - n)).bit_length() - 1 for n in N]
    lanes = Lanes(np.array(N, object))
    x = lanes.pow(np.array(A, lanes.P.dtype), np.array([n - 1 >> s for n, s in zip(N, S)], lanes.P.dtype))
    passed = (x == 1) | (x == lanes.minus_one)
    S = np.array(S)
    for j in range(1, int(S.max())):
        x = lanes.mul(x, x)
        passed |= (x == lanes.minus_one) & (j < S)
    return passed.tolist()


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


def factor_many(values: list[int]) -> list[Factorization | Exception]:
    """factor(n) for each n in values, as one batch: its Factorization, or
    the ValueError or FactorizationError that factor(n) raises.  The small
    primes come from gcds with primorials, and the composite cofactors left
    are split together by _brent_rho.  A cofactor or rho factor below the
    square of the trial bound has no prime factor up to it, so it is prime
    without a test; the others of one round take is_prime one by one, or,
    from _STRONG_BATCH of them on, one _strong_batch pass on Lanes."""
    fmaps: list[dict[int, int]] = [{} for _ in values]
    out: list = [None] * len(values)
    parts = []  # (index, cofactor with no prime factor up to bound, bound)
    for i, n in enumerate(values):
        try:
            if n < 1:
                raise ValueError("factor() requires n >= 1")
            work, bound = _divide_out(n, _SHORT_TRIAL, fmaps[i]), _SHORT_TRIAL
            if work >= DETERMINISTIC_PRIMALITY_LIMIT:
                work, bound = _divide_out(work, _TRIAL_LIMIT, fmaps[i]), _TRIAL_LIMIT
                _require_provable(work)
            if work > 1:
                parts.append((i, work, bound))
        except ValueError as exc:
            out[i] = exc
    while parts:
        tested = [m for _, m, bound in parts if m >= bound * bound]  # below the square: prime
        prime = dict(zip(tested, _strong_batch(tested) if len(tested) >= _STRONG_BATCH else map(is_prime, tested)))
        todo = []
        for i, m, bound in parts:
            if m < bound * bound or prime[m]:
                fmaps[i][m] = fmaps[i].get(m, 0) + 1
            elif out[i] is None:
                todo.append((i, m, bound))
        parts = []
        for (i, m, bound), d in zip(todo, _brent_rho([m for _, m, _ in todo], _RHO_BUDGET)):
            if d is None:
                out[i] = FactorizationError(f"cannot factor {m} within budget")
            else:  # d and m // d have no prime factor up to bound either
                parts += [(i, d, bound), (i, m // d, bound)]
    return [
        err if err is not None else Factorization(value=n, factors=tuple(sorted(fmap.items())))
        for n, err, fmap in zip(values, out, fmaps)
    ]


def factor(n: int) -> Factorization:
    """Factor n >= 1 (factor_many on a batch of one).  Only a cofactor that no
    primality test here can certify, at or above DETERMINISTIC_PRIMALITY_LIMIT
    with no prime factor up to 1e5, raises ValueError; FactorizationError past
    _RHO_BUDGET rho steps (n is outside the intended magnitude range)."""
    result = factor_many([n])[0]
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


_FLOAT_PRIME_BOUND = 2**26  # keeps a product of lazy residues below 2^52
_QUOTIENT_PRIME_BOUND = 2**50  # keeps 3 p / 2^53, the float quotient's error, below 3/8


def residues(a: int, P: np.ndarray) -> np.ndarray:
    """|a| mod each entry p < 2^61 of the int64 array P, exact for any Python
    int a: Horner's rule over the limbs of |a|, each 62 - bits(max p) bits
    wide, keeps every intermediate below 2^62."""
    top = int(P.max()) if len(P) else 0
    if top >= 2**61:  # a limb would have no bits
        raise ValueError(f"int64 moduli must stay below 2^61, got {top}")
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
    """Exact arithmetic mod each odd p of an array P (prime for sqrt; the
    strong test of factor_many runs on composite ones), in any order, one
    lane per p; residues broadcast against P, a column of them against a row
    of lanes.  lift, pow, mul and sqrt take every such P, and take and
    return residues in [0, p): int64 below 2^50, Python ints from there.
    The largest p picks how they are computed.  Below 2^50 a product is
    lazy, x y - q p for |x|, |y| < p with q = rint(fl(fl(x y) fl(1/p))):
    three roundings of relative error 2^-53 on a quotient below p put q
    within 1/2 + 3p/2^53 < 7/8 of x y / p, so the lazy residue x y - q p
    lies in (-p, p), fit to multiply again.
    Below 2^26 it is computed in float64, where x y < 2^52, q p and their
    difference are exact integers; up to 2^50 in int64, where x y and q p
    wrap but their difference, below p, does not.  pow and mul normalize
    once, at the end: a float64 residue is cast to int64, then
    r + (p & (r >> 63)) adds p where r < 0.  From 2^50, Python ints: %
    reduces, and pow takes the powers."""

    def __init__(self, P: np.ndarray):
        self._set(P, int(P.max()) if len(P) else 0)

    def _set(self, P: np.ndarray, top: int) -> None:
        """Lanes mod P, computed as the largest modulus top picks."""
        self._top = top
        self.P = P.astype(object if top >= _QUOTIENT_PRIME_BOUND else np.int64, copy=False)
        self.minus_one = self.P - 1
        self._p = self.P.astype(np.float64) if top < _FLOAT_PRIME_BOUND else self.P  # p as the products run
        if top < _QUOTIENT_PRIME_BOUND:
            self.inv, self._t = 1.0 / self._p, np.empty_like(self._p)  # _t: the float64 products' buffer

    def take(self, index: np.ndarray) -> "Lanes":
        """The lanes picked by index (a mask or positions), computed as these are."""
        lanes = Lanes.__new__(Lanes)
        lanes._set(self.P[index], self._top)
        return lanes

    def lift(self, a: int) -> np.ndarray:
        """a mod each p: Python's % on Python ints; on int64, a negative a is
        negated after |a| is reduced."""
        if self._top >= _QUOTIENT_PRIME_BOUND:
            return a % self.P
        r = residues(a, self.P)
        return np.subtract(self.P, r, out=r, where=r > 0) if a < 0 else r

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x y mod p lane by lane."""
        return self._normal(self._mul(self._in(x), self._in(y)))

    def pow(self, x: np.ndarray, E: np.ndarray) -> np.ndarray:
        """x^E lane by lane for exponents E >= 0 (int64 below 2^50)."""
        return self._normal(self._pow(self._in(x), E))

    def _in(self, x: np.ndarray) -> np.ndarray:
        """Residues in the type the products run in."""
        return x.astype(self._p.dtype, copy=False)

    def _mul(self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The lazy x y - q p in (-p, p), for |x|, |y| < p (into out, which
        may be x); Python ints reduce to [0, p)."""
        if self._top < _FLOAT_PRIME_BOUND:
            t = np.multiply(x, y, out=self._t if x.shape == y.shape == self._t.shape else None)
            q = np.rint(np.multiply(t, self.inv, out=out), out=out)
            return np.subtract(t, np.multiply(q, self._p, out=q), out=q)
        if self._top >= _QUOTIENT_PRIME_BOUND:
            return np.remainder(np.multiply(x, y, out=out), self.P, out=out)
        f = np.multiply(x, y, dtype=np.float64)
        f *= self.inv
        q = np.rint(f, out=f).astype(np.int64)
        q *= self.P
        r = np.multiply(x, y, out=out)
        r -= q
        return r

    def _normal(self, r: np.ndarray) -> np.ndarray:
        """Lazy residues r in (-p, p) as int64 in [0, p) (Python ints are
        there already): r >> 63 is -1 (all bits set) where r < 0, so
        P & (r >> 63) adds p there only."""
        if r.dtype == object:
            return r
        r = r.astype(np.int64, copy=False)
        s = r >> 63
        s &= self.P
        r += s
        return r

    def _is_one(self, t: np.ndarray) -> np.ndarray:
        """Where the lazy residue t is 1: t = 1 or t = 1 - p."""
        return (t == 1) | (t == 1 - self._p)

    def _pow(self, x: np.ndarray, E: np.ndarray) -> np.ndarray:
        """The lazy x^E lane by lane, over two-bit windows of E with x^0..x^3
        from a table (a lane with E < 4 reads x itself); Python ints by pow."""
        if self._top >= _QUOTIENT_PRIME_BOUND:
            return np.frompyfunc(pow, 3, 1)(x, E, self.P)
        x2 = self._mul(x, x)
        powers = np.stack((np.ones_like(x), x, x2, self._mul(x2, x)), axis=-1).ravel()
        rows = np.arange(0, powers.size, 4).reshape(x.shape)
        k = max(int(E.max()).bit_length() - 1, 0) // 2 * 2 if E.size else 0  # the top window
        r = powers[rows + ((E >> k) & 3)]
        for k in range(k - 2, -1, -2):
            self._mul(r, r, out=r)
            self._mul(r, r, out=r)
            self._mul(r, powers[rows + ((E >> k) & 3)], out=r)
        return r

    def sqrt(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(R, square): square marks the lanes where x is a nonzero square
        mod p, and there R^2 = x, by Tonelli-Shanks over the lanes.  With
        p - 1 = Q 2^S, R = x^((Q+1)/2) and T = x^Q; x is a nonzero square iff
        T^(2^(S-1)) = x^((p-1)/2) = 1.  Each round multiplies R by
        c^(2^(M-i-1)), c of order 2^M and i the least with T^(2^i) = 1, until
        T = 1 in every lane.  c starts as z^Q for the least non-residue z of
        the lane's p, found by reciprocity, only where x is a square and
        T != 1 (so p = 1 mod 4).  Every product stays lazy until R returns."""
        P = self.P
        S = np.frexp(((P - 1) & (1 - P)).astype(np.float64))[1] - 1  # 2^S, the power of 2 in p - 1, is exact
        x = self._in(x)
        y = self._pow(x, (P - 1) >> S + 1)
        R = self._mul(y, x)
        T = self._mul(y, R)
        square = self._is_one(T)
        todo = np.flatnonzero(~square)
        lanes, T, M, R_todo, c = self.take(todo), T[todo], S[todo], R[todo], None
        while len(todo):
            i, t2 = np.zeros_like(M), T
            for j in range(1, int(M.max())):
                t2 = lanes._mul(t2, t2)
                i[(i == 0) & lanes._is_one(t2)] = j
            if c is None:  # the first round: x is 0 or no square where T^(2^(M-1)) != 1
                keep = (0 < i) & (i < M)
                square[todo[keep]] = True
                lanes, todo, T, M, i, R_todo = lanes.take(keep), todo[keep], T[keep], M[keep], i[keep], R_todo[keep]
                Z = np.where(lanes.P % 8 == 5, 2, 0)  # here p = 1 mod 4: (2/p) = -1 iff p = 5 mod 8
                top = math.isqrt(int(P.max())) + 1 if len(todo) else 0  # z < sqrt(p) + 1: past 1e5 only if needed
                for z in chain(iter_primes(3, min(top, _TRIAL_LIMIT)), iter_primes(_TRIAL_LIMIT + 1, top)):
                    if Z.all():
                        break
                    residue = np.zeros(z, bool)
                    residue[np.arange(z) ** 2 % z] = True
                    Z[(Z == 0) & ~residue[(lanes.P % z).astype(int)]] = z  # (z/p) = (p/z), by reciprocity
                c = lanes._pow(Z.astype(T.dtype), lanes.P - 1 >> M)  # z < sqrt(p) + 1 < p
            b, e = c, M - i - 1
            for j in range(int(e.max(initial=0))):
                b = np.where(j < e, lanes._mul(b, b), b)
            R_todo, c = lanes._mul(R_todo, b), lanes._mul(b, b)
            T, M = lanes._mul(T, c), i
            done = lanes._is_one(T)
            R[todo[done]] = R_todo[done]
            keep = ~done
            lanes, todo, T, M, c, R_todo = lanes.take(keep), todo[keep], T[keep], M[keep], c[keep], R_todo[keep]
        return self._normal(R), square


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


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the multiplicative group mod the prime p (for
    p = 2, every odd g)."""
    return residual_index(g, p) == 1


def _lucas_batch(g: int, ps: list[int], pm1s: list) -> list[bool]:
    """For each p of ps with its pm1 from pm1s, True when g proves p prime by
    the converse of Fermat's theorem in D. H. Lehmer's form (1927): with pm1
    the factorization of p - 1, g^((p-1)/2) = -1 and g^((p-1)/q) != 1 (mod p)
    for every odd prime q | p-1; g is then a primitive root mod p.  False
    proves nothing about p, and is given where p is even or pm1 an
    exception.  One Lanes.pow runs over the pairs (p, (p-1)/q), q | p - 1:
    the first pair of each p, q = 2, must give -1, and the others anything
    but 1."""
    out, at, starts, P, E = [False] * len(ps), [], [], [], []
    for i, (p, pm1) in enumerate(zip(ps, pm1s)):
        if not isinstance(pm1, Exception) and p > 2 and p % 2:
            at.append(i)
            starts.append(len(P))
            P += [p] * len(pm1.factors)
            E += [(p - 1) // q for q in pm1.prime_factors()]
    if P:
        lanes = Lanes(np.array(P, object))
        V = lanes.pow(lanes.lift(g), np.array(E, lanes.P.dtype))
        passed = V != 1
        passed[starts] = V[starts] == lanes.minus_one[starts]  # -1, not merely != 1: that gives g^(p-1) = 1
        for i, certified in zip(at, np.logical_and.reduceat(passed, starts).tolist()):
            out[i] = certified
    return out


def iter_primes(start: int, stop: int) -> Iterator[int]:
    """Primes p with start <= p <= stop, ascending. stop <= 1e10."""
    for chunk in prime_chunks(start, stop):
        yield from chunk.tolist()
