"""Euler-product densities and constants.

Covers the truncated products that predict streak behaviour (the quality
density and its simplified form; Lehmer's corrected and uncorrected
products are those two at 326X^2 + 3), the classical constants
(totient-ratio mean, Hardy-Littlewood constants, Bateman-Horn products of
degree at most 2), Dirichlet L-values at s = 1, 2, and the expected-maximum
model of s geometric streaks.  Every density of a polynomial first passes
one gate: the cutoff, then poly.inadmissible (Bunyakovsky's conditions),
then degree <= 2, where that rule decides irreducibility.  It raises
ValueError with its reason, so no product runs for a meaningless density.

L-values are evaluated through character-weighted Hurwitz-zeta sums: digamma
for s = 1 (the pole cancels against a non-principal character) and trigamma
for s = 2, both by recurrence plus an Euler-Maclaurin tail whose first
omitted Bernoulli term bounds the remainder.  Naive Dirichlet-series
truncation could never reach 1e-9 at s = 1 for |D| ~ 1e5.

The character layer is numpy over chunks: odd primes from
arith.prime_chunks, the package's one sieve, and residues in _CHUNK
entries.  `_legendre` applies Euler's criterion on arith.Lanes, exact at
every odd prime, where a factor reads it; `_kronecker_chunk` evaluates chi_D
from the components of D, prime discriminants, as
charsums.FundamentalDiscriminant splits it (its odd primes and its 2-part);
`_euler_product` folds each chunk's factors in.
Each factor is computed by the same IEEE operations as the scalar formula
and multiplied in with math.prod in the same order, and the L-value sums
are exact (math.fsum), so every value is bit-identical to a plain loop over
arith.kronecker (the tests hold scalar-loop oracles to ==).  Whole-length
arrays would be no faster and would raise peak memory; nothing builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import Lanes, euler_phi, factor, is_prime, kronecker, prime_chunks, residues
from .charsums import TWO_PART_CHARACTERS, FundamentalDiscriminant, _require_odd_prime
from .poly import PolyZ, inadmissible, roots_mod

_EXTENSION = 1_000_000  # accelerated pr_density's last prime
_LEHMER_DISC = -163  # Lehmer's products run over the primes split here
_LEHMER_CUTOFF = 1_000_000


@dataclass(frozen=True)
class DensityReport:
    """A truncated Euler product: value, largest prime folded in, and an
    estimate of the absolute truncation error (formula documented at each
    producing operation)."""

    value: float
    cutoff: int
    tail_bound: float
    method: str  # "direct" or "accelerated"


@dataclass(frozen=True)
class LValue:
    s: int
    D: FundamentalDiscriminant
    value: float
    abs_error: float


# ---------------------------------------------------------------------------
# special functions (Euler-Maclaurin with the first omitted term < 1e-21
# at the recurrence threshold 24; double precision dominates the error).
# Elementwise on float64 arrays; math.log per element, as np.log may differ
# from it by an ulp.
# ---------------------------------------------------------------------------

_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)


def _step_up(x: np.ndarray, step: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(x, acc): each entry below 24 stepped by x -> x + 1 until it is not, acc
    the sum of step(x) over its steps.  x + 1.0 rounds monotonically, so all
    step, unmasked, while the largest does (24 times for each a/q < 1)."""
    acc = np.zeros_like(x)
    top = float(x.max()) if len(x) else 24.0
    x = x.copy()
    while top < 24.0:
        acc += step(x)
        x += 1.0
        top += 1.0
    small = x < 24.0
    while small.any():
        acc = np.where(small, acc + step(x), acc)
        x = np.where(small, x + 1.0, x)
        small = x < 24.0
    return x, acc


def _digamma(x: np.ndarray) -> np.ndarray:
    x, acc = _step_up(x, lambda x: -1.0 / x)
    inv = 1.0 / x
    inv2 = inv * inv
    val = np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=len(x)) - 0.5 * inv
    t = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        val = val - b * t / (2 * k)
        t = t * inv2
    return val + acc


def _trigamma(x: np.ndarray) -> np.ndarray:
    x, acc = _step_up(x, lambda x: 1.0 / (x * x))
    inv = 1.0 / x
    inv2 = inv * inv
    val = inv + 0.5 * inv2
    t = inv * inv2
    for b in _BERNOULLI:
        val = val + b * t
        t = t * inv2
    return val + acc


# ---------------------------------------------------------------------------
# the chunked character kernel
# ---------------------------------------------------------------------------

_CHUNK = 8192


def _legendre(a: int, P: np.ndarray) -> np.ndarray:
    """(a/p) for each odd prime p of the ascending int64 array P, as int8:
    Euler's criterion a^((p-1)/2) mod p by arith.Lanes."""
    lanes = Lanes(P)
    r = lanes.pow(lanes.lift(a), P >> 1)
    return (r == 1).astype(np.int8) - (r == lanes.minus_one).astype(np.int8)


@lru_cache(maxsize=16)
def _character_tables(fd: FundamentalDiscriminant) -> tuple[tuple[int, np.ndarray], ...]:
    """chi_D for a fundamental discriminant D as (modulus, table) pairs, one
    per prime-discriminant component: the Legendre table mod each odd p | D
    (chi_{p*}(a) = (a/p) with p* = +-p = 1 mod 4) and, for a 2-part other
    than 1, its row of TWO_PART_CHARACTERS mod 8."""
    if (top := max(fd.odd_primes, default=2)) > 2**30:  # its int8 table would pass 1 GiB: refused before any is built
        raise ValueError(f"the prime factors of |D| must be at most 2^30 (--disc), got {top}")
    parts = []
    for p in fd.odd_primes:
        table = np.full(p, -1, dtype=np.int8)
        table[0] = 0
        half = (p + 1) // 2
        for lo in range(1, half, _CHUNK):
            r = np.arange(lo, min(lo + _CHUNK, half), dtype=np.int64)
            table[r * r % p] = 1
        table.flags.writeable = False  # shared by every caller through the cache
        parts.append((p, table))
    if (two := fd.two_part) != 1:
        table = np.array(TWO_PART_CHARACTERS[two], dtype=np.int8)
        table.flags.writeable = False
        parts.append((8, table))
    return tuple(parts)


def _kronecker_chunk(fd: FundamentalDiscriminant, a: np.ndarray) -> np.ndarray:
    """The Kronecker symbol (D/a) on the non-negative int64 array a, as int8,
    for the fundamental discriminant fd."""
    chi = np.ones(len(a), dtype=np.int8)
    for m, table in _character_tables(fd):
        chi *= table[a % m]
    return chi


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for integer arrays, rounded once as Python's int / int is.
    numpy converts both to float64 first, which is exact below 2^53."""
    if len(den) == 0 or den.max() < 2**53:
        return num / den
    return np.array([n / d for n, d in zip(num.tolist(), den.tolist())])


def _euler_product(
    limit: int,
    local_factor: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    value: float = 1.0,
) -> tuple[float, int]:
    """Fold the local factors of the odd primes <= limit into value.

    local_factor maps an ascending chunk of odd primes to (kept, factors):
    the primes the product covers and their float64 local factors, less any
    factor of exactly 1.0 (x * 1.0 = x).  math.prod multiplies each chunk in
    left to right, as the scalar loop `value *= factor` does, so the result
    is bit-identical to it.  Returns the product and the largest kept prime,
    2 if none was kept.  Every caller passes its cutoff as limit, and one
    below 2 is an error.
    """
    if limit < 2:
        raise ValueError("cutoff must be at least 2")
    last = 2
    for P in prime_chunks(3, limit):
        kept, factors = local_factor(P)
        if len(kept):
            value = math.prod(factors.tolist(), start=value)
            last = int(kept[-1])
    return value, last


# ---------------------------------------------------------------------------
# Dirichlet L-values
# ---------------------------------------------------------------------------

_L_ERROR_FLOOR = 1e-11


def dirichlet_l(s: int, D) -> LValue:
    """L(s, chi_D) for s in {1, 2}, chi_D(n) the Kronecker symbol (D/n).

    s = 1:  -(1/q) * sum_a chi(a) psi(a/q)      (q = |D|)
    s = 2:   (1/q^2) * sum_a chi(a) psi'(a/q)

    The terms are summed exactly, so no tolerance enters; abs_error is a
    rounding envelope, the outer 1/q keeping term errors from growing with q.
    """
    fd = FundamentalDiscriminant.from_integer(D)
    if s not in (1, 2):
        raise ValueError("only s = 1 and s = 2 are supported")
    q = abs(fd.D)
    if q <= 1:
        raise ValueError("need a discriminant with |D| > 1")
    psi = _digamma if s == 1 else _trigamma

    def terms() -> Iterator[list[float]]:
        for lo in range(1, q, _CHUNK):
            a = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
            chi = _kronecker_chunk(fd, a)
            units = chi != 0
            yield (chi[units] * psi(a[units] / q)).tolist()

    total = math.fsum(chain.from_iterable(terms()))  # exact, so order-free
    value = -total / q if s == 1 else total / (q * q)
    return LValue(s=s, D=fd, value=value, abs_error=_L_ERROR_FLOOR)


def _split_cutoff(tol: float, power: int) -> int:
    """Smallest power-of-two-ish cutoff Q with the split-product tail
    ~ 2/(Q^power * ln Q) below tol/2."""
    Q = 10_000
    while 2.0 / (float(Q) ** power * math.log(Q)) > tol / 2 and Q < 4_000_000:
        Q *= 2
    return Q


def hardy_littlewood_constant(D: int, tol: float = 1e-8) -> DensityReport:
    """Prime-density constant of an Euler-style quadratic with fundamental
    discriminant D < 0, D = 5 mod 8, via the L-value form

        zeta(4) / (2 L(1,chi) L(2,chi)) * prod_{q | D}(1 - q^-4)
                * prod_{split q >= 3}(1 - 2/(q (q-1)^2)).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    fd = FundamentalDiscriminant.from_integer(D)
    if fd.D >= 0 or fd.D % 8 != 5:
        raise ValueError("discriminant must be negative and = 5 (mod 8)")
    value = (math.pi ** 4 / 90.0) / (2.0 * dirichlet_l(1, fd).value * dirichlet_l(2, fd).value)
    for p in fd.odd_primes:  # D = 5 mod 8 is odd
        value *= 1.0 - 1.0 / float(p) ** 4
    cutoff = _split_cutoff(tol, power=2)

    def split(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = P[_legendre(fd.D, P) == 1]
        return q, 1.0 - 2.0 / (q * (q - 1.0) ** 2)

    value, _ = _euler_product(cutoff, split, value)
    tail = value * 1.0 / (float(cutoff) ** 2 * math.log(cutoff)) + 1e-10
    return DensityReport(value=value, cutoff=cutoff, tail_bound=tail, method="accelerated")


# ---------------------------------------------------------------------------
# the quality density and relatives
# ---------------------------------------------------------------------------


def residue_counts_mod_prime(f: PolyZ, q: int) -> tuple[int, int]:
    """(#roots of f, #solutions of f = 1) mod the odd prime q, both from
    poly.roots_mod: in closed form for degree <= 2, by enumeration otherwise."""
    return len(roots_mod(f, q)), len(roots_mod(f, q, 1))


def _root_counts(poly: PolyZ, P: np.ndarray, t: int, scalar: np.ndarray) -> np.ndarray:
    """#{s mod q : f(s) = t} for each odd prime q of the chunk P, as int64, for
    f of degree 1 or 2: 1, or 1 + (disc(f - t)/q) for degree 2; poly.roots_mod
    where `scalar` is set, at the q dividing the leading coefficient."""
    counts = np.ones(len(P), dtype=np.int64)
    if poly.degree() == 2:
        c, b, a = poly.coeffs
        counts += _legendre(b * b - 4 * a * (c - t), P)
    for i in np.flatnonzero(scalar):
        counts[i] = len(roots_mod(poly, int(P[i]), t))
    return counts


def _require_admissible(f: PolyZ, cutoff: int, flag: str) -> None:
    """The one gate of a density of f: the cutoff, inadmissible's reason, then
    degree <= 2, in this order; flag names the caller's `density` option."""
    if not 2 <= cutoff < 2**31:  # this module's own input gate, not a bound of Lanes
        raise ValueError(f"cutoff must be at least 2 and below 2^31, got {cutoff}")
    if why := inadmissible(f):
        raise ValueError(why)
    if f.degree() > 2:
        raise ValueError(f"density {flag} needs degree <= 2: irreducibility is not checked above")


def pr_density(f: PolyZ, cutoff: int = 10_000, accelerate: bool = True) -> DensityReport:
    """Truncated product over odd primes q of
    (1 - #{f=1 mod q} / (q * (q - #{f=0 mod q}))): the heuristic density with
    which an admissible base is a primitive root modulo primes f(n).

    Direct mode stops at `cutoff`; accelerated mode goes on to _EXTENSION.
    tail_bound, 2/(L ln L) at the prime bound L, is an estimate, not a
    proven bound: the generic factor is 1 - (1 + chi)/q^2 in the mean.

    Raises ValueError, before any product runs, for an f that
    poly.inadmissible refuses, as such an f represents at most finitely many
    primes, and above degree 2, where irreducibility is not checked.
    """
    _require_admissible(f, cutoff, "--poly")
    limit = max(cutoff, _EXTENSION) if accelerate else cutoff

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # a factor with n_ones = 0 is exactly 1.0; no q divides every value, so q - n_roots > 0
        scalar = residues(f.leading(), P) == 0
        n_ones = _root_counts(f, P, 1, scalar)
        read = n_ones != 0
        Q = P[read]
        n_roots = _root_counts(f, Q, 0, scalar[read])
        return P, 1.0 - _ratio(n_ones[read], Q * (Q - n_roots))

    value, last = _euler_product(limit, local)
    tail = 2.0 / (limit * math.log(limit))
    return DensityReport(
        value=value,
        cutoff=last,
        tail_bound=tail,
        method="accelerated" if accelerate else "direct",
    )


def pr_density_simple(A: int, B: int, cutoff: int = 1_000_000) -> DensityReport:
    """Simplified quality of A*X^2 + B:

        prod_{q | gcd(A, B-1), q > 2}(1 - 1/q)
      * prod_{q odd, q not | A}(1 - (1 + (-A(B-1)/q)) / q^2).
    """
    _require_admissible(PolyZ((B, 0, A)), cutoff, "--simple")
    value = 1.0
    for q, _ in factor(math.gcd(A, B - 1)).factors:
        if q > 2:
            value *= 1.0 - 1.0 / q
    M = -A * (B - 1)

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = P[residues(A, P) != 0]
        return q, 1.0 - _ratio(1 + _legendre(M, q).astype(np.int64), q * q)

    value, last = _euler_product(cutoff, local, value)
    tail = 2.0 / (cutoff * math.log(cutoff))
    return DensityReport(value=value, cutoff=last, tail_bound=tail, method="direct")


def _lehmer_report(rep: DensityReport) -> DensityReport:
    """rep at its last split prime for -163, with Lehmer's tail 1/(L ln L):
    split primes have density 1/2."""
    last = next(q for q in range(_LEHMER_CUTOFF, 2, -1) if kronecker(_LEHMER_DISC, q) == 1 and is_prime(q))
    return replace(rep, cutoff=last, tail_bound=1.0 / (_LEHMER_CUTOFF * math.log(_LEHMER_CUTOFF)))


def lehmer_naive_density() -> DensityReport:
    """prod over primes q with (-163/q) = 1 of (1 - 2/q^2): pr_density_simple of 326X^2 + 3."""
    return _lehmer_report(pr_density_simple(326, 3, _LEHMER_CUTOFF))


def lehmer_corrected_density() -> DensityReport:
    """prod over primes q with (-163/q) = 1 of (1 - 2/(q (q-1-(-978/q)))): the
    allowable-class-corrected success probability, pr_density of 326X^2 + 3."""
    return _lehmer_report(pr_density(PolyZ((3, 0, 326)), _LEHMER_CUTOFF, accelerate=False))


def totient_ratio_constant(cutoff: int = 10_000_000) -> DensityReport:
    """prod over primes q <= cutoff of (1 + 1/(q-1)^2): the mean of
    (p-1)/phi(p-1) over primes.  Tail < 1.3/(cutoff ln cutoff); absolute
    error below 1e-6 from cutoff 1e7 on."""

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return P, 1.0 + 1.0 / (P - 1.0) ** 2

    value, last = _euler_product(cutoff, local, 2.0)  # 2.0: the factor of q = 2
    tail = 1.3 * value / (cutoff * math.log(max(cutoff, 3)))
    return DensityReport(value=value, cutoff=last, tail_bound=tail, method="direct")


def totient_ratio_product(primes: Sequence[int]) -> float:
    """prod (p-1)/phi(p-1) over the given odd primes, exact, returned as float."""
    out = Fraction(1)
    for p in primes:
        _require_odd_prime(p)
        out *= Fraction(p - 1, euler_phi(p - 1))
    return float(out)


def bateman_horn_constant(f: PolyZ, cutoff: int = 100_000) -> DensityReport:
    """prod_{p <= cutoff} (1 - N_p(f)/p) / (1 - 1/p), the density constant of
    the prime-counting heuristic for f of degree 1 or 2.

    Raises ValueError, before any product runs, for an f that
    poly.inadmissible refuses (so its leading coefficient is positive, as
    Bateman and Horn ask) and above degree 2, where irreducibility is not
    checked.  tail_bound is an estimate, not a proven bound: the random-sign
    model 3 * value / sqrt(cutoff ln cutoff), the generic factor being
    1 - chi(p)/(p-1) with a conditionally convergent sum.
    """
    _require_admissible(f, cutoff, "--bateman-horn")
    value = (1.0 - len(roots_mod(f, 2)) / 2) / (1.0 - 1.0 / 2)

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_roots = _root_counts(f, P, 0, residues(f.leading(), P) == 0)
        return P, (1.0 - n_roots / P) / (1.0 - 1.0 / P)

    value, last = _euler_product(cutoff, local, value)
    tail = 3.0 * value / math.sqrt(cutoff * math.log(cutoff))
    return DensityReport(value=value, cutoff=last, tail_bound=tail, method="direct")


# ---------------------------------------------------------------------------
# expected maximum of s independent geometric streaks: one check of p1 and s
# ---------------------------------------------------------------------------


def _require_model(p1: float, s: int) -> None:
    if not 0.0 < p1 < 1.0:
        raise ValueError("success probability must lie strictly between 0 and 1")
    if s < 1:
        raise ValueError("need s >= 1")


def expected_max_streak(p1: float, s: int) -> float:
    """sum_{j>=1} j ((1-p1^{j+1})^s - (1-p1^j)^s): the expected maximum streak
    over s independent geometric runs with per-step success probability p1.

    Summed until the certified remaining mass drops below 1e-12 relative.
    """
    _require_model(p1, s)
    lp = math.log(p1)

    def big_f(j: int) -> float:
        t = math.exp(j * lp)
        if t >= 1.0:
            return 0.0
        return math.exp(s * math.log1p(-t))

    total = 0.0
    fj = big_f(1)
    j = 1
    while True:
        fj1 = big_f(j + 1)
        total += j * (fj1 - fj)
        if fj1 >= 0.5:
            # remaining mass <= J(1-F(J+1)) + s p^(J+2)/(1-p)  (1-F(j) <= s p^j)
            rem = j * (1.0 - fj1) + s * math.exp((j + 2) * lp) / (1.0 - p1)
            if rem < 1e-12 * max(total, 1.0):
                break
        fj = fj1
        j += 1
        if j > 50_000_000:
            raise RuntimeError("expected_max_streak failed to converge")
    return total


def harmonic_max_estimate(p1: float, s: int) -> float:
    """(sum_{r<=s} 1/r) / ln(1/p1) - 1/2: the Gumbel-style approximation."""
    _require_model(p1, s)
    psi = _digamma(np.array([s + 1.0, 1.0]))
    harmonic = float(psi[0] - psi[1])
    return harmonic / math.log(1.0 / p1) - 0.5


def asymptotic_max_estimate(p1: float, s: int) -> float:
    """log s / log(1/p1): the leading-order growth of the expected maximum."""
    _require_model(p1, s)
    return math.log(s) / math.log(1.0 / p1)


_SIM_DRAWS = 4_000_000  # most variates simulate_max_streak draws at once (8 bytes each)


def simulate_max_streak(p1: float, s: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean of the maximum of s geometric streak lengths
    (j successes then one failure), with its standard error.  Deterministic
    under a fixed seed.  At most _SIM_DRAWS variates are drawn at once, whole
    trials while they fit and else a trial in pieces with a running maximum:
    the generator hands out the same doubles in the same order either way."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (--seed), got {seed}")
    _require_model(p1, s)
    rng = np.random.default_rng(seed)
    lp = math.log(p1)
    maxima = np.empty(trials)
    rows = max(1, _SIM_DRAWS // s)
    for i in range(0, trials, rows):
        t = min(rows, trials - i)
        best = np.full(t, -np.inf)
        for j in range(0, s, _SIM_DRAWS):
            u = 1.0 - rng.random((t, min(_SIM_DRAWS, s - j)))  # in (0, 1]
            np.maximum(best, np.floor(np.log(u) / lp).max(axis=1), out=best)
        maxima[i : i + t] = best
    mean = float(maxima.mean())
    stderr = float(maxima.std(ddof=1) / math.sqrt(trials))
    return mean, stderr
