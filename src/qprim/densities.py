"""Euler-product densities and constants.

Covers the truncated products that predict streak behaviour (the quality
density, its simplified form, the uncorrected/corrected split-prime products),
the classical constants (totient-ratio mean, Hardy-Littlewood constants,
Bateman-Horn products), Dirichlet L-values at s = 1, 2, and the
expected-maximum model for a family of geometric streaks.

L-values are evaluated through character-weighted Hurwitz-zeta sums: digamma
for s = 1 (the pole cancels against a non-principal character) and trigamma
for s = 2, both by recurrence plus an Euler-Maclaurin tail whose first
omitted Bernoulli term bounds the remainder.  Naive Dirichlet-series
truncation could never reach 1e-9 at s = 1 for |D| ~ 1e5.

The character layer is numpy over chunks.  The odd primes arrive as chunks
from arith.prime_chunks, the package's one sieve, and residues in chunks of
_CHUNK entries; `_legendre` reduces a Python int modulo a
chunk of primes by 20-bit limbs and applies Euler's criterion by vectorised
square-and-multiply in int64, so every prime must stay below 2^31 (checked);
`_kronecker_chunk` evaluates chi_D on a chunk of integers from the
prime-discriminant components of D; `_euler_product` folds each chunk's
local factors into the product, for every Euler product here.  Each local factor is computed by the same
IEEE operations as the scalar formula and multiplied in with math.prod in
the same order, and the L-value sums are exact (math.fsum), so every value
returned is bit-identical to a plain loop over arith.kronecker; the tests
hold scalar-loop oracles to ==.  Whole-length arrays would be no faster and
would raise peak memory, so nothing here builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import euler_phi, factor, is_prime, prime_chunks
from .charsums import FundamentalDiscriminant
from .poly import AnyPoly, PolyZ, as_polyz, is_perfect_square, roots_mod

_EXTENSION = 1_000_000  # accelerated pr_density's last prime for degree <= 2
_LEHMER_DISC = -163  # Lehmer's products run over the primes split here
_LEHMER_TWIST = -978  # the corrected product's twist, -6 * 163
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


def _digamma(x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    small = x < 24.0
    while small.any():
        acc = np.where(small, acc - 1.0 / x, acc)
        x = np.where(small, x + 1.0, x)
        small = x < 24.0
    inv = 1.0 / x
    inv2 = inv * inv
    val = np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=len(x)) - 0.5 * inv
    t = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        val = val - b * t / (2 * k)
        t = t * inv2
    return val + acc


def _trigamma(x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    small = x < 24.0
    while small.any():
        acc = np.where(small, acc + 1.0 / (x * x), acc)
        x = np.where(small, x + 1.0, x)
        small = x < 24.0
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
_LIMB_BITS = 20
_INT64_PRIME_BOUND = 2**31  # keeps (p-1)^2 and r * 2^20 + limb inside int64
def _mod(a: int, P: np.ndarray) -> np.ndarray:
    """a mod each entry of the ascending int64 array P, exact for any Python
    int a: Horner's rule over the 20-bit limbs of |a| keeps every
    intermediate below 2^51."""
    if len(P) and P[-1] >= _INT64_PRIME_BOUND:
        raise ValueError(f"moduli must stay below 2^31 for int64 arithmetic, got {P[-1]}")
    m = abs(a)
    limbs = []
    while m:
        limbs.append(m & ((1 << _LIMB_BITS) - 1))
        m >>= _LIMB_BITS
    r = np.zeros_like(P)
    for limb in reversed(limbs):
        r = ((r << _LIMB_BITS) + limb) % P
    return (-r) % P if a < 0 else r


def _legendre(a: int, P: np.ndarray) -> np.ndarray:
    """(a/p) for each odd prime p of the ascending int64 array P, as int8:
    Euler's criterion a^((p-1)/2) mod p by square-and-multiply (p < 2^31,
    so every product stays below 2^62)."""
    base = _mod(a, P)
    half = P >> 1
    r = np.ones_like(P)
    for k in range(int(P[-1]).bit_length() - 1 if len(P) else 0):
        r = np.where((half >> k) & 1 == 1, r * base % P, r)
        base = base * base % P
    return (r == 1).astype(np.int8) - (r == P - 1).astype(np.int8)


_TWO_PART_TABLES = {  # chi_-4, chi_8, chi_-8 on the residues mod 8
    -4: np.array([0, 1, 0, -1, 0, 1, 0, -1], dtype=np.int8),
    8: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    -8: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}


@lru_cache(maxsize=16)
def _character_tables(D: int) -> tuple[tuple[int, np.ndarray], ...]:
    """chi_D for a fundamental discriminant D as (modulus, table) pairs, one
    per prime-discriminant component: the Legendre table mod each odd p | D
    (chi_{p*}(a) = (a/p) with p* = +-p = 1 mod 4) and, for the 2-part
    D / prod p*, the chi_-4, chi_8 or chi_-8 table mod 8."""
    parts = []
    odd_part = 1
    for p, _ in factor(abs(D)).factors:
        if p == 2:
            continue
        odd_part *= p if p % 4 == 1 else -p
        table = np.full(p, -1, dtype=np.int8)
        table[0] = 0
        half = (p + 1) // 2
        for lo in range(1, half, _CHUNK):
            r = np.arange(lo, min(lo + _CHUNK, half), dtype=np.int64)
            table[r * r % p] = 1
        table.flags.writeable = False  # shared by every caller through the cache
        parts.append((p, table))
    if D != odd_part:
        parts.append((8, _TWO_PART_TABLES[D // odd_part]))
    return tuple(parts)


def _kronecker_chunk(D: int, a: np.ndarray) -> np.ndarray:
    """The Kronecker symbol (D/a) on the non-negative int64 array a, as int8,
    for a fundamental discriminant D."""
    chi = np.ones(len(a), dtype=np.int8)
    for m, table in _character_tables(D):
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
) -> tuple[float, int | None]:
    """Fold the local factors of the odd primes <= limit into value.

    local_factor maps an ascending chunk of odd primes to (kept, factors):
    the primes that enter the product and their float64 local factors.
    math.prod multiplies each chunk in left to right, as the scalar loop
    `value *= factor` does, so the result is bit-identical to it.  Returns
    the product and the largest kept prime (None if none was kept).
    """
    last = None
    for P in prime_chunks(3, limit):
        kept, factors = local_factor(P)
        if len(kept):
            value = math.prod(factors.tolist(), start=value)
            last = int(kept[-1])
    return value, last


def _coerce_discriminant(D) -> FundamentalDiscriminant:
    if isinstance(D, FundamentalDiscriminant):
        return D
    return FundamentalDiscriminant.from_integer(int(D))


# ---------------------------------------------------------------------------
# Dirichlet L-values
# ---------------------------------------------------------------------------

_L_ERROR_FLOOR = 1e-11


def dirichlet_l(s: int, D, tol: float = 1e-9) -> LValue:
    """L(s, chi_D) for s in {1, 2}, chi_D(n) the Kronecker symbol (D/n).

    s = 1:  -(1/q) * sum_a chi(a) psi(a/q)      (q = |D|)
    s = 2:   (1/q^2) * sum_a chi(a) psi'(a/q)

    The reported abs_error is a rounding envelope; the outer 1/q keeps the
    accumulated term errors from growing with q.
    """
    fd = _coerce_discriminant(D)
    if s not in (1, 2):
        raise ValueError("only s = 1 and s = 2 are supported")
    q = abs(fd.D)
    if q <= 1:
        raise ValueError("need a discriminant with |D| > 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < _L_ERROR_FLOOR:
        raise ValueError(
            f"precision-exceeded: tol={tol} is below the working precision {_L_ERROR_FLOOR}"
        )
    psi = _digamma if s == 1 else _trigamma

    def terms() -> Iterator[list[float]]:
        for lo in range(1, q, _CHUNK):
            a = np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64)
            chi = _kronecker_chunk(fd.D, a)
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
    fd = _coerce_discriminant(D)
    if fd.D >= 0 or fd.D % 8 != 5:
        raise ValueError("discriminant must be negative and = 5 (mod 8)")
    L1 = dirichlet_l(1, fd, tol=1e-10)
    L2 = dirichlet_l(2, fd, tol=1e-10)
    value = (math.pi ** 4 / 90.0) / (2.0 * L1.value * L2.value)
    for p, _ in factor(abs(fd.D)).factors:
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


def residue_counts_mod_prime(f: AnyPoly, q: int) -> tuple[int, int]:
    """(#roots of f, #solutions of f = 1) mod the odd prime q, both from
    poly.roots_mod: in closed form for degree <= 2, by enumeration otherwise."""
    return len(roots_mod(f, q)), len(roots_mod(f, q, 1))


def _residue_counts(poly: PolyZ, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """residue_counts_mod_prime for each odd prime of the chunk P, as int64
    arrays: by Legendre symbols of the discriminants of f and f - 1 for
    degree <= 2 where q does not divide the leading coefficient, by the
    scalar routine for the other q and for degree > 2."""
    deg = poly.degree()
    n_roots = np.ones(len(P), dtype=np.int64)
    n_ones = np.ones(len(P), dtype=np.int64)
    if deg == 2:
        c, b, a = poly.coeffs
        n_roots += _legendre(b * b - 4 * a * c, P)
        n_ones += _legendre(b * b - 4 * a * (c - 1), P)
    scalar = _mod(poly.leading(), P) == 0 if deg <= 2 else np.ones(len(P), dtype=bool)
    for i in np.flatnonzero(scalar):
        n_roots[i], n_ones[i] = residue_counts_mod_prime(poly, int(P[i]))
    return n_roots, n_ones


def _require_irreducible_if_quadratic(poly: PolyZ) -> None:
    if poly.degree() == 2:
        c, b, a = poly.coeffs
        if is_perfect_square(b * b - 4 * a * c):
            raise ValueError("reducible quadratic: discriminant is a perfect square")


def _require_no_fixed_divisor(P: np.ndarray, n_roots: np.ndarray) -> None:
    fixed = P[n_roots == P]
    if len(fixed):
        raise ValueError(f"degenerate polynomial: every value is divisible by {fixed[0]}")


def pr_density(f: AnyPoly, cutoff: int = 10_000, accelerate: bool = True) -> DensityReport:
    """Truncated product over odd primes q of
    (1 - #{f=1 mod q} / (q * (q - #{f=0 mod q}))): the heuristic density with
    which an admissible base is a primitive root modulo primes f(n).

    Direct mode stops at `cutoff` (tail estimate 2/(cutoff ln cutoff), the
    generic factors being 1 - (1 + chi)/q^2 in the mean).  Accelerated mode
    extends the same product with O(1) closed-form residue counts out to
    _EXTENSION, shrinking the tail to 2/(_EXTENSION ln _EXTENSION); for degree
    > 2 the counts need enumeration, so the extension is capped at 20000.

    Raises ValueError for a quadratic with a square discriminant (reducible:
    its values are products), when every value is even, and when some odd
    prime divides every value (the product collapses to 0): such an f
    represents at most finitely many primes.
    """
    poly = as_polyz(f)
    deg = poly.degree()
    if deg < 1:
        raise ValueError("density needs a non-constant polynomial")
    _require_irreducible_if_quadratic(poly)
    if poly.eval(0) % 2 == 0 and poly.eval(1) % 2 == 0:
        raise ValueError("degenerate polynomial: every value is even")
    limit = cutoff
    if accelerate:
        limit = max(cutoff, _EXTENSION if deg <= 2 else 20_000)

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_roots, n_ones = _residue_counts(poly, P)
        _require_no_fixed_divisor(P, n_roots)
        # a factor with no solution of f = 1 is exactly 1.0: no-op in the product
        return P, 1.0 - _ratio(n_ones, P * (P - n_roots))

    value, last = _euler_product(limit, local)
    tail = 2.0 / (limit * math.log(limit))
    return DensityReport(
        value=value,
        cutoff=last or 3,
        tail_bound=tail,
        method="accelerated" if accelerate else "direct",
    )


def pr_density_simple(A: int, B: int, cutoff: int = 1_000_000) -> DensityReport:
    """Simplified quality of A*X^2 + B:

        prod_{q | gcd(A, B-1), q > 2}(1 - 1/q)
      * prod_{q odd, q not | A}(1 - (1 + (-A(B-1)/q)) / q^2).
    """
    if A <= 0:
        raise ValueError("leading coefficient must be positive")
    value = 1.0
    for q, _ in factor(math.gcd(A, B - 1)).factors:
        if q > 2:
            value *= 1.0 - 1.0 / q
    M = -A * (B - 1)

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = P[_mod(A, P) != 0]
        return q, 1.0 - _ratio(1 + _legendre(M, q).astype(np.int64), q * q)

    value, last = _euler_product(cutoff, local, value)
    tail = 2.0 / (cutoff * math.log(cutoff))
    return DensityReport(value=value, cutoff=last or 3, tail_bound=tail, method="direct")


def _lehmer_product(local: Callable[[np.ndarray], np.ndarray]) -> DensityReport:
    """prod of local(q) over the primes q <= _LEHMER_CUTOFF split in
    Q(sqrt(_LEHMER_DISC)), those with (_LEHMER_DISC/q) = 1.  Tail bound
    1/(cutoff ln cutoff) (split primes have density 1/2)."""

    def split(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = P[_legendre(_LEHMER_DISC, P) == 1]
        return q, local(q)

    value, last = _euler_product(_LEHMER_CUTOFF, split)
    tail = 1.0 / (_LEHMER_CUTOFF * math.log(_LEHMER_CUTOFF))
    return DensityReport(value=value, cutoff=last or 3, tail_bound=tail, method="direct")


def lehmer_naive_density() -> DensityReport:
    """prod over primes q with (-163/q) = 1 of (1 - 2/q^2)."""
    return _lehmer_product(lambda q: 1.0 - 2.0 / (q * q))


def lehmer_corrected_density() -> DensityReport:
    """prod over primes q with (-163/q) = 1 of (1 - 2/(q (q-1-(-978/q)))):
    the allowable-class-corrected success probability."""
    return _lehmer_product(lambda q: 1.0 - 2.0 / (q * (q - 1 - _legendre(_LEHMER_TWIST, q))))


def totient_ratio_constant(cutoff: int = 10_000_000) -> DensityReport:
    """prod over primes q <= cutoff of (1 + 1/(q-1)^2): the mean of
    (p-1)/phi(p-1) over primes.  Tail < 1.3/(cutoff ln cutoff); absolute
    error below 1e-6 from cutoff 1e7 on."""
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return P, 1.0 + 1.0 / (P - 1.0) ** 2

    value, last = _euler_product(cutoff, local, 2.0)  # 2.0: the factor of q = 2
    tail = 1.3 * value / (cutoff * math.log(max(cutoff, 3)))
    return DensityReport(value=value, cutoff=last or 2, tail_bound=tail, method="direct")


def totient_ratio_product(primes: Sequence[int]) -> float:
    """prod (p-1)/phi(p-1) over the given odd primes, exact, returned as float."""
    out = Fraction(1)
    for p in primes:
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        out *= Fraction(p - 1, euler_phi(p - 1))
    return float(out)


def bateman_horn_constant(
    f: AnyPoly, cutoff: int = 100_000, assume_irreducible: bool = False
) -> DensityReport:
    """prod_{p <= cutoff} (1 - N_p(f)/p) / (1 - 1/p), the density constant of
    the prime-counting heuristic for f.

    Quadratic irreducibility is checked via the discriminant; higher degree
    needs assume_irreducible=True (and enumerated root counts, so the cutoff
    is capped at 20000 there).  The tail estimate is the random-sign model
    3 * value / sqrt(cutoff ln cutoff): the generic factor is
    1 - chi(p)/(p-1) with a conditionally convergent character sum.
    """
    poly = as_polyz(f)
    deg = poly.degree()
    if deg < 1:
        raise ValueError("constant polynomials are not supported")
    _require_irreducible_if_quadratic(poly)
    if deg > 2:
        if not assume_irreducible:
            raise ValueError("degree > 2 needs assume_irreducible=True")
        cutoff = min(cutoff, 20_000)
    content = math.gcd(*poly.coeffs)
    if content != 1:
        raise ValueError("polynomial must have content 1")
    n_two = len(roots_mod(poly, 2))
    if n_two == 2:
        raise ValueError("degenerate polynomial: every value divisible by 2")
    value = (1.0 - n_two / 2) / (1.0 - 1.0 / 2)

    def local(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if deg <= 2:
            n_roots, _ = _residue_counts(poly, P)
        else:
            n_roots = np.array([len(roots_mod(poly, p)) for p in P.tolist()])
        _require_no_fixed_divisor(P, n_roots)
        return P, (1.0 - n_roots / P) / (1.0 - 1.0 / P)

    value, last = _euler_product(cutoff, local, value)
    tail = 3.0 * value / math.sqrt(cutoff * math.log(cutoff))
    return DensityReport(value=value, cutoff=last or 2, tail_bound=tail, method="direct")


# ---------------------------------------------------------------------------
# expected maximum of s independent geometric streaks
# ---------------------------------------------------------------------------


def expected_max_streak(p1: float, s: int) -> float:
    """sum_{j>=1} j ((1-p1^{j+1})^s - (1-p1^j)^s): the expected maximum streak
    over s independent geometric runs with per-step success probability p1.

    Summed until the certified remaining mass drops below 1e-12 relative.
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError("success probability must lie strictly between 0 and 1")
    if s < 1:
        raise ValueError("need s >= 1")
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
    if not 0.0 < p1 < 1.0:
        raise ValueError("success probability must lie strictly between 0 and 1")
    psi = _digamma(np.array([s + 1.0, 1.0]))
    harmonic = float(psi[0] - psi[1])
    return harmonic / math.log(1.0 / p1) - 0.5


def asymptotic_max_estimate(p1: float, s: int) -> float:
    """log s / log(1/p1): the leading-order growth of the expected maximum."""
    if not 0.0 < p1 < 1.0:
        raise ValueError("success probability must lie strictly between 0 and 1")
    return math.log(s) / math.log(1.0 / p1)


def simulate_max_streak(
    p1: float, s: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo mean of the maximum of s geometric streak lengths
    (j successes then one failure), with its standard error.  Deterministic
    under a fixed seed."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if not 0.0 < p1 < 1.0:
        raise ValueError("success probability must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    lp = math.log(p1)
    maxima = np.empty(trials)
    chunk = max(1, 4_000_000 // max(s, 1))
    for i in range(0, trials, chunk):
        t = min(chunk, trials - i)
        u = 1.0 - rng.random((t, s))  # in (0, 1]
        maxima[i : i + t] = np.floor(np.log(u) / lp).max(axis=1)
    mean = float(maxima.mean())
    stderr = float(maxima.std(ddof=1) / math.sqrt(trials))
    return mean, stderr
