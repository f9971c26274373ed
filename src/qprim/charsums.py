"""Complete character sums, local/global Jacobi-symbol averages, and the
exact inert-prime proportion of primes represented by a polynomial.

FundamentalDiscriminant is the package's one split of a discriminant into
prime discriminants and a 2-part, and TWO_PART_CHARACTERS the one table of
the 2-part's character mod 8: inert_proportion, densities' chi_D tables and
criteria.extended_chebyshev (by fundamental_discriminant of a base) read it,
and admissible_discriminants builds its candidates from both.  Both refuse an
f that poly.inadmissible refuses, with its reason.
_require_odd_prime is the package's one odd-prime check.  Off degree 2 the
local average enumerates f mod p, so it refuses p above 2^20.

Everything in this module is exact rational arithmetic (fractions.Fraction);
no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factor, is_prime, kronecker, iter_primes
from .poly import (
    PolyZ,
    in_conjecture_f_family,
    inadmissible,
    is_perfect_square,
    mod8_profile,
    roots_mod,
    values_mod,
)


def is_valid_base(g: int) -> bool:
    """g != -1 and g not a perfect square (bases that can be primitive roots
    for infinitely many primes)."""
    return g != -1 and not is_perfect_square(g)


def require_valid_base(g: int) -> None:
    if not is_valid_base(g):
        raise ValueError(f"invalid base {g}: must not be -1 or a perfect square")


@dataclass(frozen=True)
class FundamentalDiscriminant:
    """A fundamental quadratic-field discriminant and its odd primes, ascending:
    D is the product of one prime discriminant p* = +-p = 1 mod 4 per odd
    prime and of its 2-part, 1, -4, 8 or -8."""

    D: int
    odd_primes: tuple[int, ...]

    @property
    def two_part(self) -> int:
        """D / prod p*: 1, -4, 8 or -8, whose character is a row of TWO_PART_CHARACTERS."""
        return self.D // math.prod(p if p % 4 == 1 else -p for p in self.odd_primes)

    @classmethod
    def from_integer(cls, D: int | FundamentalDiscriminant) -> FundamentalDiscriminant:
        """D from one factorization, if fundamental (D = 1 mod 4, or 4m with
        m = 2, 3 mod 4; squarefree D or m); an instance is returned unchanged."""
        if isinstance(D, FundamentalDiscriminant):
            return D
        m = D if D % 4 == 1 else D // 4 if D % 16 in (8, 12) else 0
        if not m or not (fact := factor(abs(m))).is_squarefree():
            raise ValueError(f"{D} is not a fundamental discriminant")
        return cls(D, tuple(p for p in fact.prime_factors() if p > 2))


TWO_PART_CHARACTERS = {  # chi_t on the residues mod 8 for each 2-part t other than 1
    -4: (0, 1, 0, -1, 0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def fundamental_discriminant(g: int) -> FundamentalDiscriminant:
    """Discriminant of Q(sqrt(g)) for a valid base g, from one factorization
    of |g|: its primes of odd exponent, with the sign of g, make the
    squarefree part g1, and D = g1 if g1 = 1 mod 4, else 4*g1."""
    require_valid_base(g)
    primes = [p for p, e in factor(abs(g)).factors if e % 2]
    g1 = math.prod(primes) if g > 0 else -math.prod(primes)
    return FundamentalDiscriminant(g1 if g1 % 4 == 1 else 4 * g1, tuple(p for p in primes if p > 2))


def jacobsthal_sum(a: int, p: int) -> int:
    """sum_{m=0}^{p-1} ((m^2+a)/p) for odd prime p: p-1 if p | a, else -1."""
    return complete_char_sum(PolyZ((a, 0, 1)), p)


def _require_odd_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def _quadratic(f: PolyZ) -> tuple[int, int, int]:
    """(a, c, d) of a quadratic f = aX^2 + bX + c, d = b^2 - 4ac; ValueError
    for any other degree."""
    if f.degree() != 2:
        raise ValueError(f"the closed form needs a quadratic, not degree {f.degree()}")
    c, b, a = f.coeffs
    return a, c, b * b - 4 * a * c


def complete_char_sum(f: PolyZ, p: int) -> int:
    """sum_{m=0}^{p-1} (f(m)/p) in closed form for quadratic f and odd prime p."""
    _require_odd_prime(p)
    a, c, d = _quadratic(f)
    if a % p != 0 and d % p != 0:
        return -kronecker(a, p)
    if a % p == 0 and d % p == 0:
        return p * kronecker(c, p)
    return (p - 1) * kronecker(a, p)


def local_char_average(f: PolyZ, p: int) -> Fraction:
    """Average Jacobi symbol of quadratic f over the classes mod p coprime to
    f: the complete sum over the p - #roots units, 0 if p divides every value."""
    total = complete_char_sum(f, p)
    units = p - len(roots_mod(f, p))
    return Fraction(total, units) if units else Fraction(0)


def brute_char_average(f: PolyZ, p: int) -> Fraction:
    """Enumeration form of the local average, valid for any degree and p up to 2^20:
    sum_r (f(r)/p) / #{r mod p : gcd(f(r), p) = 1}."""
    _require_odd_prime(p)
    if p > 1 << 20:  # values_mod holds p values: about 2 s and 86 MB of peak RSS for a cubic just below
        raise ValueError(f"enumerating f mod p needs p at most 2^20 (--p, --d or --disc), got {p}")
    values = values_mod(f, p)
    units = values[values != 0].tolist()
    if not units:
        raise ValueError(f"all values of f are divisible by {p}: average undefined")
    return Fraction(sum(kronecker(v, p) for v in units), len(units))


def local_average(f: PolyZ, *primes: int) -> Fraction:
    """The product of the local averages of f at the odd primes given, 0 once
    one is: local_char_average for f of degree 2, else brute_char_average."""
    local = local_char_average if f.degree() == 2 else brute_char_average
    out = Fraction(1)
    for p in primes:
        out *= local(f, p)
        if out == 0:
            break
    return out


def char_average(f: PolyZ, d: int) -> Fraction:
    """Multiplicative extension prod_{p | d} of the local average, for odd
    squarefree d > 1."""
    if d <= 1 or d % 2 == 0:
        raise ValueError(f"modulus {d} must be odd, squarefree and > 1")
    if not (fact := factor(d)).is_squarefree():
        raise ValueError(f"modulus {d} must be squarefree")
    return local_average(f, *fact.prime_factors())


def inert_proportion(f: PolyZ, D: FundamentalDiscriminant | int) -> Fraction:
    """Exact proportion of primes p = f(n) that are inert in the quadratic
    field of fundamental discriminant D: (1 + beta*a)/2, with a the product
    of f's local averages at the odd primes of D, beta = -1 for a 2-part of 1,
    else -sum_j chi(j)*alpha_j over the 2-part's character chi and f's mod-8
    profile alpha_1, alpha_3, alpha_5, alpha_7.

    f of degree 2 uses the closed-form local averages; any other degree falls
    back to enumeration at each odd prime dividing D.  An f that
    poly.inadmissible refuses gets its reason before any average.
    """
    if why := inadmissible(f):
        raise ValueError(why)
    D = FundamentalDiscriminant.from_integer(D)
    if not D.odd_primes:
        raise ValueError(f"discriminant {D.D} has no odd prime divisor")
    a_odd = local_average(f, *D.odd_primes)
    if (two := D.two_part) == 1:
        return (1 - a_odd) / 2
    # -sum_j chi(j)*alpha_j in a third of the Fraction arithmetic, as the alpha_j sum to 1
    beta = 2 * sum(alpha for c, alpha in zip(TWO_PART_CHARACTERS[two][1::2], mod8_profile(f)) if c < 0) - 1
    return (1 + beta * a_odd) / 2


def admissible_discriminants(f: PolyZ, bound: int) -> list[FundamentalDiscriminant]:
    """All fundamental discriminants D with |D| <= bound and inert proportion
    exactly 1 for f, sorted by D.  Complete: such D divides 24*a*d, so each
    candidate is built as a product of prime discriminants p* for odd primes
    p | 3*a*d, with p <= |D| <= bound, times a 2-part (8 | 24).  Trial division
    by the primes up to `bound` stops once 3*a*|d| is used up; the rest of it,
    however large, never needs a primality test.  A quadratic that
    poly.inadmissible refuses gets its reason; other degrees get none."""
    if not in_conjecture_f_family(f):
        raise ValueError(f.degree() == 2 and inadmissible(f) or "polynomial is outside the quadratic search family")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > 10**10:
        raise ValueError(f"bound must be <= 1e10 (--bound), got {bound}")
    a, _, d = _quadratic(f)
    rest = 3 * a * abs(d)
    rest >>= (rest & -rest).bit_length() - 1  # its odd part
    products = [(1, ())]  # (D, its odd primes) for the products of prime discriminants with |D| <= bound
    for p in iter_primes(3, bound):
        if rest == 1:
            break
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            star = p if p % 4 == 1 else -p
            products += [(D * star, odd + (p,)) for D, odd in products if abs(D) * p <= bound]
    candidates = [FundamentalDiscriminant(D * two, odd) for D, odd in products[1:] for two in (1, *TWO_PART_CHARACTERS)]
    return sorted((fd for fd in candidates if abs(fd.D) <= bound and inert_proportion(f, fd) == 1), key=lambda fd: fd.D)
