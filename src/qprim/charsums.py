"""Complete character sums, local/global Jacobi-symbol averages, and the
exact inert-prime proportion of primes represented by a polynomial.

Everything in this module is exact rational arithmetic (fractions.Fraction);
no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization, _strip, factor, is_prime, kronecker, iter_primes, squarefree_decomposition
from .poly import (
    PolyZ,
    in_conjecture_f_family,
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
    """A fundamental quadratic-field discriminant and its (positive) odd part."""

    D: int
    odd_part: int

    @classmethod
    def from_integer(cls, D: int | FundamentalDiscriminant) -> FundamentalDiscriminant:
        """The fundamental discriminant D; an instance is returned unchanged."""
        if isinstance(D, FundamentalDiscriminant):
            return D
        if not is_fundamental_discriminant(D):
            raise ValueError(f"{D} is not a fundamental discriminant")
        m = abs(D)
        while m % 2 == 0:
            m //= 2
        return cls(D=D, odd_part=m)


def is_fundamental_discriminant(D: int) -> bool:
    if D == 0:
        return False
    if D % 4 == 1:
        return factor(abs(D)).is_squarefree()
    if D % 4 == 0:
        m = D // 4
        if m % 4 in (2, 3):
            return factor(abs(m)).is_squarefree()
    return False


def fundamental_discriminant(g: int) -> FundamentalDiscriminant:
    """Discriminant of Q(sqrt(g)) for a valid base g: write g = g0^2*g1 with
    g1 squarefree; D = g1 if g1 = 1 mod 4, else 4*g1."""
    require_valid_base(g)
    _, g1 = squarefree_decomposition(g)
    D = g1 if g1 % 4 == 1 else 4 * g1
    return FundamentalDiscriminant.from_integer(D)


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
    """Enumeration form of the local average, valid for any degree:
    sum_r (f(r)/p) / #{r mod p : gcd(f(r), p) = 1}."""
    _require_odd_prime(p)
    values = values_mod(f, p)
    units = values[values != 0].tolist()
    if not units:
        raise ValueError(f"all values of f are divisible by {p}: average undefined")
    return Fraction(sum(kronecker(v, p) for v in units), len(units))


def _require_odd_squarefree(d: int) -> Factorization:
    if d <= 1 or d % 2 == 0:
        raise ValueError(f"modulus {d} must be odd, squarefree and > 1")
    fact = factor(d)
    if not fact.is_squarefree():
        raise ValueError(f"modulus {d} must be squarefree")
    return fact


def char_average(f: PolyZ, d: int) -> Fraction:
    """Multiplicative extension prod_{p | d} of the local average, for odd
    squarefree d > 1: the closed form for f of degree 2, enumeration for any
    other degree."""
    fact = _require_odd_squarefree(d)
    local = local_char_average if f.degree() == 2 else brute_char_average
    out = Fraction(1)
    for p, _ in fact.factors:
        out *= local(f, p)
        if out == 0:
            break
    return out


def inert_proportion(f: PolyZ, D: FundamentalDiscriminant | int) -> Fraction:
    """Exact proportion of primes p = f(n) that are inert in the quadratic
    field of fundamental discriminant D, per the mod-8 case table.

    f of degree 2 uses the closed-form local averages; any other degree falls
    back to enumeration at each odd prime dividing D.
    """
    D = FundamentalDiscriminant.from_integer(D)
    if D.odd_part == 1:
        raise ValueError(f"discriminant {D.D} has no odd prime divisor")
    a_odd = char_average(f, D.odd_part)
    if D.D % 2 != 0:
        return (1 - a_odd) / 2
    a1, a3, a5, a7 = mod8_profile(f)
    r = D.D % 32
    if D.D % 8 == 4:
        beta = a3 + a7 - a1 - a5
    elif r == 8:
        beta = a3 + a5 - a1 - a7
    elif r == 24:
        beta = a5 + a7 - a1 - a3
    else:  # fundamental even discriminants are = 4 mod 8 or = 8, 24 mod 32
        raise ValueError(f"{D.D} is not a fundamental discriminant")
    return (1 + beta * a_odd) / 2


def admissible_discriminants(f: PolyZ, bound: int) -> list[FundamentalDiscriminant]:
    """All fundamental discriminants D with |D| <= bound and inert proportion
    exactly 1 for f.  Complete: such D must divide 24*a*d, so only divisors
    of that product are scanned.  A divisor up to `bound` has no prime factor
    above `bound`, so only the bound-smooth part of 24*a*d is factored (by
    trial division, which stops once the product is used up): the rest of
    it, however large, never needs a primality test."""
    if not in_conjecture_f_family(f):
        raise ValueError("polynomial is outside the quadratic search family")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    a, _, d = _quadratic(f)
    base = rest = 24 * a * abs(d)
    smooth: dict[int, int] = {}  # ascending p, as Factorization needs
    for p in iter_primes(2, bound):
        if rest == 1:
            break
        if rest % p == 0:
            rest = _strip(rest, p, smooth)
    out = []
    for t in Factorization(base // rest, tuple(smooth.items())).divisors(limit=bound):
        for D in (t, -t):
            if not is_fundamental_discriminant(D):
                continue
            fd = FundamentalDiscriminant.from_integer(D)
            if fd.odd_part == 1:
                continue
            if inert_proportion(f, fd) == 1:
                out.append(fd)
    return sorted(out, key=lambda fd: fd.D)
