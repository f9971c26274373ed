"""Integer polynomials and their local residue statistics.

PolyZ is a general integer polynomial (constant term first); QuadraticPoly is
the aX^2+bX+c workhorse with its discriminant cached.  Every question "for
which s is f(s) = t (mod q)?" goes through roots_mod: closed form for degree
<= 2 and odd prime q, else a scan of values_mod, the one numpy enumeration of
f(0..m-1) mod m, which also backs the residue counts and the mod-8 profile.
`densities` keeps a vectorised Legendre kernel for root counts over whole
chunks of primes; it is property-tested against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .arith import sqrt_mod


@dataclass(frozen=True)
class PolyZ:
    """Integer polynomial; coeffs[i] multiplies X^i. Trailing zeros stripped."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1]

    def eval(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    __call__ = eval

    def eval_mod(self, n: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * n + c) % m
        return acc

    def shift(self, t: int) -> "PolyZ":
        """Coefficients of f(X + t) (Taylor shift by synthetic division)."""
        work = list(self.coeffs)
        out = []
        for _ in range(len(work)):
            for i in range(len(work) - 1, 0, -1):
                work[i - 1] += t * work[i]
            out.append(work[0])
            work = work[1:]
        return PolyZ(tuple(out))

    def __str__(self) -> str:
        if self.degree() <= 0:
            return str(self.coeffs[0])
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            elif i == 1:
                parts.append(f"{c:+d}*X")
            else:
                parts.append(f"{c:+d}*X^{i}")
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s


@dataclass(frozen=True)
class QuadraticPoly:
    """aX^2 + bX + c with a > 0; discriminant d = b^2 - 4ac cached."""

    a: int
    b: int
    c: int
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("quadratic leading coefficient must be positive")
        object.__setattr__(self, "d", self.b * self.b - 4 * self.a * self.c)

    def as_poly(self) -> PolyZ:
        return PolyZ((self.c, self.b, self.a))

    def eval(self, n: int) -> int:
        return (self.a * n + self.b) * n + self.c

    __call__ = eval

    def shift(self, t: int) -> "QuadraticPoly":
        p = self.as_poly().shift(t)
        return QuadraticPoly(a=p.coeffs[2], b=p.coeffs[1], c=p.coeffs[0])

    def __str__(self) -> str:
        return str(self.as_poly())


AnyPoly = Union[PolyZ, QuadraticPoly]


def as_polyz(f: AnyPoly) -> PolyZ:
    return f.as_poly() if isinstance(f, QuadraticPoly) else f


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def in_conjecture_f_family(f: AnyPoly) -> bool:
    """Membership in the Hardy-Littlewood Conjecture-F family of quadratics:
    a > 0, gcd(a,b,c) = 1, discriminant not a square, a+b and c not both even.
    """
    if isinstance(f, QuadraticPoly):
        a, b, c = f.a, f.b, f.c
    else:
        if f.degree() != 2:
            return False
        c, b, a = f.coeffs
    if a <= 0:
        return False
    if math.gcd(math.gcd(a, b), c) != 1:
        return False
    if is_perfect_square(b * b - 4 * a * c):
        return False
    if (a + b) % 2 == 0 and c % 2 == 0:
        return False
    return True


def values_mod(f: AnyPoly, m: int) -> np.ndarray:
    """f(0), f(1), ..., f(m-1) mod m as an int64 array, by Horner's rule.
    Products stay below m^2, so m must be below 3e9."""
    s = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(as_polyz(f).coeffs):
        acc = (acc * s + c % m) % m
    return acc


def roots_mod(f: AnyPoly, q: int, t: int = 0) -> tuple[int, ...]:
    """The s mod the prime q with f(s) = t (mod q), ascending.  Closed form
    for degree <= 2 and odd q: -c/b when f - t is linear mod q (every
    residue or none when q also divides b), else Tonelli-Shanks on the
    discriminant; a scan of values_mod for q = 2 and degree > 2."""
    poly = as_polyz(f)
    if q == 2 or poly.degree() > 2:
        return tuple(np.flatnonzero(values_mod(poly, q) == t % q).tolist())
    c, b, a = (poly.coeffs + (0, 0))[:3]
    c -= t
    if a % q == 0:
        if b % q:
            return (-c * pow(b, -1, q) % q,)
        return tuple(range(q)) if c % q == 0 else ()
    s = sqrt_mod(b * b - 4 * a * c, q)
    if s is None:
        return ()
    inv2a = pow(2 * a, -1, q)
    r1, r2 = sorted(((-b + s) * inv2a % q, (-b - s) * inv2a % q))
    return (r1,) if r1 == r2 else (r1, r2)


@dataclass(frozen=True)
class Mod8Profile:
    """Distribution of the odd values of f over the classes 1,3,5,7 mod 8."""

    alpha1: Fraction
    alpha3: Fraction
    alpha5: Fraction
    alpha7: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.alpha1, self.alpha3, self.alpha5, self.alpha7)


def mod8_profile(f: AnyPoly) -> Mod8Profile:
    """alpha_j = #{s mod 8 : f(s) = j mod 8} / (4 * #{s mod 2 : f(s) odd});
    the denominator is #{s mod 8 : f(s) odd}, as f(s) mod 2 has period 2."""
    counts = np.bincount(values_mod(f, 8), minlength=8).tolist()
    odd = sum(counts[1::2])
    if odd == 0:
        raise ValueError("polynomial takes no odd values")
    return Mod8Profile(*(Fraction(n, odd) for n in counts[1::2]))


def parse_poly(text: str) -> AnyPoly:
    """Parse a CLI polynomial.

    Exactly three comma-separated integers are read as a quadratic "a,b,c"
    (leading coefficient first); any other length is constant-term-first
    "c0,c1,...,ck".
    """
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"polynomial coefficients must be integers: {text!r}") from exc
    if len(values) == 3:
        a, b, c = values
        if a <= 0:
            raise ValueError("quadratic form a,b,c requires a > 0")
        return QuadraticPoly(a=a, b=b, c=c)
    if not values:
        raise ValueError("empty polynomial")
    return PolyZ(tuple(values))
