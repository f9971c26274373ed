"""Integer polynomials and their local residue statistics.

PolyZ is the one integer polynomial type (constant term first).  A quadratic
is any PolyZ of degree 2: QuadraticPoly only builds one as aX^2+bX+c and adds
a, b, c and the discriminant d as read-only views, so no answer depends on
which of the two classes spells f.  Every question "for which s is f(s) = t
(mod q)?" goes through roots_mod: closed form for degree <= 2 and odd prime
q, else a scan of values_mod, the one numpy enumeration of f(0..m-1) mod m,
which also backs the residue counts and the mod-8 profile.  roots_table
answers it for a whole chunk of primes at once, the value sieve's roots: for
degree 1 and 2 one pass over arith.Lanes at any odd q, whose residues in
[0, q) it reads as they are, equal to roots_mod prime by prime, which it
calls at q = 2, where q divides the leading coefficient and for degree 3 and
up.  `densities` counts roots over chunks of primes by the same Lanes
kernel; both are property-tested against roots_mod.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import Lanes, sqrt_mod


@dataclass(frozen=True, eq=False)
class PolyZ:
    """Integer polynomial; coeffs[i] multiplies X^i. Trailing zeros stripped.
    Equality and hash go by the coefficients alone, so a QuadraticPoly equals
    the PolyZ with the same coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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


class QuadraticPoly(PolyZ):
    """aX^2 + bX + c with a > 0: the PolyZ((c, b, a)), adding only the views a, b,
    c and the discriminant d = b^2 - 4ac, and a repr in the a, b, c form its
    constructor takes; evaluation and str are PolyZ's."""

    def __init__(self, a: int, b: int, c: int) -> None:
        if a <= 0:
            raise ValueError("quadratic leading coefficient must be positive")
        super().__init__((c, b, a))

    a = property(lambda self: self.coeffs[2])
    b = property(lambda self: self.coeffs[1])
    c = property(lambda self: self.coeffs[0])
    d = property(lambda self: self.coeffs[1] ** 2 - 4 * self.coeffs[2] * self.coeffs[0])

    def __repr__(self) -> str:
        return f"QuadraticPoly(a={self.a}, b={self.b}, c={self.c})"


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def inadmissible(f: PolyZ) -> str | None:
    """Why f represents at most finitely many primes, or None (Bunyakovsky's
    conditions, the hypothesis of Bateman and Horn, Math. Comp. 16, 1962):
    f is constant, a quadratic with a square discriminant, or a prime
    divides every value.  Such a prime divides the content or is at most
    deg f: mod a larger q not dividing the content, f has at most deg f < q
    roots.  The scan reaches a composite q after its prime factors.  Above
    degree 2 irreducibility is not decided."""
    deg = f.degree()
    if deg < 1:
        return "constant polynomial"
    if deg == 2 and is_perfect_square(f.coeffs[1] ** 2 - 4 * f.coeffs[2] * f.coeffs[0]):
        return "reducible quadratic: discriminant is a perfect square"
    if (content := math.gcd(*f.coeffs)) > 1:
        return f"every value is divisible by {content}"
    for q in range(2, deg + 1):
        if not values_mod(f, q).any():
            return f"every value is divisible by {q}"
    return None


def in_conjecture_f_family(f: PolyZ) -> bool:
    """Membership in the Hardy-Littlewood Conjecture-F family of quadratics:
    degree 2, a > 0, and admissible (see inadmissible)."""
    return f.degree() == 2 and f.leading() > 0 and inadmissible(f) is None


def values_mod(f: PolyZ, m: int) -> np.ndarray:
    """f(0), f(1), ..., f(m-1) mod m as an int64 array, by Horner's rule.
    Products stay below m^2, so m must be below 3e9."""
    s = np.arange(m, dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for c in reversed(f.coeffs):
        acc = (acc * s + c % m) % m
    return acc


def roots_mod(f: PolyZ, q: int, t: int = 0) -> tuple[int, ...]:
    """The s mod the prime q with f(s) = t (mod q), ascending.  Closed form
    for degree <= 2 and odd q: -c/b when f - t is linear mod q (every
    residue or none when q also divides b), else Tonelli-Shanks on the
    discriminant; a scan of values_mod for q = 2 and degree > 2."""
    if q == 2 or f.degree() > 2:
        return tuple(np.flatnonzero(values_mod(f, q) == t % q).tolist())
    c, b, a = (f.coeffs + (0, 0))[:3]
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


def roots_table(f: PolyZ, P: np.ndarray, t: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R), int64: roots_mod(f, q, t) for each prime q of the ascending
    int64 array P, concatenated, each root r beside its q in Q.  For degree 1
    and 2, the odd q that do not divide the leading coefficient are one pass
    over arith.Lanes: -c/b, or (-b +- s)/(2a) with s a square root of the
    discriminant; roots_mod takes the other q."""
    c, b, a = (f.coeffs + (0, 0))[:3]
    c -= t
    lanes = Lanes(P)
    fast = (P != 2) & (lanes.lift(f.leading()) != 0) & (f.degree() in (1, 2))
    lanes = lanes.take(fast)
    Pf = lanes.P
    if f.degree() == 1:
        r1 = r2 = lanes.mul(lanes.lift(-c), lanes.pow(lanes.lift(b), Pf - 2))
        count = np.ones(len(Pf), np.int64)
    else:  # degree 2, or no lane at all
        disc = lanes.lift(b * b - 4 * a * c)
        s, square = lanes.sqrt(disc)  # s = 0 where q | disc
        inv, nb = lanes.pow(lanes.lift(2 * a), Pf - 2), lanes.lift(-b)
        r1, r2 = lanes.mul((nb + s) % Pf, inv), lanes.mul((nb - s) % Pf, inv)
        count = np.where(square, 2, disc == 0)  # q | disc: one double root
    slow = [roots_mod(f, q, t) for q in P[~fast].tolist()]
    counts = np.zeros(len(P), np.int64)
    counts[fast], counts[~fast] = count, [len(rs) for rs in slow]
    starts = np.cumsum(counts) - counts  # where each q's roots begin in R
    R, at = np.empty(int(counts.sum()), np.int64), starts[fast]
    R[at[count > 0]] = np.minimum(r1, r2)[count > 0]
    R[at[count > 1] + 1] = np.maximum(r1, r2)[count > 1]
    for start, rs in zip(starts[~fast].tolist(), slow):
        R[start : start + len(rs)] = rs
    return np.repeat(P, counts), R


@lru_cache(maxsize=16)
def mod8_profile(f: PolyZ) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(alpha_1, alpha_3, alpha_5, alpha_7), cached by f: the distribution of the
    odd values of f over the classes 1, 3, 5, 7 mod 8, alpha_j = #{s mod 8 :
    f(s) = j mod 8} / #{s mod 8 : f(s) odd}."""
    counts = np.bincount(values_mod(f, 8), minlength=8).tolist()
    odd = sum(counts[1::2])
    if odd == 0:
        raise ValueError("polynomial takes no odd values")
    return tuple(Fraction(n, odd) for n in counts[1::2])


def parse_poly(text: str) -> PolyZ:
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
    return PolyZ(tuple(values))
