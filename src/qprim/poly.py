"""Integer polynomials and their local residue statistics.

PolyZ is the one integer polynomial type (constant term first).  A quadratic
is any PolyZ of degree 2: QuadraticPoly only builds one as aX^2+bX+c and adds
a, b, c and the discriminant d as read-only views, so no answer depends on
which of the two classes spells f.  Every question "for which s is f(s) = t
(mod q)?" goes through roots_mod: closed form for degree <= 2 and odd prime
q, else a scan of values_mod, the one numpy enumeration of f(0..m-1) mod m,
which also backs the residue counts and the mod-8 profile.  roots_table
answers it for a whole chunk of primes at once, the value sieve's roots: for
degree 1 and 2 one pass over arith.Lanes, equal to roots_mod prime by prime,
which it calls at q = 2 and where q divides the leading coefficient.
`densities` counts roots over chunks of primes by the same Lanes kernel; both
are property-tested against roots_mod.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _INT64_PRIME_BOUND, Lanes, residues, sqrt_mod


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


class QuadraticPoly(PolyZ):
    """aX^2 + bX + c with a > 0: the PolyZ((c, b, a)), adding only the views a, b,
    c and the discriminant d = b^2 - 4ac, and a repr in the a, b, c form its
    constructor takes; evaluation, str and shift are PolyZ's."""

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


def in_conjecture_f_family(f: PolyZ) -> bool:
    """Membership in the Hardy-Littlewood Conjecture-F family of quadratics:
    a > 0, gcd(a,b,c) = 1, discriminant not a square, a+b and c not both even.
    """
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
    and 2, the odd q below 2^31 that do not divide the leading coefficient
    are one pass over arith.Lanes: -c/b, or (-b +- s)/(2a) with s a square
    root of the discriminant; roots_mod takes the other q."""
    c, b, a = (f.coeffs + (0, 0))[:3]
    c -= t
    fast = np.zeros(len(P), bool)
    if f.degree() in (1, 2) and len(P) and P[-1] < _INT64_PRIME_BOUND:
        fast = (P != 2) & (residues(f.leading(), P) != 0)
    lanes = Lanes(P[fast])
    Pf = lanes.P

    def mod(v: int) -> np.ndarray:  # v mod each q, in [0, q)
        return lanes.lower(lanes.lift(v))

    if f.degree() == 1:
        r1 = r2 = -mod(c) % Pf * lanes.lower(lanes.pow(lanes.lift(b), Pf - 2)) % Pf
        count = np.ones(len(Pf), np.int64)
    else:  # degree 2, or no lane at all
        disc = lanes.lift(b * b - 4 * a * c)
        s, square = lanes.sqrt(disc)
        s = lanes.lower(s)  # 0 where q | disc
        inv = lanes.lower(lanes.pow(lanes.lift(2 * a), Pf - 2))
        nb = -mod(b)
        r1, r2 = (nb + s) % Pf * inv % Pf, (nb - s) % Pf * inv % Pf
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


def mod8_profile(f: PolyZ) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(alpha_1, alpha_3, alpha_5, alpha_7): the distribution of the odd values
    of f over the classes 1, 3, 5, 7 mod 8, alpha_j = #{s mod 8 : f(s) = j mod 8}
    / #{s mod 8 : f(s) odd}."""
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
    if not values:
        raise ValueError("empty polynomial")
    return PolyZ(tuple(values))
