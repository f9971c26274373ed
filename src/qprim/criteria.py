"""Checkable primitive-root criteria.

Each predicate here is a verifiable statement: given hypotheses on a prime
(or a prime pair), a prescribed base must be a primitive root.  The scan
helpers return False for inapplicable inputs and raise CriterionViolationError
if hypotheses hold but the conclusion fails, which no input should ever
trigger; the exhaustive property tests assert exactly that.
extended_chebyshev reads a base's squarefree part from
charsums.fundamental_discriminant: D = +-8 for g1 = +-2, and the odd primes
of D for g2, the odd part of |g1|.
lehmer_index_coprimality (the CLI's prop2 mode) walks the primes 326n^2 + 3
through streaks._residual_indices, which proves each one and factors its
p - 1.
"""

from __future__ import annotations

import math

from .arith import (
    factor,
    is_prime,
    is_primitive_root,
    kronecker,
    primes_up_to,
    residual_index,
)
from .charsums import fundamental_discriminant
from .poly import QuadraticPoly
from .streaks import _residual_indices


class CriterionViolationError(RuntimeError):
    """Hypotheses of a proven criterion held but its conclusion failed."""


def excluded_index_primes(alpha: int, d1: int, d2: int, q_max: int) -> list[int]:
    """Odd primes q <= q_max with (-d1*d2/q) != 1 and q not dividing d2.

    For every prime p = 2^alpha*d1*n^2 + 2^alpha*d2 + 1 such a q cannot divide
    the residual index of any base mod p (p is never 1 mod q).
    """
    if d1 <= 0 or d2 <= 0:
        raise ValueError("d1 and d2 must be positive")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    out = []
    for q in primes_up_to(q_max):
        if q == 2 or d2 % q == 0:
            continue
        if kronecker(-d1 * d2, q) != 1:
            out.append(q)
    return out


_PRIMORIAL_37 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37


def lehmer_index_coprimality(k: int, n_cap: int) -> bool:
    """For every prime p = 326n^2+3 with n <= n_cap and every base
    b in {-163, -3, 6, 326} with p not dividing k*b: check that the residual
    index of k^2*b mod p is coprime to 2*3*...*37."""
    if k == 0:
        raise ValueError("k must be nonzero")
    for _, p, pm1, _ in _residual_indices(QuadraticPoly(a=326, b=0, c=3), k * k * 326, n_cap):
        for b in (-163, -3, 6, 326):
            if (k * b) % p == 0:
                continue
            r = residual_index(k * k * b, p, pm1)
            if math.gcd(r, _PRIMORIAL_37) != 1:
                return False
    return True


def chebyshev_criterion(p1: int) -> bool:
    """If p1 = 1 (mod 4) is prime and p2 = 2*p1+1 is prime, then 2 is a
    primitive root mod p2: extended_chebyshev at g = 2.  True when the
    hypotheses hold (and the conclusion verifies); False when inapplicable."""
    return extended_chebyshev(2, p1)


def chebyshev_offset(g2: int) -> int:
    """Smallest a >= 1 with gcd(a, g2) = 1 and Jacobi (8a+1 / g2) = -1, for
    odd squarefree g2 >= 3.  Such a exists; exhausting a full period without
    one would falsify the existence lemma."""
    if g2 < 3 or g2 % 2 == 0:
        raise ValueError("need an odd g2 >= 3")
    if not factor(g2).is_squarefree():
        raise ValueError("g2 must be squarefree")
    for a in range(1, g2 + 1):
        if math.gcd(a, g2) == 1 and kronecker(8 * a + 1, g2) == -1:
            return a
    raise CriterionViolationError(f"no valid offset modulo {g2} exists")


def extended_chebyshev(g: int, p1: int) -> bool:
    """Chebyshev-style criterion for an arbitrary valid base g.

    g1 != +-2 branch: p1 prime = offset (mod g2), p2 = 8*p1+1 prime, and
    g^8 != 0, 1 (mod p2)  ==>  g is a primitive root mod p2.
    g1 = +-2 branch: p1 prime = sgn(g) (mod 4), p2 = 2*p1+1 prime, and
    g^2 != 0, 1 (mod p2)  ==>  g is a primitive root mod p2.

    Returns False when inapplicable, True when the hypotheses held and the
    conclusion verified; raises CriterionViolationError otherwise.
    """
    fd = fundamental_discriminant(g)
    if fd.D in (8, -8):  # g = g0^2 * g1 with g1 = +-2
        if p1 % 4 != (1 if g > 0 else 3) or not is_prime(p1):  # the congruence first: no test past its range
            return False
        p2 = 2 * p1 + 1
        power = 2
    else:
        if not is_prime(p1):
            return False
        if (g2 := math.prod(fd.odd_primes)) < 3:
            raise ValueError(f"base {g} has no odd squarefree part >= 3")
        a = chebyshev_offset(g2)
        if p1 % g2 != a % g2:
            return False
        p2 = 8 * p1 + 1
        power = 8
    if not is_prime(p2):
        return False
    gp = pow(g, power, p2)
    if gp == 0 or gp == 1:
        return False
    if not is_primitive_root(g, p2):
        raise CriterionViolationError(f"{g} is not a primitive root mod {p2}")
    return True


def fueter_criterion(p: int) -> bool:
    """Cubic-reciprocity criterion: for p odd prime with q = 6p+1 prime,
    3 fails to be a primitive root mod q exactly when 4q = n^2 + 243 m^2.

    Returns True when applicable and the two sides agree, False when
    inapplicable; raises CriterionViolationError on disagreement.
    """
    if p < 3 or not is_prime(p):
        return False
    q = 6 * p + 1
    if not is_prime(q):
        return False
    not_primitive = not is_primitive_root(3, q)
    target = 4 * q
    representable = False
    m = 0
    while 243 * m * m <= target:
        rest = target - 243 * m * m
        r = math.isqrt(rest)
        if r * r == rest:
            representable = True
            break
        m += 1
    if not_primitive != representable:
        raise CriterionViolationError(
            f"q={q}: primitive-root status and 4q = n^2+243m^2 disagree"
        )
    return True
