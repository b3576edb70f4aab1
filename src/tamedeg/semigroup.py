"""Membership and gap structure for semigroups generated by two integers.

The semigroup of nonnegative integer combinations s*a + t*b is all of
a*Z>=0 + b*Z>=0; for coprime a, b every sufficiently large integer is a
member, and membership for general a, b reduces to the coprime case by
dividing out gcd(a, b).
"""

from __future__ import annotations

import math


def _validate_generators(a: int, b: int) -> None:
    for value in (a, b):
        if type(value) is not int or value < 1:
            raise ValueError(f"generators must be positive integers, got ({a}, {b})")


def membership(l: int, a: int, b: int) -> tuple[int, int] | None:
    """A representation l == s*a + t*b with s, t >= 0, or None.

    Among all representations the one with the smallest t is returned,
    which also maximises s: t = (l/d) * (b/d)^-1 mod a/d with
    d = gcd(a, b), and l is a member exactly when t*b <= l.
    """
    _validate_generators(a, b)
    if type(l) is not int or l < 0:
        raise ValueError(f"membership target must be a nonnegative integer, got {l!r}")
    d = math.gcd(a, b)
    if l % d:
        return None
    t = l // d * pow(b // d, -1, a // d) % (a // d)
    if t * b > l:
        return None
    s = (l - t * b) // a
    if s * a + t * b != l:
        raise AssertionError(f"unsound representation ({s}, {t}) for {l} over ({a}, {b})")
    return (s, t)


def frobenius(a: int, b: int) -> int:
    """Largest integer with no representation over coprime generators.

    Sylvester's closed form a*b - a - b.  Requires gcd(a, b) == 1 and
    a, b >= 2 (a generator equal to 1 leaves no gaps at all).
    """
    _validate_generators(a, b)
    if math.gcd(a, b) != 1:
        raise ValueError(f"frobenius number needs coprime generators, got ({a}, {b})")
    if a == 1 or b == 1:
        raise ValueError(f"the semigroup of ({a}, {b}) has no gaps")
    return a * b - a - b
