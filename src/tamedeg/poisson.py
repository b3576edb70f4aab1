"""Poisson brackets on polynomial pairs and the degree bound they control.

For polynomials f, g in n variables the bracket is the formal sum

    [f, g] = sum over i < j of (df/dx_i dg/dx_j - df/dx_j dg/dx_i) [x_i, x_j]

with polynomial coefficients on the basis symbols [x_i, x_j].  Each
basis symbol carries degree 2, so the degree of a nonzero bracket is
2 plus the largest coefficient degree.  Over a field of characteristic
zero the bracket vanishes exactly when f and g are algebraically
dependent, which is what makes it usable as an exact dependence test.

`poisson_bracket` builds no derivative and no product of polynomials.
The bracket is bilinear, so it clears each operand's denominators once
and reads every coefficient off the rule on monomials,

    [x^a, x^b] = sum over i < j of (a_i b_j - a_j b_i) x^(a+b-e_i-e_j) [x_i, x_j],

in one pass over integer term pairs, with the exponents of a + b added
as packed int keys (`polynomials._packing`).  Its coefficients are the 2x2
minors of the two gradients, so `PolyMap.jacobian_det` reuses the
bracket for its cofactors.  Bracket text is printed by
`parsing.format_bracket`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .polynomials import NEG_INFINITY, Polynomial, _packing, divide_homogeneous


class BracketValue:
    """Value of a Poisson bracket: coefficients indexed by pairs i < j."""

    __slots__ = ("_arity", "_coeffs")

    def __init__(self, arity: int, coeffs: dict[tuple[int, int], Polynomial] | None = None):
        if arity < 2:
            raise ValueError(f"brackets need at least two variables, got arity {arity}")
        self._arity = arity
        clean: dict[tuple[int, int], Polynomial] = {}
        for (i, j), poly in (coeffs or {}).items():
            if not 0 <= i < j < arity:
                raise ValueError(f"bad bracket pair ({i}, {j}) for arity {arity}")
            if poly.arity != arity:
                raise ValueError(f"coefficient arity {poly.arity} does not match bracket arity {arity}")
            if not poly.is_zero:
                clean[(i, j)] = poly
        self._coeffs = clean

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def pairs(self) -> list[tuple[int, int]]:
        """Pairs with nonzero coefficient, ordered (0,1), (0,2), ..."""
        return sorted(self._coeffs)

    def coefficient(self, i: int, j: int) -> Polynomial:
        """Coefficient on [x_i, x_j]; antisymmetric in (i, j)."""
        if not (0 <= i < self._arity and 0 <= j < self._arity):
            raise ValueError(f"bad bracket pair ({i}, {j}) for arity {self._arity}")
        if i == j:
            return Polynomial.zero(self._arity)
        if i < j:
            return self._coeffs.get((i, j), Polynomial.zero(self._arity))
        return -self._coeffs.get((j, i), Polynomial.zero(self._arity))

    def degree(self) -> int | float:
        """2 + max coefficient degree; NEG_INFINITY when zero."""
        if not self._coeffs:
            return NEG_INFINITY
        return 2 + max(p.degree() for p in self._coeffs.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BracketValue):
            return NotImplemented
        return self._arity == other._arity and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._arity, frozenset(self._coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def items(self) -> Iterator[tuple[tuple[int, int], Polynomial]]:
        for pair in self.pairs():
            yield pair, self._coeffs[pair]

    def __repr__(self) -> str:
        body = ", ".join(f"[{i},{j}]: {poly}" for (i, j), poly in self.items()) or "0"
        return f"BracketValue({body})"


def poisson_bracket(f: Polynomial, g: Polynomial) -> BracketValue:
    """[f, g], its coefficients read straight off the monomial rule.

    With f = F/D and g = G/E, where D and E clear the denominators,
    bilinearity gives [f, g] = [F, G]/(D*E).  Every term pair c x^a,
    c' x^b of F and G adds (a_i b_j - a_j b_i) c c' to the coefficient
    of x^(a+b-e_i-e_j) on [x_i, x_j], summed over Python ints; each
    nonzero sum becomes one Fraction over D*E.  A nonzero weight needs
    a_i + b_i >= 1 and a_j + b_j >= 1, so no exponent drops below zero
    and subtracting the packed e_i + e_j from a packed key borrows
    nothing from the next field.
    """
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    n = f.arity
    if n < 2:
        raise ValueError("brackets need at least two variables")
    F, D = f.cleared()
    G, E = g.cleared()
    pack, unpack = _packing(F, G)
    e = [pack([int(k == i) for k in range(n)]) for i in range(n)]
    # sums keyed by packed a + b; the shift by -e_i - e_j happens once per output term
    sums = [(i, j, e[i] + e[j], {}) for i in range(n) for j in range(i + 1, n)]
    packed_G = [(pack(b), b, d) for b, d in G.items()]
    for a, c in F.items():
        ka = pack(a)
        for kb, b, d in packed_G:
            s = ka + kb
            cd = c * d
            for i, j, _, acc in sums:
                w = a[i] * b[j] - a[j] * b[i]
                if w:
                    acc[s] = acc.get(s, 0) + w * cd
    DE = D * E
    coeffs = {}
    for i, j, unit, acc in sums:
        terms = {unpack(s - unit): Fraction(v, DE) for s, v in acc.items() if v}
        coeffs[(i, j)] = Polynomial._from_clean(n, terms)
    return BracketValue(n, coeffs)


def algebraically_dependent(f: Polynomial, g: Polynomial) -> bool:
    """Exact dependence test via bracket vanishing (characteristic zero)."""
    return poisson_bracket(f, g).is_zero


def _mutual_leading_divisibility(f: Polynomial, g: Polynomial) -> list[str]:
    failures = []
    fbar = f.leading_form()
    gbar = g.leading_form()
    if divide_homogeneous(fbar, gbar) is not None:
        failures.append("the leading form of g divides the leading form of f")
    if divide_homogeneous(gbar, fbar) is not None:
        failures.append("the leading form of f divides the leading form of g")
    return failures


@dataclass(frozen=True)
class PairCheck:
    """Outcome of a pair-condition test with per-condition diagnoses."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _pair_failures(f: Polynomial, g: Polynomial, star: bool) -> tuple[list[str], BracketValue | None]:
    """Failed conditions of the pair checks, in order, and [f, g].

    A zero or constant entry fails alone and leaves the bracket
    uncomputed (None).  `star` adds the condition that the leading forms
    are algebraically dependent.
    """
    if f.is_zero or g.is_zero or f.degree() == 0 or g.degree() == 0:
        return ["a zero or constant entry admits no reduced pair"], None
    bracket = poisson_bracket(f, g)
    failures = []
    if bracket.is_zero:
        failures.append("f and g are algebraically dependent")
    if star and not algebraically_dependent(f.leading_form(), g.leading_form()):
        failures.append("the leading forms of f and g are algebraically independent")
    failures.extend(_mutual_leading_divisibility(f, g))
    return failures, bracket


def is_star_reduced(f: Polynomial, g: Polynomial) -> PairCheck:
    """Check the three star-reduction conditions on an ordered pair.

    (1) f and g are algebraically independent;
    (2) their leading forms are algebraically dependent;
    (3) neither leading form divides the other.
    Degenerate inputs (zero or constant) fail condition (1) or (2).
    """
    failures, _ = _pair_failures(f, g, star=True)
    return PairCheck(not failures, tuple(failures))


def is_weak_pair(f: Polynomial, g: Polynomial) -> PairCheck:
    """Check the weakened pair conditions: independence plus mutual
    non-divisibility of leading forms."""
    failures, _ = _pair_failures(f, g, star=False)
    return PairCheck(not failures, tuple(failures))


@dataclass(frozen=True)
class SuReport:
    """Instance of the degree inequality for G(f, g) against deg G.

    lhs_degree is deg G(f, g); rhs_bound is
    q * (p * deg g - deg f - deg g + deg [f, g]) + r * deg g
    where p = deg f / gcd(deg f, deg g) and deg_y G = p*q + r with
    0 <= r < p.  `holds` records lhs_degree >= rhs_bound.
    """

    p: int
    q: int
    r: int
    bracket_degree: int
    lhs_degree: int | float
    rhs_bound: int
    holds: bool


def su_bound(f: Polynomial, g: Polynomial, G: Polynomial) -> SuReport:
    """Evaluate the lower bound on deg G(f, g) for a weakened pair.

    f and g must form a weakened pair (see is_weak_pair); G is a
    polynomial in two variables, nonzero in its second variable's
    direction or not, either way the bound is reported as computed.
    """
    failures, bracket = _pair_failures(f, g, star=False)
    if failures:
        raise ValueError("not a weakened pair: " + "; ".join(failures))
    if G.arity != 2:
        raise ValueError(f"G must be bivariate, got arity {G.arity}")
    if G.is_zero:
        raise ValueError("G must be nonzero")
    deg_f = f.degree()
    deg_g = g.degree()
    p = deg_f // math.gcd(deg_f, deg_g)
    deg_y_G = max(m[1] for m in G.terms())
    q, r = divmod(deg_y_G, p)
    bracket_degree = bracket.degree()
    value = G.compose([f, g])
    lhs = value.degree()
    rhs = q * (p * deg_g - deg_f - deg_g + bracket_degree) + r * deg_g
    return SuReport(
        p=p,
        q=q,
        r=r,
        bracket_degree=bracket_degree,
        lhs_degree=lhs,
        rhs_bound=rhs,
        holds=lhs >= rhs,
    )
