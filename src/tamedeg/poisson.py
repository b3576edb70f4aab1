"""Poisson brackets on polynomial pairs and the degree bound they control.

For polynomials f, g in n variables the bracket is the formal sum

    [f, g] = sum over i < j of (df/dx_i dg/dx_j - df/dx_j dg/dx_i) [x_i, x_j]

with polynomial coefficients on the basis symbols [x_i, x_j].  Each
basis symbol carries degree 2, so the degree of a nonzero bracket is
2 plus the largest coefficient degree.  Over a field of characteristic
zero the bracket vanishes exactly when f and g are algebraically
dependent, which is what makes it usable as an exact dependence test.

The bracket is bilinear, so it is defined by the rule on monomials

    [x^a, x^b] = sum over i < j of (a_i b_j - a_j b_i) x^(a+b-e_i-e_j) [x_i, x_j].

`poisson_bracket` builds no derivative: it clears each operand's
denominators once and computes that rule as one integer product through
`polynomials._packed_product`, the product loop the whole package
shares, over packed exponent keys (`polynomials._packing`).  Each term's
coefficient also carries its exponent vector in bit slots (Kronecker
substitution on the coefficients), so slot i + n j of the product at
key a + b sums c d a_i b_j over the term pairs, and the coefficient on
[x_i, x_j] at a + b - e_i - e_j is slot(i + n j) - slot(j + n i).
`algebraically_dependent` reads the same sums and builds no bracket.
The coefficients are the 2x2 minors of the two gradients, so
`PolyMap.jacobian_det` reuses the bracket for its cofactors.  Bracket
text is printed by `parsing.format_bracket`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import lshift
from typing import Callable, Iterator

from .polynomials import NEG_INFINITY, Monomial, Polynomial, _packed_product, _packing, divide_homogeneous


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


def _cleared_pair(f: Polynomial, g: Polynomial) -> tuple[dict[Monomial, int], int, dict[Monomial, int], int]:
    """(F, D, G, E) with f = F/D and g = G/E over integer terms, once f
    and g are known to share an arity of at least 2."""
    if f.arity != g.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {g.arity}")
    if f.arity < 2:
        raise ValueError("brackets need at least two variables")
    return (*f.cleared(), *g.cleared())


def _minor_sums(F: dict[Monomial, int], G: dict[Monomial, int],
                pack: Callable[[Monomial], int], n: int) -> Iterator[tuple[int, int, dict[int, int]]]:
    """(i, j, sums) for each i < j, where sums maps each key k of F*G
    packed by `pack` to the minor sum at k, over the term pairs c x^a of F
    and d x^b of G with pack(a) + pack(b) == k, of c d (a_i b_j - a_j b_i),
    when that sum is nonzero.

    One `_packed_product` makes every sum.  Term c x^a of F carries the
    int c * sum_i a_i 2^(w i) and term d x^b of G carries
    d * sum_j b_j 2^(w n j), so bit slot i + n j of the product at key k
    holds the sum of c d a_i b_j.  A key takes at most one term of G per
    term of F, so the width w keeps every slot sum below 2^(w-2) in
    absolute value.  Once 2^(w-1) is added to every slot, each slot is
    its sum plus 2^(w-1), borrowing nothing from the next, and the bias
    cancels in the minor slot(i + n j) - slot(j + n i).
    """
    if not F or not G:
        return
    w = (max(map(abs, F.values())) * max(map(abs, G.values())) * max(map(max, F)) * max(map(max, G))
         * min(len(F), len(G))).bit_length() + 2
    rows, cols = range(0, w * n, w), range(0, w * n * n, w * n)
    product = _packed_product({pack(a): c * sum(map(lshift, a, rows)) for a, c in F.items()},
                              {pack(b): d * sum(map(lshift, b, cols)) for b, d in G.items()})
    mask = (1 << w) - 1
    bias = ((1 << w * n * n) - 1) // mask << (w - 1)  # 2^(w-1) in each of the n*n slots
    biased = [(k, v + bias) for k, v in product.items()]
    for i in range(n):
        for j in range(i + 1, n):
            s, t = w * (i + n * j), w * (j + n * i)
            yield i, j, {k: m for k, v in biased if (m := (v >> s & mask) - (v >> t & mask))}


def poisson_bracket(f: Polynomial, g: Polynomial) -> BracketValue:
    """[f, g] by the monomial rule, its minors read off one integer product.

    With f = F/D and g = G/E, where D and E clear the denominators,
    bilinearity gives [f, g] = [F, G]/(D*E): every term pair c x^a,
    d x^b of F and G adds c d (a_i b_j - a_j b_i) to the coefficient of
    x^(a+b-e_i-e_j) on [x_i, x_j].  `_minor_sums` makes those sums for
    all pairs (i, j) at once, and each nonzero one becomes a Fraction
    over D*E.  A nonzero sum at a + b needs a_i + b_i >= 1 and
    a_j + b_j >= 1, so no exponent drops below zero and subtracting the
    packed e_i + e_j from a packed key borrows nothing from the next
    field.
    """
    F, D, G, E = _cleared_pair(f, g)
    n = f.arity
    pack, unpack = _packing(F, G)
    e = [pack((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]
    DE = D * E
    coeffs = {}
    for i, j, sums in _minor_sums(F, G, pack, n):
        unit = e[i] + e[j]
        coeffs[i, j] = Polynomial._from_clean(n, {unpack(k - unit): Fraction(m, DE) for k, m in sums.items()})
    return BracketValue(n, coeffs)


def algebraically_dependent(f: Polynomial, g: Polynomial) -> bool:
    """Exact dependence test: [f, g] vanishes (characteristic zero).

    It reads the minor sums of `poisson_bracket`, pair by pair, and stops
    at the first pair with a nonzero one; it builds no Fraction,
    Polynomial or BracketValue.
    """
    F, _, G, _ = _cleared_pair(f, g)
    pack, _ = _packing(F, G)
    return not any(sums for _, _, sums in _minor_sums(F, G, pack, f.arity))


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
