"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as a mapping from exponent tuples to nonzero
Fractions.  Values are immutable: every operation returns a new
Polynomial and never mutates its operands.  The zero polynomial has an
empty term mapping and degree NEG_INFINITY, so that

    deg(f + g) <= max(deg f, deg g)
    deg(f * g) == deg f + deg g

hold with no special cases (NEG_INFINITY absorbs addition and orders
below every integer).

Every product of term mappings runs through one loop, `_packed_product`,
over packed exponent keys (Monagan and Pearce): `_layout` gives each
variable a bit field wide enough that adding two keys adds the
monomials, and a top field that holds the total degree.  `_product`
multiplies tuple-keyed mappings: Polynomials over Fractions, the term
products of `_compose`, many-term powers and the integer products of
`PolyMap.jacobian_det` and `automorphisms.build_example_map`.

Powers and substitution work on term mappings too: `_term_power` is
`Polynomial.__pow__` and `_compose` is `Polynomial.compose`, which only
check their input, and `_compose` is also the one evaluator of
`automorphisms._leading_mdeg`, which folds a word over leading forms
kept as term mappings.  One-term operands take an O(terms) path: a
product with a one-term factor shifts the other factor's exponents and
scales its coefficients, and a one-term power scales the exponent tuple
and powers the coefficient, so x^s * y^t or z^d costs no repeated
squaring.  A many-term power clears its denominators once, squares the
integer numerators through `_product` and divides by d^k once at the
end; `_power` starts from the first factor it needs, so no power is
ever multiplied by 1.  Otherwise
`_product` packs each input term once (a square, p*p with p the same
mapping, packs it once), multiplies through `_packed_product` and
unpacks each output term once.  A square takes each unordered pair of
terms once, c_a^2 at 2a and 2 c_a c_b at a + b, about half the term
pairs of the general loop.
`reduction` packs its system once per search and calls
`_packed_product` itself, and `poisson.poisson_bracket` multiplies
through it under a `_packing` layout, each coefficient carrying its
term's exponents in bit slots, so that one product makes every minor
of the bracket.

Sums of many terms (the constructor, `_product`, `_compose`) add into one
dict and drop the zero sums in one pass at the end.  The total degree
is read off the terms by degree(), the only place that computes it,
and cached there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import pairwise
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

NEG_INFINITY = float("-inf")

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def _layout(tops: Iterable[int]) -> tuple[Callable[[Monomial], int], Callable[[int], Monomial], int]:
    """(pack, unpack, width) between monomials with exponent i at most
    tops[i] and ints.

    Variable i gets a bit field just wide enough to hold tops[i], and the
    bits from `width` up hold the total degree, so key >> width is the
    monomial's degree.  While the exponents stay within the tops, a sum
    of keys is the packed key of the product monomial: no field carries
    into the next, and the top field adds the degrees.  With no tops
    there are no fields and every key packs to 0.
    """
    fields: list[tuple[int, int]] = []
    width = 0
    for top in tops:
        fields.append((width, (1 << top.bit_length()) - 1))
        width += top.bit_length()
    # e << shift plus e << width in one weight, so one map packs both.
    # map over the weights packs, a comprehension over (shift, mask) pairs
    # unpacks: each about twice as fast as the other form.
    weights = [(1 << shift) + (1 << width) for shift, _ in fields]
    return (lambda m: sum(map(mul, m, weights)),
            lambda k: tuple([(k >> s) & mask for s, mask in fields]),
            width)


def _packing(p: Mapping[Monomial, Scalar],
             q: Mapping[Monomial, Scalar]) -> tuple[Callable[[Monomial], int], Callable[[int], Monomial]]:
    """(pack, unpack) of a `_layout` for the monomials of p*q: the top
    of variable i is max_p[i] + max_q[i]."""
    pack, unpack, _ = _layout(map(add, map(max, zip(*p)), map(max, zip(*q))))
    return pack, unpack


def _packed_product(p: Mapping[int, Scalar], q: Mapping[int, Scalar]) -> dict[int, Scalar]:
    """p*q for term mappings under packed keys of one `_layout` whose
    tops hold the product's exponents.

    The term pairs accumulate in one dict, p's terms outer and q's
    inner.  A square, p is q, takes each unordered pair of terms once:
    c_a^2 goes to 2a and 2 c_a c_b to a + b for each later term b, about
    half the pairs.  Zero sums stay in it, for the caller to drop in the
    pass it makes over the terms anyway.
    """
    out: dict[int, Scalar] = {}
    if p is q:
        terms = list(p.items())
        for i, (ka, ca) in enumerate(terms):
            k = ka + ka
            c = ca * ca
            out[k] = c if (old := out.get(k)) is None else old + c
            twice = 2 * ca
            for kb, cb in terms[i + 1:]:
                k = ka + kb
                c = twice * cb
                out[k] = c if (old := out.get(k)) is None else old + c
        return out
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = ka + kb
            c = ca * cb
            # A first occurrence is stored as is: 0 + c would build a new Fraction.
            out[k] = c if (old := out.get(k)) is None else old + c
    return out


def _product(p: Mapping[Monomial, Scalar], q: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """p*q for term mappings with nonzero int or Fraction coefficients.

    A one-term factor shifts the other factor's exponents and scales its
    coefficients: shifting by one monomial is injective and a product of
    nonzero coefficients is nonzero, so nothing merges and nothing is
    checked for zero.  Otherwise each term is packed once (`_packing`),
    `_packed_product` multiplies, and each output term is unpacked once,
    in the order of the tuple keys' term pairs.  A square, p is q, packs
    its operand once and passes that one dict as both factors, so that
    `_packed_product` takes its square rule.
    """
    if len(p) == 1 or len(q) == 1:
        single, many = (q, p) if len(q) == 1 else (p, q)
        ((mb, cb),) = single.items()
        if any(mb):
            return {tuple(map(add, ma, mb)): ca * cb for ma, ca in many.items()}
        return {ma: ca * cb for ma, ca in many.items()}
    pack, unpack = _packing(p, q)
    packed_p = {pack(m): c for m, c in p.items()}
    out = _packed_product(packed_p, packed_p if p is q else {pack(m): c for m, c in q.items()})
    return {unpack(k): c for k, c in out.items() if c}


def _derivative(terms: Mapping[Monomial, Scalar], var: int) -> dict[Monomial, Scalar]:
    """d/dx_var of a term mapping with nonzero int or Fraction coefficients."""
    # Lowering one exponent is injective on the terms that have it,
    # so each coefficient c * e stays separate and nonzero.
    return {m[:var] + (m[var] - 1,) + m[var + 1:]: c * m[var] for m, c in terms.items() if m[var]}


def _power(base: dict, exponent: int, one: dict, product: Callable[[dict, dict], dict]) -> dict:
    """base ** exponent by repeated squaring through `product`.

    Each square is product(base, base), so `_packed_product` takes its
    square rule.  The result starts from its first factor, never from a
    product with 1: exponent 0 returns the term mapping `one` of the
    constant 1, and exponent 1 returns `base` itself.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else product(result, base)
        base = product(base, base) if exponent > 1 else base
        exponent >>= 1
    return one if result is None else result


def _cleared(terms: Mapping[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """(terms times d with integer coefficients, d) for the least common
    denominator d of the coefficients (1 for no terms)."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _term_power(terms: Mapping[Monomial, Fraction], exponent: int, arity: int) -> dict[Monomial, Fraction]:
    """terms ** exponent for a term mapping in `arity` variables with
    nonzero Fraction coefficients; any power 0 is 1.

    A one-term power scales the exponent tuple and powers the
    coefficient.  Otherwise the denominators are cleared to their least
    common multiple d, the integer numerators are raised by repeated
    squaring (`_power`) and read back over d ** exponent once, since
    (N/d)^k = N^k/d^k.
    """
    if len(terms) == 1:
        ((m, c),) = terms.items()
        return {tuple(e * exponent for e in m): c ** exponent}
    base, d = _cleared(terms)
    result = _power(base, exponent, {(0,) * arity: 1}, _product)
    d **= exponent
    return {m: Fraction(n, d) for m, n in result.items()}


def _compose(terms: Mapping[Monomial, Fraction], args: Sequence[Mapping[Monomial, Fraction]],
             arity: int) -> dict[Monomial, Fraction]:
    """The term mapping of terms(args[0], ..., args[-1]): args[i], a term
    mapping in `arity` variables, substituted for variable i.  All
    coefficients are nonzero Fractions; zero sums are dropped.

    Each argument's powers are tabled at the exponents in use, each from
    the previous one: one `_product` across a gap of 1, a `_term_power`
    across a larger one.  Each term is then its coefficient times its
    powers, and the terms add into one dict.
    """
    powers: list[dict[int, dict[Monomial, Fraction]]] = []
    for i, a in enumerate(args):
        table: dict[int, dict[Monomial, Fraction]] = {}
        for previous, e in pairwise(sorted({0} | {m[i] for m in terms})):
            step = a if e - previous == 1 else _term_power(a, e - previous, arity)
            table[e] = _product(table[previous], step) if previous else step
        powers.append(table)
    one = (0,) * arity
    out: dict[Monomial, Fraction] = {}
    for m, c in terms.items():
        prod = {one: c}
        for i, e in enumerate(m):
            if e:
                prod = _product(prod, powers[i][e])
        for mp, cp in prod.items():
            out[mp] = cp if (old := out.get(mp)) is None else old + cp
    return {m: c for m, c in out.items() if c}


def graded_key(monomial: Monomial) -> tuple:
    """Sort key of the canonical term order (graded lex), largest first.

    Total degree, ties broken lexicographically with earlier variables
    heavier (x > y > z).  Keys are unique, so sorting by it in reverse
    renders a polynomial deterministically, and max() under it picks the
    graded-lex leading term, as leading-term division needs.
    """
    return (sum(monomial), monomial)


class Polynomial:
    """An exact polynomial in a fixed number of variables.

    `arity` is the number of variables; exponent tuples must have
    exactly that length.  Coefficients are Fractions and zero
    coefficients are dropped on construction, so equality of term
    mappings is equality of polynomials.
    """

    __slots__ = ("_arity", "_terms", "_degree", "_hash")

    def __init__(self, arity: int, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] | None = None):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        self._arity = arity
        clean: dict[Monomial, Fraction] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for monomial, coeff in items:
                monomial = tuple(monomial)
                if len(monomial) != arity:
                    raise ValueError(f"exponent tuple {monomial} has length {len(monomial)}, expected {arity}")
                for e in monomial:
                    if not isinstance(e, int) or e < 0:
                        raise ValueError(f"exponents must be nonnegative integers, got {monomial}")
                coeff = _coerce(coeff)
                # A first occurrence is stored as is: adding it to 0 would
                # build a new Fraction per term and slow construction 4-6x.
                clean[monomial] = clean[monomial] + coeff if monomial in clean else coeff
        self._terms = {m: c for m, c in clean.items() if c}
        self._degree: int | float | None = None
        self._hash: int | None = None

    @classmethod
    def _from_clean(cls, arity: int, terms: dict[Monomial, Fraction]) -> Polynomial:
        """A polynomial owning `terms`, skipping __init__'s validation.

        Only for terms derived from valid polynomials: exponent tuples of
        length `arity` and nonzero Fraction coefficients.  The degree is
        left for degree() to read off the terms.
        """
        result = cls.__new__(cls)
        result._arity = arity
        result._terms = terms
        result._degree = None
        result._hash = None
        return result

    # ---- constructors ----

    @classmethod
    def zero(cls, arity: int) -> Polynomial:
        return cls(arity)

    @classmethod
    def constant(cls, value: Scalar, arity: int) -> Polynomial:
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, index: int, arity: int) -> Polynomial:
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exponents: Monomial, coeff: Scalar = 1) -> Polynomial:
        return cls(len(exponents), {tuple(exponents): coeff})

    # ---- inspection ----

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> dict[Monomial, Fraction]:
        """A copy of the term mapping."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in the canonical order: degree descending, then exponent tuple descending."""
        return [(m, self._terms[m]) for m in sorted(self._terms, key=graded_key, reverse=True)]

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._terms.get(tuple(monomial), _ZERO)

    def cleared(self) -> tuple[dict[Monomial, int], int]:
        """(terms of d*self with integer coefficients, d) for the least
        common denominator d of the coefficients (1 for zero)."""
        return _cleared(self._terms)

    def degree(self) -> int | float:
        """Total degree; NEG_INFINITY for the zero polynomial."""
        if self._degree is None:
            self._degree = max((sum(m) for m in self._terms), default=NEG_INFINITY)
        return self._degree

    def is_homogeneous(self) -> bool:
        """Whether all terms share one total degree.  Zero counts as homogeneous."""
        degrees = {sum(m) for m in self._terms}
        return len(degrees) <= 1

    def leading_form(self) -> Polynomial:
        """Homogeneous component of top total degree."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading form")
        d = self.degree()
        return Polynomial._from_clean(self._arity, {m: c for m, c in self._terms.items() if sum(m) == d})

    # ---- arithmetic ----

    def _check_arity(self, other: Polynomial) -> None:
        if self._arity != other._arity:
            raise ValueError(f"arity mismatch: {self._arity} vs {other._arity}")

    def _lift(self, other: object) -> Polynomial:
        """A Polynomial as is, a scalar as a constant, else NotImplemented."""
        if not isinstance(other, (int, Fraction)):
            return other if isinstance(other, Polynomial) else NotImplemented
        c = _coerce(other)
        return Polynomial._from_clean(self._arity, {(0,) * self._arity: c} if c else {})

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = self._lift(other)
        if other is NotImplemented:
            return other
        self._check_arity(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            # A first occurrence is stored as is, as in the constructor:
            # 0 + c would build a new Fraction.
            s = c if (old := terms.get(m)) is None else old + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._from_clean(self._arity, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_clean(self._arity, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = self._lift(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        other = self._lift(other)
        if other is NotImplemented:
            return other
        self._check_arity(other)
        return Polynomial._from_clean(self._arity, _product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        """self ** exponent for an int exponent >= 0; any power 0 is 1
        (`_term_power`)."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        return Polynomial._from_clean(self._arity, _term_power(self._terms, exponent, self._arity))

    # ---- calculus and substitution ----

    def derivative(self, var: int) -> Polynomial:
        """Formal partial derivative with respect to variable `var` (0-based)."""
        if not 0 <= var < self._arity:
            raise ValueError(f"variable index {var} out of range for arity {self._arity}")
        return Polynomial._from_clean(self._arity, _derivative(self._terms, var))

    def compose(self, args: Sequence[Polynomial]) -> Polynomial:
        """Substitute args[i] for variable i.  All args must share one arity."""
        if len(args) != self._arity:
            raise ValueError(f"expected {self._arity} substitution arguments, got {len(args)}")
        if not all(isinstance(a, Polynomial) for a in args):
            raise TypeError("substitution arguments must be Polynomials")
        target_arity = args[0].arity
        for a in args:
            if a.arity != target_arity:
                raise ValueError(f"arity mismatch among substitution arguments: {a.arity} vs {target_arity}")
        return Polynomial._from_clean(target_arity, _compose(self._terms, [a._terms for a in args], target_arity))

    # ---- comparison ----

    def __eq__(self, other: object) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return other
        return self._arity == other._arity and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._terms:
                self._hash = hash(Fraction(0))
            elif len(self._terms) == 1 and (0,) * self._arity in self._terms:
                # Constant polynomials hash like their value so that
                # p == 1 implies hash(p) == hash(1).
                self._hash = hash(self._terms[(0,) * self._arity])
            else:
                self._hash = hash((self._arity, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        from . import parsing

        return parsing.format_polynomial(self, parsing.default_names(self._arity))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, arity={self._arity})"


@functools.cache
def variables(arity: int) -> tuple[Polynomial, ...]:
    """The coordinate polynomials (x_0, ..., x_{arity-1}), built once per
    arity (polynomials are immutable, so the tuple is shared)."""
    return tuple(Polynomial.variable(i, arity) for i in range(arity))


def divide_homogeneous(f: Polynomial, d: Polynomial) -> Polynomial | None:
    """Exact quotient of homogeneous polynomials, or None.

    Returns q with f == q * d when d divides f in the polynomial ring,
    else None.  Both inputs must be nonzero and homogeneous.
    """
    if f.is_zero or d.is_zero:
        raise ValueError("divisibility of homogeneous forms requires nonzero inputs")
    if f.arity != d.arity:
        raise ValueError(f"arity mismatch: {f.arity} vs {d.arity}")
    if not f.is_homogeneous() or not d.is_homogeneous():
        raise ValueError("divide_homogeneous requires homogeneous inputs")
    if f.degree() < d.degree():
        return None
    lead_d = max(d._terms, key=graded_key)
    coeff_d = d._terms[lead_d]
    remainder = f
    quotient: dict[Monomial, Fraction] = {}
    # Standard leading-term elimination; since d is homogeneous, failure
    # of the exponent-wise comparison at any step certifies non-divisibility.
    while remainder:
        lead_r = max(remainder._terms, key=graded_key)
        diff = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in diff):
            return None
        c = remainder._terms[lead_r] / coeff_d
        quotient[diff] = c
        remainder = remainder - Polynomial.monomial(diff, c) * d
    return Polynomial(f.arity, quotient)
