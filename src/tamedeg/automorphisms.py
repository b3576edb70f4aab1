"""Tame words: elementary and permutation steps, composition, multidegree.

A word is a sequence of steps applied left to right starting from the
identity map.  An elementary step (index i, scalar a, shift s) sends the
current map (F_1, ..., F_n) to the map whose i-th component is
a*F_i + s(F_1, ..., F_n); the shift polynomial must not involve
variable i, so the step is invertible.  A permutation step rearranges
components.  Composing a word therefore yields the automorphism
step_k o ... o step_1.  `parsing` reads and writes words as word files.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import mul
from typing import Sequence, Union

from . import poisson
from .polynomials import Monomial, Polynomial, _coerce, _compose, _derivative, _power, _product, variables


@dataclass(frozen=True)
class ElementaryStep:
    """Replace component `index` (0-based) by scalar*F_index + shift(F).

    The scalar must be a nonzero int or Fraction, like a polynomial
    coefficient; a float or str raises TypeError.
    """

    index: int
    scalar: Fraction
    shift: Polynomial

    def __post_init__(self):
        if not isinstance(self.shift, Polynomial):
            raise TypeError("shift must be a Polynomial")
        object.__setattr__(self, "scalar", _coerce(self.scalar))
        if self.scalar == 0:
            raise ValueError("elementary steps need a nonzero scalar")
        n = self.shift.arity
        if not 0 <= self.index < n:
            raise ValueError(f"component index {self.index} out of range for arity {n}")
        if any(m[self.index] for m in self.shift.terms()):
            raise ValueError(f"shift {self.shift} depends on variable {self.index}")

    @property
    def arity(self) -> int:
        return self.shift.arity

    def apply(self, components: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
        replaced = self.scalar * components[self.index] + self.shift.compose(list(components))
        return components[: self.index] + (replaced,) + components[self.index + 1:]

    def inverse(self) -> ElementaryStep:
        inv = 1 / self.scalar
        return ElementaryStep(self.index, inv, self.shift * -inv)


@dataclass(frozen=True)
class PermutationStep:
    """Rearrange components: new j-th component is old images[j]-th."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a permutation of 0..{len(images) - 1}")

    @property
    def arity(self) -> int:
        return len(self.images)

    def apply(self, components: tuple[Polynomial, ...]) -> tuple[Polynomial, ...]:
        return tuple(components[i] for i in self.images)

    def inverse(self) -> PermutationStep:
        inv = [0] * len(self.images)
        for k, i in enumerate(self.images):
            inv[i] = k
        return PermutationStep(tuple(inv))


TameStep = Union[ElementaryStep, PermutationStep]


@dataclass(frozen=True)
class PolyMap:
    """A square polynomial map: n components in n variables."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("a map needs at least one component")
        n = len(components)
        for c in components:
            if not isinstance(c, Polynomial):
                raise TypeError("components must be Polynomials")
            if c.arity != n:
                raise ValueError(f"component arity {c.arity} does not match component count {n}")

    @classmethod
    def identity(cls, arity: int) -> PolyMap:
        return cls(variables(arity))

    @property
    def arity(self) -> int:
        return len(self.components)

    def mdeg(self) -> tuple[int | float, ...]:
        """Componentwise total degrees."""
        return tuple(c.degree() for c in self.components)

    @functools.cached_property
    def _brackets(self) -> dict[tuple[int, int], poisson.BracketValue]:
        """The brackets [f_p, f_q] computed so far on this map, by (p, q)."""
        return {}

    def bracket(self, p: int, q: int) -> poisson.BracketValue:
        """[f_p, f_q], computed once per map: `jacobian_det` reads its
        minors off it and `verify.verify_example` its claims, so one
        verification of the example map brackets [f1, f3] once."""
        if (p, q) not in self._brackets:
            self._brackets[p, q] = poisson.poisson_bracket(self.components[p], self.components[q])
        return self._brackets[p, q]

    def jacobian(self) -> list[list[Polynomial]]:
        n = self.arity
        return [[self.components[i].derivative(j) for j in range(n)] for i in range(n)]

    def jacobian_det(self) -> Polynomial:
        """det J, its 2x2 minors read off one Poisson bracket.

        The coefficient of [f_p, f_q] on [x_i, x_j], i < j, is the minor
        of J on rows p, q and columns i, j.  So det J is the sum, over
        the permutations with perm(p) < perm(q), of the permutation's
        sign times the coefficient on [x_perm(p), x_perm(q)] times the
        entries df_r/dx_perm(r) of the other rows.  In 3-space this is
        grad f_r . [f_p, f_q], the bracket read as a cross product, up
        to the sign of (p, q, r).  The bracket costs one step per pair
        of terms of f_p and f_q, and its coefficients multiply the other
        rows, so p < q are the two components with the fewest terms:
        for the example map f1 and f3, whose bracket has degree 8.  The
        bracket comes from `bracket(p, q)`, so it is the one that
        `verify_example` reads for its claims.
        The sum runs over ints: each bracket coefficient is cleared and
        brought to one common denominator, each other row f_r = F_r/d_r
        is cleared once, and the integer cofactors times the gradients
        of the F_r go through `_product`; the sum is divided once.
        Arity 1 has no bracket; there det J is df/dx.
        """
        n = self.arity
        if n == 1:
            return self.components[0].derivative(0)
        p, q = sorted(sorted(range(n), key=lambda k: len(self.components[k]))[:2])
        minors = {pair: coefficient.cleared() for pair, coefficient in self.bracket(p, q).items()}
        common = math.lcm(*(d for _, d in minors.values()))
        minors = {pair: {m: c * (common // d) for m, c in terms.items()} for pair, (terms, d) in minors.items()}
        rest = [r for r in range(n) if r not in (p, q)]
        cleared = {r: self.components[r].cleared() for r in rest}
        gradients = {r: [_derivative(cleared[r][0], c) for c in range(n)] for r in rest}
        total: dict[Monomial, int] = {}
        for perm in permutations(range(n)):
            if perm[p] > perm[q]:
                continue
            term = minors.get((perm[p], perm[q]), {})
            for r in rest:
                term = _product(term, gradients[r][perm[r]])
            sign = -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1
            for m, v in term.items():
                total[m] = total.get(m, 0) + sign * v
        denominator = common * math.prod(d for _, d in cleared.values())
        return Polynomial._from_clean(n, {m: Fraction(v, denominator) for m, v in total.items() if v})

    def __repr__(self) -> str:
        return f"PolyMap({', '.join(str(c) for c in self.components)})"


def step_arity(step: TameStep) -> int:
    if isinstance(step, (ElementaryStep, PermutationStep)):
        return step.arity
    raise TypeError(f"not a tame step: {step!r}")


def compose_word(steps: Sequence[TameStep], arity: int | None = None) -> PolyMap:
    """Fold steps over the identity map; the empty word gives the identity.

    Arity is inferred from the steps when not given (default 3 for the
    empty word).
    """
    steps = list(steps)
    if arity is None:
        arity = step_arity(steps[0]) if steps else 3
    components = tuple(variables(arity))
    for step in steps:
        if step_arity(step) != arity:
            raise ValueError(f"step arity {step_arity(step)} does not match word arity {arity}")
        components = step.apply(components)
    return PolyMap(components)


def invert_word(steps: Sequence[TameStep]) -> list[TameStep]:
    """The word composing to the inverse automorphism."""
    return [step.inverse() for step in reversed(steps)]


def mdeg(value: PolyMap | Sequence[TameStep]) -> tuple[int | float, ...]:
    """Multidegree of a map, or of the composition of a word."""
    if not isinstance(value, PolyMap):
        value = compose_word(value)
    return value.mdeg()


# ---- witness constructions ----
#
# Each recipe below is a short elementary word, checked by _checked
# before it is returned: from leading forms where they decide it, else by
# composing it in full, as every witness_equal_pair word needs.


def _leading_mdeg(steps: Sequence[TameStep]) -> tuple[int, ...] | None:
    """The multidegree of compose_word(steps) from leading forms alone,
    or None when a top form cancels and only full composition can tell.

    The fold keeps one homogeneous leading form LF_j, a term mapping, and
    its degree per component.  With F = LF + lower terms, a*F_i + s(F)
    is a*LF_i + s(LF) plus terms below reach = max(deg LF_i, w), w the
    top degree of s with each variable weighted by its form's degree
    (Shestakov-Umirbaev).  A monomial of s of weighted degree below
    reach composes to terms below reach, so the part of degree reach is
    s_top(LF), composed from the monomials of weighted degree reach
    alone (`_compose`), plus a*LF_i when deg LF_i = reach.  When that
    part is nonzero it is the new LF_i, of degree reach; when it cancels
    the fold returns None.  A permutation step permutes the forms.
    """
    arity = step_arity(steps[0]) if steps else 3
    forms = [v._terms for v in variables(arity)]
    degrees = [1] * arity
    for step in steps:
        if not isinstance(step, ElementaryStep):
            forms = [forms[k] for k in step.images]
            degrees = [degrees[k] for k in step.images]
            continue
        i, shift = step.index, step.shift._terms
        weighted = {m: sum(map(mul, m, degrees)) for m in shift}
        reach = max([degrees[i], *weighted.values()])
        form = _compose({m: c for m, c in shift.items() if weighted[m] == reach}, forms, arity)
        if degrees[i] == reach:
            for m, c in forms[i].items():
                c *= step.scalar
                form[m] = c if (old := form.get(m)) is None else old + c
            form = {m: c for m, c in form.items() if c}
        if not form:
            return None
        forms[i], degrees[i] = form, reach
    return tuple(degrees)


def _checked(steps: list[TameStep], expected_mdeg: tuple[int, ...]) -> list[TameStep]:
    got = _leading_mdeg(steps)
    if got is None:
        got = compose_word(steps).mdeg()
    if got != expected_mdeg:
        raise AssertionError(f"witness failed verification: mdeg {got}, wanted {expected_mdeg}")
    return steps


def witness_semigroup(d1: int, d2: int, rep: tuple[int, int]) -> list[TameStep]:
    """A word of multidegree (d1, d2, s*d1 + t*d2), given d3 in the
    semigroup of (d1, d2) via the representation rep = (s, t).

    Requires 3 <= d1 <= d2, (s, t) != (0, 0) and s*d1 + t*d2 >= d2.
    """
    s, t = rep
    if not 3 <= d1 <= d2:
        raise ValueError(f"need 3 <= d1 <= d2, got ({d1}, {d2})")
    if s < 0 or t < 0 or (s, t) == (0, 0):
        raise ValueError(f"representation must be nonnegative and nonzero, got {rep}")
    d3 = s * d1 + t * d2
    if d3 < d2:
        raise ValueError(f"third degree {d3} from {rep} falls below d2 = {d2}")
    x, y, z = variables(3)
    steps = [
        ElementaryStep(0, Fraction(1), z ** d1),
        ElementaryStep(1, Fraction(1), z ** d2),
        ElementaryStep(2, Fraction(1), x ** s * y ** t),
    ]
    return _checked(steps, (d1, d2, d3))


def witness_equal_pair(d: int, d3: int) -> list[TameStep]:
    """A word of multidegree (d, d, d3) for 3 <= d <= d3.

    After x -> x + z^d and y -> y + x both lead with z^d; the third
    step adds F1 * (F2 - F1)^(d3 - d) = (x + z^d) * y^(d3 - d), whose
    top term z^d * y^(d3 - d) cannot cancel against z.
    """
    if not 3 <= d <= d3:
        raise ValueError(f"need 3 <= d <= d3, got ({d}, {d3})")
    x, y, z = variables(3)
    steps = [
        ElementaryStep(0, Fraction(1), z ** d),
        ElementaryStep(1, Fraction(1), x),
        ElementaryStep(2, Fraction(1), x * (y - x) ** (d3 - d)),
    ]
    return _checked(steps, (d, d, d3))


def witness_linear_first(d2: int, d3: int) -> list[TameStep]:
    """A word of multidegree (1, d2, d3): (x, y + x^d2, z + x^d3)."""
    if not 1 <= d2 <= d3:
        raise ValueError(f"need 1 <= d2 <= d3, got ({d2}, {d3})")
    x, _, _ = variables(3)
    steps = [
        ElementaryStep(1, Fraction(1), x ** d2),
        ElementaryStep(2, Fraction(1), x ** d3),
    ]
    return _checked(steps, (1, d2, d3))


# ---- the explicit counterexample map ----


def _integer_sum(*scaled: tuple[int, dict[Monomial, int]]) -> dict[Monomial, int]:
    """The sum of c * terms over the (c, terms) pairs of int term
    mappings, zero sums dropped."""
    out: dict[Monomial, int] = {}
    for c, terms in scaled:
        for m, v in terms.items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def build_example_map() -> PolyMap:
    """The fully expanded map (f1, f2, h) of multidegree (10, 23, 25).

    With g = z + 3x^2*y + 3x*y^3 + y^5 and w = x + y^2:

        f1 = w - g^2
        h  = y - 6w^2 g + 8w g^3 - (16/5) g^5
        f2 = (256/25) f1^5 + g + h^2

    The middle component relies on exact cancellation of every term of
    degree 24 through 50 between (256/25) f1^5 and h^2.

    The formulas are evaluated over int term mappings, through `_product`
    and `_power` (squares by the symmetric rule): g, w and f1 are
    integral, and h and f2 are built as their numerators

        5h    = 5y - 30w^2 g + 40w g^3 - 16g^5
        25 f2 = 256 f1^5 + 25g + (5h)^2

    Each component is divided by its denominator (1, 25 and 5) once, into
    Fraction coefficients.
    """
    g = {(0, 0, 1): 1, (2, 1, 0): 3, (1, 3, 0): 3, (0, 5, 0): 1}
    w = {(1, 0, 0): 1, (0, 2, 0): 1}
    g2 = _product(g, g)
    g3 = _product(g2, g)
    f1 = _integer_sum((1, w), (-1, g2))
    h5 = _integer_sum((5, {(0, 1, 0): 1}), (-30, _product(_product(w, w), g)), (40, _product(w, g3)),
                      (-16, _product(g3, g2)))
    f2_25 = _integer_sum((256, _power(f1, 5, {(0, 0, 0): 1}, _product)), (25, g), (1, _product(h5, h5)))
    return PolyMap(tuple(Polynomial._from_clean(3, {m: Fraction(v, d) for m, v in terms.items()})
                         for terms, d in ((f1, 1), (f2_25, 25), (h5, 5))))


def example_word() -> list[TameStep]:
    """An explicit five-step word composing exactly to build_example_map().

    Writing w = x + y^2 = f1 + g^2, the third component satisfies
    h = y - 6 f1^2 g - 4 f1 g^3 - (6/5) g^5, which peels off the
    construction one elementary step at a time:

        (x, y, z) -> (x, z, y)                      swap to put z second
                  -> (x, g, y)                      z picks up 3x^2*y + 3x*y^3 + y^5
                  -> (f1, g, y)                     x picks up y^2 - g^2
                  -> (f1, g, h)                     y picks up -6f1^2*g - 4f1*g^3 - (6/5)g^5
                  -> (f1, f2, h)                    g picks up (256/25)f1^5 + h^2
    """
    x, y, z = variables(3)
    steps: list[TameStep] = [
        PermutationStep((0, 2, 1)),
        ElementaryStep(1, Fraction(1), 3 * x ** 2 * z + 3 * x * z ** 3 + z ** 5),
        ElementaryStep(0, Fraction(1), z ** 2 - y ** 2),
        ElementaryStep(2, Fraction(1), -6 * x ** 2 * y - 4 * x * y ** 3 - Fraction(6, 5) * y ** 5),
        ElementaryStep(1, Fraction(1), Fraction(256, 25) * x ** 5 + z ** 2),
    ]
    return steps

