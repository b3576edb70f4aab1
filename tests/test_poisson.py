"""Poisson brackets, pair predicates, and the degree inequality."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamedeg import (
    NEG_INFINITY,
    BracketValue,
    Polynomial,
    algebraically_dependent,
    build_example_map,
    format_bracket,
    is_star_reduced,
    is_weak_pair,
    poisson_bracket,
    su_bound,
    variables,
)
from tamedeg import poisson
from tamedeg.parsing import format_coefficients, join_coefficients

x, y, z = variables(3)
u, v = variables(2)
F1, F2, F3 = build_example_map().components


def random_polynomial(rng: random.Random, max_degree: int = 4,
                      max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        monomial = tuple(rng.randint(0, max_degree) for _ in range(3))
        if sum(monomial) > max_degree:
            continue
        terms[monomial] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return Polynomial(3, terms)


class TestBracketValue:
    def test_coordinate_bracket(self):
        b = poisson_bracket(x, y)
        assert b.pairs() == [(0, 1)]
        assert b.coefficient(0, 1) == 1

    def test_coefficient_is_antisymmetric(self):
        b = poisson_bracket(x**2, y * z)
        assert b.coefficient(1, 0) == -b.coefficient(0, 1)
        assert b.coefficient(2, 2).is_zero

    def test_coefficient_index_range(self):
        with pytest.raises(ValueError):
            poisson_bracket(x, y).coefficient(0, 3)

    def test_self_bracket_vanishes(self):
        f = x**2 * y + z
        assert poisson_bracket(f, f).is_zero
        assert poisson_bracket(f, f).degree() == NEG_INFINITY

    def test_degree_of_coordinate_bracket(self):
        assert poisson_bracket(x, y).degree() == 2

    def test_zero_coefficients_not_stored(self):
        b = BracketValue(3, {(0, 1): Polynomial.zero(3), (0, 2): x})
        assert b.pairs() == [(0, 2)]

    def test_equality_hash_truth_and_repr(self):
        b = poisson_bracket(x**2, y * z)
        assert b.__eq__(x) is NotImplemented and b != x
        assert hash(b) == hash(BracketValue(3, {(0, 2): 2 * x * y, (0, 1): 2 * x * z}))
        assert bool(b) and not poisson_bracket(x, x)
        assert repr(b) == "BracketValue([0,1]: 2*x*z, [0,2]: 2*x*y)"
        assert repr(BracketValue(3)) == "BracketValue(0)"

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            BracketValue(3, {(1, 1): x})
        with pytest.raises(ValueError):
            BracketValue(3, {(0, 3): x})
        with pytest.raises(ValueError):
            BracketValue(1)

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            BracketValue(3, {(0, 1): u})
        with pytest.raises(ValueError):
            poisson_bracket(x, u)


def minor_bracket(f: Polynomial, g: Polynomial) -> BracketValue:
    """[f, g] from the 2x2 minors df_i*dg_j - df_j*dg_i of the gradients,
    expanded term by term through the validating constructor, so that no
    product of polynomials (and no packed key) is involved."""
    n = f.arity
    df = [f.derivative(i).terms() for i in range(n)]
    dg = [g.derivative(i).terms() for i in range(n)]

    def minor(i, j):
        return Polynomial(n, [(tuple(a + b for a, b in zip(ma, mb)), sign * ca * cb)
                              for p, q, sign in ((df[i], dg[j], 1), (df[j], dg[i], -1))
                              for ma, ca in p.items() for mb, cb in q.items()])

    return BracketValue(n, {(i, j): minor(i, j) for i in range(n) for j in range(i + 1, n)})


COEFFICIENTS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30))


@st.composite
def polynomial_pairs(draw):
    """Two polynomials of one arity in 2..4: sparse, constant or zero."""
    n = draw(st.integers(2, 4))
    sparse = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), COEFFICIENTS, max_size=5)
    polynomial = st.one_of(
        sparse.map(lambda terms: Polynomial(n, terms)),
        COEFFICIENTS.map(lambda c: Polynomial.constant(c, n)),
    )
    return draw(polynomial), draw(polynomial)


BIG = 10**40
SIX = variables(6)


class TestBracketAgainstMinors:
    @settings(max_examples=300, deadline=None)
    @given(pair=polynomial_pairs())
    @example(pair=(F1, F2))
    @example(pair=(F1, F3))
    @example(pair=(F2, F3))
    @example(pair=(Polynomial.zero(3), F3))
    @example(pair=(x**(10**6) * y, y * z + x))
    @example(pair=(u**3 * v + 2 * u, v**2 - Fraction(1, 3) * u * v))
    # coefficients near 10^40 over denominators near 10^12
    @example(pair=(Fraction(BIG + 7, 10**12 + 3) * x**2 * y - Fraction(BIG - 1, 10**12 - 11) * y * z**3 + x,
                   Fraction(-BIG + 3, 10**12 + 1) * x * z + Fraction(BIG, 7) * y**2 * z - y))
    # all coefficients negative
    @example(pair=(-x**2 * y - 3 * y * z**2 - 5 * x * z - 2, -2 * x * y * z - 7 * y**3 - z))
    # 21 x 21 same-sign terms: every pair with k == l lands on x^20 y^20 z
    @example(pair=(sum(9 * x**k * y**(20 - k) for k in range(21)),
                   sum(9 * x**(20 - k) * y**k * z for k in range(21))))
    # arity 2 with large same-sign coefficients, and arity 6
    @example(pair=(-BIG * u**3 * v**2 - BIG * u * v**4, -BIG * u**2 * v**3 - (BIG + 1) * v**5 + u))
    @example(pair=(SIX[0] * SIX[5]**2 - 3 * SIX[1] * SIX[4] + SIX[2]**3,
                   SIX[3] * SIX[0] + Fraction(5, 2) * SIX[5] * SIX[2] - SIX[1]**2 * SIX[4]))
    # exponent 10^6 with large coefficients
    @example(pair=(BIG * x**(10**6) * y - Fraction(BIG, 3) * z**(10**6),
                   -BIG * y * z**(10**6) + x**(10**6) * z + BIG * x))
    def test_matches_minor_formula(self, pair):
        f, g = pair
        assert poisson_bracket(f, g) == minor_bracket(f, g)


class TestBracketIdentities:
    def test_antisymmetry(self):
        rng = random.Random(41)
        for _ in range(100):
            f = random_polynomial(rng)
            g = random_polynomial(rng)
            fg = poisson_bracket(f, g)
            gf = poisson_bracket(g, f)
            for pair in set(fg.pairs()) | set(gf.pairs()):
                assert fg.coefficient(*pair) == -gf.coefficient(*pair)

    def test_bilinearity(self):
        rng = random.Random(42)
        for _ in range(100):
            f1 = random_polynomial(rng)
            f2 = random_polynomial(rng)
            g = random_polynomial(rng)
            lhs = poisson_bracket(f1 + f2, g)
            a = poisson_bracket(f1, g)
            b = poisson_bracket(f2, g)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert lhs.coefficient(i, j) == a.coefficient(i, j) + b.coefficient(i, j)

    def test_leibniz_in_first_argument(self):
        rng = random.Random(43)
        for _ in range(100):
            f1 = random_polynomial(rng)
            f2 = random_polynomial(rng)
            g = random_polynomial(rng)
            lhs = poisson_bracket(f1 * f2, g)
            a = poisson_bracket(f2, g)
            b = poisson_bracket(f1, g)
            for i in range(3):
                for j in range(i + 1, 3):
                    expected = f1 * a.coefficient(i, j) + f2 * b.coefficient(i, j)
                    assert lhs.coefficient(i, j) == expected

    def test_independent_pairs_have_degree_at_least_two(self):
        rng = random.Random(44)
        for _ in range(100):
            f = random_polynomial(rng)
            g = random_polynomial(rng)
            b = poisson_bracket(f, g)
            if not b.is_zero:
                assert b.degree() >= 2


class TestDependence:
    def test_power_is_dependent(self):
        f = x + y**2
        assert algebraically_dependent(f, f * f)
        assert algebraically_dependent(x**2 * y, x**4 * y**2)

    def test_coordinates_independent(self):
        assert not algebraically_dependent(x, y)

    def test_example_leading_forms_dependent(self, example_map):
        f1, _, f3 = example_map.components
        assert algebraically_dependent(f1.leading_form(), f3.leading_form())

    def test_example_pair_independent(self, example_map):
        f1, _, f3 = example_map.components
        assert not algebraically_dependent(f1, f3)

    @settings(max_examples=300, deadline=None)
    @given(pair=polynomial_pairs())
    def test_equals_bracket_vanishing(self, pair):
        f, g = pair
        assert algebraically_dependent(f, g) == poisson_bracket(f, g).is_zero

    @settings(max_examples=100, deadline=None)
    @given(pair=polynomial_pairs())
    def test_square_and_cube_are_dependent(self, pair):
        p, _ = pair
        assert algebraically_dependent(p**2, p**3)
        assert poisson_bracket(p**2, p**3).is_zero


class TestStarReduced:
    def test_coordinates_fail_leading_form_dependence(self):
        check = is_star_reduced(x, y)
        assert not check
        assert check.failures == (
            "the leading forms of f and g are algebraically independent",
        )

    def test_dependent_pair_fails_independence(self):
        f = x + y**2
        check = is_star_reduced(f, f * f + 1)
        assert not check.ok
        assert "f and g are algebraically dependent" in check.failures

    def test_example_pair_meets_first_two_conditions(self, example_map):
        f1, _, f3 = example_map.components
        check = is_star_reduced(f1, f3)
        assert "f and g are algebraically dependent" not in check.failures
        assert (
            "the leading forms of f and g are algebraically independent"
            not in check.failures
        )

    def test_example_pair_fails_divisibility(self, example_map):
        # leading forms are -y^10 and -16/5*y^25, so the first divides
        # the second and condition (3) rules the pair out
        f1, _, f3 = example_map.components
        check = is_star_reduced(f1, f3)
        assert not check.ok
        assert check.failures == (
            "the leading form of f divides the leading form of g",
        )

    def test_zero_input_fails(self):
        check = is_star_reduced(Polynomial.zero(3), x)
        assert not check.ok

    def test_small_pair_passes_first_two_conditions_only(self):
        # independent, leading forms y^2 and y^4 dependent, but y^2
        # divides y^4, so only the divisibility condition fails
        check = is_star_reduced(x + y**2, x + y**4)
        assert not check.ok
        assert check.failures == (
            "the leading form of f divides the leading form of g",
        )


class TestWeakPair:
    def test_coordinates_form_weak_pair(self):
        assert is_weak_pair(x, y).ok

    def test_divisible_leading_forms_rejected(self):
        check = is_weak_pair(x, x**2)
        assert not check.ok
        assert "the leading form of f divides the leading form of g" in check.failures

    def test_divisibility_alone_rejects(self):
        check = is_weak_pair(x + y**2, x + y**4)
        assert not check.ok
        assert check.failures == (
            "the leading form of f divides the leading form of g",
        )

    def test_example_pair_rejected_by_divisibility(self, example_map):
        # the computed leading forms are -y^10 and -16/5*y^25; the
        # first divides the second, so the two-sided condition fails
        f1, _, f3 = example_map.components
        check = is_weak_pair(f1, f3)
        assert not check.ok
        assert check.failures == (
            "the leading form of f divides the leading form of g",
        )

    def test_constant_input_rejected(self):
        check = is_weak_pair(Polynomial.constant(2, 3), x)
        assert not check.ok
        assert check.failures == ("a zero or constant entry admits no reduced pair",)

    def test_dependent_pair_rejected(self):
        f = x + y
        assert not is_weak_pair(f, f * f).ok


class TestSuBound:
    def test_linear_pair_power(self):
        for k in (1, 2, 3, 5):
            report = su_bound(x, y, Polynomial.monomial((0, k)))
            assert (report.p, report.q, report.r) == (1, k, 0)
            assert report.bracket_degree == 2
            assert report.rhs_bound == k
            assert report.lhs_degree == k
            assert report.holds

    def test_square_cube_pair(self):
        report = su_bound(x**2, y**3, v)
        assert (report.p, report.q, report.r) == (2, 0, 1)
        assert report.rhs_bound == 3
        assert report.lhs_degree == 3
        assert report.holds

    def test_precondition_refused_with_diagnosis(self):
        f = x + y
        with pytest.raises(ValueError) as info:
            su_bound(f, f * f, v)
        assert "not a weakened pair" in str(info.value)

    def test_bivariate_argument_required(self):
        with pytest.raises(ValueError):
            su_bound(x, y, x)

    def test_nonzero_argument_required(self):
        with pytest.raises(ValueError):
            su_bound(x, y, Polynomial.zero(2))

    def test_one_bracket_per_call(self, monkeypatch):
        calls = []

        def counting(f, g):
            calls.append((f, g))
            return poisson_bracket(f, g)

        monkeypatch.setattr(poisson, "poisson_bracket", counting)
        pairs = [(x**2, y**3, v), (x + y**2, z**3 - x, u * v**4), (x, y, u**3 + v)]
        for f, g, G in pairs:
            su_bound(f, g, G)
        assert calls == [(f, g) for f, g, _ in pairs]

    def test_division_shape(self):
        rng = random.Random(45)
        count = 0
        while count < 50:
            f = random_polynomial(rng)
            g = random_polynomial(rng)
            if f.degree() < 1 or g.degree() < 1 or not is_weak_pair(f, g).ok:
                continue
            G = Polynomial.monomial((rng.randint(0, 2), rng.randint(0, 4)), 1)
            report = su_bound(f, g, G)
            p = f.degree() // math.gcd(f.degree(), g.degree())
            assert report.p == p
            assert report.q * p + report.r == max(m[1] for m in G.terms())
            assert 0 <= report.r < p
            count += 1


class TestFormatBracket:
    def test_single_term(self):
        assert format_bracket(poisson_bracket(x, y)) == "(1)·[x,y]"

    def test_zero(self):
        assert format_bracket(poisson_bracket(x, x)) == "0"

    def test_pair_order_and_names(self):
        b = poisson_bracket(x + z, y)
        assert format_bracket(b) == "(1)·[x,y] + (-1)·[y,z]"

    def test_example_pair_display(self, example_map):
        f1, _, f3 = example_map.components
        text = format_bracket(poisson_bracket(f1, f3))
        assert text == (
            "(-30*x^2*y^4 - 54*x^3*y^2 - 18*x^4 - 6*y^3*z - 12*x*y*z + 1)·[x,y]"
            " + (-6*y^4 - 12*x*y^2 - 6*x^2)·[x,z]"
            " + (-10*y^5 - 18*x*y^3 - 6*x^2*y + 2*z)·[y,z]"
        )

    def test_coefficients_and_their_join(self, example_map):
        f1, _, f3 = example_map.components
        b = poisson_bracket(f1, f3)
        coefficients = format_coefficients(b, ("a", "b", "c"))
        assert list(coefficients) == ["[a,b]", "[a,c]", "[b,c]"]
        assert coefficients["[a,c]"] == "-6*b^4 - 12*a*b^2 - 6*a^2"
        assert join_coefficients(coefficients) == format_bracket(b, ("a", "b", "c"))
        assert format_coefficients(poisson_bracket(x, x)) == {}
        with pytest.raises(ValueError):
            format_coefficients(b, ("a", "b"))
