"""Exact sparse polynomial arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamedeg import (
    NEG_INFINITY,
    Polynomial,
    divide_homogeneous,
    parse_polynomial,
    variables,
)
from tamedeg.polynomials import _layout, _packed_product, _product

x, y, z = variables(3)


def random_polynomial(rng: random.Random, arity: int = 3, max_degree: int = 5,
                      max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        monomial = tuple(rng.randint(0, max_degree) for _ in range(arity))
        if sum(monomial) > max_degree:
            continue
        terms[monomial] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(arity, terms)


class TestConstruction:
    def test_zero_has_no_terms(self):
        assert Polynomial.zero(3).terms() == {}
        assert Polynomial.zero(3).is_zero

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms() == {(0, 1): Fraction(2)}

    def test_repeated_monomials_merge(self):
        m = (1, 2, 0)
        # cancelled, then brought back
        assert Polynomial(3, [(m, 1), (m, -1), (m, 2)]).terms() == {m: Fraction(2)}
        zero = Polynomial(3, [(m, 1), ((0, 0, 1), 3), (m, -1), ((0, 0, 1), -3)])
        assert zero.is_zero and zero == Polynomial.zero(3) and zero.degree() == NEG_INFINITY

    def test_coefficients_coerced_to_fraction(self):
        p = Polynomial(1, {(2,): 3})
        assert p.coefficient((2,)) == Fraction(3)
        assert isinstance(p.coefficient((2,)), Fraction)

    def test_monomial_length_must_match_arity(self):
        with pytest.raises(ValueError):
            Polynomial(3, {(1, 0): Fraction(1)})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): Fraction(1)})

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError):
            Polynomial.variable(3, 3)

    def test_constant_and_variable(self):
        assert Polynomial.constant(7, 3).degree() == 0
        assert Polynomial.variable(1, 3) == y


class TestArithmetic:
    def test_addition_merges_like_terms(self):
        assert (x + y) + (x - y) == 2 * x

    def test_addition_cancels_to_zero(self):
        p = 3 * x * y**2
        assert (p - p).is_zero

    def test_subtraction(self):
        assert (x**2 + y) - y == x**2

    def test_multiplication(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_multiplication_by_zero(self):
        assert (x + y) * Polynomial.zero(3) == Polynomial.zero(3)

    def test_scalar_operations(self):
        assert Fraction(1, 2) * (2 * x) == x
        assert (x + 1) - 1 == x
        assert 1 - x == Polynomial(3, {(1, 0, 0): -1, (0, 0, 0): 1})

    def test_power(self):
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert x**0 == Polynomial.constant(1, 3)

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            (x + y) ** -1

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            x + Polynomial.variable(0, 2)

    def test_equality_with_numbers(self):
        assert Polynomial.constant(Fraction(5, 2), 3) == Fraction(5, 2)
        assert Polynomial.zero(2) == 0
        assert hash(Polynomial.constant(4, 3)) == hash(Fraction(4))

    def test_cleared_denominators(self):
        p = Fraction(1, 6) * x**2 - Fraction(3, 4) * y + 2
        assert p.cleared() == ({(2, 0, 0): 2, (0, 1, 0): -9, (0, 0, 0): 24}, 12)
        assert (x - y).cleared() == ({(1, 0, 0): 1, (0, 1, 0): -1}, 1)
        assert Polynomial.zero(3).cleared() == ({}, 1)
        rng = random.Random(22)
        for _ in range(100):
            p = random_polynomial(rng)
            terms, d = p.cleared()
            assert Polynomial(3, {m: Fraction(c, d) for m, c in terms.items()}) == p
            assert math.gcd(d, *terms.values()) == 1  # d is the least such denominator


class TestDegree:
    def test_degree_of_zero_is_minus_infinity(self):
        assert Polynomial.zero(3).degree() == NEG_INFINITY

    def test_degree_of_constant_is_zero(self):
        assert Polynomial.constant(-2, 3).degree() == 0

    def test_total_degree(self):
        assert (x**3 * y + z).degree() == 4

    def test_degree_of_product_adds(self):
        rng = random.Random(20)
        for _ in range(200):
            p = random_polynomial(rng)
            q = random_polynomial(rng)
            if p.is_zero or q.is_zero:
                assert (p * q).is_zero
            else:
                assert (p * q).degree() == p.degree() + q.degree()

    def test_degree_of_sum_bounded(self):
        rng = random.Random(21)
        for _ in range(200):
            p = random_polynomial(rng)
            q = random_polynomial(rng)
            assert (p + q).degree() <= max(p.degree(), q.degree())


class TestLeadingForm:
    def test_leading_form_of_mixed_polynomial(self):
        assert (x + y**2).leading_form() == y**2

    def test_leading_form_of_example_middle_component(self):
        g = z + 3 * x**2 * y + 3 * x * y**3 + y**5
        assert g.leading_form() == y**5

    def test_leading_form_fixes_homogeneous(self):
        p = x**2 * y + 3 * y**3
        assert p.leading_form() == p

    def test_leading_form_multiplicative(self):
        rng = random.Random(22)
        count = 0
        while count < 100:
            p = random_polynomial(rng)
            q = random_polynomial(rng)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).leading_form() == p.leading_form() * q.leading_form()
            count += 1

    def test_is_homogeneous(self):
        assert (x * y + z**2).is_homogeneous()
        assert not (x + y**2).is_homogeneous()
        assert Polynomial.zero(3).is_homogeneous()


class TestDerivative:
    def test_partial_derivatives(self):
        p = x**2 * y + z
        assert p.derivative(0) == 2 * x * y
        assert p.derivative(1) == x**2
        assert p.derivative(2) == Polynomial.constant(1, 3)

    def test_derivative_of_constant(self):
        assert Polynomial.constant(5, 3).derivative(0).is_zero

    def test_derivative_index_range(self):
        with pytest.raises(ValueError):
            x.derivative(3)

    def test_leibniz_rule(self):
        rng = random.Random(23)
        for _ in range(100):
            p = random_polynomial(rng)
            q = random_polynomial(rng)
            for i in range(3):
                lhs = (p * q).derivative(i)
                rhs = p.derivative(i) * q + p * q.derivative(i)
                assert lhs == rhs


class TestCompose:
    def test_identity_substitution(self):
        p = x**2 + y * z
        assert p.compose([x, y, z]) == p

    def test_renaming(self):
        u, v = variables(2)
        assert (u + v**2).compose([y, z]) == y + z**2

    def test_affine_substitution(self):
        u, v = variables(2)
        p = u * v - u
        q = p.compose([u + 1, v])
        assert q == (u + 1) * v - (u + 1)

    def test_compose_is_ring_homomorphism(self):
        rng = random.Random(24)
        args = [x + y**2, y - 1, z * x]
        for _ in range(100):
            p = random_polynomial(rng)
            q = random_polynomial(rng)
            assert (p + q).compose(args) == p.compose(args) + q.compose(args)
            assert (p * q).compose(args) == p.compose(args) * q.compose(args)

    def test_sparse_exponents(self):
        # gaps of 1 and larger gaps in the exponents each argument meets
        u, v = variables(2)
        p = 3 * u**40 + u**41 * v - u**2 * v**17 + v**18 + 5
        f, g = x + y**2, y - z
        expected = Polynomial.zero(3)
        for (s, t), c in p.terms().items():
            term = Polynomial.constant(c, 3)
            for factor in [f] * s + [g] * t:
                term = term * factor
            expected = expected + term
        assert p.compose([f, g]) == expected

    def test_compose_arity_check(self):
        with pytest.raises(ValueError):
            x.compose([x, y])


class TestDivideHomogeneous:
    def test_exact_quotient(self):
        assert divide_homogeneous(y**4, y**2) == y**2

    def test_non_divisible(self):
        assert divide_homogeneous(y**2, x) is None

    def test_leading_form_square(self):
        g = z + 3 * x**2 * y + 3 * x * y**3 + y**5
        f = g.leading_form()
        assert divide_homogeneous((f * f).leading_form(), f) == f

    def test_multivariate_quotient(self):
        num = (x + y) * (x**2 - y * z)
        assert divide_homogeneous(num, x + y) == x**2 - y * z

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            divide_homogeneous(x + y**2, x)
        with pytest.raises(ValueError):
            divide_homogeneous(x, x + y**2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divide_homogeneous(Polynomial.zero(3), x)

    def test_random_products_recover_factor(self):
        rng = random.Random(25)
        count = 0
        while count < 100:
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            if a.is_zero or b.is_zero:
                continue
            p = a.leading_form()
            q = b.leading_form()
            assert divide_homogeneous(p * q, p) == q
            count += 1


def canonical_order(monomials) -> list:
    """The canonical term order written out: ascending (-degree, -e_1, ..., -e_n)."""
    return sorted(monomials, key=lambda m: (-sum(m), *(-e for e in m)))


class TestTermOrder:
    def test_sorted_terms_follow_the_written_out_order(self):
        rng = random.Random(30)
        for arity in range(1, 6):
            for _ in range(60):
                p = random_polynomial(rng, arity, max_degree=6, max_terms=12)
                assert [m for m, _ in p.sorted_terms()] == canonical_order(p.terms())
                assert dict(p.sorted_terms()) == p.terms()

    def test_division_eliminates_leading_terms_in_order(self, monkeypatch):
        # Leading-term elimination takes the quotient's terms from the
        # largest down, so the monomials it builds are q's in canonical order.
        built = []
        make = Polynomial.monomial.__func__

        def spy(cls, exponents, coeff=1):
            built.append(tuple(exponents))
            return make(cls, exponents, coeff)

        monkeypatch.setattr(Polynomial, "monomial", classmethod(spy))
        rng = random.Random(31)
        for arity in range(1, 6):
            for _ in range(30):
                d = random_polynomial(rng, arity, max_terms=6)
                q = random_polynomial(rng, arity, max_terms=6)
                if d.is_zero or q.is_zero:
                    continue
                d, q = d.leading_form(), q.leading_form()
                built.clear()
                assert divide_homogeneous(d * q, d) == q
                assert built == canonical_order(q.terms())


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=16)
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polynomials = st.dictionaries(monomials, fractions, max_size=5).map(
    lambda d: Polynomial(3, d)
)


class TestRingAxioms:
    @settings(max_examples=100, deadline=None)
    @given(polynomials, polynomials, polynomials)
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=100, deadline=None)
    @given(polynomials, polynomials)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @settings(max_examples=100, deadline=None)
    @given(polynomials)
    def test_identities(self, p):
        one = Polynomial.constant(1, 3)
        assert p + Polynomial.zero(3) == p
        assert p * one == p
        assert p - p == Polynomial.zero(3)

    @settings(max_examples=100, deadline=None)
    @given(polynomials, polynomials)
    def test_equal_polynomials_hash_equal(self, p, q):
        if p == q:
            assert hash(p) == hash(q)


def expand(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q term by term through the validating constructor, which
    merges equal monomials and drops zero sums."""
    return Polynomial(p.arity, [(tuple(a + b for a, b in zip(mp, mq)), cp * cq)
                                for mp, cp in p.terms().items() for mq, cq in q.terms().items()])


one_terms = st.builds(Polynomial.monomial, monomials, fractions.filter(bool))
any_polynomials = st.one_of(
    st.just(Polynomial.zero(3)),
    fractions.map(lambda c: Polynomial.constant(c, 3)),
    one_terms,
    polynomials,
)
# Substitution arguments: all one-term, all many-term (the zero
# polynomial among them), mixed, or any polynomials (constants among
# them).  One-term coefficients are 1, -1 or a drawn nonzero Fraction.
# Many-term arguments keep to 2 or 3 terms of exponents up to 2, so that
# three of them under a term of degree 12 stay a few thousand term pairs.
unit_or_fraction = st.one_of(st.sampled_from([1, -1]), fractions.filter(bool))
scaled_one_terms = st.builds(Polynomial.monomial, monomials, unit_or_fraction)
many_terms = st.one_of(st.just(Polynomial.zero(3)), st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), fractions.filter(bool), min_size=2, max_size=3).map(
    lambda d: Polynomial(3, d)))
argument_lists = st.one_of(*(st.lists(kind, min_size=3, max_size=3) for kind in (
    scaled_one_terms, many_terms, st.one_of(scaled_one_terms, many_terms), any_polynomials)))


mixed_denominators = st.sampled_from([Fraction(16, 5), Fraction(1, 3), Fraction(-7, 12), Fraction(5, 8), -2, 1])
mixed_denominator_polynomials = st.one_of(
    st.just(Polynomial.zero(3)),
    mixed_denominators.map(lambda c: Polynomial.constant(c, 3)),
    st.builds(Polynomial.monomial, monomials, mixed_denominators),
    st.dictionaries(monomials, mixed_denominators, min_size=2, max_size=4).map(lambda d: Polynomial(3, d)),
)
small_scalars = st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(3, 2)])


class TestOneTermPaths:
    """The O(terms) paths for one-term operands agree with the general ones."""

    @settings(max_examples=150, deadline=None)
    @given(any_polynomials, st.integers(0, 6))
    def test_power_is_repeated_product(self, p, k):
        product = Polynomial.constant(1, 3)
        expanded = Polynomial.constant(1, 3)
        for _ in range(k):
            product = product * p
            expanded = expand(expanded, p)
        power = p ** k
        assert power == product == expanded
        if p:
            assert power.degree() == k * p.degree()

    @settings(max_examples=30, deadline=None)
    @given(monomials, small_scalars, st.integers(0, 10**6))
    def test_large_one_term_power(self, m, c, k):
        power = Polynomial.monomial(m, c) ** k
        ((exponents, coeff),) = power.terms().items()
        assert exponents == tuple(e * k for e in m)
        c = Fraction(c)
        assert (coeff.numerator, coeff.denominator) == (c.numerator ** k, c.denominator ** k)
        assert power.degree() == sum(m) * k

    @settings(max_examples=150, deadline=None)
    @given(one_terms, any_polynomials)
    def test_one_term_product_both_orders(self, single, p):
        expected = expand(single, p)
        for _ in range(2):
            for product in (single * p, p * single):
                assert product == expected
                assert product.degree() == single.degree() + p.degree()
            p.degree()  # the second round multiplies a p whose degree is cached

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.just(0), st.integers(-50, 50), fractions), any_polynomials)
    def test_scalar_product_is_constant_product(self, c, p):
        # An int or Fraction factor takes the one-term path as a constant.
        constant = Polynomial.constant(c, 3)
        expected = expand(constant, p)
        for product in (c * p, p * c, constant * p):
            assert product == expected
            assert product.degree() == expected.degree() == constant.degree() + p.degree()

    @settings(max_examples=100, deadline=None)
    @given(any_polynomials, any_polynomials, any_polynomials)
    def test_compose_degree_is_exact(self, p, q, r):
        # compose sums its term products, made by _product, in one dict;
        # here they are expanded one factor at a time and summed by the
        # constructor, which merges equal monomials and drops zero sums.
        args = (q, r, q * r)
        expanded = []
        for m, c in p.terms().items():
            product = Polynomial.constant(c, 3)
            for a, e in zip(args, m):
                for _ in range(e):
                    product = expand(product, a)
            expanded.extend(product.terms().items())
        expected = Polynomial(3, expanded)
        composed = p.compose(list(args))
        assert composed == expected
        bound = max((sum(e * a.degree() for a, e in zip(args, m) if e) for m in p.terms()),
                    default=NEG_INFINITY)
        assert composed.degree() == expected.degree() <= bound

    @settings(max_examples=300, deadline=None)
    @given(any_polynomials, argument_lists)
    # a one-term argument raised to 10^12 in a one-term shift, next to a
    # many-term argument; the coefficient -1 keeps the reference's power small
    @example(p=Fraction(2, 3) * x ** 10**12 * y, args=[-z**3, x + y, z])
    @example(p=x ** 10**12 + Fraction(-5, 7) * x * z**2, args=[-y, Fraction(3, 2) * x, Polynomial.zero(3)])
    def test_compose_is_sum_of_term_products(self, p, args):
        # _compose applies one-term arguments to each term directly and
        # tables the powers of many-term ones, in one loop for any mix
        one = Polynomial.constant(1, 3)
        expected = sum((c * math.prod((a ** e for a, e in zip(args, m)), start=one)
                        for m, c in p.terms().items()), Polynomial.zero(3))
        assert p.compose(args) == expected

    @settings(max_examples=100, deadline=None)
    @given(any_polynomials, any_polynomials)
    def test_compose_cancels_after_substitution(self, q, r):
        # Distinct terms of p that meet after substitution cancel.
        assert (x - y).compose([q, q, r]).is_zero
        assert (x * y - z + 1).compose([q, r, q * r]) == 1
        assert (x**2 - 2 * x * z + y * z + 3).compose([q, r, r]) == q**2 - 2 * q * r + r**2 + 3

    @settings(max_examples=50, deadline=None)
    @given(fractions, monomials, st.integers(0, 8))
    def test_constant_power_hashes_like_its_value(self, c, m, k):
        power = Polynomial.constant(c, 3) ** k
        assert power == c ** k
        assert hash(power) == hash(c ** k)
        # Any one-term polynomial to the power 0 is the constant 1.
        assert hash(Polynomial.monomial(m, 5) ** 0) == hash(1)


def tuple_product(p, q):
    """p*q for term mappings by adding exponent tuples pair by pair."""
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


# 0, 1, the edges 2^k - 1 and 2^k of a k-bit field, and the parser's MAX_EXPONENT.
field_edges = st.one_of(st.sampled_from([0, 1, 10**6]),
                        st.integers(1, 20).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k])))


@st.composite
def term_mapping_pairs(draw):
    """Two term mappings of one arity in 1..5, int or Fraction coefficients."""
    n = draw(st.integers(1, 5))
    coeffs = draw(st.sampled_from([st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)])).filter(bool)
    terms = st.dictionaries(st.tuples(*[field_edges] * n), coeffs, max_size=6)
    return draw(terms), draw(terms)


class TestIntegerProduct:
    """`_product` over the integer numerators that `cleared` gives, the
    products that the reduction system is built from."""

    @settings(max_examples=300, deadline=None)
    @given(term_mapping_pairs())
    @example(({}, {(1, 2): 3}))
    @example(({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}))
    @example(({(3, 0): 1, (0, 1): Fraction(1, 2)}, {(1, 0): 2, (0, 10**6): Fraction(-1, 3)}))
    def test_product_adds_exponent_tuples(self, pair):
        # Independent of the packed keys: every key, coefficient and the
        # order of first occurrence match the tuple-add reference.
        p, q = pair
        n = len(next(iter(p | q), ()))
        over_ints = all(type(c) is int for c in (p | q).values())
        for a, b in (p, q), (q, p):
            product = _product(a, b)
            assert list(product.items()) == list(tuple_product(a, b).items())
            for m, c in product.items():
                assert type(m) is tuple and len(m) == n and all(type(e) is int for e in m)
                assert c and (type(c) is int or not over_ints)

    @settings(max_examples=150, deadline=None)
    @given(any_polynomials, any_polynomials)
    def test_cleared_product_reads_as_polynomial_product(self, p, q):
        P, D = p.cleared()
        Q, E = q.cleared()
        for product in (_product(P, Q), _product(Q, P)):
            assert all(type(c) is int and c for c in product.values())
            assert Polynomial(3, {m: Fraction(c, D * E) for m, c in product.items()}) == p * q

    @settings(max_examples=150, deadline=None)
    @given(mixed_denominator_polynomials, st.integers(0, 6))
    def test_power_over_common_denominator(self, p, k):
        # A many-term power raises the cleared numerators and divides by
        # d**k once; d is the lcm of several distinct denominators here.
        product = Polynomial.constant(1, 3)
        expanded = Polynomial.constant(1, 3)
        for _ in range(k):
            product = product * p
            expanded = expand(expanded, p)
        power = p ** k
        assert power == product == expanded
        for c in power.terms().values():
            assert type(c) is Fraction and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1

    def test_power_of_zero(self):
        assert Polynomial.zero(3) ** 0 == 1
        assert (Polynomial.zero(3) ** 3).is_zero


# 0, 1 and the edges 2^k - 1 and 2^k of a k-bit field
packed_exponents = st.one_of(st.sampled_from([0, 1]),
                             st.integers(1, 20).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k])))


@st.composite
def int_term_mapping_pairs(draw):
    """Two int term mappings of arity 3, each empty, one-term or up to
    six terms; in some draws one variable appears in neither."""
    unused = draw(st.sampled_from([None, 0, 1, 2]))
    monomials = st.tuples(*[st.just(0) if i == unused else packed_exponents for i in range(3)])
    coeffs = st.integers(-5, 5).filter(bool)
    sizes = st.sampled_from([(0, 0), (1, 1), (2, 6)])
    return tuple(draw(st.dictionaries(monomials, coeffs, min_size=low, max_size=high))
                 for low, high in (draw(sizes), draw(sizes)))


class TestPackedLayout:
    """The layout and the kernel the reduction search packs its system
    with: `_layout` fields wide enough for the product's exponents, and
    `_packed_product` on the packed keys."""

    @settings(max_examples=300, deadline=None)
    @given(int_term_mapping_pairs())
    @example(({}, {}))
    @example(({(1, 0, 0): 2}, {}))
    @example(({(2**20, 0, 1): 1, (0, 1, 0): -1}, {(2**20 - 1, 0, 0): 3}))
    def test_round_trip_degree_and_kernel(self, pair):
        p, q = pair
        tops = [max((m[i] for m in p), default=0) + max((m[i] for m in q), default=0) for i in range(3)]
        pack, unpack, width = _layout(tops)
        packed_p, packed_q = ({pack(m): c for m, c in terms.items()} for terms in (p, q))
        for (a, b), (ka, kb) in ((p, q), (packed_p, packed_q)), ((q, p), (packed_q, packed_p)):
            product = _packed_product(ka, kb)
            assert list({unpack(k): c for k, c in product.items() if c}.items()) == list(_product(a, b).items())
            for key in product:
                assert key >> width == sum(unpack(key))
        for terms in (p, q, tuple_product(p, q)):
            for m in terms:
                assert unpack(pack(m)) == m
                assert pack(m) >> width == sum(m)


# Few keys and few small coefficients, so that term pairs meet on one key
# and their sums often cancel; 0 stands for a zero sum that a power chain
# of the reduction search keeps and multiplies on.
packed_keys = st.one_of(st.integers(0, 6), st.integers(0, 2**70))
int_coefficients = st.sampled_from([-2, -1, 0, 1, 2])
fraction_coefficients = st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 4)])
cancelling_polynomials = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), fraction_coefficients,
                                         min_size=2, max_size=6).map(lambda d: Polynomial(3, d))


class TestSquare:
    """`_packed_product(p, p)`, which takes each unordered term pair once,
    against the general loop over all pairs, and the powers built on it."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.dictionaries(packed_keys, int_coefficients, max_size=8),
                     st.dictionaries(packed_keys, fraction_coefficients, max_size=8)))
    @example({})
    @example({5: 3})
    @example({0: 1, 1: 2, 2: -2})  # 2*1*(-2) + 2^2 cancels on key 2
    @example({0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(-1)})  # likewise over Fractions
    @example({0: 1, 1: 0, 2**70: -1})
    def test_square_matches_general_loop(self, p):
        # dict(p) is an equal operand that is not p, so it takes the
        # general loop.  The two insert keys in different orders, so
        # they compare as dicts: same keys, zero sums included, same values.
        square, general = _packed_product(p, p), _packed_product(p, dict(p))
        assert square == general
        assert {k: type(c) for k, c in square.items()} == {k: type(c) for k, c in general.items()}

    @settings(max_examples=150, deadline=None)
    @given(term_mapping_pairs())
    def test_tuple_square_matches_distinct_operands(self, pair):
        p, _ = pair
        assert _product(p, p) == _product(p, dict(p))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(cancelling_polynomials, mixed_denominator_polynomials, any_polynomials), st.integers(1, 6))
    def test_power_is_repeated_product(self, p, k):
        # q equals p but is another object, so no product below is a square.
        q = Polynomial(3, p.terms())
        product = p
        for _ in range(k - 1):
            product = product * q
        assert p ** k == product
        assert p * p == p * q

    def test_power_of_a_cancelling_square(self):
        # (1 + 2x - 2x^2)^2 = 1 + 4x - 8x^3 + 4x^4: the x^2 sums cancel.
        p = 1 + 2 * x - 2 * x**2
        assert p**2 == p * p == 1 + 4 * x - 8 * x**3 + 4 * x**4
        assert p**3 == p * p * p


def test_str_uses_canonical_form():
    g = z + 3 * x**2 * y + 3 * x * y**3 + y**5
    assert str(g) == "y^5 + 3*x*y^3 + 3*x^2*y + z"


def test_str_round_trips():
    rng = random.Random(26)
    names = ("x", "y", "z")
    for _ in range(100):
        p = random_polynomial(rng)
        assert parse_polynomial(str(p), names) == p
