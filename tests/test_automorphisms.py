"""Tame words, composition, witnesses, and the explicit example map."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamedeg import (
    ElementaryStep,
    PermutationStep,
    PolyMap,
    Polynomial,
    automorphisms,
    build_example_map,
    compose_word,
    decide,
    example_word,
    format_word_file,
    invert_word,
    mdeg,
    parse_word_file,
    polynomials,
    semigroup,
    variables,
    witness_equal_pair,
    witness_linear_first,
    witness_semigroup,
)
from tamedeg.decision import sorted_triples
from tamedeg.parsing import ParseError

x, y, z = variables(3)

SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4))


@st.composite
def tame_words(draw):
    """Words of one to four moves over (x, y, z).

    A move is a permutation, an elementary step with a rational scalar
    and a shift of at most two terms (possibly zero), the inverse of the
    previous step (its top form cancels the one that step added), or
    three steps after which (x_k - x_j) vanishes at the leading forms.
    """
    v = (x, y, z)
    word = []
    for _ in range(draw(st.integers(1, 4))):
        move = draw(st.sampled_from(("perm", "elem", "inverse", "cancel")))
        i, j, k = draw(st.permutations(range(3)))
        scalar = draw(st.sampled_from(SCALARS))
        if move == "perm":
            word.append(PermutationStep((i, j, k)))
        elif move == "inverse" and word:
            word.append(word[-1].inverse())
        elif move == "cancel":
            # deg F_j = 2 deg F_k, so F_k + F_j leads with F_j's form
            word.append(ElementaryStep(j, Fraction(1), v[k] ** 2))
            word.append(ElementaryStep(k, Fraction(1), v[j]))
            word.append(ElementaryStep(i, scalar, v[j] * (v[k] - v[j]) ** draw(st.integers(1, 2))))
        else:
            exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(SCALARS))
            shift = Polynomial.zero(3)
            for a, b, c in draw(st.lists(exponents, max_size=2)):
                shift = shift + c * v[j] ** a * v[k] ** b
            word.append(ElementaryStep(i, scalar, shift))
    return word


class TestSteps:
    def test_elementary_step_replaces_one_component(self):
        step = ElementaryStep(2, Fraction(1), -y)
        assert step.apply((x, y, z)) == (x, y, z - y)

    def test_elementary_step_composes_shift(self):
        step = ElementaryStep(0, Fraction(2), y**2)
        assert step.apply((x + 1, y + z, z)) == (2 * (x + 1) + (y + z) ** 2, y + z, z)

    def test_shift_must_avoid_own_component(self):
        with pytest.raises(ValueError):
            ElementaryStep(1, Fraction(1), y**2)

    def test_scalar_must_be_nonzero(self):
        with pytest.raises(ValueError):
            ElementaryStep(0, Fraction(0), y)

    @pytest.mark.parametrize("scalar", [0.1, 2.0, "2/3"])
    def test_scalar_must_be_exact(self, scalar):
        # Floats and strings are refused, as polynomial coefficients are.
        with pytest.raises(TypeError):
            ElementaryStep(0, scalar, y)

    def test_integer_scalar_becomes_fraction(self):
        step = ElementaryStep(0, 2, y)
        assert step.scalar == Fraction(2)
        assert isinstance(step.scalar, Fraction)

    def test_index_range(self):
        with pytest.raises(ValueError):
            ElementaryStep(3, Fraction(1), y)

    def test_elementary_inverse_cancels(self):
        step = ElementaryStep(0, Fraction(3, 2), y**2 - z)
        identity = (x, y, z)
        assert step.inverse().apply(step.apply(identity)) == identity
        assert step.apply(step.inverse().apply(identity)) == identity

    def test_permutation_applies_images(self):
        step = PermutationStep((2, 0, 1))
        assert step.apply((x, y, z)) == (z, x, y)

    def test_permutation_must_be_bijective(self):
        with pytest.raises(ValueError):
            PermutationStep((0, 0, 2))

    def test_permutation_inverse(self):
        step = PermutationStep((2, 0, 1))
        assert step.inverse().apply(step.apply((x, y, z))) == (x, y, z)


class TestComposeWord:
    def test_empty_word_is_identity(self):
        assert compose_word([]) == PolyMap.identity(3)

    def test_triangular_word(self):
        word = [
            ElementaryStep(0, Fraction(1), z**3),
            ElementaryStep(1, Fraction(1), z**5),
            ElementaryStep(2, Fraction(1), x**2 * y),
        ]
        composed = compose_word(word)
        assert composed.components[0] == x + z**3
        assert composed.components[1] == y + z**5
        assert composed.components[2] == z + (x + z**3) ** 2 * (y + z**5)
        assert composed.mdeg() == (3, 5, 11)

    def test_arity_mismatch_rejected(self):
        u, v = variables(2)
        word = [ElementaryStep(0, Fraction(1), v), ElementaryStep(0, Fraction(1), y)]
        with pytest.raises(ValueError):
            compose_word(word)

    def test_inverse_word_composes_to_identity(self):
        rng = random.Random(61)
        for _ in range(30):
            word = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.25:
                    images = [0, 1, 2]
                    rng.shuffle(images)
                    word.append(PermutationStep(tuple(images)))
                else:
                    index = rng.randrange(3)
                    others = [v for k, v in enumerate(variables(3)) if k != index]
                    shift = others[0] ** rng.randint(1, 2) * others[1] ** rng.randint(0, 2)
                    word.append(ElementaryStep(index, Fraction(rng.choice([1, -1, 2])), shift))
            assert compose_word(word + invert_word(word)) == PolyMap.identity(3)

    def test_mdeg_accepts_maps_and_words(self):
        word = [ElementaryStep(1, Fraction(1), x**3)]
        assert mdeg(word) == (1, 3, 1)
        assert mdeg(PolyMap.identity(3)) == (1, 1, 1)

    def test_permutation_step_permutes_mdeg(self):
        word = [
            ElementaryStep(0, Fraction(1), z**4),
            ElementaryStep(1, Fraction(1), z**6),
        ]
        base = compose_word(word).mdeg()
        swapped = compose_word(word + [PermutationStep((1, 0, 2))]).mdeg()
        assert swapped == (base[1], base[0], base[2])


class TestPolyMap:
    def test_component_arity_checked(self):
        with pytest.raises(ValueError):
            PolyMap((x, y))

    def test_components_must_be_polynomials(self):
        with pytest.raises(TypeError, match="components must be Polynomials"):
            PolyMap((x, y, 1))

    def test_repr(self):
        assert repr(PolyMap((x + y**2, y, z))) == "PolyMap(y^2 + x, y, z)"

    def test_identity_jacobian(self):
        assert PolyMap.identity(3).jacobian_det() == 1

    def test_unitriangular_jacobian(self):
        m = PolyMap((x + y**2, y, z))
        assert m.jacobian_det() == 1

    def test_jacobian_entries(self):
        m = PolyMap((x * y, y + z, z))
        jac = m.jacobian()
        assert jac[0][0] == y
        assert jac[0][1] == x
        assert jac[1][2] == 1

    def test_word_jacobians_are_nonzero_constants(self):
        rng = random.Random(62)
        for _ in range(20):
            word = []
            for _ in range(rng.randint(1, 3)):
                index = rng.randrange(3)
                others = [v for k, v in enumerate(variables(3)) if k != index]
                shift = others[0] * others[1] ** rng.randint(0, 2)
                word.append(ElementaryStep(index, Fraction(rng.choice([1, 3, -2])), shift))
            # chain rule: each step's own Jacobian has determinant its scalar
            assert compose_word(word).jacobian_det() == prod(step.scalar for step in word)


def leibniz(matrix):
    """The determinant as a sum over permutations, signed by inversions."""
    n = len(matrix)
    total = Polynomial.zero(matrix[0][0].arity)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total + (-1) ** inversions * prod(matrix[i][perm[i]] for i in range(n))
    return total


def polynomial(n, terms):
    """The sum of c * x^e over (e, c) in terms, in n variables."""
    v = variables(n)
    return sum((c * prod(v[k] ** e[k] for k in range(n)) for e, c in terms), Polynomial.zero(n))


@st.composite
def maps(draw):
    """Maps of arity 1 to 4.  A component is a constant, at most four
    small terms, or, in half the draws, x_k plus such terms, which keeps
    many determinants nonzero; about one component in six is zero.  The
    coefficients are small ints or fractions with distinct denominators,
    so the determinant's one final division is checked at every arity."""
    n = draw(st.integers(1, 4))
    coefficients = st.one_of(st.integers(-3, 3), st.sampled_from([Fraction(c, d) for c, d in
                                                                   ((1, 2), (-1, 2), (2, 3), (5, 4), (-7, 6))]))
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n), coefficients), max_size=4)
    components = []
    for k in range(n):
        kind = draw(st.sampled_from(("terms", "constant", "shifted", "shifted")))
        if kind == "constant":
            components.append(polynomial(n, [((0,) * n, draw(coefficients))]))
        else:
            components.append(polynomial(n, draw(terms)) + (variables(n)[k] if kind == "shifted" else 0))
    return PolyMap(components)


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(pmap=maps())
    @example(pmap=build_example_map())
    def test_matches_leibniz(self, pmap):
        assert pmap.jacobian_det() == leibniz(pmap.jacobian())

    def test_example_jacobian_term_pairs(self, example_map):
        # the bracket [f1, f3] takes no product; its integer coefficients
        # times the integer gradient of f2 take 726 term pairs through
        # _product; a Laplace expansion along that gradient took 2,724
        pairs = 0
        multiply = automorphisms._product

        def counting(a, b):
            nonlocal pairs
            pairs += len(a) * len(b)
            return multiply(a, b)

        with mock.patch.object(automorphisms, "_product", counting):
            det = example_map.jacobian_det()
        assert det == -1
        assert 0 < pairs <= 1_000


class TestWitnesses:
    def test_semigroup_witness(self):
        word = witness_semigroup(3, 5, (2, 1))
        assert compose_word(word).mdeg() == (3, 5, 11)

    def test_semigroup_witness_pure_power(self):
        word = witness_semigroup(4, 7, (0, 2))
        assert compose_word(word).mdeg() == (4, 7, 14)

    def test_semigroup_witness_validation(self):
        with pytest.raises(ValueError):
            witness_semigroup(2, 5, (1, 1))
        with pytest.raises(ValueError):
            witness_semigroup(3, 5, (0, 0))
        with pytest.raises(ValueError):
            witness_semigroup(3, 5, (1, 0))

    def test_equal_pair_witness(self):
        assert compose_word(witness_equal_pair(5, 7)).mdeg() == (5, 5, 7)
        assert compose_word(witness_equal_pair(3, 3)).mdeg() == (3, 3, 3)
        assert compose_word(witness_equal_pair(4, 9)).mdeg() == (4, 4, 9)

    def test_equal_pair_validation(self):
        with pytest.raises(ValueError):
            witness_equal_pair(2, 5)
        with pytest.raises(ValueError):
            witness_equal_pair(5, 4)

    def test_linear_first_witness(self):
        assert compose_word(witness_linear_first(4, 9)).mdeg() == (1, 4, 9)
        assert compose_word(witness_linear_first(1, 1)).mdeg() == (1, 1, 1)

    def test_witness_grid(self):
        for d1 in range(3, 7):
            for d2 in range(d1, 9):
                for s in range(3):
                    for t in range(3):
                        if (s, t) == (0, 0) or s * d1 + t * d2 < d2:
                            continue
                        word = witness_semigroup(d1, d2, (s, t))
                        assert compose_word(word).mdeg() == (d1, d2, s * d1 + t * d2)


def reference_leading_mdeg(steps) -> tuple[int, ...] | None:
    """_leading_mdeg's certificate in Polynomial arithmetic: each step's
    apply folded over the leading forms, the new component's leading
    form kept when its degree reaches max(deg LF_i, weighted deg s)."""
    forms = variables(steps[0].arity if steps else 3)
    for step in steps:
        weights = [f.degree() for f in forms]
        forms = step.apply(forms)
        if isinstance(step, ElementaryStep):
            reach = max([weights[step.index]] + [sum(map(mul, m, weights)) for m in step.shift.terms()])
            value = forms[step.index]
            if value.degree() < reach:
                return None
            forms = forms[: step.index] + (value.leading_form(),) + forms[step.index + 1:]
    return tuple(f.degree() for f in forms)


# tools/digest.py's LARGE_D3: d3 up to 10^12, where the certificate
# raises one-term forms to high powers.
LARGE_D3 = [(d1, d2, d3) for d1 in range(3, 13) for d2 in range(d1 + 1, 31) for d3 in (100, 331, 600)]
LARGE_D3 += [(3, 5, 2000), (3, 5, 10**12), (7, 11, 10**9), (1, 4, 10**6), (10, 23, 25)]

# F_0 = x + z^2 and F_1 = y + x + z^2 lead with z^2; then a*F_0 - F_1
# leads with (a - 1) z^2
EQUAL_DEGREE_WORD = [ElementaryStep(0, Fraction(1), z**2), ElementaryStep(1, Fraction(1), x)]


class TestLeadingFormCertificate:
    @settings(max_examples=150, deadline=None)
    @given(word=tame_words(), certified=st.none())
    @example(word=witness_equal_pair(5, 7), certified=False)
    @example(word=example_word(), certified=False)
    @example(word=witness_semigroup(3, 5, (2, 1)), certified=True)
    @example(word=witness_linear_first(4, 9), certified=True)
    # the shift's top part cancels below the component's own degree 5
    @example(word=[ElementaryStep(0, Fraction(1), z**5), ElementaryStep(1, Fraction(1), z**2),
                   ElementaryStep(0, Fraction(1), y - z**2)], certified=True)
    # equal degrees: 1 z^2 - z^2 cancels, and the composed mdeg is (1, 2, 1)
    @example(word=EQUAL_DEGREE_WORD + [ElementaryStep(0, Fraction(1), -y)], certified=False)
    # equal degrees: 3 z^2 - z^2 = 2 z^2 is certified, mdeg (2, 2, 1)
    @example(word=EQUAL_DEGREE_WORD + [ElementaryStep(0, Fraction(3), -y)], certified=True)
    def test_certificate_is_empty_or_exact(self, word, certified):
        got = automorphisms._leading_mdeg(word)
        assert got == reference_leading_mdeg(word)
        assert got is None or got == compose_word(word).mdeg()
        if certified is not None:
            assert (got is not None) == certified

    @pytest.mark.parametrize(("triples", "witnesses"), [(list(sorted_triples(20)), 804), (LARGE_D3, 529)],
                             ids=["d3-to-20", "large-d3"])
    def test_decide_witnesses_match_reference(self, triples, witnesses):
        # every witness decide builds, the EqualFirstPair and (10, 23, 25)
        # words included, where both folds answer None
        words = [d.witness for d in map(decide, triples) if d.witness is not None]
        assert len(words) == witnesses
        for word in words:
            assert automorphisms._leading_mdeg(word) == reference_leading_mdeg(word)

    def test_one_term_words_take_no_product_or_power(self):
        # every form and shift of these words has one term, so the
        # certificate applies each directly, whatever d3 is; a call to
        # _product or _term_power would mean a power table was built
        d3 = 10**12
        rep = semigroup.membership(d3, 7, 11)
        with mock.patch.object(polynomials, "_product", wraps=polynomials._product) as product, \
                mock.patch.object(polynomials, "_term_power", wraps=polynomials._term_power) as power:
            semigroup_word = witness_semigroup(7, 11, rep)
            linear_word = witness_linear_first(4, 10**9)
            assert automorphisms._leading_mdeg(semigroup_word) == (7, 11, d3)
            assert automorphisms._leading_mdeg(linear_word) == (1, 4, 10**9)
        assert (product.call_count, power.call_count) == (0, 0)
        s, t = rep
        assert [step.shift for step in semigroup_word] == [z**7, z**11, x**s * y**t]
        assert [step.shift for step in linear_word] == [x**4, x**10**9]

    def test_checked_rejects_wrong_mdeg_when_certified(self):
        word = witness_semigroup(3, 5, (2, 1))
        assert automorphisms._leading_mdeg(word) == (3, 5, 11)
        with pytest.raises(AssertionError, match="witness failed verification"):
            automorphisms._checked(word, (3, 5, 12))

    def test_checked_rejects_wrong_mdeg_on_fallback(self):
        word = witness_equal_pair(5, 7)
        assert automorphisms._leading_mdeg(word) is None
        with pytest.raises(AssertionError, match="witness failed verification"):
            automorphisms._checked(word, (5, 5, 8))


def reference_example_map() -> PolyMap:
    """build_example_map's formulas evaluated in Fraction Polynomial arithmetic."""
    g = z + 3 * x ** 2 * y + 3 * x * y ** 3 + y ** 5
    f1 = x + y ** 2 - g ** 2
    h = y - 6 * (x + y ** 2) ** 2 * g + 8 * (x + y ** 2) * g ** 3 - Fraction(16, 5) * g ** 5
    f2 = Fraction(256, 25) * f1 ** 5 + g + h ** 2
    return PolyMap((f1, f2, h))


class TestExampleMap:
    def test_integer_build_matches_fraction_arithmetic(self):
        # the numerators f1, 25 f2 and 5h are built over ints and divided
        # once; the Fraction arithmetic of the same formulas agrees
        built = build_example_map()
        assert built == reference_example_map()
        assert all(type(c) is Fraction for component in built.components for c in component.terms().values())
        assert [component.cleared()[1] for component in built.components] == [1, 25, 5]

    def test_multidegree(self, example_map):
        assert example_map.mdeg() == (10, 23, 25)

    def test_middle_component_cancellation(self, example_map):
        # every term of degree 24 and up cancels between the degree-50
        # pieces, leaving degree 23
        f2 = example_map.components[1]
        assert f2.degree() == 23

    def test_jacobian_det_is_constant(self, example_map):
        det = example_map.jacobian_det()
        assert det.degree() == 0
        assert det == -1

    def test_example_word_composes_exactly(self, example_map):
        assert compose_word(example_word()) == example_map

    def test_example_word_inverts(self):
        word = example_word()
        assert compose_word(word + invert_word(word)) == PolyMap.identity(3)


class TestWordFiles:
    def test_round_trip(self):
        word = [
            PermutationStep((0, 2, 1)),
            ElementaryStep(1, Fraction(-3, 2), x**2 + z),
            ElementaryStep(0, Fraction(1), z**4),
        ]
        text = format_word_file(word, ("x", "y", "z"))
        parsed, names = parse_word_file(text)
        assert parsed == word
        assert names == ("x", "y", "z")

    @settings(max_examples=100, deadline=None)
    @given(word=tame_words())
    def test_any_word_round_trips(self, word):
        assert parse_word_file(format_word_file(word, ("x", "y", "z"))) == (word, ("x", "y", "z"))

    def test_example_word_round_trips(self):
        word = example_word()
        parsed, _ = parse_word_file(format_word_file(word, ("x", "y", "z")))
        assert parsed == word

    def test_indices_are_one_based(self):
        text = "vars: x, y, z\nelem 1 1 y^2\n"
        steps, _ = parse_word_file(text)
        assert steps == [ElementaryStep(0, Fraction(1), y**2)]

    def test_perm_line(self):
        text = "vars: x, y, z\nperm 3 1 2\n"
        steps, _ = parse_word_file(text)
        assert steps == [PermutationStep((2, 0, 1))]

    def test_bad_index_rejected(self):
        with pytest.raises(ParseError):
            parse_word_file("vars: x, y, z\nelem 4 1 y\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_word_file("vars: x, y, z\nscale 1 2\n")

    def test_elem_needs_shift(self):
        with pytest.raises(ParseError):
            parse_word_file("vars: x, y, z\nelem 1 1\n")

    def test_zero_scalar_rejected(self):
        with pytest.raises(ParseError):
            parse_word_file("vars: x, y, z\nelem 1 0 y\n")

    def test_shift_using_own_component_rejected(self):
        with pytest.raises(ParseError):
            parse_word_file("vars: x, y, z\nelem 1 1 x^2\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_word_file("vars: x, y, z\nelem 1 1 y\nperm 1 2\n")
        assert info.value.line == 3
