"""Elementary reduction search: soundness, minimality, completeness."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tamedeg import (
    ElementaryStep,
    PolyMap,
    Polynomial,
    build_example_map,
    compose_word,
    find_any_reduction,
    find_elementary_reduction,
    parse_map_file,
    poisson,
    reduction,
    variables,
)
from tamedeg.parsing import format_polynomial

x, y, z = variables(3)
u, v = variables(2)


def support_products(pmap: PolyMap, target: int, cap: int) -> list[Polynomial]:
    """Every F_j^s F_k^t with s*deg F_j + t*deg F_k <= cap, (s,t) != (0,0)."""
    j, k = (i for i in range(3) if i != target)
    fj, fk = pmap.components[j], pmap.components[k]
    out = []
    s = 0
    while s * fj.degree() <= cap:
        t = 0 if s else 1
        while s * fj.degree() + t * fk.degree() <= cap:
            out.append(fj**s * fk**t)
            t += 1
        s += 1
    return out


def system_ranks(products: list[Polynomial], f_target: Polynomial,
                 min_degree: int) -> tuple[int, int]:
    """(rank A, rank [A|b]) for the system 'all coefficients of total
    degree >= min_degree in f_target - sum c_i * products[i] vanish'."""
    monomials = sorted(
        {m for p in products for m in p.terms() if sum(m) >= min_degree}
        | {m for m in f_target.terms() if sum(m) >= min_degree}
    )
    a = sympy.Matrix([[sympy.Rational(p.coefficient(m)) for p in products] for m in monomials])
    b = sympy.Matrix([[sympy.Rational(f_target.coefficient(m))] for m in monomials])
    return a.rank(), a.row_join(b).rank()


def drop_is_achievable(pmap: PolyMap, target: int, cap: int, level: int) -> bool:
    """True iff some capped g leaves a residual of degree < level,
    counting constant residuals, which are not reductions."""
    products = support_products(pmap, target, cap)
    rank_a, rank_ab = system_ranks(products, pmap.components[target], level)
    return rank_a == rank_ab


def no_valid_drop_below(pmap: PolyMap, target: int, cap: int, level: int) -> bool:
    """True iff no capped g leaves a residual of degree in [1, level)."""
    products = support_products(pmap, target, cap)
    f_target = pmap.components[target]
    rank_lv, rank_lv_b = system_ranks(products, f_target, level)
    if rank_lv != rank_lv_b:
        # nothing below `level` at all, constant residuals included
        return True
    rank_all, rank_all_b = system_ranks(products, f_target, 1)
    # the level system is consistent, so it contains a valid member
    # unless every solution collapses to a constant residual, which
    # pins its solution space to that of the all-degrees system
    return rank_all == rank_all_b and rank_all == rank_lv


F_MONOMIALS = list(product(range(3), repeat=3))
G_MONOMIALS = list(product(range(3), repeat=2))[1:]  # not (0, 0)


def fractional_map(rng: random.Random) -> PolyMap:
    """(g(F_j, F_k) + c, F_j, F_k) in shuffled order, pairwise distinct
    and nonconstant.  F_j and F_k have 1-3 terms with exponents <= 2, g
    has 1-3 terms, and each coefficient and c is a fraction whose
    denominator shares factors with others ({2, 3, 4, 6, 9}) or is
    coprime to them ({5, 7})."""
    def fraction():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 4, 5, 6, 7, 9)))

    def terms(monomials):
        return {e: fraction() for e in rng.sample(monomials, rng.randint(1, 3))}

    while True:
        fj, fk = Polynomial(3, terms(F_MONOMIALS)), Polynomial(3, terms(F_MONOMIALS))
        g = Polynomial(2, terms(G_MONOMIALS))
        components = [g.compose([fj, fk]) + fraction(), fj, fk]
        rng.shuffle(components)
        if all(c.degree() > 0 for c in components) and len(set(components)) == 3:
            return PolyMap(tuple(components))


class TestGoldenCases:
    def test_square_shift(self):
        result = find_elementary_reduction(PolyMap((x, y + x**2, z)), 1)
        assert result.g == u**2
        assert result.residual == y
        assert result.residual_degree == 1

    def test_example_map(self, example_reduction):
        assert example_reduction.g == Fraction(256, 25) * u**5 + v**2
        assert example_reduction.residual == z + 3 * x**2 * y + 3 * x * y**3 + y**5
        assert example_reduction.residual_degree == 5

    def test_example_needs_the_cancellation_cap(self, example_map):
        # the u^5 term has composed degree 50, above the default cap of
        # 2 * 23; the leading forms of f1 and f3 are dependent, so the
        # search must honor the explicit cap rather than trim it
        f1, _, f3 = example_map.components
        assert poisson.algebraically_dependent(f1.leading_form(), f3.leading_form())
        assert find_elementary_reduction(example_map, 1, 46) is None

    def test_triangular_composition(self):
        word = [
            ElementaryStep(0, Fraction(1), z**3),
            ElementaryStep(1, Fraction(1), z**5),
            ElementaryStep(2, Fraction(1), x**2 * y),
        ]
        found = find_any_reduction(compose_word(word))
        assert found is not None
        target, result = found
        assert target == 2
        assert result.g == u**2 * v
        assert result.residual == z
        assert result.residual_degree == 1

    @pytest.mark.parametrize("scalar, g", [
        (2, -Fraction(1, 8) * u**2 + v),
        (Fraction(1, 3), -Fraction(9, 2) * u**2 + v),
    ])
    def test_fallback_shifts_g_by_one_on_fractional_maps(self, scalar, g):
        # g = c*u^2 leaves the residual 0, which is not a reduction, so
        # the member returned shifts g's coefficient on v by 1; the
        # solver's unknown there is tau = 2 times that coefficient
        result = find_elementary_reduction(PolyMap((-Fraction(1, 2) * y**2, scalar * y, z)), 0)
        assert result.g == g
        assert result.residual == -z
        assert result.residual_degree == 1

    def test_fallback_members_on_seeded_fractional_maps(self):
        # the target g(F_j, F_k) + c first solves to the residual c, so
        # the kernel-direction fallback picks the member returned; the
        # pins hold the solver's answers on all three targets when the
        # test was added, and shifting h instead of g by 1 there changes
        # 246 of the 900 answers
        rng = random.Random(25)
        digest = hashlib.sha256()
        found = 0
        for index in range(300):
            pmap = fractional_map(rng)
            for target in range(3):
                result = find_elementary_reduction(pmap, target)
                answer = "None" if result is None else " | ".join(
                    (format_polynomial(result.g, ("u", "v")), format_polynomial(result.residual, ("x", "y", "z")),
                     str(result.residual_degree)))
                found += result is not None
                digest.update(f"{index} {target} {answer}\n".encode())
        assert (digest.hexdigest(), found, 900 - found) == (
            "684c903e652eb429228408922f1bb38b7f3bb91a075c503e3b0dc27cb9cf083d", 327, 573)

    def test_identity_map(self):
        assert find_any_reduction(PolyMap.identity(3)) is None
        assert find_elementary_reduction(PolyMap.identity(3), 2) is None


class TestSelection:
    def test_kernel_freedom_resolved_to_smallest_support(self):
        # solutions form g = u^2 + a*u + b*v; the support tie-break
        # must pick g = u^2 alone
        result = find_elementary_reduction(PolyMap((x, y + x**2, z + x)), 1)
        assert result.g == u**2
        assert result.residual == y
        assert result.residual_degree == 1

    def test_constant_residual_family_member_recovered(self):
        # g = u^2 cancels all of x^2 + 5 but leaves a constant, which is
        # not a reduction; g = u^2 + v leaves 5 - y and is
        result = find_elementary_reduction(PolyMap((x, y, x**2 + 5)), 2)
        assert result.g == u**2 + v
        assert result.residual == Polynomial.constant(5, 3) - y
        assert result.residual_degree == 1

    def test_algebra_member_still_needs_a_nonconstant_residual(self):
        # g = u^2 reproduces x^2 exactly, leaving a constant, which is
        # not a reduction; adding the degree-1 component rescues it
        result = find_elementary_reduction(PolyMap((x, x**2, x + y + z)), 1)
        assert result.g == u**2 + v
        assert result.residual == -(x + y + z)
        assert result.residual_degree == 1

    def test_backs_off_when_every_floor_solution_is_constant(self):
        # all products are even powers of x, so no residual of degree 1
        # exists; the fully constrained system only contains g = u^2
        # up to kernel moves that keep the residual zero, and the valid
        # drop g = u^2 + u with residual -x^2 lives one level up
        result = find_elementary_reduction(PolyMap((x**2, x**4, x**6)), 1)
        assert result.g == u**2 + u
        assert result.residual == -(x**2)
        assert result.residual_degree == 2

    def test_budget_fallback_still_reduces(self, monkeypatch):
        # with no probes allowed the search falls back to a
        # representative, which need not have the fewest support
        # monomials but must still be a reduction
        monkeypatch.setattr(reduction, "SUBSET_BUDGET", 0)
        pmap = PolyMap((x, y + x**2, z + x))
        result = find_elementary_reduction(pmap, 1)
        assert result is not None
        assert result.residual == pmap.components[1] - result.g.compose([x, z + x])
        assert result.residual_degree == 1

    def test_budget_probes_only_the_whole_family(self, monkeypatch):
        # map144 of the benchmark's reduce maps with MAP_SEED 8, at its
        # third component: within the budget the search finds the
        # fewest-support g; with three probes it jumps to the whole
        # family, whose particular solution is a reduction of the same
        # residual degree
        text = (
            "vars: x, y, z\n"
            "3/2*y^2*z^2 - x + z\n"
            "-3/4*y^4*z^4 + x*y^2*z^2 - y^2*z^3 + 3/8*y^2*z^2 - 1/3*x^2 + 2/3*x*z"
            " - 1/3*z^2 - 1/4*x + y + 1/4*z\n"
            "9/2*y^4*z^4 - 6*x*y^2*z^2 + 6*y^2*z^3 + 2*x^2 - 4*x*z + 3/4*y^2 + 2*z^2 - z\n"
        )
        polys, names = parse_map_file(text)
        pmap = PolyMap(tuple(polys))
        result = find_elementary_reduction(pmap, 2)
        assert format_polynomial(result.g, ("u", "v")) == (
            "1/12*u^4 - 1/8*u^3 + 1/2*u^2*v + 131/64*u^2 - 3/8*u*v + 3/4*v^2")
        assert format_polynomial(result.residual, names) == "-z"
        assert result.residual_degree == 1
        monkeypatch.setattr(reduction, "SUBSET_BUDGET", 3)
        result = find_elementary_reduction(pmap, 2)
        assert format_polynomial(result.g, ("u", "v")) == (
            "1/12*u^4 - 1/8*u^3 + 1/2*u^2*v - 3/8*u*v + 3/4*v^2 + 393/256*u - 393/64*v")
        assert format_polynomial(result.residual, names) == "393/64*y - z"
        assert result.residual_degree == 1

    def test_budget_is_shared_across_levels(self, monkeypatch):
        # the most constrained level has the single solution g = v,
        # which leaves the constant 3, so the search backs off a level;
        # there g = u^2 is the fourth probe
        pmap = PolyMap((x**2 + y, x**4 + 2 * x**2 * y, x**4 + 2 * x**2 * y + 3))
        result = find_elementary_reduction(pmap, 2)
        assert (result.g, result.residual) == (u**2, 3 - y**2)
        # the first level's probe counts against the same four, so the
        # second level gets three and then only its whole family
        monkeypatch.setattr(reduction, "SUBSET_BUDGET", 4)
        result = find_elementary_reduction(pmap, 2)
        assert (result.g, result.residual) == (u + v, 3 - x**2 - y)

    def test_targets_tried_from_last_to_first(self):
        found = find_any_reduction(PolyMap((x, y + x**2, z + x**2)))
        assert found is not None
        assert found[0] == 2


class TestValidation:
    def test_arity_three_required(self):
        with pytest.raises(ValueError):
            find_elementary_reduction(PolyMap((u, v)), 0)

    def test_target_range(self):
        with pytest.raises(ValueError):
            find_elementary_reduction(PolyMap.identity(3), 3)

    def test_distinct_components_required(self):
        with pytest.raises(ValueError):
            find_elementary_reduction(PolyMap((x, x, z)), 2)

    def test_constant_component_rejected(self):
        m = PolyMap((x, Polynomial.constant(4, 3), z + x**2))
        with pytest.raises(ValueError):
            find_elementary_reduction(m, 2)

    def test_cap_below_target_degree(self):
        with pytest.raises(ValueError):
            find_elementary_reduction(PolyMap((x, y + x**2, z)), 1, 1)

    def test_support_column_bound(self, monkeypatch):
        # x and x^2 are dependent leading forms, so cap 6 keeps all 15
        # monomials u^s v^t with 0 < s + 2t <= 6
        m = PolyMap((x, y + x**2, z + x**3))
        monkeypatch.setattr(reduction, "MAX_SUPPORT_COLUMNS", 15)
        assert find_elementary_reduction(m, 2, 6).g == u**3
        monkeypatch.setattr(reduction, "MAX_SUPPORT_COLUMNS", 14)
        with pytest.raises(ValueError, match="more than 14 support monomials"):
            find_elementary_reduction(m, 2, 6)

    def test_huge_cap_is_not_enumerated(self):
        m = PolyMap((x, y + x**2, z + x**3))
        with pytest.raises(ValueError, match="support cap 1000000000000 gives more than 2000"):
            find_elementary_reduction(m, 2, 10**12)
        # an unsearched target is an error, not a skipped one
        with pytest.raises(ValueError, match="more than 2000"):
            find_any_reduction(m, 10**12)


    @pytest.mark.parametrize("components, message", [
        ((u + v**2, v + u**3), "reduction search expects three components, got 2"),
        ((x + y**2, x + y**2, z + x**3), "map components must be pairwise distinct"),
        ((x, y, Polynomial.constant(2, 3)), "cannot reduce against a constant component"),
    ])
    @pytest.mark.parametrize("cap", [None, 1])
    def test_any_reduction_raises_what_a_target_raises(self, components, message, cap):
        m = PolyMap(components)
        with pytest.raises(ValueError, match=message):
            find_elementary_reduction(m, 0, cap)
        with pytest.raises(ValueError, match=message):
            find_any_reduction(m, cap)

    @pytest.mark.parametrize("target, cap, message", [
        (True, None, "target index must be 0, 1 or 2, got True"),
        (1.0, None, r"target index must be 0, 1 or 2, got 1\.0"),
        (2, True, "support cap must be an int, got True"),
        (2, 8.0, r"support cap must be an int, got 8\.0"),
    ])
    def test_target_and_cap_must_be_ints(self, target, cap, message):
        m = PolyMap((x, y + x**2, z + x**3))
        with pytest.raises(ValueError, match=message):
            find_elementary_reduction(m, target, cap)

    @pytest.mark.parametrize("cap", [True, False, 8.0])
    def test_any_reduction_cap_must_be_an_int(self, cap):
        with pytest.raises(ValueError, match=f"support cap must be an int, got {cap}"):
            find_any_reduction(PolyMap((x, y + x**2, z + x**3)), cap)

    def test_any_reduction_skips_targets_above_the_cap(self):
        m = PolyMap((x, y + x**2, z + x**3))
        target, result = find_any_reduction(m, 2)
        assert (target, result.g, result.residual) == (1, u**2, y)
        assert find_any_reduction(m, 1) is None


class TestHonestNone:
    def test_unreachable_monomial(self):
        # y^2 cannot appear in any capped product of x and y + x^3
        m = PolyMap((x, y + x**3, z + y**2))
        assert find_elementary_reduction(m, 2) is None
        assert not drop_is_achievable(m, 2, 4, 2)

    def test_none_is_certified_by_rank(self):
        rng = random.Random(71)
        checked = 0
        while checked < 10:
            m = random_map(rng)
            target = rng.randrange(3)
            deg = m.components[target].degree()
            if deg < 2:
                continue
            if find_elementary_reduction(m, target) is not None:
                continue
            assert no_valid_drop_below(m, target, 2 * deg, deg)
            checked += 1


def random_map(rng: random.Random) -> PolyMap:
    while True:
        components = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                terms[m] = Fraction(rng.randint(-3, 3))
            p = Polynomial(3, terms)
            components.append(p)
        degrees_ok = all(c.degree() >= 1 for c in components)
        distinct = len({c for c in components}) == 3
        if degrees_ok and distinct:
            return PolyMap(tuple(components))


class TestAgainstLinearOracle:
    def test_results_are_sound_and_minimal(self):
        rng = random.Random(72)
        successes = 0
        while successes < 15:
            m = random_map(rng)
            target = rng.randrange(3)
            f_target = m.components[target]
            if f_target.degree() < 2:
                continue
            result = find_elementary_reduction(m, target)
            if result is None:
                continue
            j, k = (i for i in range(3) if i != target)
            recomposed = f_target - result.g.compose(
                [m.components[j], m.components[k]]
            )
            assert recomposed == result.residual
            assert result.residual.degree() == result.residual_degree
            assert 1 <= result.residual_degree < f_target.degree()
            cap = 2 * f_target.degree()
            if result.residual_degree >= 2:
                # nothing valid below the achieved degree is possible
                assert no_valid_drop_below(m, target, cap, result.residual_degree)
            successes += 1


class TestPeelableWords:
    def test_degree_increasing_words_always_reduce(self):
        rng = random.Random(73)
        for _ in range(20):
            components = tuple(variables(3))
            steps = 0
            wanted = rng.randint(1, 2)
            while steps < wanted:
                index = rng.randrange(3)
                others = [i for i in range(3) if i != index]
                exps = [0, 0, 0]
                exps[others[0]] = rng.randint(0, 2)
                exps[others[1]] = rng.randint(0, 2)
                if exps[others[0]] == exps[others[1]] == 0:
                    continue
                composed_degree = sum(
                    exps[i] * components[i].degree() for i in others
                )
                if composed_degree <= components[index].degree():
                    continue
                step = ElementaryStep(
                    index, Fraction(1), Polynomial.monomial(tuple(exps))
                )
                components = step.apply(components)
                steps += 1
            if steps == 0:
                continue
            assert find_any_reduction(PolyMap(components)) is not None


def gauss_jordan(rows: list[list[Fraction]], ncols: int):
    """Reference: plain rational Gauss-Jordan on augmented rows.  None when
    inconsistent, else the particular solution with the free variables
    zero and one kernel vector per free column, in column order."""
    m = [list(row) for row in rows]
    pivot_cols = []
    for col in range(ncols):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [value / m[r][col] for value in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(col)
    if any(row[ncols] for row in m[len(pivot_cols):]):
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivot_cols):
        particular[col] = m[i][ncols]
    kernel = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -m[i][free]
        kernel.append(vec)
    return particular, kernel


def integer_solve(rows: list[list[Fraction]], ncols: int, vanish: list[int]):
    """The same system through the integer kernel of the reduction search,
    solved by its support probe with the columns `vanish` set to zero."""
    echelon, pivots = [], {}
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        integer_row = {col: int(c * scale) for col, c in enumerate(row) if c}
        if not reduction._echelon_add(echelon, pivots, integer_row, ncols):
            return None
    return reduction._solve_vanishing(echelon, pivots, vanish, ncols)


@st.composite
def rational_systems(draw):
    """Augmented rows of a small rational system: consistent by
    construction (b = A x0) or with a free right-hand side, sometimes
    with a dependent row, and with small or large denominators; plus
    the columns a support probe makes vanish."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    top = draw(st.sampled_from((4, 10**12)))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, top)))
    matrix = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rhs = [sum((a * b for a, b in zip(row, x0)), Fraction(0)) for row in matrix]
    else:
        rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    if draw(st.booleans()):
        scale = draw(entry)
        rows.append([scale * value for value in rows[0]])
    vanish = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
    return ncols, rows, vanish


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(rational_systems())
    @example((2, [[Fraction(1, 3), Fraction(2, 7), Fraction(5)],
                  [Fraction(2, 3), Fraction(4, 7), Fraction(1)]], []))  # inconsistent
    @example((3, [[Fraction(1, 10**12), Fraction(0), Fraction(-7, 999999999989), Fraction(3, 8)]], []))
    @example((2, [[Fraction(1), Fraction(1), Fraction(2)]], [1]))  # vanishing on a free column
    def test_matches_rational_gauss_jordan(self, system):
        ncols, rows, vanish = system
        units = [[Fraction(int(c == i)) for c in range(ncols + 1)] for i in vanish]
        assert integer_solve(rows, ncols, vanish) == gauss_jordan(rows + units, ncols)

    def test_rational_map_with_a_kernel(self):
        # a map of the benchmark's reduce set: rational coefficients, and
        # the top-level system leaves a two-dimensional kernel (the
        # degree-1 columns u and v) for the support search to resolve
        text = "vars: x, y, z\nx\n1/4*x*z^2 + 2*x^2 - y - 5/2*z\nz\n"
        polys, names = parse_map_file(text)
        result = find_elementary_reduction(PolyMap(tuple(polys)), 1)
        assert format_polynomial(result.g, ("u", "v")) == "1/4*u*v^2 + 2*u^2"
        assert format_polynomial(result.residual, names) == "-y - 5/2*z"
        assert result.residual_degree == 1


small_coefficients = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3))


@st.composite
def random_maps(draw):
    """Three nonconstant, pairwise distinct polynomials of 1-3 terms with
    exponents <= 2; mostly not automorphisms."""
    exponents = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.dictionaries(exponents, small_coefficients, min_size=1, max_size=3)
    components = draw(st.lists(terms.map(lambda t: Polynomial(3, t)).filter(lambda p: p.degree() >= 1),
                                min_size=3, max_size=3, unique=True))
    return PolyMap(tuple(components))


@st.composite
def word_maps(draw, step_coefficients=lambda step: small_coefficients):
    """Automorphisms of 1-3 elementary steps, each adding 1-3 monomials
    with exponents <= 2 in the two other components; degrees <= 12.
    Step i draws its coefficients from step_coefficients(i)."""
    components = list(variables(3))
    for step in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, 2))
        j, k = (i for i in range(3) if i != index)
        exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
        shift = draw(st.dictionaries(exponents, step_coefficients(step), min_size=1, max_size=3))
        for (a, b), coeff in shift.items():
            components[index] = components[index] + coeff * components[j]**a * components[k]**b
    assume(max(p.degree() for p in components) <= 12)
    assume(len(set(components)) == 3)
    return PolyMap(tuple(components))


def answer(pmap: PolyMap, target: int, cap: int | None):
    try:
        return find_elementary_reduction(pmap, target, cap)
    except ValueError as exc:
        return str(exc)


class TestCapTrim:
    """Independent leading forms of the other two components trim the
    support to deg F_target; the trimmed columns are zero in every
    solution, so the answers equal those of the full capped support."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(word_maps(), random_maps()), st.integers(1, 6))
    @example(PolyMap((x + y * z, y, z)), 1)
    @example(PolyMap((x, y + x**2, z + x)), 3)
    def test_same_answer_as_the_untrimmed_support(self, pmap, extra):
        for target in range(3):
            cap = 2 * pmap.components[target].degree() + extra
            trimmed = [answer(pmap, target, None), answer(pmap, target, cap)]
            with mock.patch.object(poisson, "algebraically_dependent", lambda f, g: True):
                untrimmed = [answer(pmap, target, None), answer(pmap, target, cap)]
            assert trimmed == untrimmed

    def test_dependent_leading_forms_keep_the_cap(self):
        # x^2 + y and x^2 have dependent leading forms; u^2 - u*v has
        # weighted degree 4 > 3 but composes to x^2*y + y^2
        pmap = PolyMap((x**2 + y, x**2, x**2 * y + y**2 + z))
        result = find_elementary_reduction(pmap, 2)
        assert result.g == u**2 - u * v
        assert result.residual == z
        assert find_elementary_reduction(pmap, 2, 3) is None


@st.composite
def denominator_word_maps(draw):
    """word_maps whose step i has coefficients n/d_i with numerators up
    to 10**6, the d_i distinct and either pairwise coprime or sharing
    factors."""
    denominators = draw(st.permutations(draw(st.sampled_from([(5, 7, 9, 11, 13), (4, 6, 9)]))))

    def step_coefficients(step):
        d = denominators[step]
        return st.integers(-10**6, 10**6).filter(lambda n: n % d).map(lambda n: Fraction(n, d))

    return draw(word_maps(step_coefficients))


class TestScaledRows:
    """The system is built from the cleared components F_j = A/a,
    F_k = B/b and F_target = T/tau and solves T = h(A, B) for
    h(u, v) = tau * g(u/a, v/b): column (s, t) is A^s B^t and the
    right-hand side T, and g's coefficient on (s, t) is read back as
    h_st * a^s b^t / tau.  Maps whose steps carry distinct denominators,
    coprime or sharing factors, make every one of those factors count."""

    @settings(max_examples=80, deadline=None)
    @given(denominator_word_maps(), st.integers(0, 2), st.none())
    @example(build_example_map(), 1, 50)
    def test_answers_pass_recomposition_and_the_rank_oracle(self, pmap, target, cap):
        f_target = pmap.components[target]
        deg = f_target.degree()
        result = find_elementary_reduction(pmap, target, cap)
        cap = 2 * deg if cap is None else cap
        if result is None:
            assert deg < 2 or no_valid_drop_below(pmap, target, cap, deg)
            return
        j, k = (i for i in range(3) if i != target)
        assert f_target - result.g.compose([pmap.components[j], pmap.components[k]]) == result.residual
        assert result.residual.degree() == result.residual_degree
        assert 1 <= result.residual_degree < deg
        if result.residual_degree >= 2:
            assert no_valid_drop_below(pmap, target, cap, result.residual_degree)


class TestRecheck:
    """`reduction._verify`, the soundness recheck of every answer, checks
    F_target - g(F_j, F_k) == residual over ints, and the residual's
    degree below F_target's, under a layout of its own: a g or a
    residual off by one term fails it, also by a term far outside the
    search's fields."""

    fractional = PolyMap((Fraction(1, 2) * x + z, Fraction(2, 3) * y,
                          Fraction(5, 4) * (Fraction(1, 2) * x + z) ** 2
                          + Fraction(3, 7) * y * (Fraction(1, 2) * x + z) + z))

    @staticmethod
    def answer(pmap, target, cap=None):
        result = find_elementary_reduction(pmap, target, cap)
        j, k = (i for i in range(3) if i != target)
        return result, [pmap.components[i].cleared() for i in (j, k, target)]

    @pytest.mark.parametrize("case", ["square shift", "fractional", "example"])
    def test_off_by_one_term_fails(self, case, example_map):
        pmap, target, cap = {"square shift": (PolyMap((x, y + x**2, z)), 1, None),
                             "fractional": (self.fractional, 2, None),
                             "example": (example_map, 1, 50)}[case]
        result, cleared = self.answer(pmap, target, cap)
        g, residual = result.g, result.residual
        reduction._verify(g, residual, *cleared)
        without_first = lambda p: Polynomial(p.arity, dict(list(p.terms().items())[1:]))
        wrong = [
            (g + u * v, residual), (without_first(g), residual), (g + Fraction(1, 3) * v**9, residual),
            (g, residual + x * z), (g, without_first(residual)), (g, residual + 1),
            (g, residual - Fraction(1, 2) * z**40),
        ]
        for bad_g, bad_residual in wrong:
            with pytest.raises(AssertionError, match="^reduction failed its own verification$"):
                reduction._verify(bad_g, bad_residual, *cleared)

    def test_residual_must_drop_the_degree(self):
        # g = 0 satisfies the identity with residual = F_target, which is no reduction
        pmap = PolyMap((x, y + x**2, z))
        _, cleared = self.answer(pmap, 1)
        with pytest.raises(AssertionError, match="^reduction failed its own verification$"):
            reduction._verify(Polynomial.zero(2), pmap.components[1], *cleared)
