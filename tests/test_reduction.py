"""Elementary reduction search: soundness, minimality, completeness."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from tamedeg import (
    ElementaryStep,
    PolyMap,
    Polynomial,
    ReductionResult,
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

ROOT = Path(__file__).resolve().parent.parent

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


def system_rows(products: list[Polynomial], f_target: Polynomial, min_degree: int) -> list[list]:
    """The rows of [A|b] for the system 'all coefficients of total
    degree >= min_degree in f_target - sum c_i * products[i] vanish'."""
    monomials = sorted(
        {m for p in products for m in p.terms() if sum(m) >= min_degree}
        | {m for m in f_target.terms() if sum(m) >= min_degree}
    )
    return [[p.coefficient(m) for p in (*products, f_target)] for m in monomials]


def system_ranks(products: list[Polynomial], f_target: Polynomial,
                 min_degree: int) -> tuple[int, int]:
    """(rank A, rank [A|b]) for that system, exactly, by sympy's
    DomainMatrix over QQ: Matrix.rank over Rational takes minutes on
    some drawn systems of a few hundred rows."""
    rows = system_rows(products, f_target, min_degree)
    ab = DomainMatrix([[QQ(c.numerator, c.denominator) for c in row] for row in rows],
                      (len(rows), len(products) + 1), QQ)
    return ab[:, :len(products)].rank(), ab.rank()


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
        # the kernel-direction fallback picks the member returned;
        # tools/digest.py fractional hashes the solver's answers on all
        # three targets of 300 seeded maps, and its recorded line holds
        # them (shifting h instead of g by 1 there changes 249 of the
        # 900 answers)
        done = subprocess.run([sys.executable, "tools/digest.py", "fractional"], cwd=ROOT, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        recorded = (ROOT / "tools" / "expected" / "fractional_digest.txt").read_text(encoding="utf-8").splitlines()
        assert done.stdout.splitlines() == recorded
        # one line, "seed 25 maps 300 sha256 <hex> found <n> none <m>",
        # whose answers cover the three targets of every map
        ((*_, found, _, none),) = map(str.split, recorded)
        assert int(found) + int(none) == 900

    def test_identity_map(self):
        assert find_any_reduction(PolyMap.identity(3)) is None
        assert find_elementary_reduction(PolyMap.identity(3), 2) is None


class TestSelection:
    def test_kernel_freedom_resolved_to_smallest_support(self):
        # solutions form g = u^2 + a*u + b*v; u and v are the free
        # columns, and the particular solution, zero on both, is u^2
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

    def test_particular_solution_not_the_sparsest(self):
        # map144 of the benchmark's reduce maps with MAP_SEED 8, at its
        # third component: the residual-degree-1 level has one free
        # column, u^2, and its particular solution, zero there, has
        # seven terms; a six-term g of the same level leaves -z, but it
        # is nonzero on u^2, so it is not the answer
        polys, names = parse_map_file(NOT_SPARSEST_MAPS["stream-8-map144"][1])
        pmap = PolyMap(tuple(polys))
        result = find_elementary_reduction(pmap, 2)
        assert format_polynomial(result.g, ("u", "v")) == (
            "1/12*u^4 - 1/8*u^3 + 1/2*u^2*v - 3/8*u*v + 3/4*v^2 + 393/256*u - 393/64*v")
        assert format_polynomial(result.residual, names) == "393/64*y - z"
        assert result.residual_degree == 1
        sparser = (Fraction(1, 12) * u**4 - Fraction(1, 8) * u**3 + Fraction(1, 2) * u**2 * v
                   + Fraction(131, 64) * u**2 - Fraction(3, 8) * u * v + Fraction(3, 4) * v**2)
        assert pmap.components[2] - sparser.compose(pmap.components[:2]) == -z

    def test_backed_off_level_answers_with_its_particular_solution(self):
        # the most constrained level has the single solution g = v,
        # which leaves the constant 3, so the search backs off a level;
        # there the free columns are u and u^2, the particular solution
        # is again g = v, and the first shift, along u, gives u + v;
        # the sparser g = u^2 leaves a residual of degree 2 as well
        pmap = PolyMap((x**2 + y, x**4 + 2 * x**2 * y, x**4 + 2 * x**2 * y + 3))
        result = find_elementary_reduction(pmap, 2)
        assert (result.g, result.residual) == (u + v, 3 - x**2 - y)
        assert pmap.components[2] - (u**2).compose(pmap.components[:2]) == 3 - y**2

    def test_many_kernel_columns_solve_once_per_level(self):
        # 37 of the 48 columns of (x, x^2) are free, so the sparsest g
        # would take a search over subsets of them; one solve per level
        # gives the particular solution
        pmap = PolyMap((x, x**2, y + sum((x**e for e in range(2, 7)), Polynomial.zero(3))))
        with mock.patch.object(reduction, "_solve_reduced", wraps=reduction._solve_reduced) as solve:
            result = find_elementary_reduction(pmap, 2)
        assert (result.g, result.residual) == (u * v**2 + v**3 + u * v + v**2 + v, y)
        # levels 2 to deg F_target = 6
        assert solve.call_count <= 5

    @pytest.mark.parametrize("target", [0, 1])
    def test_level_without_new_rows_is_not_solved_again(self, target):
        # map007.txt of reduce stream 1: the level below the first kept
        # one adds no row, so both keep the same one-row system, which is
        # solved once and its rejected candidates not yielded again
        pmap = PolyMap((2 * x * y**2, 3 * x * y**2, x**2 * y**2 * z - x**2))
        with mock.patch.object(reduction, "_solve_reduced", wraps=reduction._solve_reduced) as solve:
            assert find_elementary_reduction(pmap, target) is None
        assert solve.call_count == 1

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


def integer_solve(rows: list[list[Fraction]], ncols: int):
    """The same system through the integer kernel of the reduction search."""
    echelon, pivots = [], {}
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        integer_row = {col: int(c * scale) for col, c in enumerate(row) if c}
        if not reduction._echelon_add(echelon, pivots, integer_row, ncols):
            return None
    return reduction._solve_reduced(echelon, pivots, ncols)


@st.composite
def rational_systems(draw):
    """Augmented rows of a small rational system: consistent by
    construction (b = A x0) or with a free right-hand side, sometimes
    with a dependent row, and with small or large denominators; plus
    columns to pin to zero with unit rows."""
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
        assert integer_solve(rows + units, ncols) == gauss_jordan(rows + units, ncols)

    def test_rational_map_with_a_kernel(self):
        # a map of the benchmark's reduce set with rational coefficients:
        # the top-level system leaves a two-dimensional kernel (the
        # degree-1 columns u and v), and the answer is zero on both
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


class TestRankOracle:
    @pytest.mark.parametrize("pmap, target, cap, levels", [
        (build_example_map(), 1, 50, (1, 5, 10, 23, 24, 51)),
        (PolyMap((x, y + x**2, z)), 1, 4, (1, 2, 3)),
        (PolyMap((x**2 + y, x**2, x**2 * y + y**2 + z)), 2, 4, (1, 2, 3)),
    ])
    def test_same_ranks_as_matrix_rank(self, pmap, target, cap, levels):
        # system_ranks over DomainMatrix gives the ranks of sympy's
        # Matrix.rank over Rational on the same rows, consistent systems
        # and inconsistent ones alike
        products, f_target = support_products(pmap, target, cap), pmap.components[target]
        consistent = set()
        for level in levels:
            rows = system_rows(products, f_target, level)
            ab = sympy.Matrix(len(rows), len(products) + 1, [sympy.Rational(c) for row in rows for c in row])
            ranks = (ab[:, :len(products)].rank(), ab.rank())
            assert system_ranks(products, f_target, level) == ranks
            consistent.add(ranks[0] == ranks[1])
        assert consistent == {True, False}


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


def basic_answer(pmap: PolyMap, target: int) -> ReductionResult | None:
    """The search's rule restated over g's own coefficients, with the
    library's support order and cap trim and rational Gauss-Jordan: at
    the first level L = 2, ..., deg F_target whose system "every
    coefficient of degree >= L of F_target - g(F_j, F_k) is zero" is
    consistent, the particular solution, then each kernel shift in
    free-column order; the first whose residual keeps degree >= 1 is
    the answer, and a level with none passes on to the next."""
    j, k = (i for i in range(3) if i != target)
    fj, fk, f_target = pmap.components[j], pmap.components[k], pmap.components[target]
    deg = f_target.degree()
    cap = 2 * deg if poisson.algebraically_dependent(fj.leading_form(), fk.leading_form()) else deg
    support = sorted(((s, t) for s in range(cap // fj.degree() + 1)
                      for t in range((cap - s * fj.degree()) // fk.degree() + 1) if s or t),
                     key=lambda st: (st[0] + st[1], st[0]))
    products = [fj**s * fk**t for s, t in support]
    monomials = sorted({m for p in products + [f_target] for m in p.terms()})
    for level in range(2, deg + 1):
        rows = [[p.coefficient(m) for p in products] + [f_target.coefficient(m)]
                for m in monomials if sum(m) >= level]
        solved = gauss_jordan(rows, len(support))
        if solved is None:
            continue
        particular, kernel = solved
        for solution in [particular, *([c + d for c, d in zip(particular, vec)] for vec in kernel)]:
            g = Polynomial(2, dict(zip(support, solution)))
            residual = f_target - g.compose([fj, fk])
            if residual.degree() >= 1:
                return ReductionResult(g, residual, residual.degree())
    return None


# Map files and target indices whose answer is not the sparsest g of its
# level: five of the benchmark's reduce maps (MAP_SEED stream and file)
# and three of the maps of `tools/digest.py fractional` (their index).
NOT_SPARSEST_MAPS = {
    "stream-8-map144": (2, (
        "vars: x, y, z\n"
        "3/2*y^2*z^2 - x + z\n"
        "-3/4*y^4*z^4 + x*y^2*z^2 - y^2*z^3 + 3/8*y^2*z^2 - 1/3*x^2 + 2/3*x*z - 1/3*z^2 - 1/4*x + y + 1/4*z\n"
        "9/2*y^4*z^4 - 6*x*y^2*z^2 + 6*y^2*z^3 + 2*x^2 - 4*x*z + 3/4*y^2 + 2*z^2 - z\n"
    )),
    "stream-11-map001": (2, (
        "vars: x, y, z\n"
        "16/3*x^4 - 8/3*x^2*y + 1/3*y^2 - x\n"
        "4*x^2 - y\n"
        "-64*x^5 + 32*x^3*y - 4*x*y^2 - z\n"
    )),
    "stream-14-map076": (2, (
        "vars: x, y, z\n"
        "-1/2*y^2 - x - 2*y\n"
        "5/6*y^2 + 5/3*x + 7/3*y\n"
        "-1/8*y^4 - 1/2*x*y^2 - y^3 - 1/2*x^2 - 2*x*y - 23/9*y^2 - 10/9*x - 14/9*y + z\n"
    )),
    "stream-20-map018": (2, (
        "vars: x, y, z\n"
        "-5*y^2*z^2 - 2/3*y^2 + x\n"
        "-75/8*y^4*z^4 - 5/2*y^4*z^2 + 15/4*x*y^2*z^2 - 1/6*y^4 - 5*y^2*z^2 + 1/2*x*y^2 - 3/8*x^2 - 2/3*y^2 +"
        " x + y - 3/2*z\n"
        "-25/4*y^4*z^4 - 5/3*y^4*z^2 + 5/2*x*y^2*z^2 - 1/9*y^4 + 1/3*x*y^2 - 1/4*x^2 - z\n"
    )),
    "stream-26-map014": (0, (
        "vars: x, y, z\n"
        "1/12*x^6*y^6 - 3/8*x^6*y^5 + 1/2*x^5*y^5*z + 45/64*x^6*y^4 - 1/3*x^5*y^5 - 15/8*x^5*y^4*z + "
        "5/4*x^4*y^4*z^2 - 45/64*x^6*y^3 + 5/3*x^5*y^4 + 45/16*x^5*y^3*z - 1/3*x^4*y^5 - 5/3*x^4*y^4*z - "
        "15/4*x^4*y^3*z^2 + 5/3*x^3*y^3*z^3 + 405/1024*x^6*y^2 - 25/8*x^5*y^3 - 135/64*x^5*y^2*z + "
        "4/3*x^4*y^4 + 20/3*x^4*y^3*z + 135/32*x^4*y^2*z^2 - 4/3*x^3*y^4*z - 10/3*x^3*y^3*z^2 - "
        "15/4*x^3*y^2*z^3 + 5/4*x^2*y^2*z^4 - 243/2048*x^6*y + 45/16*x^5*y^2 + 405/512*x^5*y*z - "
        "71/24*x^4*y^3 - 75/8*x^4*y^2*z - 135/64*x^4*y*z^2 + 2/3*x^3*y^4 + 13/3*x^3*y^3*z + 10*x^3*y^2*z^2 + "
        "45/16*x^3*y*z^3 - 2*x^2*y^3*z^2 - 10/3*x^2*y^2*z^3 - 15/8*x^2*y*z^4 + 1/2*x*y*z^5 + 243/16384*x^6 - "
        "315/256*x^5*y - 243/2048*x^5*z + 49/12*x^4*y^2 + 45/8*x^4*y*z + 405/1024*x^4*z^2 - 7/3*x^3*y^3 - "
        "31/4*x^3*y^2*z - 75/8*x^3*y*z^2 - 45/64*x^3*z^3 + 1/3*x^2*y^4 + 2*x^2*y^3*z + 5*x^2*y^2*z^2 + "
        "20/3*x^2*y*z^3 + 45/64*x^2*z^4 - 4/3*x*y^2*z^3 - 5/3*x*y*z^4 - 3/8*x*z^5 + 1/12*z^6 + 27/128*x^5 - "
        "731/256*x^4*y - 315/256*x^4*z + 19/8*x^3*y^2 + 365/48*x^3*y*z + 45/16*x^3*z^2 - 1/2*x^2*y^3 - "
        "14/3*x^2*y^2*z - 53/8*x^2*y*z^2 - 25/8*x^2*z^3 + 2/3*x*y^3*z + 2*x*y^2*z^2 + 7/3*x*y*z^3 + 5/3*x*z^4"
        " - 1/3*y*z^4 - 1/3*z^5 + 3/4*x^4 - 3/4*x^3*y - 11/4*x^3*z - 55/48*x^2*y^2 + 19/8*x^2*y*z + "
        "169/48*x^2*z^2 - 1/2*x*y^2*z - 7/3*x*y*z^2 - 11/6*x*z^3 + 1/3*y^2*z^2 + 2/3*y*z^3 + 1/3*z^4 + "
        "2*x^2*y - 8/3*x*y*z - 3/4*x^2 + 2*x*z - 4/3*z^2 - x\n"
        "1/2*x^2*y^2 - 3/4*x^2*y + x*y*z + 9/32*x^2 - x*y - 3/4*x*z + 1/2*z^2 + 2*x - y - z\n"
        "x*y - 3/4*x + z\n"
    )),
    "fractional-39": (0, (
        "vars: x, y, z\n"
        "-1/6*y^2*z^2 + 1/2*y^2*z - 3/14*y^2 + 1/9\n"
        "2/9*y^2*z^2 + 2/9*x*z\n"
        "-1/9*y^2*z^2 + 1/3*y^2*z - 1/7*y^2\n"
    )),
    "fractional-69": (1, (
        "vars: x, y, z\n"
        "-1/2*x^2*y*z + 1/4*y*z\n"
        "1/16*x^6*y^3*z^3 - 1/32*x^4*y^3*z^3 + 1/7*x^4*y^2*z^2 - 11/56*x^2*y^2*z^2 + 107/196*x^2*y*z + "
        "1/16*y^2*z^2 - 9/392*y*z + 1/14\n"
        "-1/2*x^2*y*z + 3/7\n"
    )),
    "fractional-120": (0, (
        "vars: x, y, z\n"
        "465/392*x^2*y^4*z^2 - 4/35*x^3*y^3*z + 9/10*x^2*y^2*z^3 + 4/75*x^4*y^2 + 9/50*x^2*z^4 - 9/10*x*y^4*z"
        " - 9/25*x*y^2*z^2 + 3/14*x*y^2*z + 9/50*y^4 + 3/35*x*z^2 - 3/35*y^2 + 1\n"
        "-3/7*x*y^2*z + 2/5*x^2*y\n"
        "-3/2*x*y^2*z - 3/5*x*z^2 + 3/5*y^2\n"
    )),
}


class TestBasicSolution:
    """Each consistent level has one answer, its reduced-echelon
    particular solution or, when that leaves a constant, the first kernel
    shift that does not; `basic_answer` derives it independently."""

    @pytest.mark.parametrize("key", NOT_SPARSEST_MAPS)
    def test_maps_whose_answer_is_not_the_sparsest(self, key):
        target, text = NOT_SPARSEST_MAPS[key]
        polys, _ = parse_map_file(text)
        pmap = PolyMap(tuple(polys))
        assert find_elementary_reduction(pmap, target) == basic_answer(pmap, target)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(word_maps(), random_maps()))
    def test_drawn_maps(self, pmap):
        for target in range(3):
            assert find_elementary_reduction(pmap, target) == basic_answer(pmap, target)
