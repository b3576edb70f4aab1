"""Search for elementary reductions of a three-component polynomial map.

An elementary reduction of F at the target component replaces
F_target by F_target - g(F_j, F_k), the other two components taken in
index order, such that the degree strictly drops.  The search space is
every g supported on monomials u^s v^t with

    s * deg F_j + t * deg F_k <= support_degree_cap,

which is exactly the set of products F_j^s F_k^t whose composed degree
stays within the cap.  The default cap is 2 * deg F_target.

The cap only matters when the leading forms of F_j and F_k are
algebraically dependent.  When they are independent, the top weighted
part of g evaluated at the leading forms is never zero, so
deg g(F_j, F_k) is the weighted degree of g (Shestakov-Umirbaev, J.
Amer. Math. Soc. 17, 2004): no top form cancels, and a drop uses only
monomials of weighted degree <= deg F_target.  The search then trims
the cap, default or explicit, to deg F_target; the trimmed columns are
zero in every solution, so the answer is the same.  Dependent leading
forms can cancel above deg F_target: the degree-(10, 23, 25) map needs
a u^5 term of composed degree 50 = lcm(10, 25) to reduce its degree-23
component, above the default cap of 46; verify.py derives that cap
from the claimed degrees.

Within the capped support the problem is linear: one unknown
coefficient per support monomial, one equation per monomial of the
difference that must vanish.  The coefficients are exact rationals,
but the system is built and solved over Python ints.  Each component
has its denominators cleared once, F_j = A/a, F_k = B/b and
F_target = T/tau, and the unknowns are the coefficients of
h(u, v) = tau * g(u/a, v/b), so that

    T - h(A, B) = tau * (F_target - g(F_j, F_k)).

Column (s, t) is the integer polynomial A^s B^t and the right-hand
side is T, with no denominators, and elimination is fraction-free.
Fractions appear only when a solution is read back, g's coefficient on
(s, t) as h_st * a^s b^t / tau and the residual as T - h(A, B) over tau.
A, B and T are packed once per search (`polynomials._layout`): a bit
field per variable, wide enough for every column and for T, and a top
field holding the total degree, which is an equation's level.  Every
power, product, equation key and residual numerator stays packed, the
products go through `polynomials._packed_product`, and only the
residual's terms are unpacked.  The power chains start at A and B
themselves, so A*A and B*B are squares, which `_packed_product` takes
by its square rule, and a column u^s or v^t is the power itself, with
no product by 1.

The soundness recheck, `_verify`, checks every answer's identity
F_target - g(F_j, F_k) = residual scaled to integers.  It packs under a
layout of its own and raises fresh powers of A and B by repeated
squaring (`polynomials._power`), so it reads nothing of the solve: no
power, product, row or h.  A term of g with s = 0 or t = 0 is likewise
the power itself.

The rows go in one degree level at a time, from the top down, and each
consistent level's solutions form a particular solution plus a kernel.
One generator, `candidates()` in find_elementary_reduction, yields the
candidate solutions of every level in the order that breaks ties, and
the first one that passes the degree check is the answer.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, repeat
from math import gcd, lcm

from . import poisson
from .polynomials import Monomial, Polynomial, _layout, _packed_product, _power
from .automorphisms import PolyMap

# Upper bound on the support probes of one search, over all levels
# (`candidates()` says what comes past it).  The kernel's columns number
# a handful on word-generated maps; the bound only matters for hostile
# maps such as (x, x^2, ...) whose kernels touch many columns.
SUBSET_BUDGET = 200_000

# Upper bound on the support monomials, the columns of the linear
# system.  Only dependent leading forms keep a cap above deg F_target,
# and there the columns grow with the square of the cap: 2,000 columns
# take about a second on (x, x^2 + y, z + x^3), and the cost grows
# faster than the column count.  Word maps need at most a few hundred.
MAX_SUPPORT_COLUMNS = 2_000


@dataclass(frozen=True)
class ReductionResult:
    """g: bivariate polynomial applied to the two non-target components
    (ascending index order); residual = F_target - g(F_j, F_k)."""

    g: Polynomial
    residual: Polynomial
    residual_degree: int


# An equation row is sparse: {column: nonzero int}.  Columns 0..ncols-1
# hold the unknowns' coefficients and column ncols the right-hand side.
Row = dict[int, int]


def _primitive(row: Row) -> Row:
    """row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    return row if content <= 1 else {col: x // content for col, x in row.items()}


def _eliminate(row: Row, pivot_row: Row, col: int) -> Row:
    """a*row - b*pivot_row, zero at col, with a and b the pivot and the
    entry at col divided by their gcd: a nonzero multiple of the row that
    subtracting a rational multiple of pivot_row would give."""
    pivot, value = pivot_row[col], row[col]
    g = gcd(pivot, value)
    a, b = pivot // g, value // g
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, y in pivot_row.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:  # b * y is nonzero, so x is 0 only where out[c] was set
            del out[c]
    return out


def _echelon_add(rows: list[Row], pivots: dict[int, int], new_row: Row, ncols: int) -> bool:
    """Eliminate new_row against the current echelon rows and absorb it.

    Returns False when the row reduces to 0 = nonzero, i.e. the system
    became inconsistent.  Elimination is fraction-free (see _eliminate),
    so every row is a nonzero multiple of the row that rational
    elimination would store: the pivots and the solution set are the
    same.  The scan always takes the leftmost nonzero column, so an
    absorbed row has its first nonzero entry at its pivot column; it is
    stored divided by its content.
    """
    while new_row:
        col = min(new_row)
        if col == ncols:
            return False
        pivot_row = pivots.get(col)
        if pivot_row is None:
            rows.append(_primitive(new_row))
            pivots[col] = len(rows) - 1
            return True
        new_row = _eliminate(new_row, rows[pivot_row], col)
    return True


def _solve_reduced(rows: list[Row], pivots: dict[int, int], ncols: int) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Particular solution (free variables zero) and kernel basis.

    Back-substitutes over the integers, clearing each pivot column from
    the rows above it with _eliminate and keeping the rows primitive.
    Replaces entries of `rows` but never mutates a row.  Each row ends
    as a multiple of its row of the reduced row echelon form, which is
    unique, so the Fractions read out as row[ncols] / row[col] and
    -row[f] / row[col] are exactly those of rational Gauss-Jordan.
    """
    order = sorted(pivots)
    for pos in range(len(order) - 1, -1, -1):
        col = order[pos]
        row = rows[pivots[col]]
        for other_col in order[:pos]:
            index = pivots[other_col]
            if col in rows[index]:
                rows[index] = _primitive(_eliminate(rows[index], row, col))
    particular = [Fraction(0)] * ncols
    for col in order:
        row = rows[pivots[col]]
        particular[col] = Fraction(row.get(ncols, 0), row[col])
    free_cols = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for col in order:
            row = rows[pivots[col]]
            vec[col] = Fraction(-row.get(f, 0), row[col])
        kernel.append(vec)
    return particular, kernel


def _solve_vanishing(rows: list[Row], pivots: dict[int, int], vanish: list[int], ncols: int) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """The solutions of the echelon system that vanish on the columns
    `vanish`: its particular solution and kernel basis as _solve_reduced
    gives them, or None when there are none.

    Adds a unit row {i: 1} per column to a copy of the system and solves
    once; neither `rows` nor `pivots` changes.  The representative
    settles support questions on its own, but a family can mix valid
    residual degrees with degrees below 1, and the caller's degree check
    may reject the representative while a shifted member passes; the
    kernel vectors are its fallback directions.
    """
    rows, pivots = list(rows), dict(pivots)
    for i in vanish:
        if not _echelon_add(rows, pivots, {i: 1}, ncols):
            return None
    return _solve_reduced(rows, pivots, ncols)


def _verify(g: Polynomial, residual: Polynomial, *cleared: tuple[dict[Monomial, int], int]) -> None:
    """Raise AssertionError unless F_target - g(F_j, F_k) == residual and
    the residual's degree lies below F_target's.

    `cleared` is (A, a), (B, b), (T, tau) with F_j = A/a, F_k = B/b and
    F_target = T/tau.  With g = G/L and residual = R/rho cleared as well,
    and S and U the largest exponents of u and v in g, the identity times
    tau*rho*L*a^S*b^U reads

        tau*rho * sum of G_st a^(S-s) b^(U-t) A^s B^t == L a^S b^U (rho T - tau R),

    which is checked over ints, under a layout wide enough for any g and
    residual, with A^s and B^t raised afresh by repeated squaring.
    """
    (A, a), (B, b), (T, tau) = cleared
    G, L = g.cleared()
    R, rho = residual.cleared()
    S = max((s for s, _ in G), default=0)
    U = max((t for _, t in G), default=0)

    def top(terms: dict[Monomial, int], i: int) -> int:
        return max((m[i] for m in terms), default=0)

    pack, _, _ = _layout(max(S * top(A, i) + U * top(B, i), top(T, i), top(R, i)) for i in range(3))
    packed_a, packed_b = ({pack(m): c for m, c in X.items()} for X in (A, B))
    powers_a = {s: _power(packed_a, s, {0: 1}, _packed_product) for s in {s for s, _ in G}}
    powers_b = {t: _power(packed_b, t, {0: 1}, _packed_product) for t in {t for _, t in G}}
    # sum of tau*rho * G_st a^(S-s) b^(U-t) A^s B^t minus L a^S b^U (rho T - tau R)
    scale = L * a**S * b**U
    difference = {pack(m): -scale * rho * c for m, c in T.items()}
    for m, c in R.items():
        key = pack(m)
        difference[key] = difference.get(key, 0) + scale * tau * c
    for (s, t), n in G.items():
        weight = tau * rho * n * a ** (S - s) * b ** (U - t)
        term = _packed_product(powers_a[s], powers_b[t]) if s and t else powers_a[s] if s else powers_b[t]
        for key, c in term.items():
            difference[key] = difference.get(key, 0) + weight * c
    if any(difference.values()) or residual.degree() >= max(map(sum, T)):
        raise AssertionError("reduction failed its own verification")


def _check_map(pmap: PolyMap, support_degree_cap: int | None) -> None:
    """Raise ValueError unless pmap has three pairwise distinct components
    and the cap is None or an int, not a bool."""
    if pmap.arity != 3:
        raise ValueError(f"reduction search expects three components, got {pmap.arity}")
    f, g, h = pmap.components
    if f == g or f == h or g == h:
        raise ValueError("map components must be pairwise distinct")
    if support_degree_cap is not None and type(support_degree_cap) is not int:
        raise ValueError(f"support cap must be an int, got {support_degree_cap!r}")


def find_elementary_reduction(pmap: PolyMap, target: int, support_degree_cap: int | None = None) -> ReductionResult | None:
    """The best capped elementary reduction at `target` (0-based), or None.

    Among all g supported on the capped monomial set that strictly drop
    the degree, one minimizing the residual degree is returned, with
    ties broken by fewest support monomials and then by the first
    solvable support subset in a fixed monomial enumeration (ascending
    graded order, v-heavy first); `candidates()` yields them in that
    order.  Past SUBSET_BUDGET probes the result is still a
    minimal-degree reduction, but the fewest-support tie-break is not
    guaranteed.

    The cap defaults to 2 * deg F_target and may not lie below
    deg F_target.  When the leading forms of the two other components
    are algebraically independent, deg g(F_j, F_k) is the weighted
    degree of g, so the cap is trimmed to deg F_target: every monomial
    above it is zero in every solution, and the result is the same.
    A capped support of more than MAX_SUPPORT_COLUMNS monomials raises
    ValueError.

    Residuals of degree below 1 are not reductions: components of
    automorphisms are nonconstant, so a drop to a constant means the
    target lies in the algebra generated by the other two components
    and is reported as None.
    """
    _check_map(pmap, support_degree_cap)
    if type(target) is not int or not 0 <= target < 3:
        raise ValueError(f"target index must be 0, 1 or 2, got {target!r}")
    components = pmap.components
    f_target = components[target]
    j, k = (i for i in range(3) if i != target)
    deg_target = f_target.degree()
    deg_j = components[j].degree()
    deg_k = components[k].degree()
    if deg_j < 1 or deg_k < 1:
        raise ValueError("cannot reduce against a constant component")
    if deg_target < 2:
        # The residual must keep degree >= 1, so nothing below 2 can drop.
        return None
    if support_degree_cap is None:
        support_degree_cap = 2 * deg_target
    if support_degree_cap < deg_target:
        raise ValueError(f"support cap {support_degree_cap} is below the target degree {deg_target}")
    if not poisson.algebraically_dependent(components[j].leading_form(), components[k].leading_form()):
        # No top form of g(F_j, F_k) cancels, so a support monomial of
        # weighted degree above deg F_target can only raise the degree.
        support_degree_cap = deg_target

    # Support monomials in a fixed enumeration; (0,0) is omitted since a
    # constant term never changes any degree >= 1 coefficient.  Each
    # exponent s is counted before its monomials are built, and every s
    # adds at least one, so a huge cap stops after MAX_SUPPORT_COLUMNS.
    support: list[tuple[int, int]] = []
    for s in range(support_degree_cap // deg_j + 1):
        first = 0 if s else 1
        last = (support_degree_cap - s * deg_j) // deg_k
        if len(support) + last + 1 - first > MAX_SUPPORT_COLUMNS:
            raise ValueError(
                f"support cap {support_degree_cap} gives more than {MAX_SUPPORT_COLUMNS} support monomials"
            )
        support.extend((s, t) for t in range(first, last + 1))
    support.sort(key=lambda st: (st[0] + st[1], st[0]))
    if not support:
        return None
    ncols = len(support)

    # The components cleared once, F_j = A/a, F_k = B/b, F_target = T/tau.
    # The unknowns are h's coefficients, h(u, v) = tau * g(u/a, v/b), so
    # column (s, t) is A^s B^t and column ncols, the right-hand side, T.
    # They are packed once, under fields wide enough for every column and
    # for T, and stay packed up to the residual.
    A, a = components[j].cleared()
    B, b = components[k].cleared()
    T, tau = f_target.cleared()
    tops = [max(max(s * ea + t * eb for s, t in support), et)
            for ea, eb, et in zip(map(max, zip(*A)), map(max, zip(*B)), map(max, zip(*T)))]
    pack, unpack, width = _layout(tops)
    packed_a, packed_b, packed_t = ({pack(m): c for m, c in X.items()} for X in (A, B, T))
    # Each power chain starts at A or B itself, not at 1, so A*A and B*B
    # are squares, and a column u^s or v^t is its power itself.
    powers_j, powers_k = ([{0: 1}, *accumulate(repeat(base, top - 1), _packed_product, initial=base)]
                          for base, top in ((packed_a, max(s for s, _ in support)),
                                            (packed_b, max(t for _, t in support))))
    products = [_packed_product(powers_j[s], powers_k[t]) if s and t else powers_j[s] if s else powers_k[t]
                for s, t in support]

    # One equation per monomial of degree >= 2, read off each column's
    # nonzero terms once, and grouped by total degree, the key's top
    # field, so levels can be constrained from the top down to level 2.
    by_degree: dict[int, dict[int, dict[int, int]]] = {}
    for col, terms in enumerate(products + [packed_t]):
        for key, c in terms.items():
            d = key >> width
            if d >= 2 and c:
                by_degree.setdefault(d, {}).setdefault(key, {})[col] = c

    # Constrain one level at a time from the top down and stop at the
    # first inconsistent one.  The system through level L <= deg_target
    # holds exactly the drops to residual degree below L, so an
    # inconsistent level rules out every drop below it.  _echelon_add
    # only appends rows, so each kept system is a prefix of `rows`.
    rows: list[Row] = []
    pivots: dict[int, int] = {}
    kept: list[int] = []
    for level in range(max(by_degree), 1, -1):
        equations = by_degree.get(level, {})
        if not all(_echelon_add(rows, pivots, equations[m], ncols) for m in sorted(equations)):
            break
        if level <= deg_target:
            kept.append(len(rows))

    def build_result(solution: list[Fraction]) -> ReductionResult | None:
        # residual = (scale*T - sum of scale*h_st * A^s B^t) / (scale*tau),
        # with scale the lcm of h's denominators
        used = [(col, c) for col, c in enumerate(solution) if c]
        scale = lcm(*(c.denominator for _, c in used))
        numerators = {key: c * scale for key, c in packed_t.items()}
        for col, c in used:
            factor = c.numerator * (scale // c.denominator)
            for key, p in products[col].items():
                numerators[key] = numerators.get(key, 0) - factor * p
        residual = Polynomial._from_clean(3, {unpack(key): Fraction(n, scale * tau)
                                             for key, n in numerators.items() if n})
        degree = residual.degree()
        if degree < 1:
            return None
        g = Polynomial(2, {(s, t): c * a**s * b**t / tau for (s, t), c in zip(support, solution) if c})
        _verify(g, residual, (A, a), (B, b), (T, tau))
        return ReductionResult(g=g, residual=residual, residual_degree=degree)

    def candidates() -> Iterator[list[Fraction]]:
        """Candidate solutions h in the order that picks the answer.

        Levels come from the most constrained up: a valid residual of
        degree d solves the system through level d + 1, so the first
        level holding a valid candidate realizes the minimal residual
        degree.  Within a level, columns that no kernel vector touches
        keep their particular value in every solution; a support that
        drops a nonzero one is never solvable, and one that adds a zero
        one solves like the smaller support.  So the supports are the
        subsets of the kernel's columns in (size, lex) order, each probed
        by one _solve_vanishing, and the whole family, last, ends the
        level.  Past SUBSET_BUDGET probes, counted once over all levels,
        each level probes only its whole family.

        A solvable support yields its representative, then the member
        shifted along each kernel direction.  Only a residual of degree
        < 1 rejects a candidate; its low-degree coefficients are affine
        in the support's freedom and vanish at the representative, so
        the shifts hold a valid member whenever the support has one.  A
        shift moves g, not h, by 1 at the direction's free column, its
        last nonzero entry in reduced row echelon form, where h_st is
        g_st * tau / (a^s b^t).
        """
        probes = 0
        for end in reversed(kept):
            level_rows, level_pivots = rows[:end], {c: i for c, i in pivots.items() if i < end}
            # Back-substituting in place leaves level_rows an echelon
            # system of the same level, so the probes start from it.
            _, kernel = _solve_reduced(level_rows, level_pivots, ncols)
            free = [c for c in range(ncols) if any(vec[c] for vec in kernel)]
            for keep in chain.from_iterable(combinations(free, size) for size in range(len(free) + 1)):
                if probes >= SUBSET_BUDGET:
                    keep = free
                probes += 1
                probe = _solve_vanishing(level_rows, level_pivots, [c for c in free if c not in keep], ncols)
                if probe is None:
                    continue
                solution, directions = probe
                yield solution
                for direction in directions:
                    s, t = support[max(c for c, d in enumerate(direction) if d)]
                    unit = Fraction(tau, a**s * b**t)
                    yield [c + unit * d for c, d in zip(solution, direction)]
                if len(keep) == len(free):
                    break

    return next(filter(None, map(build_result, candidates())), None)


def find_any_reduction(pmap: PolyMap, support_degree_cap: int | None = None) -> tuple[int, ReductionResult] | None:
    """First reducible target, trying components 3, 2, 1 (as indices 2, 1, 0).

    A target whose degree lies above an explicit cap is skipped, since
    no reduction within the cap exists there; so one cap can be probed
    against all three.  Every other precondition failure raises
    ValueError exactly as find_elementary_reduction does, the map-wide
    ones before any target is searched.
    """
    _check_map(pmap, support_degree_cap)
    for target in (2, 1, 0):
        if support_degree_cap is not None and pmap.components[target].degree() > support_degree_cap:
            continue
        result = find_elementary_reduction(pmap, target, support_degree_cap)
        if result is not None:
            return target, result
    return None
