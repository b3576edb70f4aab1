"""Machine verification of the explicit degree-(10, 23, 25) construction.

Every stated fact about the map (f1, f2, h) is recomputed from scratch
and compared exactly: the multidegree, the three displayed bracket
coefficients of [f1, f3], the bracket degree sitting strictly below
both component degrees (the counterexample inequality), algebraic
independence of the pair next to dependence of its leading forms, the
constant Jacobian determinant, and the recovery of the defining
equation of f2 by the reduction solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from . import parsing, poisson, reduction
from .automorphisms import PolyMap, build_example_map


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: str
    computed: str


@dataclass(frozen=True)
class ExampleReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


_NAMES = ("x", "y", "z")
_G_NAMES = ("u", "v")

BRACKET_XY = "-30*x^2*y^4 - 54*x^3*y^2 - 18*x^4 - 6*y^3*z - 12*x*y*z + 1"
BRACKET_XZ = "-6*y^4 - 12*x*y^2 - 6*x^2"
BRACKET_YZ = "-10*y^5 - 18*x*y^3 - 6*x^2*y + 2*z"
REDUCTION_G = "256/25*u^5 + v^2"
RESIDUAL = "z + 3*x^2*y + 3*x*y^3 + y^5"


def verify_example(pmap: PolyMap | None = None) -> ExampleReport:
    """Recompute and check every stated fact; pass a tampered map to
    watch the checks fail."""
    if pmap is None:
        pmap = build_example_map()
    f1, f2, f3 = pmap.components
    checks: list[Check] = []

    def check(name: str, expected: str, compute: Callable[[], tuple[bool, str]]) -> None:
        try:
            passed, computed = compute()
        except Exception as exc:  # tampered inputs may break preconditions
            passed, computed = False, f"error: {exc}"
        checks.append(Check(name, passed, expected, computed))

    check("mdeg", "(10, 23, 25)", lambda: (pmap.mdeg() == (10, 23, 25), str(pmap.mdeg())))

    bracket = poisson.poisson_bracket(f1, f3)

    def bracket_check(i: int, j: int, expected_text: str) -> Callable[[], tuple[bool, str]]:
        expected_poly = parsing.parse_polynomial(expected_text, _NAMES)

        def compute() -> tuple[bool, str]:
            got = bracket.coefficient(i, j)
            return got == expected_poly, parsing.format_polynomial(got, _NAMES)

        return compute

    check("bracket-xy", BRACKET_XY, bracket_check(0, 1, BRACKET_XY))
    check("bracket-xz", BRACKET_XZ, bracket_check(0, 2, BRACKET_XZ))
    check("bracket-yz", BRACKET_YZ, bracket_check(1, 2, BRACKET_YZ))
    check("bracket-degree", "8", lambda: (bracket.degree() == 8, str(bracket.degree())))
    check(
        "bracket-degree-below-min",
        "deg [f1, f3] < min(deg f1, deg f3)",
        lambda: (
            bracket.degree() < min(f1.degree(), f3.degree()),
            f"{bracket.degree()} vs min({f1.degree()}, {f3.degree()})",
        ),
    )
    check(
        "pair-independent",
        "f1, f3 algebraically independent",
        lambda: (not bracket.is_zero, "independent" if not bracket.is_zero else "dependent"),
    )

    def leading_forms() -> tuple[bool, str]:
        dependent = poisson.algebraically_dependent(f1.leading_form(), f3.leading_form())
        return dependent, "dependent" if dependent else "independent"

    check("leading-forms-dependent", "leading forms algebraically dependent", leading_forms)

    def jacobian() -> tuple[bool, str]:
        det = pmap.jacobian_det()
        return (not det.is_zero) and det.degree() == 0, parsing.format_polynomial(det, _NAMES)

    check("jacobian-constant", "nonzero constant", jacobian)

    expected_g = parsing.parse_polynomial(REDUCTION_G, _G_NAMES)
    expected_residual = parsing.parse_polynomial(RESIDUAL, _NAMES)
    search = functools.cache(lambda: reduction.find_elementary_reduction(pmap, 1, 50))

    def reduced(read: Callable[[reduction.ReductionResult], tuple[bool, str]]) -> tuple[bool, str]:
        found = search()
        return (False, "none") if found is None else read(found)

    check("reduction-g", REDUCTION_G, lambda: reduced(
        lambda r: (r.g == expected_g, parsing.format_polynomial(r.g, _G_NAMES))))
    check("reduction-residual", RESIDUAL, lambda: reduced(
        lambda r: (r.residual == expected_residual, parsing.format_polynomial(r.residual, _NAMES))))
    check("reduction-degree", "5", lambda: reduced(
        lambda r: (r.residual_degree == 5, str(r.residual_degree))))

    return ExampleReport(tuple(checks))
