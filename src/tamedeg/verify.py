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
import math
from dataclasses import dataclass

from . import parsing, poisson, reduction
from .automorphisms import PolyMap, build_example_map
from .polynomials import Polynomial


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

MDEG = (10, 23, 25)
BRACKET_XY = "-30*x^2*y^4 - 54*x^3*y^2 - 18*x^4 - 6*y^3*z - 12*x*y*z + 1"
BRACKET_XZ = "-6*y^4 - 12*x*y^2 - 6*x^2"
BRACKET_YZ = "-10*y^5 - 18*x*y^3 - 6*x^2*y + 2*z"
REDUCTION_G = "256/25*u^5 + v^2"
RESIDUAL = "z + 3*x^2*y + 3*x*y^3 + y^5"


def _stated(got: object, text: str, names: tuple[str, ...] = _NAMES) -> tuple[bool, str]:
    """Whether a recomputed value is the one stated as `text`, and the
    value as text.  A polynomial is compared with `text` parsed, a degree
    or multidegree with its own text; None, a search that found nothing,
    shows as 'none'."""
    if got is None:
        return False, "none"
    if isinstance(got, Polynomial):
        return got == parsing.parse_polynomial(text, names), parsing.format_polynomial(got, names)
    return str(got) == text, str(got)


def _which(holds: bool, yes: str, no: str) -> tuple[bool, str]:
    return holds, yes if holds else no


def _constant(det: Polynomial) -> tuple[bool, str]:
    # degree 0 is a nonzero constant: the zero polynomial has degree -inf
    return det.degree() == 0, parsing.format_polynomial(det, _NAMES)


def verify_example(pmap: PolyMap | None = None) -> ExampleReport:
    """Recompute and check every stated fact; pass a tampered map to
    watch the checks fail.  A map without three components raises
    ValueError before any claim runs."""
    if pmap is None:
        pmap = build_example_map()
    if pmap.arity != 3:
        raise ValueError(f"verify_example needs a map with 3 components, got {pmap.arity}")
    f1, f2, f3 = pmap.components
    bracket = poisson.poisson_bracket(f1, f3)
    # g's u^5 term cancels at composed degree lcm(deg f1, deg f3), above
    # the search's default cap 2 * deg f2 (see reduction.py).  The cap
    # comes from the claimed degrees, so a tampered map is searched alike.
    # The first reduction claim runs the search; an error is not cached,
    # so it fails each check that reads the search.  A search that found
    # nothing answers None, and so does each of its fields.
    search = functools.cache(lambda: reduction.find_elementary_reduction(pmap, 1, math.lcm(MDEG[0], MDEG[2])))

    claims = (
        ("mdeg", str(MDEG), lambda: _stated(pmap.mdeg(), str(MDEG))),
        ("bracket-xy", BRACKET_XY, lambda: _stated(bracket.coefficient(0, 1), BRACKET_XY)),
        ("bracket-xz", BRACKET_XZ, lambda: _stated(bracket.coefficient(0, 2), BRACKET_XZ)),
        ("bracket-yz", BRACKET_YZ, lambda: _stated(bracket.coefficient(1, 2), BRACKET_YZ)),
        ("bracket-degree", "8", lambda: _stated(bracket.degree(), "8")),
        # A zero bracket's -inf lies below every degree; it fails here.
        ("bracket-degree-below-min", "deg [f1, f3] < min(deg f1, deg f3)", lambda: (
            not bracket.is_zero and bracket.degree() < min(f1.degree(), f3.degree()),
            f"{bracket.degree()} vs min({f1.degree()}, {f3.degree()})")),
        ("pair-independent", "f1, f3 algebraically independent",
         lambda: _which(not bracket.is_zero, "independent", "dependent")),
        ("leading-forms-dependent", "leading forms algebraically dependent", lambda: _which(
            poisson.algebraically_dependent(f1.leading_form(), f3.leading_form()), "dependent", "independent")),
        ("jacobian-constant", "nonzero constant", lambda: _constant(pmap.jacobian_det())),
        ("reduction-g", REDUCTION_G, lambda: _stated(getattr(search(), "g", None), REDUCTION_G, _G_NAMES)),
        ("reduction-residual", RESIDUAL, lambda: _stated(getattr(search(), "residual", None), RESIDUAL)),
        ("reduction-degree", "5", lambda: _stated(getattr(search(), "residual_degree", None), "5")),
    )
    checks = []
    for name, expected, compute in claims:
        try:
            passed, computed = compute()
        except Exception as exc:  # tampered inputs may break preconditions
            passed, computed = False, f"error: {exc}"
        checks.append(Check(name, passed, expected, computed))
    return ExampleReport(tuple(checks))
