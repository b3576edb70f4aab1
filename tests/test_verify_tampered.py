"""The full example report on three tampered maps: a constant first
component, a zero third component, and a third component whose degree
rises to 40.  Every check's computed text is pinned, passed or failed,
so a change to how the claims are computed shows up here."""

from __future__ import annotations

import hashlib

import pytest

from tamedeg import PolyMap, Polynomial, variables, verify_example

x, _, _ = variables(3)

CONSTANT = "error: cannot reduce against a constant component"
LONG_BRACKET_XY = (
    "400*x^39*y^9 + 1920*x^40*y^7 + 3600*x^41*y^5 + 2880*x^42*y^3 + 720*x^43*y + 400*x^39*y^4*z"
    " + 720*x^40*y^2*z + 240*x^41*z - 80*x^39*y - 30*x^2*y^4 - 54*x^3*y^2 - 18*x^4 - 6*y^3*z - 12*x*y*z + 1")
LONG_BRACKET_XZ = "80*x^39*y^5 + 240*x^40*y^3 + 240*x^41*y + 80*x^39*z - 6*y^4 - 12*x*y^2 - 6*x^2"
BRACKET_YZ = "-10*y^5 - 18*x*y^3 - 6*x^2*y + 2*z"

REPORTS = {
    "1,f2,f3": (lambda f1, f2, f3: (Polynomial.constant(1, 3), f2, f3), {
        "mdeg": (False, "(0, 23, 25)"),
        "bracket-xy": (False, "0"),
        "bracket-xz": (False, "0"),
        "bracket-yz": (False, "0"),
        "bracket-degree": (False, "-inf"),
        # a zero bracket is below nothing: its -inf fails the check
        "bracket-degree-below-min": (False, "-inf vs min(0, 25)"),
        "pair-independent": (False, "dependent"),
        "leading-forms-dependent": (True, "dependent"),
        "jacobian-constant": (False, "0"),
        "reduction-g": (False, CONSTANT),
        "reduction-residual": (False, CONSTANT),
        "reduction-degree": (False, CONSTANT),
    }),
    "f1,f2,0": (lambda f1, f2, f3: (f1, f2, Polynomial.zero(3)), {
        "mdeg": (False, "(10, 23, -inf)"),
        "bracket-xy": (False, "0"),
        "bracket-xz": (False, "0"),
        "bracket-yz": (False, "0"),
        "bracket-degree": (False, "-inf"),
        "bracket-degree-below-min": (False, "-inf vs min(10, -inf)"),
        "pair-independent": (False, "dependent"),
        "leading-forms-dependent": (False, "error: the zero polynomial has no leading form"),
        "jacobian-constant": (False, "0"),
        "reduction-g": (False, CONSTANT),
        "reduction-residual": (False, CONSTANT),
        "reduction-degree": (False, CONSTANT),
    }),
    "f1,f2,f3+x^40": (lambda f1, f2, f3: (f1, f2, f3 + x**40), {
        "mdeg": (False, "(10, 23, 40)"),
        "bracket-xy": (False, LONG_BRACKET_XY),
        "bracket-xz": (False, LONG_BRACKET_XZ),
        "bracket-yz": (True, BRACKET_YZ),
        "bracket-degree": (False, "50"),
        "bracket-degree-below-min": (False, "50 vs min(10, 40)"),
        "pair-independent": (True, "independent"),
        "leading-forms-dependent": (False, "independent"),
        # 95 terms of degree 69
        "jacobian-constant": (False, "sha256 974ad22195dbec40db7e6c7590a65c774e68a693ed06569725aa0199ddd0caf5"),
        "reduction-g": (False, "none"),
        "reduction-residual": (False, "none"),
        "reduction-degree": (False, "none"),
    }),
}


def shown(text: str) -> str:
    """A computed text as pinned here: itself, or its sha256 past 400 characters."""
    return text if len(text) <= 400 else f"sha256 {hashlib.sha256(text.encode()).hexdigest()}"


@pytest.mark.parametrize("label", REPORTS)
def test_tampered_report(example_map, label):
    tamper, want = REPORTS[label]
    report = verify_example(PolyMap(tamper(*example_map.components)))
    assert {c.name: (c.passed, shown(c.computed)) for c in report.checks} == want
    assert [c.name for c in report.checks] == list(want)
    assert [c.name for c in report.failures()] == [name for name, (passed, _) in want.items() if not passed]
