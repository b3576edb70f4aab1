"""The example report fails the checks that a tampered map breaks, and
its reduction checks fail when the search does."""

from __future__ import annotations

import contextlib
import sys
from unittest import mock

import pytest

from tamedeg import PolyMap, build_example_map, poisson, reduction, variables, verify_example

x, _, z = variables(3)

REDUCTION_CHECKS = ("reduction-g", "reduction-residual", "reduction-degree")


def test_missing_reduction_fails_every_reduction_check(example_map, monkeypatch):
    calls = []

    def no_reduction(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(reduction, "find_elementary_reduction", no_reduction)
    report = verify_example(example_map)
    assert len(calls) == 1
    checks = {c.name: c for c in report.checks}
    for name in REDUCTION_CHECKS:
        assert checks[name].passed is False
        assert checks[name].computed == "none"
    assert report.passed is False
    assert [c.name for c in report.failures()] == list(REDUCTION_CHECKS)


def test_failing_search_is_reported_as_an_error(example_map, monkeypatch):
    def broken(*args):
        raise ValueError("no search")

    monkeypatch.setattr(reduction, "find_elementary_reduction", broken)
    report = verify_example(example_map)
    failed = report.failures()
    assert [c.name for c in failed] == list(REDUCTION_CHECKS)
    assert all(c.passed is False and c.computed == "error: no search" for c in failed)


def test_one_verification_brackets_f1_f3_once():
    # the bracket claims and the jacobian-constant claim read one
    # [f1, f3]; every module name bound to poisson_bracket counts.  A
    # fresh map, since a map keeps the brackets computed on it.
    counting = mock.Mock(wraps=poisson.poisson_bracket)
    names = [module for name, module in list(sys.modules.items())
             if name.split(".")[0] == "tamedeg" and getattr(module, "poisson_bracket", None) is poisson.poisson_bracket]
    pmap = build_example_map()
    with contextlib.ExitStack() as stack:
        for module in names:
            stack.enter_context(mock.patch.object(module, "poisson_bracket", counting))
        report = verify_example(pmap)
    assert report.passed
    assert counting.call_args_list == [mock.call(pmap.components[0], pmap.components[2])]


@pytest.mark.parametrize("n", [2, 4])
def test_map_without_three_components_is_refused(n, monkeypatch):
    def no_search(*args):
        raise AssertionError("a claim ran")

    monkeypatch.setattr(reduction, "find_elementary_reduction", no_search)
    with pytest.raises(ValueError, match=f"needs a map with 3 components, got {n}"):
        verify_example(PolyMap(variables(n)))


@pytest.mark.parametrize("tamper, failed, jacobian", [
    (lambda f1, f2, f3: (f1, f2 + z, f3), ["jacobian-constant", "reduction-residual"],
     "30*x^2*y^4 + 54*x^3*y^2 + 18*x^4 + 6*y^3*z + 12*x*y*z - 2"),
    (lambda f1, f2, f3: (f1, f2, f3 + x**2),
     ["bracket-xy", "bracket-xz", "bracket-degree", "bracket-degree-below-min", "jacobian-constant",
      *REDUCTION_CHECKS], None),
    # a nonzero constant determinant, so only the recovered g and residual differ
    (lambda f1, f2, f3: (f1, 2 * f2, f3), ["reduction-g", "reduction-residual"], "-2"),
], ids=["f2+z", "f3+x^2", "2*f2"])
def test_tampered_map_fails_its_checks(example_map, tamper, failed, jacobian):
    report = verify_example(PolyMap(tamper(*example_map.components)))
    assert [c.name for c in report.failures()] == failed
    assert report.passed is False
    if jacobian is not None:
        assert {c.name: c for c in report.checks}["jacobian-constant"].computed == jacobian
