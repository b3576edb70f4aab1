"""The exception type and message of each input-facing error that the
other tests never raise."""

from __future__ import annotations

import re

import pytest

from tamedeg import (ElementaryStep, ParseError, PolyMap, Polynomial, compose_word, divide_homogeneous,
                     example_word, format_word_file, parse_polynomial, poisson_bracket, variables,
                     witness_linear_first)
from tamedeg.parsing import split_names

x, y, z = variables(3)
(t,) = variables(1)


@pytest.mark.parametrize("text, column, reason", [
    ("3/x", 3, "expected a denominator after '/'"),
    ("x /", 3, "unexpected '/'"),
])
def test_parse_error_names_its_column(text, column, reason):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, "xyz")
    assert (info.value.line, info.value.column, info.value.reason) == (1, column, reason)
    assert str(info.value) == f"line 1, column {column}: {reason}"


@pytest.mark.parametrize("call, message", [
    (lambda: parse_polynomial("x", ()), "at least one variable name is required"),
    (lambda: parse_polynomial("x", ("x", "")), "invalid variable name ''"),
    (lambda: parse_polynomial("x", ("1x",)), "invalid variable name '1x'"),
    (lambda: split_names("x,,z"), "invalid variable name ''"),
    (lambda: split_names("x,1x"), "invalid variable name '1x'"),
    (lambda: PolyMap(()), "a map needs at least one component"),
    (lambda: poisson_bracket(t, t ** 2), "brackets need at least two variables"),
    (lambda: Polynomial(0), "arity must be a positive integer, got 0"),
    (lambda: Polynomial(3).leading_form(), "the zero polynomial has no leading form"),
    (lambda: x.compose([x, t, z]), "arity mismatch among substitution arguments: 1 vs 3"),
    (lambda: divide_homogeneous(x, t), "arity mismatch: 3 vs 1"),
    (lambda: witness_linear_first(5, 3), "need 1 <= d2 <= d3, got (5, 3)"),
    (lambda: format_word_file(example_word(), ("x", "y")), "step arity 3 does not match 2 names"),
], ids=["no-names", "empty-name", "name-1x", "split-empty", "split-1x", "empty-map", "one-variable-bracket",
        "arity-0", "zero-leading-form", "compose-mixed-arity", "divide-arity", "linear-first-order",
        "word-file-names"])
def test_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: compose_word([object()]), "not a tame step: <object object at "),
    (lambda: x.compose([x, 1, z]), "substitution arguments must be Polynomials"),
    (lambda: x.compose([1, y, z]), "substitution arguments must be Polynomials"),
    (lambda: ElementaryStep(0, 1, 5), "shift must be a Polynomial"),
], ids=["compose-word-object", "compose-int", "compose-int-first", "step-int-shift"])
def test_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}"):
        call()
