"""Parser and printer for the plain-text polynomial syntax."""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedeg import (
    ParseError,
    Polynomial,
    format_map_file,
    format_polynomial,
    parse_map_file,
    parse_polynomial,
    parse_word_file,
    variables,
)
from tamedeg.cli import main
from tamedeg.parsing import MAX_EXPONENT, default_names, significant_lines

x, y, z = variables(3)
NAMES = ("x", "y", "z")


def parse(text: str) -> Polynomial:
    return parse_polynomial(text, NAMES)


class TestParse:
    def test_single_variable(self):
        assert parse("x") == x

    def test_integer_and_rational_constants(self):
        assert parse("7") == Polynomial.constant(7, 3)
        assert parse("256/25") == Polynomial.constant(Fraction(256, 25), 3)

    def test_zero_literal(self):
        assert parse("0").is_zero

    def test_sum_with_powers(self):
        assert parse("x^2 + 2*x*y + y^2") == (x + y) ** 2

    def test_implicit_multiplication(self):
        assert parse("3x^2y") == 3 * x**2 * y
        assert parse("3xy^3") == 3 * x * y**3

    def test_explicit_and_implicit_agree(self):
        assert parse("3*x^2*y") == parse("3x^2y")

    def test_signed_factors(self):
        assert parse("x - -2") == x + 2
        assert parse("3 * -2") == Polynomial.constant(-6, 3)
        assert parse("-x^2") == -(x**2)

    def test_leading_sign(self):
        assert parse("-x + y") == y - x

    def test_rational_coefficient_times_monomial(self):
        assert parse("256/25 * x^5 - 16/5") == (
            Fraction(256, 25) * x**5 - Fraction(16, 5)
        )

    def test_whitespace_insensitive(self):
        assert parse(" x ^ 2+ y") == x**2 + y

    def test_example_middle_component(self):
        g = parse("z + 3*x^2*y + 3*x*y^3 + y^5")
        assert g == z + 3 * x**2 * y + 3 * x * y**3 + y**5

    def test_custom_names(self):
        u, v = variables(2)
        assert parse_polynomial("u*v^2", ("u", "v")) == u * v**2

    def test_longest_name_wins(self):
        a, ab = variables(2)
        p = parse_polynomial("ab + a", ("a", "ab"))
        assert p == ab + a

    def test_default_names(self):
        assert default_names(3) == ("x", "y", "z")
        assert default_names(2) == ("x", "y")
        assert default_names(4) == ("x1", "x2", "x3", "x4")


class TestParseErrors:
    def test_unknown_name(self):
        with pytest.raises(ParseError) as info:
            parse("x + q")
        assert "q" in str(info.value)

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse("x^")

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse("x^-2")

    def test_exponent_on_constant(self):
        with pytest.raises(ParseError):
            parse("2^3")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse(f"x^{MAX_EXPONENT + 1}")
        assert parse(f"x^{MAX_EXPONENT}").degree() == MAX_EXPONENT
        assert parse(f"x^{MAX_EXPONENT - 1}*x") == Polynomial(3, {(MAX_EXPONENT, 0, 0): 1})

    def test_single_factor_overflow_names_its_exponent(self):
        with pytest.raises(ParseError) as info:
            parse(f"y + x*x^{MAX_EXPONENT + 1}")
        assert info.value.reason == f"exponent {MAX_EXPONENT + 1} exceeds the supported bound {MAX_EXPONENT}"
        assert info.value.column == 9

    @pytest.mark.parametrize("text, name, column, total", [
        (f"x^{MAX_EXPONENT}*x", "x", 11, MAX_EXPONENT + 1),
        ("x^600000 x^400001", "x", 12, MAX_EXPONENT + 1),
        ("z + y^1000000*x*y^1000000", "y", 19, 2 * MAX_EXPONENT),
    ])
    def test_factors_add_up_to_the_bound(self, text, name, column, total):
        # the error points at the factor that crosses the bound
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.reason == f"exponent sum {total} of {name} exceeds the supported bound {MAX_EXPONENT}"
        assert info.value.column == column

    def test_factors_add_up_on_a_word_file_line(self):
        with pytest.raises(ParseError) as info:
            parse_word_file(f"vars: x, y, z\nelem 1 1 y^{MAX_EXPONENT}*z*y\n")
        assert (info.value.line, info.value.column) == (2, 22)
        assert info.value.reason == f"exponent sum {MAX_EXPONENT + 1} of y exceeds the supported bound {MAX_EXPONENT}"
        (step,), _ = parse_word_file(f"vars: x, y, z\nelem 1 1 y^{MAX_EXPONENT - 1}*z*y\n")
        assert step.shift.degree() == MAX_EXPONENT + 1

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse("x + (y)")

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            parse("x *")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial(" y^", NAMES, line=2)
        assert info.value.line == 2
        assert info.value.column == 4
        assert "line 2, column 4" in str(info.value)

    def test_unknown_name_column(self):
        with pytest.raises(ParseError) as info:
            parse("x + qq*y")
        assert info.value.column == 5

    def test_parse_error_is_value_error(self):
        assert issubclass(ParseError, ValueError)

    @pytest.mark.parametrize("text, column", [
        ("x²", 2),       # superscript two: str.isdigit, but not int()-able
        ("y + ٣", 5),    # Arabic-Indic three: int() reads it as 3
        ("2*é", 3),
        ("x³y", 2),
    ])
    def test_non_ascii_character(self, text, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.column == column
        assert info.value.reason == f"unexpected character {text[column - 1]!r}"

    def test_literal_beyond_the_int_digit_limit(self):
        digits = "7" * 5000
        for text, column in ((f"x + {digits}*y", 5), (f"x^{digits}", 3), (f"1/{digits}", 3)):
            with pytest.raises(ParseError) as info:
                parse_polynomial(text, NAMES, line=4)
            assert (info.value.line, info.value.column) == (4, column)
            assert "5000 digits" in info.value.reason

    def test_scan_errors_come_before_syntax_errors(self):
        # the whole line is scanned first, so the unknown name wins over
        # the missing exponent before it
        with pytest.raises(ParseError) as info:
            parse("x^ + q")
        assert info.value.reason == "unknown variable 'q'"
        assert info.value.column == 6


class TestLinearParse:
    def test_long_run_of_signs(self):
        # signs are a loop, not a recursion, so a long run cannot
        # overflow the stack
        assert parse("-" * 5000 + "x") == x
        assert parse("x - " + "-" * 4998 + "y") == x - y

    def test_many_terms_merge_in_one_construction(self):
        text = " + ".join(f"x^{a}*y^{b}" for a in range(60) for b in range(60))
        p = parse(text + " - " + text.replace(" + ", " - "))
        assert p.is_zero
        assert len(parse(text).terms()) == 3600

    def test_twenty_thousand_rational_terms(self, time_limit):
        # About 20,000 terms in about 0.6 MB: a pass that grew
        # quadratically in the terms would take minutes.
        rng = random.Random(30)
        terms = {(a, b, c): Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**9), rng.randint(1, 10**6))
                 for a in range(28) for b in range(28) for c in range(26)}
        p = Polynomial(3, terms)
        with time_limit(10):
            text = format_polynomial(p)
            assert parse(text) == p
        assert len(p) == 20384

    def test_error_at_the_end_of_a_long_text(self, time_limit):
        # A failing parse scans the text again for positions; that pass
        # stays linear too, and the error names the column of the `$`.
        text = " + ".join(f"{k}/7*x^{k % 50}*y^{k % 31}*z" for k in range(1, 20001))
        with time_limit(10):
            with pytest.raises(ParseError) as info:
                parse_polynomial("\n" + text + " $", NAMES, line=3)
        assert (info.value.line, info.value.column) == (4, len(text) + 2)
        assert info.value.reason == "unexpected character '$'"


class TestFormat:
    def test_canonical_order_graded_then_lexicographic(self):
        p = x**2 + y**2 + x * y + z + 1
        assert format_polynomial(p) == "x^2 + x*y + y^2 + z + 1"

    def test_golden_display(self):
        g = z + 3 * x**2 * y + 3 * x * y**3 + y**5
        assert format_polynomial(g) == "y^5 + 3*x*y^3 + 3*x^2*y + z"

    def test_zero(self):
        assert format_polynomial(Polynomial.zero(3)) == "0"

    def test_signs_and_rationals(self):
        p = Fraction(-1, 2) * x + Fraction(3, 4)
        assert format_polynomial(p) == "-1/2*x + 3/4"

    def test_unit_coefficients_suppressed(self):
        assert format_polynomial(x - y) == "x - y"

    def test_custom_names(self):
        u, v = variables(2)
        assert format_polynomial(Fraction(256, 25) * u**5 + v**2, ("u", "v")) == (
            "256/25*u^5 + v^2"
        )

    def test_name_count_must_match_arity(self):
        with pytest.raises(ValueError):
            format_polynomial(x, ("x", "y"))

    def test_terms_print_in_the_written_out_order(self):
        # Descending degree, ties by the exponent of x1, then of x2, ...
        # each descending; arities 4 and 5 print with names x1..x5.
        rng = random.Random(32)
        for arity in range(1, 6):
            names = default_names(arity)
            for _ in range(40):
                terms = {tuple(rng.randint(0, 4) for _ in range(arity)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(rng.randint(1, 10))}
                p = Polynomial(arity, terms)
                order = sorted(p.terms(), key=lambda m: (-sum(m), *(-e for e in m)))
                pieces = [format_polynomial(Polynomial(arity, {m: p.terms()[m]}), names) for m in order]
                expected = "".join(piece if not i else f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
                                   for i, piece in enumerate(pieces))
                assert format_polynomial(p, names) == (expected or "0")


def random_polynomial(rng: random.Random) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        monomial = tuple(rng.randint(0, 7) for _ in range(3))
        terms[monomial] = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    return Polynomial(3, terms)


class TestRoundTrip:
    def test_seeded_random_round_trip(self):
        rng = random.Random(31)
        for _ in range(300):
            p = random_polynomial(rng)
            assert parse(format_polynomial(p)) == p

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
            st.fractions(min_value=-99, max_value=99, max_denominator=40),
            max_size=6,
        )
    )
    def test_hypothesis_round_trip(self, terms):
        p = Polynomial(3, terms)
        assert parse(format_polynomial(p)) == p


class TestMapFiles:
    def test_parse_map_file(self):
        text = """# a triangular map
vars: x, y, z

x + z^3
y + z^5
z
"""
        polys, names = parse_map_file(text)
        assert names == ("x", "y", "z")
        assert polys == [x + z**3, y + z**5, z]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_map_file("x + y\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_map_file("# nothing here\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_map_file("vars: x, x\nx\nx\n")

    def test_error_reports_file_line(self):
        text = "vars: x, y, z\nx\ny\nz + q\n"
        with pytest.raises(ParseError) as info:
            parse_map_file(text)
        assert info.value.line == 4

    def test_format_round_trip(self):
        polys = (x + z**3, y + z**5, z + x**2 * y)
        text = format_map_file(polys, ("x", "y", "z"))
        parsed, names = parse_map_file(text)
        assert tuple(parsed) == polys
        assert names == ("x", "y", "z")

    def test_significant_lines_strip_comments(self):
        # comments, blank lines and trailing blanks go; leading blanks
        # stay, so columns are the file's own
        text = "a # trailing\n# full line\n\n   \n b \n"
        assert significant_lines(text) == [(1, "a"), (5, " b")]


# A factor is ("num", signs, numerator, denominator or None) or
# ("var", signs, index, exponent or None), and a term is a sign and a list
# of factors.  The reference evaluates terms with Polynomial arithmetic;
# the renderer writes them with random spacing and implicit products.
_signs = st.text("+-", max_size=2)
_factor = st.one_of(
    st.tuples(st.just("num"), _signs, st.integers(0, 12), st.none() | st.integers(1, 9)),
    st.tuples(st.just("var"), _signs, st.integers(0, 2), st.none() | st.integers(0, 4)),
)
_term = st.tuples(st.sampled_from("+-"), st.lists(_factor, min_size=1, max_size=4))
_space = st.sampled_from(["", " ", "  ", "\t"])


def _reference(terms) -> Polynomial:
    total = Polynomial.zero(3)
    for term_sign, factors in terms:
        product = Polynomial.constant(-1 if term_sign == "-" else 1, 3)
        for kind, signs, a, b in factors:
            if kind == "num":
                value = Polynomial.constant(Fraction(a, b or 1), 3)
            else:
                value = (x, y, z)[a] ** (1 if b is None else b)
            product = product * (-value if signs.count("-") % 2 else value)
        total = total + product
    return total


def _render(terms, draw) -> str:
    out = []
    for i, (term_sign, factors) in enumerate(terms):
        if i or term_sign == "-" or draw(st.booleans()):
            out.append(draw(_space) + term_sign + draw(_space))
        for j, (kind, signs, a, b) in enumerate(factors):
            if j and not signs and draw(st.booleans()):
                # implicit product; a space keeps adjacent digits apart
                out.append(" " if kind == "num" else draw(_space))
            elif j:
                out.append(draw(_space) + "*" + draw(_space))
            out.append(signs + draw(_space))
            if kind == "num":
                out.append(str(a) if b is None else f"{a}{draw(_space)}/{draw(_space)}{b}")
            else:
                out.append(NAMES[a] if b is None else f"{NAMES[a]}{draw(_space)}^{draw(_space)}{b}")
    return "".join(out)


class TestAgainstArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_parse_matches_polynomial_arithmetic(self, data):
        terms = data.draw(st.lists(_term, min_size=1, max_size=6))
        # echo some terms with the opposite sign, so monomials repeat and cancel
        for k in data.draw(st.lists(st.integers(0, len(terms) - 1), max_size=3)):
            terms.append(("-" if terms[k][0] == "+" else "+", terms[k][1]))
        text = _render(terms, data.draw)
        assert parse(text) == _reference(terms), text


def _position(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of text[index]."""
    before = text[:index].split("\n")
    return len(before), len(before[-1]) + 1


class TestErrorPositions:
    """One stray `?` or undeclared `w` inserted into a valid polynomial
    is reported at the line and column of the insertion, in the text the
    user wrote: an inline argument, a --file argument wrapped over
    lines, an indented map-file line and the shift of an `elem` line."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_insertion_is_reported_where_it_was_made(self, data):
        valid = _render(data.draw(st.lists(_term, min_size=1, max_size=4)), data.draw)
        stray = data.draw(st.sampled_from("?w"))
        form = data.draw(st.sampled_from(["inline", "file", "map", "word"]))
        if form == "file":
            # wrap at some blanks; every blank separates tokens
            body = "".join("\n" if c in " \t" and data.draw(st.booleans()) else c for c in valid)
            head, tail = "# f, wrapped\n", "  # end\n\n"
        elif form == "map":
            body = valid
            head, tail = "vars: x, y, z\n" + data.draw(st.sampled_from([" ", "   ", "\t "])), "\ny\nz\n"
        elif form == "word":
            body = valid
            head = "vars: x, y, z\n" + data.draw(st.sampled_from(["elem 1 1 ", "  elem  2 -3/2\t"]))
            tail = "  # shift\n"
        else:
            body, head, tail = valid, "", ""
        at = len(head) + data.draw(st.integers(0, len(body)))
        text = head + body + tail
        text = text[:at] + stray + text[at:]

        if form == "file":
            with tempfile.TemporaryDirectory() as folder:
                path = os.path.join(folder, "f.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(["bracket", path, path, "--file"]) == 2
            line, column = (int(n) for n in re.match(r"parse error: line (\d+), column (\d+): ", err.getvalue()).groups())
        else:
            read = {"inline": lambda: parse_polynomial(text, NAMES), "map": lambda: parse_map_file(text),
                    "word": lambda: parse_word_file(text)}[form]
            with pytest.raises(ParseError) as info:
                read()
            line, column = info.value.line, info.value.column
            assert info.value.reason.startswith("unexpected character '?'" if stray == "?" else "unknown variable 'w")
        assert (line, column) == _position(text, at), text
