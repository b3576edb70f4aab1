"""End-to-end runs of every subcommand through main(argv)."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tamedeg import Polynomial, compose_word, decide, parse_map_file, parse_word_file, scan, scan_rows
from tamedeg import cli, format_bracket, poisson_bracket, reduction, su_bound
from tamedeg.cli import main
from tamedeg.decision import sorted_triples
from tamedeg.parsing import format_map_file, format_polynomial, format_word_file, parse_polynomial
from tamedeg.automorphisms import build_example_map, example_word
from tamedeg.verify import BRACKET_XY, BRACKET_XZ, BRACKET_YZ

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "decide", "3", "5", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "triple: (3, 5, 11)"
        assert lines[1] == "verdict: Tame"
        assert lines[2] == "reason: SemigroupMember"
        assert lines[3] == "representation: d3 = 2*d1 + 1*d2"
        assert lines[4].startswith("witness: ") and lines[4].endswith(" steps")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "decide", "3", "5", "7", "--json")
        assert code == 0
        assert json.loads(out) == {
            "triple": [3, 5, 7],
            "verdict": "NotTame",
            "reason": "Theorem3Exclusion",
            "representation": None,
            "witness_len": None,
            "failed_hypotheses": [],
        }

    def test_witness_round_trips(self, capsys):
        code, out, _ = run(capsys, "decide", "3", "5", "11", "--witness")
        assert code == 0
        word_text = out[out.index("vars:"):]
        steps, names = parse_word_file(word_text)
        assert names == ("x", "y", "z")
        assert compose_word(steps).mdeg() == (3, 5, 11)

    def test_json_witness_field(self, capsys):
        code, out, _ = run(capsys, "decide", "10", "23", "25", "--json", "--witness")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness_len"] == 5
        assert payload["witness"] == format_word_file(example_word(), ("x", "y", "z"))

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_witness_is_rendered_only_when_asked(self, capsys, monkeypatch, extra):
        def refuse(steps, names):
            raise AssertionError("the witness text was rendered")

        monkeypatch.setattr(cli.parsing, "format_word_file", refuse)
        code, out, err = run(capsys, "decide", "3", "5", "11", *extra)
        assert code == 0, err
        assert "SemigroupMember" in out

    def test_unknown_prints_each_unmet_hypothesis(self, capsys):
        code, out, _ = run(capsys, "decide", "4", "6", "9")
        assert code == 0
        assert out.splitlines() == [
            "triple: (4, 6, 9)",
            "verdict: Unknown",
            "reason: HypothesesFail",
            "unmet: Theorem3Exclusion needs a prime d2; 6 is composite",
            "unmet: Theorem4Exclusion needs a prime d3; 9 is composite",
            "unmet: Theorem4Exclusion needs gcd(d1, d2) = 1; gcd(4, 6) = 2",
        ]

    def test_witness_flag_on_a_verdict_without_a_word(self, capsys):
        code, out, _ = run(capsys, "decide", "2", "4", "5", "--witness")
        assert code == 0
        assert out.splitlines() == [
            "triple: (2, 4, 5)",
            "verdict: Tame",
            "reason: TrivialSmallDegree",
            "witness: none recorded for this verdict",
        ]

    def test_input_is_normalized(self, capsys):
        code, out, _ = run(capsys, "decide", "25", "10", "23")
        assert code == 0
        assert "reason: KnownInstance" in out

    def test_invalid_degree_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "decide", "0", "5", "7")
        assert code == 1
        assert "positive" in err

    def test_degree_beyond_the_primality_bound_is_a_domain_error(self, capsys, time_limit):
        # 4N + 6N holds no odd number, so the exclusion rules test d3
        bound = str(3_317_044_064_679_887_385_961_981)
        with time_limit(5):
            code, out, err = run(capsys, "decide", "4", "6", bound)
        assert code == 1
        assert out == ""
        assert bound in err

    def test_missing_argument_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "decide", "3", "5")
        assert code == 2
        assert "usage" in err


class TestScan:
    def test_csv_matches_library_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--max", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d1,d2,d3,verdict,reason,s,t,witness_len"
        assert len(lines) == 36
        expected = [
            ",".join("" if row[k] is None else str(row[k]) for k in
                     ("d1", "d2", "d3", "verdict", "reason", "s", "t", "witness_len"))
            for row in scan_rows(scan(5))
        ]
        assert lines[1:] == expected
        assert "3,5,5,Tame,SemigroupMember,0,1," in out

    def test_json_matches_library_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--max", "5", "--format", "json")
        assert code == 0
        assert json.loads(out) == scan_rows(scan(5))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "scan", "--max", "4", "--out", str(path))
        assert code == 0
        assert out == ""
        content = path.read_text(encoding="utf-8")
        assert content.endswith("\n")
        assert content.splitlines()[0] == "d1,d2,d3,verdict,reason,s,t,witness_len"

    def test_repeat_runs_are_identical(self, capsys):
        first = run(capsys, "scan", "--max", "6")
        second = run(capsys, "scan", "--max", "6")
        assert first == second

    def test_max_too_small(self, capsys):
        code, _, err = run(capsys, "scan", "--max", "2")
        assert code == 1
        assert "max_degree" in err

    def test_max_too_large(self, capsys, time_limit):
        with time_limit(1):
            code, out, err = run(capsys, "scan", "--max", "1000000")
        assert code == 1
        assert out == ""
        assert err == "error: scan needs max_degree <= 200, got 1000000\n"

    def test_output_does_not_depend_on_cores(self, capsys, monkeypatch, tmp_path):
        outputs = {}
        for cores in (1, 2):
            monkeypatch.setattr(cli.decision, "_cores", lambda: cores)
            for fmt in ("csv", "json"):
                code, out, _ = run(capsys, "scan", "--max", "8", "--format", fmt)
                assert code == 0
                path = tmp_path / f"rows_{cores}.{fmt}"
                assert run(capsys, "scan", "--max", "8", "--format", fmt, "--out", str(path)) == (0, "", "")
                assert path.read_bytes() == out.encode("utf-8")
                outputs[cores, fmt] = out
        for fmt in ("csv", "json"):
            assert outputs[1, fmt] == outputs[2, fmt]


class TestBracket:
    def test_coordinate_pair(self, capsys):
        code, out, _ = run(capsys, "bracket", "x", "y")
        assert code == 0
        assert out == "(1)·[x,y]\ndegree: 2\n"

    def test_dependent_pair_is_zero(self, capsys):
        code, out, _ = run(capsys, "bracket", "x", "x^2")
        assert code == 0
        assert out == "0\ndegree: -inf\n"

    def test_dependent_pair_json_degree_is_null(self, capsys):
        code, out, _ = run(capsys, "bracket", "x", "x^2", "--json")
        assert code == 0
        assert json.loads(out) == {"bracket": "0", "coefficients": {}, "degree": None}

    def test_example_pair_from_files(self, capsys, tmp_path):
        pmap = build_example_map()
        f_path = tmp_path / "f1.txt"
        h_path = tmp_path / "f3.txt"
        f_path.write_text(format_polynomial(pmap.components[0]) + "\n", encoding="utf-8")
        h_path.write_text("# third component\n" + format_polynomial(pmap.components[2]) + "\n", encoding="utf-8")
        assert len(h_path.read_text(encoding="utf-8")) > 200
        code, out, _ = run(capsys, "bracket", str(f_path), str(h_path), "--file")
        assert code == 0
        expected = f"({BRACKET_XY})·[x,y] + ({BRACKET_XZ})·[x,z] + ({BRACKET_YZ})·[y,z]"
        assert out == expected + "\ndegree: 8\n"

    def test_long_inline_argument_rejected(self, capsys, monkeypatch):
        # a usage error of the subcommand, under its own usage line
        monkeypatch.setenv("COLUMNS", "80")
        long_poly = "x" + " + x" * 67
        message = "error: inline polynomial longer than 200 characters; pass a file and --file\n"
        code, out, err = run(capsys, "bracket", long_poly, "y")
        assert (code, out) == (2, "")
        assert err == "usage: tamedeg bracket [-h] [--vars VARS] [--file] [--json] f g\ntamedeg bracket: " + message
        code, out, err = run(capsys, "su-check", "x", "y", long_poly)
        assert (code, out) == (2, "")
        assert err == "usage: tamedeg su-check [-h] [--vars VARS] [--file] [--json] f g G\ntamedeg su-check: " + message

    @pytest.mark.parametrize("names, message", [
        ("x,,z", "invalid variable name ''"),
        ("x,y,x", "duplicate variable name 'x'"),
        ("x,2y", "invalid variable name '2y'"),
    ])
    def test_invalid_vars_is_a_usage_error(self, capsys, monkeypatch, names, message):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, "bracket", "x", "y", "--vars", names)
        assert (code, out) == (2, "")
        assert err == ("usage: tamedeg bracket [-h] [--vars VARS] [--file] [--json] f g\n"
                       f"tamedeg bracket: error: argument --vars: {message}\n")
        code, out, err = run(capsys, "su-check", "x", "y", "u", "--vars", names)
        assert (code, out) == (2, "")
        assert err.endswith(f"tamedeg su-check: error: argument --vars: {message}\n")

    def test_json_coefficients(self, capsys):
        code, out, _ = run(capsys, "bracket", "x*y", "z", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 3
        assert payload["coefficients"] == {"[x,z]": "y", "[y,z]": "x"}

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "bracket", "x +* y", "y")
        assert code == 2
        assert "parse error" in err

    def test_custom_variables(self, capsys):
        code, out, _ = run(capsys, "bracket", "a*b", "b", "--vars", "a,b")
        assert code == 0
        assert out == "(b)·[a,b]\ndegree: 3\n"

    def test_non_ascii_digit_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "bracket", "x^2", "y³")
        assert code == 2
        assert out == ""
        assert err == "parse error: line 1, column 2: unexpected character '³'\n"

    def test_file_error_points_at_the_file_line(self, capsys, tmp_path):
        # the polynomial is wrapped over lines 2-3, after a comment line
        path = tmp_path / "f.txt"
        path.write_text("# f, wrapped\nx^2 + y  # first part\n  + 3*x*y + w\n\n", encoding="utf-8")
        code, _, err = run(capsys, "bracket", str(path), str(path), "--file")
        assert code == 2
        assert err == "parse error: line 3, column 13: unknown variable 'w'\n"

    def test_file_error_at_the_end_of_input(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x +\n# nothing follows\n\n", encoding="utf-8")
        code, _, err = run(capsys, "bracket", str(path), str(path), "--file")
        assert code == 2
        assert err == "parse error: line 1, column 4: unexpected end of input\n"

    def test_file_without_a_polynomial(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n   # and another\n", encoding="utf-8")
        code, out, err = run(capsys, "bracket", str(path), str(path), "--file")
        assert code == 2
        assert out == ""
        assert err == f"parse error: line 1, column 1: no polynomial found in {str(path)!r}\n"


class TestSuCheck:
    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "su-check", "x^2", "y^3", "v", "--json")
        assert code == 0
        assert json.loads(out) == {
            "p": 2,
            "q": 0,
            "r": 1,
            "bracket_degree": 5,
            "lhs_degree": 3,
            "rhs_bound": 3,
            "holds": True,
        }

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "su-check", "x^2", "y^3", "v")
        assert code == 0
        assert out.splitlines()[0] == "p: 2"
        assert "holds: True" in out

    def test_high_exponent_composes_quickly(self, capsys, time_limit):
        with time_limit(5):
            code, out, _ = run(capsys, "su-check", "x", "y", "u^1000000", "--json")
        assert code == 0
        assert json.loads(out)["lhs_degree"] == 1000000

    def test_dependent_pair_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "su-check", "x", "x^2", "u+v")
        assert code == 1
        assert "not a weakened pair" in err


class TestReduce:
    def triangular_file(self, tmp_path):
        from tamedeg import ElementaryStep, Polynomial
        from fractions import Fraction
        z3 = Polynomial.monomial((0, 0, 3))
        z5 = Polynomial.monomial((0, 0, 5))
        x2y = Polynomial.monomial((2, 1, 0))
        word = [ElementaryStep(0, Fraction(1), z3), ElementaryStep(1, Fraction(1), z5),
                ElementaryStep(2, Fraction(1), x2y)]
        pmap = compose_word(word)
        path = tmp_path / "map.txt"
        path.write_text(format_map_file(pmap.components, ("x", "y", "z")), encoding="utf-8")
        return path

    def test_finds_the_top_reduction(self, capsys, tmp_path):
        path = self.triangular_file(tmp_path)
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert json.loads(out) == {
            "found": True,
            "target": 3,
            "g": "u^2*v",
            "residual": "z",
            "residual_degree": 1,
        }

    def test_explicit_target(self, capsys, tmp_path):
        path = self.triangular_file(tmp_path)
        code, out, _ = run(capsys, "reduce", str(path), "--target", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["target"] == 3
        assert payload["g"] == "u^2*v"

    def test_unreducible_target(self, capsys, tmp_path):
        # the middle component's z^5 tail is not reachable from the
        # degree 3 and 11 components within the default cap
        path = self.triangular_file(tmp_path)
        code, out, _ = run(capsys, "reduce", str(path), "--target", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is False
        assert payload["target"] is None

    def test_nothing_found(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\nx\ny\nz\n", encoding="utf-8")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        assert json.loads(out) == {
            "found": False, "target": None, "g": None,
            "residual": None, "residual_degree": None,
        }

    def test_target_out_of_range(self, capsys, tmp_path):
        path = self.triangular_file(tmp_path)
        code, _, err = run(capsys, "reduce", str(path), "--target", "4")
        assert code == 1
        assert "target" in err

    @pytest.mark.parametrize("cap", ["300", "1000000"])
    def test_large_cap_on_independent_leading_forms(self, capsys, tmp_path, time_limit, cap):
        # y and z are independent leading forms, so the support stops at
        # deg(x + y*z) = 2 whatever the cap
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\nx + y*z\ny\nz\n", encoding="utf-8")
        with time_limit(10):
            code, out, _ = run(capsys, "reduce", str(path), "--target", "1", "--cap", cap)
        assert code == 0
        assert json.loads(out) == {
            "found": True, "target": 1, "g": "u*v",
            "residual": "x", "residual_degree": 1,
        }

    def test_cap_below_target_degree(self, capsys, tmp_path):
        path = self.triangular_file(tmp_path)
        code, _, err = run(capsys, "reduce", str(path), "--target", "3", "--cap", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["--target", "3", "--cap", "1000000"],
        ["--target", "3", "--cap", str(10**12)],
        ["--cap", "1000000"],
    ])
    def test_support_beyond_the_column_bound(self, capsys, tmp_path, time_limit, argv):
        # the leading forms x and x^2 are dependent, so the cap is not
        # trimmed and the support would grow with its square
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\nx\nx^2 + y\nz + x^3\n", encoding="utf-8")
        with time_limit(10):
            code, out, err = run(capsys, "reduce", str(path), *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: support cap {argv[-1]} gives more than 2000 support monomials\n"

    @pytest.mark.parametrize("text, message", [
        ("vars: x, y\nx + y^2\ny + x^3\n", "reduction search expects three components, got 2"),
        ("vars: x, y, z\nx + y^2\nx + y^2\nz + x^3\n", "map components must be pairwise distinct"),
        ("vars: x, y, z\nx\ny\n2\n", "cannot reduce against a constant component"),
    ], ids=["two-components", "equal-components", "constant-component"])
    @pytest.mark.parametrize("cap", [[], ["--cap", "1"]], ids=["default-cap", "cap-1"])
    def test_malformed_map_without_target(self, capsys, tmp_path, text, message, cap):
        # every target is searched or refused as with --target; a cap
        # below the degrees does not hide a fault of the whole map
        path = tmp_path / "map.txt"
        path.write_text(text, encoding="utf-8")
        expected = f"error: {message}\n"
        assert run(capsys, "reduce", str(path), "--target", "1", *cap) == (1, "", expected)
        assert run(capsys, "reduce", str(path), *cap) == (1, "", expected)

    def test_target_above_the_cap_is_skipped(self, capsys, tmp_path):
        # the degree-3 component lies above cap 2, so the search moves on
        # to the degree-2 component
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\nx\ny + x^2\nz + x^3\n", encoding="utf-8")
        code, out, _ = run(capsys, "reduce", str(path), "--cap", "2")
        assert code == 0
        assert json.loads(out) == {
            "found": True, "target": 2, "g": "u^2",
            "residual": "y", "residual_degree": 1,
        }

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "reduce", str(tmp_path / "absent.txt"))
        assert code == 1
        assert "error" in err

    def test_failed_self_check_is_a_domain_error(self, capsys, tmp_path, monkeypatch):
        # a g off by one term fails the integer recheck, which makes the
        # reduction fail its own verification
        from tamedeg import Polynomial, reduction
        verify = reduction._verify
        monkeypatch.setattr(reduction, "_verify",
                            lambda g, *rest: verify(g + Polynomial.monomial((1, 1)), *rest))
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\nx\ny + x^2\nz\n", encoding="utf-8")
        code, out, err = run(capsys, "reduce", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: internal check failed: reduction failed its own verification\n"


class TestSemigroup:
    def test_non_member(self, capsys):
        code, out, _ = run(capsys, "semigroup", "3", "5", "7")
        assert code == 0
        assert json.loads(out) == {"member": False, "s": None, "t": None, "frobenius": 7}

    def test_member(self, capsys):
        code, out, _ = run(capsys, "semigroup", "3", "5", "11")
        assert code == 0
        assert json.loads(out) == {"member": True, "s": 2, "t": 1, "frobenius": 7}

    def test_no_frobenius_without_coprimality(self, capsys):
        code, out, _ = run(capsys, "semigroup", "4", "6", "20")
        assert code == 0
        assert json.loads(out) == {"member": True, "s": 5, "t": 0, "frobenius": None}

    def test_huge_target_in_constant_time(self, capsys, time_limit):
        with time_limit(5):
            code, out, _ = run(capsys, "semigroup", "1000000007", "1000000009", "1000000014999999935")
        assert code == 0
        assert json.loads(out) == {
            "member": True, "s": 500000064, "t": 499999943,
            "frobenius": 1000000007 * 1000000009 - 1000000007 - 1000000009,
        }


class TestMdegAndCompose:
    WORD = "vars: x, y, z\nelem 1 1 z^3\nelem 2 1 z^5\nelem 3 1 x^2*y\n"

    def test_mdeg_human(self, capsys, tmp_path):
        steps, _ = parse_word_file(self.WORD)
        path = tmp_path / "map.txt"
        path.write_text(format_map_file(compose_word(steps).components, ("x", "y", "z")), encoding="utf-8")
        code, out, _ = run(capsys, "mdeg", str(path))
        assert code == 0
        assert out == "(3, 5, 11)\n"
        code, out, _ = run(capsys, "mdeg", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"mdeg": [3, 5, 11]}

    def test_mdeg_of_a_zero_component(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\n0\ny\nz\n", encoding="utf-8")
        code, out, _ = run(capsys, "mdeg", str(path))
        assert code == 0
        assert out == "(-inf, 1, 1)\n"
        code, out, _ = run(capsys, "mdeg", str(path), "--json")
        assert code == 0
        assert out == '{"mdeg": [null, 1, 1]}\n'

    @pytest.mark.parametrize("line, column", [("x²", 2), ("x + " + "7" * 5000, 5)],
                             ids=["superscript-digit", "5000-digit-literal"])
    def test_unreadable_map_line_is_a_parse_error(self, capsys, tmp_path, line, column):
        path = tmp_path / "map.txt"
        path.write_text(f"vars: x, y, z\n{line}\ny\nz\n", encoding="utf-8")
        code, out, err = run(capsys, "mdeg", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error: line 2, column {column}: ")

    def test_map_error_names_the_file_column(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("vars: x, y, z\n   x + q\ny\nz\n", encoding="utf-8")
        assert run(capsys, "mdeg", str(path)) == (2, "", "parse error: line 2, column 8: unknown variable 'q'\n")

    def test_word_shift_error_names_the_file_column(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("vars: x, y, z\nelem 1 1 y + q\n", encoding="utf-8")
        assert run(capsys, "compose", str(path)) == (2, "", "parse error: line 2, column 14: unknown variable 'q'\n")

    def test_high_exponent_shift_composes_quickly(self, capsys, tmp_path, time_limit):
        path = tmp_path / "word.txt"
        path.write_text("vars: x, y, z\nelem 2 1 x^1000000\n", encoding="utf-8")
        with time_limit(5):
            code, out, _ = run(capsys, "compose", str(path), "--json")
        assert code == 0
        assert json.loads(out)["components"] == ["x", "x^1000000 + y", "z"]

    def test_long_map_line_parses_in_linear_time(self, capsys, tmp_path, time_limit):
        # 64,000 distinct monomials on one line: about a megabyte of text
        line = " + ".join(f"x^{a}*y^{b}*z^{c}" for a in range(40) for b in range(40) for c in range(40))
        path = tmp_path / "map.txt"
        path.write_text(f"vars: x, y, z\n{line}\ny\nz\n", encoding="utf-8")
        with time_limit(10):
            code, out, _ = run(capsys, "mdeg", str(path))
        assert code == 0
        assert out == "(117, 1, 1)\n"

    def test_compose_emits_a_parseable_map(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text(self.WORD, encoding="utf-8")
        code, out, _ = run(capsys, "compose", str(path))
        assert code == 0
        assert out.endswith("# mdeg: (3, 5, 11)\n")
        polys, names = parse_map_file(out[:out.index("# mdeg")])
        steps, _ = parse_word_file(self.WORD)
        assert polys == list(compose_word(steps).components)
        assert names == ("x", "y", "z")

    def test_compose_json(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text(self.WORD, encoding="utf-8")
        code, out, _ = run(capsys, "compose", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vars"] == ["x", "y", "z"]
        assert payload["mdeg"] == [3, 5, 11]
        assert len(payload["components"]) == 3

    @pytest.mark.parametrize("line, column, reason", [
        ("elem ٢ 1 x^2", 6, "expected a natural number, got '٢'"),
        ("elem 2 1e2 x^2", 8, "expected a rational number, got '1e2'"),
        ("elem 2 1.5 x", 8, "expected a rational number, got '1.5'"),
        ("elem 2 1_0 x", 8, "expected a rational number, got '1_0'"),
        ("perm ٣ 1 2", 6, "expected a natural number, got '٣'"),
        ("elem 2 1/0 x", 10, "zero denominator"),
        ("elem 2 0 x", 8, "elementary steps need a nonzero scalar"),
        ("elem 4 1 x", 6, "component index 4 out of range 1..3"),
        ("elem 2 1 y", 10, "the shift depends on its own variable y"),
        ("perm 1 1 2", 6, "perm lines need a permutation of 1..3"),
        pytest.param("elem 2 " + "7" * 5000 + " x", 8, "number of 5000 digits is too long", id="5000-digit-scalar"),
    ])
    def test_word_field_error_names_its_column(self, capsys, tmp_path, line, column, reason):
        path = tmp_path / "word.txt"
        path.write_text(f"vars: x, y, z\n{line}\n", encoding="utf-8")
        assert run(capsys, "compose", str(path)) == (2, "", f"parse error: line 2, column {column}: {reason}\n")

    def test_signed_scalar_parses(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("vars: x, y, z\nelem 2 +1 x\n", encoding="utf-8")
        code, out, _ = run(capsys, "compose", str(path), "--json")
        assert code == 0
        assert json.loads(out)["components"] == ["x", "x + y", "z"]

    def test_bad_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("vars: x, y, z\nelem 4 1 z\n", encoding="utf-8")
        code, _, err = run(capsys, "compose", str(path))
        assert code == 2
        assert "parse error" in err and "line 2" in err


class TestVerifyExample:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify-example")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "12/12 checks passed"
        assert sum(1 for line in lines if line.startswith("PASS ")) == 12
        assert not any(line.startswith("FAIL") for line in lines)

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify-example", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 12
        assert all(c["passed"] is True for c in payload["checks"])

    def test_failed_checks_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(reduction, "find_elementary_reduction", lambda *args: None)
        code, out, _ = run(capsys, "verify-example")
        assert code == 1
        assert out.splitlines()[-4:] == [
            "FAIL reduction-g: expected 256/25*u^5 + v^2, computed none",
            "FAIL reduction-residual: expected z + 3*x^2*y + 3*x*y^3 + y^5, computed none",
            "FAIL reduction-degree: expected 5, computed none",
            "9/12 checks passed",
        ]
        assert sum(1 for line in out.splitlines() if line.startswith("PASS ")) == 9


def digest_tool():
    """tools/digest.py as a module, for the call sets of its `cli` corpus."""
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDigest:
    # Call sets of the `cli` digest corpus, checked call by call against
    # the library; tools/expected/cli_digest.txt pins their bytes.

    @staticmethod
    def check_decide_json(capsys, triples):
        # `decide --json --witness` gives decide()'s answer, and its word,
        # read back, composes to the triple; past d3 = 2000, where that is
        # slow or the exponents pass the word file's bound, the word is
        # compared with the library's
        for triple in triples:
            code, out, err = run(capsys, "decide", *map(str, triple), "--json", "--witness")
            assert (code, err, out.count("\n")) == (0, "", 1)
            payload, d = json.loads(out), decide(triple)
            assert payload["triple"] == list(d.triple) == sorted(triple)
            assert [payload[k] for k in ("verdict", "reason", "failed_hypotheses", "representation")] == [
                d.verdict, d.reason, list(d.failed_hypotheses), d.representation and list(d.representation)]
            if d.witness is None:
                assert payload["witness"] is payload["witness_len"] is None
            elif d.triple[2] <= 2000:
                steps, _ = parse_word_file(payload["witness"])
                assert (len(steps), compose_word(steps).mdeg()) == (payload["witness_len"], d.triple)
            else:
                assert payload["witness"] == format_word_file(d.witness, ("x", "y", "z"))

    def test_decision_digest_to_20(self, capsys):
        self.check_decide_json(capsys, sorted_triples(20))

    def test_decision_digest_large_d3(self, capsys):
        assert len(digest_tool().LARGE_D3) == 680
        self.check_decide_json(capsys, digest_tool().LARGE_D3)

    def test_bracket_path_digests(self, capsys, tmp_path, monkeypatch):
        # `bracket` and `su-check --file --json` on the 50 seeded pairs: g =
        # c*f^2 + f or a constant (k % 5 == 3, 4) gives the zero bracket and
        # no weakened pair, and each of the 21 weakened pairs meets the bound
        tool = digest_tool()
        files = tool.path_pair_files()
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        weak = 0
        for k in range(tool.PATH_PAIRS):
            f, g, G = (parse_polynomial(files[f"{n}{k}"].strip(), "uv" if n == "G" else "xyz") for n in "fgG")
            code, out, err = run(capsys, "bracket", f"f{k}", f"g{k}", "--file", "--json")
            assert (code, err, json.loads(out)["bracket"]) == (0, "", format_bracket(poisson_bracket(f, g), "xyz"))
            assert json.loads(out)["bracket"] == "0" or k % 5 < 3
            code, out, err = run(capsys, "su-check", f"f{k}", f"g{k}", f"G{k}", "--file", "--json")
            if code == 0:
                report = su_bound(f, g, G)
                assert json.loads(out) == {**dataclasses.asdict(report), "lhs_degree": report.lhs_degree}
                assert report.holds and k % 5 < 3
                weak += 1
            else:
                assert (code, out) == (1, "") and err.startswith("error: not a weakened pair: ")
        assert weak == 21


class TestDigestTool:
    def test_cli_digest(self):
        # tools/digest.py cli against its recorded output, on every
        # supported interpreter: one line per subcommand and the total
        done = subprocess.run([sys.executable, "tools/digest.py", "cli"], cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        expected = (ROOT / "tools" / "expected" / "cli_digest.txt").read_text(encoding="utf-8").splitlines()
        assert len(expected) == 10
        assert done.stdout.splitlines() == expected


class TestProcess:
    @pytest.mark.parametrize("argv, code", [
        (["decide", "3", "5", "7", "--json"], 0),
        (["decide", "0", "5", "7"], 1),
        (["frobnicate"], 2),
        (["decide", "3", "5", "7", "8"], 2),
        (["bracket", "x", "y", "--vars", "x,x"], 2),
    ])
    def test_module_run_matches_main(self, capsys, monkeypatch, argv, code):
        # python -m runs main() on sys.argv; usage text wraps at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        done = subprocess.run([sys.executable, "-m", "tamedeg.cli", *argv], cwd=ROOT, capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
        assert done.returncode == code
        if code == 0:
            assert len(done.stdout.splitlines()) == 1
            json.loads(done.stdout)
        if code == 1:
            assert done.stderr == "error: degrees must be positive integers, got [0, 5, 7]\n"
        if argv[0] == "decide" and code == 2:
            # the leftover string is reported under the top-level usage
            assert done.stderr.startswith("usage: tamedeg [-h]")
            assert done.stderr.endswith("\ntamedeg: error: unrecognized arguments: 8\n")
        if argv[0] == "bracket":
            assert done.stderr == ("usage: tamedeg bracket [-h] [--vars VARS] [--file] [--json] f g\n"
                                   "tamedeg bracket: error: argument --vars: duplicate variable name 'x'\n")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["frobnicate"], ["dec", "3", "5", "7"], ["decide", "-h"], ["decide", "3", "5", "7", "8"],
        ["decide", "3", "5", "7", "--bogus"], ["decide", "--", "3", "5", "7"], ["decide", "-3", "5", "7"],
        ["decide", "3", "5", "7", "--wit", "--js"], ["reduce", "m.txt", "--cap=50", "--target"], ["decide", "3", "5"],
        ["--", "decide", "3", "5", "7"], ["decide", "3", "5", "7", "--json=1"], ["scan", "--max", "x"],
        ["semigroup", "3", "5", "-7"], ["decide", "3", "5", "7", "-"], ["decide", "3", "5", "7", "--", "8"],
        ["decide", "3", "5", "7", "--witness", "--json"], ["scan", "--max", "10", "--format", "json", "--out", "t.csv"],
        ["bracket", "x", "y", "--vars", "x,y,z", "--json"], ["su-check", "--file", "f", "g", "G"],
        ["reduce", "m.txt", "--target", "2", "--cap", "50"], ["semigroup", "3", "5", "7"], ["mdeg", "m.txt", "--json"],
        ["compose", "w.word", "--json"], ["verify-example", "--json"],
    ], ids=" ".join)
    def test_dispatch_parses_as_the_full_parser(self, capsys, monkeypatch, argv):
        # main parses with the named subcommand's parser alone; exit code,
        # stdout, stderr and namespace are those of one full parse
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(parse):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert outcome(cli._parse) == outcome(cli.build_parser().parse_args)
