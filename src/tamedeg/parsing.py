"""Every text format: polynomials, map, word and polynomial files, brackets.

Grammar (whitespace insignificant except inside names):

    expr     := [ '+' | '-' ] term { ( '+' | '-' ) term }
    term     := factor { [ '*' ] factor }
    factor   := [ '+' | '-' ] ( rational | variable [ '^' natural ] )
    rational := natural [ '/' natural ]

Multiplication may be implicit: a factor followed directly by a
variable name or an unsigned number is a product, so `3xy^3` means
`3*x*y^3`.  Implicit multiplication never consumes a sign, so `x - 2`
is always a subtraction while `x * -2` negates.  Exponents apply to
variables only, and there are no parentheses, so every term is a
single monomial; a variable's exponent in it, summed over its factors,
is at most MAX_EXPONENT.  Digits and names are ASCII (`0-9`; names match
`[A-Za-z_][A-Za-z0-9_]*`); any other character, such as `²` or `٣`, is
a parse error.  Parsing takes time linear in the length of the text.
The scanner of each tuple of names is compiled once and cached.  It
takes a whole factor per match, and a parse takes all matches at once;
only a failing parse scans again to find the line and column of its
error.

The printer emits the canonical form: terms in descending total degree
with ties in descending lexicographic order of the exponent tuple (x
before y before z), explicit `*` between all factors, `^1` and unit
coefficients omitted, and ` + ` / ` - ` joining terms.  The zero
polynomial prints as `0`.

Map files list one polynomial per line after a `vars:` header:

    # comment lines and blank lines are skipped
    vars: x, y, z
    x + z^10
    y - 2*x*z
    z

Word files mirror map files: a `vars:` header, then one step per line,

    elem <i> <alpha> <shift polynomial>     (1-based component index)
    perm <p1> ... <pn>                      (new j-th component = old p_j-th)

Indices are ASCII naturals and scalars ASCII rationals, as in
polynomial text; errors name their field's line and column.  A
polynomial file (`--file`) holds one polynomial, wrapped over lines at
will, and a bracket prints as `(<poly>)·[x,y] + ...`.  Anything from
`#` to the end of a line is a comment.  The algebra modules read and
write no text.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from operator import getitem
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .automorphisms import ElementaryStep, PermutationStep, TameStep, step_arity
from .poisson import BracketValue
from .polynomials import Monomial, Polynomial, Scalar

MAX_EXPONENT = 10 ** 6

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_IDENTIFIER + r"\Z")
_SIGNS = re.compile(r"[-+\s]*")


class ParseError(ValueError):
    """Syntax or vocabulary error in polynomial text, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def default_names(arity: int) -> tuple[str, ...]:
    if arity <= 3:
        return ("x", "y", "z")[:arity]
    return tuple(f"x{i + 1}" for i in range(arity))


def validate_names(names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(names)
    if not names:
        raise ValueError("at least one variable name is required")
    seen = set()
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
    return names


# validate_names once per tuple of names, for the printer's every call.
_validated = functools.lru_cache(maxsize=64)(validate_names)


# ---- scanner and parser ----

def _error(message: str, text: str, line: int, index: int) -> ParseError:
    """ParseError at text[index]; only a failing parse counts newlines."""
    return ParseError(message, line + text.count("\n", 0, index), index - text.rfind("\n", 0, index))


def _natural(digits: str, text: str, line: int, start: int) -> int:
    """The value of the ASCII digits found at text[start]."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int() digit limit
        raise _error(f"number of {len(digits)} digits is too long", text, line, start) from None


def _numeral(text: str, line: int, start: int, end: int, rational: bool = False) -> Scalar:
    """text[start:end] read as `[0-9]+`, or with `rational` as `[-+]?[0-9]+(/[0-9]+)?`;
    errors point at the numeral, or at a zero denominator."""
    match = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?").fullmatch(text, start, end)
    if match is None or not rational and match.group(1, 3) != ("", None):
        kind = "rational" if rational else "natural"
        raise _error(f"expected a {kind} number, got {text[start:end]!r}", text, line, start)
    value: Scalar = _natural(match[2], text, line, match.start(2))
    if match[3] is not None:
        denominator = _natural(match[3], text, line, match.start(3))
        if denominator == 0:
            raise _error("zero denominator", text, line, match.start(3))
        value = Fraction(value, denominator)
    return -value if match[1] == "-" else value


@functools.lru_cache(maxsize=64)
def _scanner(names: tuple[str, ...]) -> tuple[re.Pattern, dict[str, int]]:
    """The scanner of one name tuple, and each name's index.

    A match is one factor with the `*` and the signs before it (groups 1
    to 6: star, signs, numerator, denominator, name, exponent), or else
    what starts no factor (group 7): a run of signs, another operator, an
    undeclared name or a stray character.  Each match takes the blanks
    after it.  A run of signs is one match either way, so no run is
    scanned more than twice.  The longest declared name wins, so a
    declared `xy` beats `x` at the same position.
    """
    declared = "|".join(re.escape(name) for name in sorted(validate_names(names), key=len, reverse=True))
    factor = rf"(\*\s*)?((?:[-+]\s*)*)(?:([0-9]+)\s*(?:/\s*([0-9]+)\s*)?|({declared})\s*(?:\^\s*([0-9]+)\s*)?)"
    return re.compile(rf"{factor}|((?:[-+]\s*)+|[*/^]|{_IDENTIFIER}|\S)\s*"), {name: i for i, name in enumerate(names)}


def _reject(text: str, line: int, offset: int, scanner: re.Pattern, k: int, message: str, group: int) -> NoReturn:
    """Raise the ParseError of a parse of text[offset:] that stopped at its
    k-th scanner match.

    The whole text counts as scanned before it is parsed, so the first
    over-long numeral, undeclared name or stray character from that
    match on wins.  Else `message` is reported at the match's `group`;
    without a message the match is an operator that no factor could
    start with, and its syntax error is worked out here.
    """
    found = list(scanner.finditer(text, offset))
    for match in found[k:]:
        for g in (3, 4, 6):
            if match[g]:
                _natural(match[g], text, line, match.start(g))
        other = match[7]
        if other and other[0] not in "+-*/^":
            what = "unknown variable" if _NAME_RE.match(other) else "unexpected character"
            raise _error(f"{what} {other!r}", text, line, match.start(7))
    if k == len(found):
        raise _error("unexpected end of input", text, line, len(text))
    if group == 5 and k + 1 < len(found) and found[k + 1][7] == "^":
        # A `^` without its natural number counts before the bound on the
        # name it follows.
        k, message = k + 1, ""
    match = found[k]
    if message:
        raise _error(message, text, line, match.start(group))
    # The matches before the k-th are factors; `before` is the last of them.
    op, at, before = match[7][0], match.start(7), found[k - 1] if k else None
    if before and op == "/" and before[3] and not before[4]:
        message, at = "expected a denominator after '/'", match.end()
    elif before and op == "^" and before[3]:
        message = "exponents apply to variables only"
    elif before and op == "^" and not before[6]:
        message, at = "expected a natural number after '^'", match.end()
    elif op in "/^" or op == "*" and not before:
        message = f"unexpected {op!r}"
    else:
        # A sign, or a '*' after a factor, and no factor after the signs
        # that follow: what stands there is unexpected.
        at = _SIGNS.match(text, match.end()).end()
        message = f"unexpected {text[at]!r}" if at < len(text) else "unexpected end of input"
    raise _error(message, text, line, at)


def _add(terms: dict[Monomial, Fraction], exps: list[int], num: int, den: int) -> None:
    """Add the term num/den * x^exps into `terms`."""
    key, coeff = tuple(exps), Fraction(num, den)
    terms[key] = terms[key] + coeff if key in terms else coeff


def parse_polynomial(text: str, names: Sequence[str], line: int = 1, offset: int = 0) -> Polynomial:
    """Parse text[offset:] as one polynomial over the declared variable names.

    Errors name their line and column in `text`, whose first line is
    line `line`.  The scanner's matches are taken at once, a factor each;
    only a failing parse asks where they stand.  Each term is one
    monomial, so the parser keeps an int numerator, denominator and
    exponent list per term, and adds the terms of one monomial as it
    goes: linear in the text.
    """
    scanner, index = _scanner(tuple(names))
    terms: dict[Monomial, Fraction] = {}
    exps: list[int] = []  # the current term's; empty before the first factor
    num = den = 1
    k, message, group = 0, "", 0
    try:
        for k, (star, signs, digits, denominator, name, exponent, other) in enumerate(scanner.findall(text, offset)):
            if other:
                break
            # A signed factor after a factor starts a term unless a '*'
            # joins them: implicit multiplication never consumes a sign.
            if not exps or signs and not star:
                if star:
                    message, group = "unexpected '*'", 1
                    break
                if exps:
                    _add(terms, exps, num, den)
                exps, num, den = [0] * len(index), 1, 1
            if signs and signs.count("-") & 1:
                num = -num
            if digits:
                num *= int(digits)
                if denominator:
                    d = int(denominator)
                    if not d:
                        message, group = "zero denominator", 4
                        break
                    den *= d
            else:
                # Factors of one variable add up, so the bound holds the
                # running exponent, not each factor's.
                i = index[name]
                power = int(exponent) if exponent else 1
                exps[i] += power
                if exps[i] > MAX_EXPONENT:
                    what = f"exponent {power}" if power > MAX_EXPONENT else f"exponent sum {exps[i]} of {name}"
                    message, group = f"{what} exceeds the supported bound {MAX_EXPONENT}", 6 if exponent else 5
                    break
        else:
            if exps:
                _add(terms, exps, num, den)
                return Polynomial._from_clean(len(index), {m: c for m, c in terms.items() if c})
    except ValueError:  # a numeral beyond int()'s digit limit
        pass
    # Every other way out of the loop is a parse error at the k-th match,
    # or, with no match at all, at the end of the text.
    _reject(text, line, offset, scanner, k, message, group)


# ---- printer ----

class _Powers(dict):
    """Exponent -> the text of one variable's power in a monomial, built on
    first use from the name stored under exponent 1; `''` for exponent 0."""

    def __missing__(self, exponent: int) -> str:
        text = self[exponent] = f"{self[1]}^{exponent}"
        return text


def _names(names: Sequence[str] | None, arity: int | None) -> tuple[str, ...]:
    """Validated names, the defaults when None; `arity` of them unless it is None."""
    names = _validated(tuple(names) if names is not None else default_names(arity))
    if arity is not None and len(names) != arity:
        raise ValueError(f"{len(names)} names given for arity {arity}")
    return names


def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Render in canonical order; parse(format(p)) == p."""
    powers = [_Powers({0: "", 1: name}) for name in _names(names, p.arity)]
    pieces: list[str] = []
    for monomial, coeff in p.sorted_terms():
        mono = "*".join(filter(None, map(getitem, powers, monomial)))
        # the text of abs(coeff) as str(Fraction) gives it: `n` or `n/d`
        num, den = coeff.numerator, coeff.denominator
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = magnitude
        elif magnitude == "1":
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        pieces.append(f" - {body}" if num < 0 else f" + {body}")
    # The first term's sign stands alone: `-` or nothing.
    text = "".join(pieces)
    return ("-" + text[3:] if text[1] == "-" else text[3:]) if text else "0"


def format_coefficients(b: BracketValue, names: Sequence[str] | None = None) -> dict[str, str]:
    """Each nonzero coefficient rendered once, keyed by its symbol `[x,y]`, pairs in index order."""
    names = _names(names, b.arity)
    return {f"[{names[i]},{names[j]}]": format_polynomial(poly, names) for (i, j), poly in b.items()}


def join_coefficients(coefficients: Mapping[str, str]) -> str:
    """format_coefficients' output as `(<poly>)·[x,y] + ...`; `0` when it is empty."""
    return " + ".join(f"({text})·{symbol}" for symbol, text in coefficients.items()) or "0"


def format_bracket(b: BracketValue, names: Sequence[str] | None = None) -> str:
    """Render as `(<poly>)·[x,y] + (<poly>)·[x,z] + ...` in pair order; the zero bracket as `0`."""
    return join_coefficients(format_coefficients(b, names))


# ---- files ----

def _uncommented(text: str) -> list[str]:
    """Each line of text with its `#` comment cut."""
    return [line.split("#", 1)[0] for line in text.splitlines()]


def significant_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) for each line not blank once its comment is
    cut; leading blanks stay, so columns are the file's own."""
    return [(lineno, line.rstrip()) for lineno, line in enumerate(_uncommented(text), start=1) if line.strip()]


def parse_polynomial_file(text: str, names: Sequence[str], path: str) -> Polynomial:
    """The one polynomial of a polynomial file read from `path`."""
    text = "\n".join(_uncommented(text)).rstrip()
    if not text:
        raise ParseError(f"no polynomial found in {path!r}", 1, 1)
    return parse_polynomial(text, names)


def split_names(raw: str) -> tuple[str, ...]:
    """Validated names from a comma-separated list such as `x, y, z`."""
    return validate_names([s.strip() for s in raw.split(",")])


def read_vars_header(text: str, kind: str, first: str) -> tuple[list[tuple[int, str]], tuple[str, ...]]:
    """The significant lines after a file's `vars:` header, and its names.

    `kind` names the file and `first` what follows the header, for the
    error messages: ("map file", "the first polynomial").
    """
    lines = significant_lines(text)
    if not lines:
        raise ParseError(f"empty {kind}: expected a 'vars:' header", 1, 1)
    lineno, header = lines[0]
    header = header.lstrip()
    if not header.startswith("vars:"):
        raise ParseError(f"expected a 'vars:' header before {first}", lineno, 1)
    try:
        names = split_names(header[len("vars:"):])
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from exc
    return lines[1:], names


def _format_file(items: Iterable, names: Sequence[str], line: Callable[..., str]) -> str:
    """A map or word file: the `vars:` header, then one line per item."""
    names = _names(names, None)
    return "\n".join([f"vars: {', '.join(names)}", *(line(item, names) for item in items)]) + "\n"


def parse_map_file(text: str) -> tuple[list[Polynomial], tuple[str, ...]]:
    """Read a `vars:` header plus one polynomial per line."""
    lines, names = read_vars_header(text, "map file", "the first polynomial")
    polys = [parse_polynomial(line, names, lineno) for lineno, line in lines]
    return polys, names


def format_map_file(polys: Sequence[Polynomial], names: Sequence[str]) -> str:
    return _format_file(polys, names, format_polynomial)


def parse_word_file(text: str) -> tuple[list[TameStep], tuple[str, ...]]:
    lines, names = read_vars_header(text, "word file", "the first step")
    arity = len(names)
    steps: list[TameStep] = []
    for lineno, line in lines:
        fields = list(re.finditer(r"\S+", line))
        kind = fields[0][0]
        if kind == "elem":
            if len(fields) < 4:
                raise _error("elem lines need an index, a scalar and a shift polynomial", line, lineno, len(line))
            index = _numeral(line, lineno, *fields[1].span())
            if not 1 <= index <= arity:
                raise _error(f"component index {index} out of range 1..{arity}", line, lineno, fields[1].start())
            scalar = _numeral(line, lineno, *fields[2].span(), rational=True)
            if scalar == 0:
                raise _error("elementary steps need a nonzero scalar", line, lineno, fields[2].start())
            shift = parse_polynomial(line, names, lineno, fields[3].start())
            if any(m[index - 1] for m in shift._terms):
                raise _error(f"the shift depends on its own variable {names[index - 1]}", line, lineno, fields[3].start())
            steps.append(ElementaryStep(index - 1, scalar, shift))
        elif kind == "perm":
            images = [_numeral(line, lineno, *field.span()) for field in fields[1:]]
            if sorted(images) != list(range(1, arity + 1)):
                raise _error(f"perm lines need a permutation of 1..{arity}", line, lineno,
                             fields[1].start() if images else len(line))
            steps.append(PermutationStep(tuple(i - 1 for i in images)))
        else:
            raise _error(f"unknown step kind {kind!r} (expected 'elem' or 'perm')", line, lineno, fields[0].start())
    return steps, names


def _format_step(step: TameStep, names: tuple[str, ...]) -> str:
    if step_arity(step) != len(names):
        raise ValueError(f"step arity {step_arity(step)} does not match {len(names)} names")
    if isinstance(step, ElementaryStep):
        return f"elem {step.index + 1} {step.scalar} {format_polynomial(step.shift, names)}"
    return "perm " + " ".join(str(i + 1) for i in step.images)


def format_word_file(steps: Sequence[TameStep], names: Sequence[str]) -> str:
    return _format_file(steps, names, _format_step)
