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

The printer emits the canonical form: terms in descending total degree
with ties in ascending lexicographic order of the exponent tuple,
explicit `*` between all factors, `^1` and unit coefficients omitted,
and ` + ` / ` - ` joining terms.  The zero polynomial prints as `0`.

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

import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .automorphisms import ElementaryStep, PermutationStep, TameStep, step_arity
from .poisson import BracketValue
from .polynomials import Monomial, Polynomial, Scalar

MAX_EXPONENT = 10 ** 6

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_IDENTIFIER + r"\Z")


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


def _tokens(text: str, names: Sequence[str], line: int, offset: int) -> list[tuple[str, object, int]]:
    """(kind, value, offset) for each token of text[offset:], then an end token.

    The kinds are 'num' (an int), 'name', one of +-*/^, and 'end'.  The
    whole text is scanned before parsing, so a stray character or an
    unknown name is reported ahead of any syntax error.
    """
    # Longest declared name wins, so a declared `xy` beats `x` at the
    # same position.
    declared = "|".join(re.escape(name) for name in sorted(names, key=len, reverse=True))
    scanner = re.compile(rf"\s*(?:([0-9]+)|({declared})|([-+*/^])|({_IDENTIFIER})|(\S))")
    tokens: list[tuple[str, object, int]] = []
    for match in scanner.finditer(text, offset):
        group = match.lastindex
        lexeme = match[group]
        start = match.start(group)
        if group == 1:
            tokens.append(("num", _natural(lexeme, text, line, start), start))
        elif group == 2:
            tokens.append(("name", lexeme, start))
        elif group == 3:
            tokens.append((lexeme, lexeme, start))
        elif group == 4:
            raise _error(f"unknown variable {lexeme!r}", text, line, start)
        else:
            raise _error(f"unexpected character {lexeme!r}", text, line, start)
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str, names: Sequence[str], line: int = 1, offset: int = 0) -> Polynomial:
    """Parse text[offset:] as one polynomial over the declared variable names.

    Errors name their line and column in `text`, whose first line is
    line `line`.  Each term is one monomial, so the parser keeps a
    coefficient and an exponent list per term and builds a single
    Polynomial at the end, whose constructor merges repeated monomials:
    linear in the text.
    """
    names = validate_names(names)
    index = {name: i for i, name in enumerate(names)}
    tokens = _tokens(text, names, line, offset)
    terms: list[tuple[Monomial, Scalar]] = []
    pos = 0
    while True:
        # One term: factors joined by '*' or juxtaposition.  Its leading
        # signs, the expression's `+`/`-` among them, are signed factors.
        coeff: Scalar = 1
        exps = [0] * len(names)
        while True:
            kind, value, start = tokens[pos]
            pos += 1
            if kind == "+" or kind == "-":
                if kind == "-":
                    coeff = -coeff
                continue
            if kind == "num":
                if tokens[pos][0] == "/":
                    kind, denominator, start = tokens[pos + 1]
                    if kind != "num":
                        raise _error("expected a denominator after '/'", text, line, start)
                    if denominator == 0:
                        raise _error("zero denominator", text, line, start)
                    value = Fraction(value, denominator)
                    pos += 2
                if tokens[pos][0] == "^":
                    raise _error("exponents apply to variables only", text, line, tokens[pos][2])
                coeff *= value
            elif kind == "name":
                exponent = 1
                if tokens[pos][0] == "^":
                    kind, exponent, start = tokens[pos + 1]
                    if kind != "num":
                        raise _error("expected a natural number after '^'", text, line, start)
                    pos += 2
                # Factors of one variable add up, so the bound holds the
                # running exponent, not each factor's.
                i = index[value]
                exps[i] += exponent
                if exps[i] > MAX_EXPONENT:
                    what = f"exponent {exponent}" if exponent > MAX_EXPONENT else f"exponent sum {exps[i]} of {value}"
                    raise _error(f"{what} exceeds the supported bound {MAX_EXPONENT}", text, line, start)
            elif kind == "end":
                raise _error("unexpected end of input", text, line, start)
            else:
                raise _error(f"unexpected {value!r}", text, line, start)
            # Implicit multiplication never consumes a sign, so `x - 2`
            # ends the term at the '-'.
            kind = tokens[pos][0]
            if kind == "*":
                pos += 1
            elif kind != "name" and kind != "num":
                break
        terms.append((tuple(exps), coeff))
        kind, value, start = tokens[pos]
        if kind == "end":
            return Polynomial(len(names), terms)
        if kind != "+" and kind != "-":
            raise _error(f"unexpected {value!r}", text, line, start)


# ---- printer ----

def _format_monomial(monomial: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, monomial):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _names(names: Sequence[str] | None, arity: int | None) -> tuple[str, ...]:
    """Validated names, the defaults when None; `arity` of them unless it is None."""
    names = validate_names(names if names is not None else default_names(arity))
    if arity is not None and len(names) != arity:
        raise ValueError(f"{len(names)} names given for arity {arity}")
    return names


def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Render in canonical order; parse(format(p)) == p."""
    names = _names(names, p.arity)
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for monomial, coeff in p.sorted_terms():
        mono = _format_monomial(monomial, names)
        # the text of abs(coeff) as str(Fraction) gives it: `n` or `n/d`
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        magnitude = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = magnitude
        elif magnitude == "1":
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


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
            if any(m[index - 1] for m in shift.terms()):
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
