"""Text format for polynomials and coordinate-map files.

Grammar (whitespace insignificant except inside names):

    expr     := [ '+' | '-' ] term { ( '+' | '-' ) term }
    term     := factor { [ '*' ] factor }
    factor   := [ '+' | '-' ] ( rational | variable [ '^' natural ] )
    rational := natural [ '/' natural ]

Multiplication may be implicit: a factor followed directly by a
variable name or an unsigned number is a product, so `3xy^3` means
`3*x*y^3`.  Implicit multiplication never consumes a sign, so `x - 2`
is always a subtraction while `x * -2` negates.  Exponents apply to
variables only, and there are no parentheses.

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

Anything from `#` to the end of a line is a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .polynomials import Monomial, Polynomial, canonical_key

MAX_EXPONENT = 10 ** 6

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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


# ---- lexer ----

_TOKEN_OPS = "+-*/^"


class _Token:
    __slots__ = ("kind", "value", "column")

    def __init__(self, kind: str, value, column: int):
        self.kind = kind  # 'num', 'name', one of +-*/^, or 'end'
        self.value = value
        self.column = column


def _lex(text: str, names: Sequence[str], line: int) -> list[_Token]:
    # Longest declared name wins, so a declared `xy` beats `x` at the
    # same position.
    by_length = sorted(names, key=len, reverse=True)
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            for name in by_length:
                if text.startswith(name, i):
                    tokens.append(_Token("name", name, col))
                    i += len(name)
                    break
            else:
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                raise ParseError(f"unknown variable {text[i:j]!r}", line, col)
            continue
        if ch in _TOKEN_OPS:
            tokens.append(_Token(ch, ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", None, n + 1))
    return tokens


# ---- parser ----

class _Parser:
    def __init__(self, tokens: list[_Token], names: Sequence[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.index = {name: i for i, name in enumerate(names)}
        self.arity = len(names)
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok.column)

    def parse_expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in "+-":
            if self.advance().kind == "-":
                sign = -1
        result = self.parse_term() * sign
        while self.peek().kind in "+-":
            op = self.advance().kind
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.value!r}")
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                result = result * self.parse_factor()
            elif tok.kind in ("name", "num"):
                # implicit multiplication, e.g. 3xy^3
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Polynomial:
        tok = self.advance()
        if tok.kind in "+-":
            # Signed factor, so `3 * -2` and `x - -2` parse; implicit
            # multiplication never consumes a sign, keeping `x - 2`
            # a subtraction.
            inner = self.parse_factor()
            return -inner if tok.kind == "-" else inner
        if tok.kind == "num":
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                denom_tok = self.advance()
                if denom_tok.kind != "num":
                    self.fail("expected a denominator after '/'", denom_tok)
                if denom_tok.value == 0:
                    self.fail("zero denominator", denom_tok)
                value = Fraction(tok.value, denom_tok.value)
            if self.peek().kind == "^":
                self.fail("exponents apply to variables only", self.peek())
            return Polynomial.constant(value, self.arity)
        if tok.kind == "name":
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                exp_tok = self.advance()
                if exp_tok.kind != "num":
                    self.fail("expected a natural number after '^'", exp_tok)
                exponent = exp_tok.value
                if exponent > MAX_EXPONENT:
                    self.fail(f"exponent {exponent} exceeds the supported bound {MAX_EXPONENT}", exp_tok)
            exps = [0] * self.arity
            exps[self.index[tok.value]] = exponent
            return Polynomial(self.arity, {tuple(exps): 1})
        if tok.kind == "end":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected {tok.value!r}", tok)


def parse_polynomial(text: str, names: Sequence[str], line: int = 1) -> Polynomial:
    """Parse one polynomial over the declared variable names.

    `line` seeds error positions when the text comes from a larger file.
    """
    names = validate_names(names)
    parser = _Parser(_lex(text, names, line), names, line)
    return parser.parse_expr()


# ---- printer ----

def _format_monomial(monomial: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, monomial):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Render in canonical order; parse(format(p)) == p."""
    names = validate_names(names if names is not None else default_names(p.arity))
    if len(names) != p.arity:
        raise ValueError(f"{len(names)} names given for arity {p.arity}")
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for monomial, coeff in p.sorted_terms():
        mono = _format_monomial(monomial, names)
        magnitude = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)


# ---- map files ----

def significant_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) for each line, comments and blanks removed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


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
    if not header.startswith("vars:"):
        raise ParseError(f"expected a 'vars:' header before {first}", lineno, 1)
    try:
        names = split_names(header[len("vars:"):])
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from exc
    return lines[1:], names


def parse_map_file(text: str) -> tuple[list[Polynomial], tuple[str, ...]]:
    """Read a `vars:` header plus one polynomial per line."""
    lines, names = read_vars_header(text, "map file", "the first polynomial")
    polys = [parse_polynomial(line, names, lineno) for lineno, line in lines]
    return polys, names


def format_map_file(polys: Sequence[Polynomial], names: Sequence[str]) -> str:
    names = validate_names(names)
    lines = [f"vars: {', '.join(names)}"]
    lines.extend(format_polynomial(p, names) for p in polys)
    return "\n".join(lines) + "\n"
