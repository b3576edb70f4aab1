"""Independent sparse polynomial arithmetic for input generation and oracles.

A polynomial is a dict from exponent tuples to nonzero Fractions.  This
module shares no code with `tamedeg`, so inputs built here do not change
when the library changes, and results checked here are checked by a
second implementation.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict


def const(value, arity: int) -> Poly:
    value = Fraction(value)
    return {(0,) * arity: value} if value else {}


def var(index: int, arity: int) -> Poly:
    exps = [0] * arity
    exps[index] = 1
    return {tuple(exps): Fraction(1)}


def add(a: Poly, b: Poly, k=1) -> Poly:
    """a + k*b."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + k * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, b, -1)


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: c * v for m, v in a.items()} if c else {}


def power(a: Poly, e: int, arity: int) -> Poly:
    out = const(1, arity)
    base = a
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def compose(p: Poly, args: list[Poly], arity: int) -> Poly:
    """p(args[0], args[1], ...), each argument in `arity` variables."""
    cache: list[dict[int, Poly]] = [{0: const(1, arity)} for _ in args]

    def pw(i: int, e: int) -> Poly:
        if e not in cache[i]:
            cache[i][e] = power(args[i], e, arity)
        return cache[i][e]

    out: Poly = {}
    for m, c in p.items():
        term = const(c, arity)
        for i, e in enumerate(m):
            if e:
                term = mul(term, pw(i, e))
        out = add(out, term)
    return out


def degree(p: Poly) -> int | None:
    """Total degree; None for the zero polynomial."""
    return max((sum(m) for m in p), default=None)


def derivative(p: Poly, index: int) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        e = m[index]
        if e:
            lowered = m[:index] + (e - 1,) + m[index + 1:]
            out[lowered] = out.get(lowered, 0) + c * e
    return {m: c for m, c in out.items() if c}


def evaluate(p: Poly, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for v, e in zip(point, m):
            if e:
                term *= v ** e
        total += term
    return total


# ---- text ----

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def parse(text: str, names) -> Poly:
    """Read a sum of signed products of rationals and powers of names."""
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    tokens = []
    for number, name, other in _TOKEN.findall(text):
        tokens.append(("n", number) if number else ("v", name) if name else ("o", other))
    out: Poly = {}
    pos = 0
    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos] in (("o", "+"), ("o", "-")):
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        coeff = Fraction(sign)
        exps = [0] * arity
        first = True
        while pos < len(tokens) and (first or tokens[pos] not in (("o", "+"), ("o", "-"))):
            first = False
            kind, value = tokens[pos]
            if (kind, value) == ("o", "*"):
                pos += 1
                continue
            if kind == "n":
                coeff *= Fraction(value)
                pos += 1
            elif kind == "v" and value in index:
                e = 1
                if pos + 2 < len(tokens) and tokens[pos + 1] == ("o", "^"):
                    e = int(tokens[pos + 2][1])
                    pos += 2
                exps[index[value]] += e
                pos += 1
            else:
                raise ValueError(f"unexpected token {value!r} in {text[:60]!r}")
        out = add(out, {tuple(exps): coeff})
    return out


def format_poly(p: Poly, names) -> str:
    """Terms by descending degree; parseable by both this module and tamedeg."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        magnitude = abs(c)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if pieces:
            pieces.append((" - " if c < 0 else " + ") + body)
        else:
            pieces.append(("-" if c < 0 else "") + body)
    return "".join(pieces)


def format_map(polys, names) -> str:
    return "vars: " + ", ".join(names) + "\n" + "".join(format_poly(p, names) + "\n" for p in polys)


def compose_word_text(text: str) -> list[Poly]:
    """The components of a word file (`vars:`, `elem i a shift`, `perm ...`)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("word text needs a 'vars:' header")
    names = [s.strip() for s in lines[0][len("vars:"):].split(",")]
    arity = len(names)
    comps = [var(i, arity) for i in range(arity)]
    for line in lines[1:]:
        fields = line.split(maxsplit=3)
        if fields[0] == "elem":
            i = int(fields[1]) - 1
            shift = compose(parse(fields[3], names), comps, arity)
            comps[i] = add(scale(comps[i], Fraction(fields[2])), shift)
        elif fields[0] == "perm":
            comps = [comps[int(v) - 1] for v in line.split()[1:]]
        else:
            raise ValueError(f"unknown step {fields[0]!r}")
    return comps
