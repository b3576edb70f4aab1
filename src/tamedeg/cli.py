"""Command-line interface.

Subcommands: decide, scan, bracket, su-check, reduce, semigroup, mdeg,
compose, verify-example.  Exit codes: 0 success, 1 domain error
(precondition failure, failed verification, a result failing its own
internal check), 2 usage or parse error.
Results go to stdout, diagnostics to stderr, and identical invocations
produce byte-identical output.  One function, `_emit`, writes every
result except `scan`'s rows: each subcommand builds its JSON payload and
its text from the same values, and `_emit` prints the payload as one
JSON line under --json (always, for `reduce` and `semigroup`, which have
no text form), otherwise the text.

A call that names a subcommand first is parsed once, by that
subcommand's parser, and its usage errors come from that parser; the
top-level parser reports only the strings it leaves over ("unrecognized
arguments"), as argparse's nested parse does, and parses every other
call itself: none, an option first or an unknown name.

Polynomial arguments longer than 200 characters must come from
polynomial files (pass paths and the --file flag).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import sys

from . import automorphisms, decision, parsing, poisson, reduction, semigroup, verify
from .automorphisms import PolyMap
from .polynomials import Polynomial

INLINE_LIMIT = 200


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _variable_names(raw: str) -> tuple[str, ...]:
    """The names of --vars; a fault in them is a usage error."""
    try:
        return parsing.split_names(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _polynomial_argument(args: argparse.Namespace, raw: str, names) -> Polynomial:
    if args.file:
        return parsing.parse_polynomial_file(_read_text(raw), names, raw)
    if len(raw) > INLINE_LIMIT:
        _parsers()[1][args.command].error(
            f"inline polynomial longer than {INLINE_LIMIT} characters; pass a file and --file")
    return parsing.parse_polynomial(raw, names)


def _finite(value: int | float) -> int | None:
    # Degrees are ints except for the zero polynomial's -infinity.
    return value if isinstance(value, int) else None


# ---- subcommand handlers ----


def _emit(args: argparse.Namespace, payload: dict, text: str | None = None) -> int:
    """Write a subcommand's result to stdout: `payload` as one JSON line
    under --json or when the subcommand has no text form (and so no
    --json flag), otherwise `text` as it is."""
    if text is None or args.json:
        print(json.dumps(payload))
    else:
        print(text, end="")
    return 0


def _text(lines) -> str:
    """The lines, each ended by a newline."""
    return "".join(f"{line}\n" for line in lines)


def _cmd_decide(args: argparse.Namespace) -> int:
    triple = decision.normalize_triple([args.d1, args.d2, args.d3])
    result = decision.decide(triple)
    payload = {
        "triple": list(result.triple),
        "verdict": result.verdict,
        "reason": result.reason,
        "representation": list(result.representation) if result.representation else None,
        "witness_len": len(result.witness) if result.witness is not None else None,
        "failed_hypotheses": list(result.failed_hypotheses),
    }
    lines = [f"triple: {result.triple}", f"verdict: {result.verdict}", f"reason: {result.reason}"]
    if result.representation is not None:
        s, t = result.representation
        lines.append(f"representation: d3 = {s}*d1 + {t}*d2")
    if result.witness is not None:
        lines.append(f"witness: {len(result.witness)} steps")
    text = _text(lines + [f"unmet: {line}" for line in result.failed_hypotheses])
    if args.witness:
        # The word is formatted only on request: it is the costly part.
        witness_text = None
        if result.witness is not None:
            witness_text = parsing.format_word_file(result.witness, ("x", "y", "z"))
        payload["witness"] = witness_text
        text += "witness: none recorded for this verdict\n" if witness_text is None else witness_text
    return _emit(args, payload, text)


def _cmd_scan(args: argparse.Namespace) -> int:
    rows = decision.scan_rows(decision.scan(args.max))
    out = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
    with out as handle:
        if args.format == "json":
            handle.write(json.dumps(rows) + "\n")
        else:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(decision.SCAN_COLUMNS)
            writer.writerows(["" if value is None else value for value in row.values()] for row in rows)
    return 0


def _cmd_bracket(args: argparse.Namespace) -> int:
    f = _polynomial_argument(args, args.f, args.vars)
    g = _polynomial_argument(args, args.g, args.vars)
    bracket = poisson.poisson_bracket(f, g)
    coefficients = parsing.format_coefficients(bracket, args.vars)
    text = parsing.join_coefficients(coefficients)
    payload = {"bracket": text, "coefficients": coefficients, "degree": _finite(bracket.degree())}
    return _emit(args, payload, _text([text, f"degree: {bracket.degree()}"]))


def _cmd_su_check(args: argparse.Namespace) -> int:
    f = _polynomial_argument(args, args.f, args.vars)
    g = _polynomial_argument(args, args.g, args.vars)
    big_g = _polynomial_argument(args, args.G, ("u", "v"))
    report = poisson.su_bound(f, g, big_g)
    payload = {**dataclasses.asdict(report), "lhs_degree": _finite(report.lhs_degree)}
    return _emit(args, payload, _text(f"{key}: {value}" for key, value in payload.items()))


def _cmd_reduce(args: argparse.Namespace) -> int:
    polys, names = parsing.parse_map_file(_read_text(args.mapfile))
    pmap = PolyMap(tuple(polys))
    if args.target is not None:
        if not 1 <= args.target <= pmap.arity:
            raise ValueError(f"target must be in 1..{pmap.arity}, got {args.target}")
        found = reduction.find_elementary_reduction(pmap, args.target - 1, args.cap)
        target = args.target if found is not None else None
    else:
        hit = reduction.find_any_reduction(pmap, args.cap)
        target, found = (hit[0] + 1, hit[1]) if hit is not None else (None, None)
    g = residual = residual_degree = None
    if found is not None:
        g = parsing.format_polynomial(found.g, ("u", "v"))
        residual = parsing.format_polynomial(found.residual, names)
        residual_degree = found.residual_degree
    return _emit(args, {"found": found is not None, "target": target, "g": g, "residual": residual,
                        "residual_degree": residual_degree})


def _cmd_semigroup(args: argparse.Namespace) -> int:
    rep = semigroup.membership(args.l, args.a, args.b)
    try:
        frob = semigroup.frobenius(args.a, args.b)
    except ValueError:
        frob = None
    return _emit(args, {
        "member": rep is not None,
        "s": rep[0] if rep else None,
        "t": rep[1] if rep else None,
        "frobenius": frob,
    })


def _cmd_mdeg(args: argparse.Namespace) -> int:
    polys, _ = parsing.parse_map_file(_read_text(args.mapfile))
    degrees = PolyMap(tuple(polys)).mdeg()
    return _emit(args, {"mdeg": [_finite(d) for d in degrees]}, "(" + ", ".join(str(d) for d in degrees) + ")\n")


def _cmd_compose(args: argparse.Namespace) -> int:
    steps, names = parsing.parse_word_file(_read_text(args.wordfile))
    pmap = automorphisms.compose_word(steps, arity=len(names))
    degrees = pmap.mdeg()
    payload = {
        "vars": list(names),
        "components": [parsing.format_polynomial(c, names) for c in pmap.components],
        "mdeg": [_finite(d) for d in degrees],
    }
    return _emit(args, payload, parsing.format_map_file(pmap.components, names) + f"# mdeg: {degrees}\n")


def _cmd_verify_example(args: argparse.Namespace) -> int:
    report = verify.verify_example()
    lines = [f"PASS {c.name}: {c.computed}" if c.passed
             else f"FAIL {c.name}: expected {c.expected}, computed {c.computed}" for c in report.checks]
    total, failed = len(report.checks), len(report.failures())
    lines.append(f"{total - failed}/{total} checks passed")
    _emit(args, {"passed": report.passed, "checks": [dataclasses.asdict(c) for c in report.checks]}, _text(lines))
    return 0 if report.passed else 1


# ---- parser wiring ----


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by its name."""
    parser = argparse.ArgumentParser(
        prog="tamedeg",
        description="Exact computations around multidegrees of tame automorphisms of 3-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="classify a degree triple")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("d3", type=int)
    p.add_argument("--witness", action="store_true", help="print the witness word when one exists")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("scan", help="decide every sorted triple with d3 <= max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("bracket", help="Poisson bracket of two polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--vars", type=_variable_names, default="x,y,z")
    p.add_argument("--file", action="store_true", help="treat f and g as file paths")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("su-check", help="degree lower bound for G(f, g) on a weakened pair")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("G", help="bivariate polynomial in u (for f) and v (for g)")
    p.add_argument("--vars", type=_variable_names, default="x,y,z")
    p.add_argument("--file", action="store_true", help="treat f, g and G as file paths")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_su_check)

    p = sub.add_parser("reduce", help="search for an elementary reduction of a map")
    p.add_argument("mapfile")
    p.add_argument("--target", type=int, help="1-based component to reduce (default: try 3, 2, 1)")
    p.add_argument("--cap", type=int, help="support degree cap (default: 2 * target degree)")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("semigroup", help="membership of l in the semigroup of (a, b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("mdeg", help="multidegree of a map file")
    p.add_argument("mapfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_mdeg)

    p = sub.add_parser("compose", help="compose a word file into an explicit map")
    p.add_argument("wordfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("verify-example", help="recheck the degree-(10,23,25) construction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_example)

    return parser, sub.choices


# Parsing leaves the parsers unchanged, so one set per process serves
# every call of main.
_parsers = functools.cache(_build_parsers)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` once, with the parser of the subcommand it names.

    The top-level parser's usage and error report any strings that
    subcommand leaves over, as its nested parse would, and it parses
    every other argv itself."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    except parsing.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a result failed its own recheck
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
