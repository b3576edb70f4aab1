"""Digests of the library's answers, to check that two versions answer alike.

    python3 tools/digest.py decisions --max 40
    python3 tools/digest.py cli
    python3 tools/digest.py reductions --streams 1-30
    python3 tools/digest.py reductions --streams 1-4 --targets 2 --src ../other/src
    python3 tools/digest.py fractional
    python3 tools/digest.py brackets

`decisions` runs `decision.scan(N)` (`--max N`, default 40: every
1 <= d1 <= d2 <= d3 <= N, in (d3, d2, d1) order, on scan's own process
pool) and hashes each decision's triple, verdict, reason,
representation, unmet hypotheses and witness word, the word as its
word file (`parsing.format_word_file`) or `none`.  Stdout has one line
per d3 with the sha256 of its block and the block's count per reason,
then one line with the sha256 and the number of all decisions, then
one line per reason with its count.

`cli` calls `tamedeg.cli.main(argv)` in-process on every argv of a
fixed corpus and hashes each call's argv, exit code, stdout and stderr,
in a fixed order.  The corpus:

- `decide` on every sorted triple with d3 <= 12, with and without
  `--witness`, in text and `--json`, and with `--witness --json` on
  those with d3 <= 20 and on 680 with d3 from 25 to 10**12;
- `scan --max 10` in CSV and JSON;
- `bracket` and `su-check` inline and with `--file` on the components of
  the paper's (10, 23, 25) map, whose text comes from the benchmark's
  `example` workload (`bench/workloads.example_inputs`), and with
  `--file --json` on 50 seeded pairs of files (`path_pair_files`);
- `reduce` on the 160 map files of the benchmark's `reduce` stream
  (`bench/workloads.reduce_inputs`, seed 1), and on the paper's map;
- `semigroup`, `mdeg`, `compose` and both forms of `verify-example`;
- one parse, one usage and one domain error for each file format
  (polynomial, map and word files).

The files are written to a temporary directory, which is the working
directory during the calls, so that the messages name only relative
paths, and argparse wraps its usage text at 80 columns.  Stdout has one
line per subcommand with its number of calls and the sha256 of its
calls, then one total line.

`reductions` calls `find_elementary_reduction` at the default cap on
each map of every `MAP_SEED` stream of `bench/workloads.reduce_inputs`
(`--streams`, 160 map files each, seed 1), for every target index
(`--targets`), and hashes the answers `(g, residual, residual_degree)`,
or `None`, in a fixed order.  Stdout has one line per stream with the
sha256 and the counts of found and None answers, then one total line.

`fractional` calls `find_elementary_reduction` at the default cap on
every target of 300 maps (g(F_j, F_k) + c, F_j, F_k) with fractional
coefficients drawn from one seed (`fractional_map`), where the target
g(F_j, F_k) + c first solves to the residual c and the kernel-direction
fallback picks the member returned.  It hashes the answers as
`reductions` does and prints one line with the sha256 and the counts of
found and None answers.

`brackets` computes `poisson_bracket` and `algebraically_dependent` on
a fixed corpus of 400 pairs drawn from one seed (`bracket_pairs`) and
hashes each bracket's text (`format_bracket`) with the dependence
answer.  Stdout has one line per arity with the sha256 and the counts of
dependent and independent pairs, then one total line.

Stdout is deterministic, so two versions of the library give the same
answers exactly when a subcommand's stdout is the same for both.  The
wall time goes to stderr; it is wall time because `decisions` runs on
worker processes.  `--src` chooses the `tamedeg` source tree to import
(default: this repository's `src/`).  Nothing under `bench/` is written.

`tools/expected/` holds the stdout of `decisions --max 40`
(`decision_digest.txt`), `reductions --streams 1-30`
(`reduction_digest.txt`), `brackets` (`bracket_digest.txt`),
`fractional` (`fractional_digest.txt`) and `cli` (`cli_digest.txt`,
the same on CPython 3.10 to 3.13).  CI diffs the full `decisions`,
`reductions`, `fractional` and `brackets` runs against their files.
The test suite diffs `cli` (`test_cli_digest`) and `fractional`
(`test_fallback_members_on_seeded_fractional_maps`) against their files
in full, finds the d3 and stream lines of shorter runs in the decision
and reduction files (`test_digest_lines_are_recorded`) and checks that
the counts of each of the other three files add up
(`test_recorded_*_digest_adds_up`).  `tests/test_cli.py::TestDigest`
reruns the large `decide`, `bracket` and `su-check` call sets
(`LARGE_D3`, `path_pair_files`) and checks each answer against the
library, with no hash of its own.  A change that alters those answers
on purpose records them anew.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

G_FILE = "G.txt"
# The paper's witness word for (10, 23, 25), a two-variable word with a
# scalar, and one bad file of each format.
WORD_FILES = {
    "example.word": "vars: x, y, z\nperm 1 3 2\nelem 2 1 z^5 + 3*x*z^3 + 3*x^2*z\nelem 1 1 -y^2 + z^2\n"
                    "elem 3 1 -6/5*y^5 - 4*x*y^3 - 6*x^2*y\nelem 2 1 256/25*x^5 + z^2\n",
    "plane.word": "vars: u, v\nelem 1 1 v^2\nelem 2 -3/2 u^3 + 1\nperm 2 1\n",
}
BAD_FILES = {
    "bad.poly": "x + * y\n",
    "bad.map": "vars: x, y, z\nx\ny +\nz\n",
    "const.map": "vars: x, y, z\nx\n3\nz\n",
    "bad.word": "vars: x, y, z\nelem 2 1 x^\n",
}


def decisions(args) -> None:
    """Hash scan(N)'s decisions per d3 and in all, and count them per reason."""
    from tamedeg import decision
    from tamedeg.parsing import format_word_file

    found = decision.scan(args.max)
    digest, reasons = hashlib.sha256(), Counter()
    for d3, block in itertools.groupby(found, key=lambda d: d.triple[2]):
        block_digest, block_reasons = hashlib.sha256(), Counter()
        for d in block:
            word = "none\n" if d.witness is None else format_word_file(d.witness, ("x", "y", "z"))
            record = (f"{d.triple} {d.verdict} {d.reason} {d.representation} {list(d.failed_hypotheses)}\n"
                      f"{word}").encode()
            block_digest.update(record)
            digest.update(record)
            block_reasons[d.reason] += 1
        print(f"d3 {d3} sha256 {block_digest.hexdigest()}", *(f"{r} {block_reasons[r]}" for r in sorted(block_reasons)))
        reasons += block_reasons
    print(f"max {args.max} sha256 {digest.hexdigest()} decisions {len(found)}")
    for reason in sorted(reasons):
        print(f"{reason} {reasons[reason]}")


# Large d3, where the certificate raises one-term shifts to high powers.
LARGE_D3 = [(d1, d2, d3) for d1 in range(3, 13) for d2 in range(d1 + 1, 31) for d3 in (100, 331, 600)]
LARGE_D3 += [(3, 5, 2000), (3, 5, 10**12), (7, 11, 10**9), (1, 4, 10**6), (10, 23, 25)]
PATH_PAIRS = 50


def path_pair_files() -> dict[str, str]:
    """The files of the seeded `bracket` and `su-check` pairs: f{k} and
    g{k} in x, y, z, G{k} in u, v; g{k} is c*f{k}^2 + f{k} if k % 5 == 3,
    the constant (k % 3)/7 if k % 5 == 4, else drawn like f{k}."""
    from fractions import Fraction
    from tamedeg import Polynomial
    from tamedeg.parsing import format_polynomial

    rng = random.Random(BRACKET_SEED)

    def polynomial(arity, terms):
        return Polynomial(arity, {tuple(rng.randint(0, 3) for _ in range(arity)):
                                  Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 30))
                                  for _ in range(terms)})

    polys = {}
    for k in range(PATH_PAIRS):
        f = polynomial(3, rng.randint(1, 4))
        g = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) * f * f + f if k % 5 == 3
             else Polynomial.constant(Fraction(k % 3, 7), 3) if k % 5 == 4 else polynomial(3, rng.randint(1, 4)))
        polys |= {f"f{k}": f, f"g{k}": g, f"G{k}": polynomial(2, rng.randint(1, 3))}
    return {name: format_polynomial(p, tuple("uv" if name[0] == "G" else "xyz")) + "\n" for name, p in polys.items()}


def corpus(example_files, reduce_files) -> list[list[str]]:
    from tamedeg.decision import sorted_triples

    calls = []
    for d1, d2, d3 in sorted_triples(20):
        forms = ([], ["--witness"], ["--json"]) if d3 <= 12 else ()
        for extra in (*forms, ["--witness", "--json"]):
            calls.append(["decide", str(d1), str(d2), str(d3), *extra])
    calls += [["decide", *map(str, triple), "--witness", "--json"] for triple in LARGE_D3]
    calls += [["decide", "25", "10", "23"], ["decide", "0", "5", "7"], ["decide", "3", "5"]]
    calls += [["scan", "--max", "10"], ["scan", "--max", "10", "--format", "json"]]

    f1 = example_files["f1.txt"].strip()
    for extra in ([], ["--json"]):
        for a, b in (("f1.txt", "f2.txt"), ("f1.txt", "f3.txt"), ("f2.txt", "f3.txt")):
            calls.append(["bracket", a, b, "--file", *extra])
        calls += [["bracket", "x+y^2", "z", "--vars", "x,y,z", *extra], ["bracket", f1, "y", *extra],
                  ["bracket", "u*v", "v^2", "--vars", "u,v", *extra]]
        for a, b in (("f2.txt", "f3.txt"), ("f3.txt", "f2.txt"), ("f1.txt", "f3.txt")):
            calls.append(["su-check", a, b, G_FILE, "--file", *extra])
        calls += [["su-check", "x^2", "y^3", "v", *extra], ["su-check", f1, "y^3", "u*v + 1", *extra]]
    # polynomial files: parse, usage (an inline argument past the limit,
    # and a missing argument) and domain (a missing file) errors
    calls += [["bracket", "bad.poly", "f1.txt", "--file"], ["bracket", example_files["f2.txt"].strip(), "y"],
              ["bracket", "f1.txt", "--file"], ["bracket", "missing.txt", "f1.txt", "--file"]]
    for k in range(PATH_PAIRS):
        calls += [["bracket", f"f{k}", f"g{k}", "--file", "--json"],
                  ["su-check", f"f{k}", f"g{k}", f"G{k}", "--file", "--json"]]

    calls += [["reduce", name] for name in sorted(reduce_files)]
    calls += [["reduce", "map.txt"], ["reduce", "map.txt", "--target", "2", "--cap", "50"],
              ["reduce", "map.txt", "--target", "1"]]
    calls += [["semigroup", *map(str, args)] for args in ((3, 5, 7), (3, 5, 11), (4, 6, 9), (4, 6, 10),
                                                            (7, 11, 10**12))]
    calls += [["mdeg", "map.txt"], ["mdeg", "map.txt", "--json"], ["mdeg", "const.map", "--json"]]
    # map files: parse, usage and domain errors
    calls += [["mdeg", "bad.map"], ["reduce", "map.txt", "--target"], ["reduce", "const.map"],
              ["reduce", "map.txt", "--target", "4"]]
    for name in WORD_FILES:
        calls += [["compose", name], ["compose", name, "--json"]]
    # word files: parse, usage and domain errors
    calls += [["compose", "bad.word"], ["compose"], ["compose", "missing.word"]]
    calls += [["verify-example"], ["verify-example", "--json"]]
    return calls


def cli(args) -> None:
    """Hash the command line's answers on a fixed corpus of calls."""
    import workloads
    from tamedeg import cli as command_line

    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to this width
    example_files = workloads.example_inputs(1).files
    reduce_files = workloads.reduce_inputs(1).files
    digests, counts, total = {}, Counter(), hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        files = {**example_files, **reduce_files, G_FILE: "v^2 - u\n", **WORD_FILES, **BAD_FILES, **path_pair_files()}
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            for call in corpus(example_files, reduce_files):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = command_line.main(call)
                record = (json.dumps([call, code, out.getvalue(), err.getvalue()]) + "\n").encode()
                digests.setdefault(call[0], hashlib.sha256()).update(record)
                counts[call[0]] += 1
                total.update(record)
        finally:
            os.chdir(cwd)
    for command, digest in digests.items():
        print(f"{command} calls {counts[command]} sha256 {digest.hexdigest()}")
    print(f"total calls {sum(counts.values())} sha256 {total.hexdigest()}")


def reductions(args) -> None:
    """Hash the reduction search's answers on the benchmark's map streams."""
    import workloads
    from tamedeg import PolyMap, find_elementary_reduction, parse_map_file
    from tamedeg.parsing import format_polynomial

    total, totals = hashlib.sha256(), Counter()
    for stream in args.streams:
        workloads.MAP_SEED = stream
        files = workloads.reduce_inputs(1).files
        digest, counts = hashlib.sha256(), Counter()
        for name in sorted(files):
            polys, names = parse_map_file(files[name])
            pmap = PolyMap(tuple(polys))
            for target in args.targets:
                result = find_elementary_reduction(pmap, target)
                counts["none" if result is None else "found"] += 1
                answer = "None" if result is None else " | ".join(
                    (format_polynomial(result.g, ("u", "v")), format_polynomial(result.residual, names),
                     str(result.residual_degree)))
                digest.update(f"{name} {target} {answer}\n".encode())
        print(f"stream {stream} sha256 {digest.hexdigest()} found {counts['found']} none {counts['none']}", flush=True)
        total.update(digest.digest())
        totals += counts
    print(f"total sha256 {total.hexdigest()} found {totals['found']} none {totals['none']}", flush=True)


FRACTIONAL_SEED = 25
FRACTIONAL_MAPS = 300
F_MONOMIALS = list(itertools.product(range(3), repeat=3))
G_MONOMIALS = list(itertools.product(range(3), repeat=2))[1:]  # not (0, 0)


def fractional_map(rng: random.Random):
    """(g(F_j, F_k) + c, F_j, F_k) in shuffled order, pairwise distinct
    and nonconstant.  F_j and F_k have 1-3 terms with exponents <= 2, g
    has 1-3 terms, and each coefficient and c is a fraction whose
    denominator shares factors with others ({2, 3, 4, 6, 9}) or is
    coprime to them ({5, 7})."""
    from fractions import Fraction
    from tamedeg import PolyMap, Polynomial

    def fraction():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((2, 3, 4, 5, 6, 7, 9)))

    def terms(monomials):
        return {e: fraction() for e in rng.sample(monomials, rng.randint(1, 3))}

    while True:
        fj, fk = Polynomial(3, terms(F_MONOMIALS)), Polynomial(3, terms(F_MONOMIALS))
        g = Polynomial(2, terms(G_MONOMIALS))
        components = [g.compose([fj, fk]) + fraction(), fj, fk]
        rng.shuffle(components)
        if all(c.degree() > 0 for c in components) and len(set(components)) == 3:
            return PolyMap(tuple(components))


def fractional(args) -> None:
    """Hash the reduction search's answers on seeded maps with fractional coefficients."""
    from tamedeg import find_elementary_reduction
    from tamedeg.parsing import format_polynomial

    rng = random.Random(FRACTIONAL_SEED)
    digest, counts = hashlib.sha256(), Counter()
    for index in range(FRACTIONAL_MAPS):
        pmap = fractional_map(rng)
        for target in range(3):
            result = find_elementary_reduction(pmap, target)
            counts["none" if result is None else "found"] += 1
            answer = "None" if result is None else " | ".join(
                (format_polynomial(result.g, ("u", "v")), format_polynomial(result.residual, ("x", "y", "z")),
                 str(result.residual_degree)))
            digest.update(f"{index} {target} {answer}\n".encode())
    print(f"seed {FRACTIONAL_SEED} maps {FRACTIONAL_MAPS} sha256 {digest.hexdigest()} "
          f"found {counts['found']} none {counts['none']}")


BRACKET_SEED = 2012
BRACKET_PAIRS = 400


def random_terms(rng, n: int, count: int, top: int) -> dict:
    """Up to `count` terms in n variables, as {exponents: (numerator,
    denominator)}: exponents at most `top` or, one in fifty, 10^6;
    numerators up to 10^40 and denominators up to 10^12 in size."""
    terms = {}
    for _ in range(count):
        monomial = tuple(10**6 if rng.random() < 0.02 else rng.randint(0, top) for _ in range(n))
        numerator = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.choice((1, 3, 12, 40)))
        terms[monomial] = (numerator, rng.randint(1, 10 ** rng.choice((0, 0, 2, 12))))
    return terms


def bracket_pairs():
    """The fixed corpus of `brackets`: (arity, f, g) with arity 2-5 and
    1-80 terms per operand.  In each run of four pairs, the first is drawn
    term by term with exponents up to 6, the second is p^2 and p^3 - 2p
    for a drawn p (dependent), the third is two monomials whose exponents
    are proportional (dependent) half of the time, and the fourth is
    drawn with exponents up to 20."""
    from fractions import Fraction
    from tamedeg import Polynomial

    def poly(n, terms):
        return Polynomial(n, {m: Fraction(*c) for m, c in terms.items()})

    rng = random.Random(BRACKET_SEED)
    for index in range(BRACKET_PAIRS):
        n = rng.randint(2, 5)
        kind = index % 4
        if kind == 0:
            yield n, poly(n, random_terms(rng, n, rng.randint(1, 80), 6)), \
                poly(n, random_terms(rng, n, rng.randint(1, 80), 6))
        elif kind == 1:
            p = poly(n, random_terms(rng, n, rng.randint(1, 4), 3))
            yield n, p**2, p**3 - 2 * p
        elif kind == 2:
            a = [rng.randint(0, 5) for _ in range(n)]
            k, l = rng.randint(1, 4), rng.randint(1, 4)
            b = [k * e for e in a] if rng.random() < 0.5 else [rng.randint(0, 5) for _ in range(n)]
            yield n, poly(n, {tuple(l * e for e in a): (rng.randint(-10**40, 10**40) or 1, 7)}), \
                poly(n, {tuple(b): (rng.randint(1, 10**12), rng.randint(1, 10**12))})
        else:
            yield n, poly(n, random_terms(rng, n, rng.randint(1, 80), 20)), \
                poly(n, random_terms(rng, n, rng.randint(1, 40), 20))


def brackets(args) -> None:
    """Hash the Poisson brackets and dependence answers on a fixed corpus."""
    from tamedeg import algebraically_dependent, format_bracket, poisson_bracket
    from tamedeg.parsing import default_names

    digests, counts, total = {}, Counter(), hashlib.sha256()
    for n, f, g in bracket_pairs():
        dependent = algebraically_dependent(f, g)
        record = f"{format_bracket(poisson_bracket(f, g), default_names(n))} {dependent}\n".encode()
        digests.setdefault(n, hashlib.sha256()).update(record)
        counts[n, dependent] += 1
        total.update(record)
    for n in sorted(digests):
        print(f"arity {n} sha256 {digests[n].hexdigest()} dependent {counts[n, True]} independent {counts[n, False]}")
    print(f"total pairs {BRACKET_PAIRS} sha256 {total.hexdigest()}")


def int_list(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out.extend(range(int(first), int(last or first) + 1))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--src", type=Path, default=ROOT / "src", help="tamedeg source tree to import")
    commands = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for run in (decisions, cli, reductions, fractional, brackets):
        sub[run.__name__] = commands.add_parser(run.__name__, parents=[src], help=run.__doc__)
        sub[run.__name__].set_defaults(run=run)
    sub["decisions"].add_argument("--max", type=int, default=40, help="largest d3 (default 40)")
    sub["reductions"].add_argument("--streams", type=int_list, default=int_list("1-30"),
                                   help="MAP_SEED values, e.g. 1-30 or 1,4,9")
    sub["reductions"].add_argument("--targets", type=int_list, default=[0, 1, 2],
                                   help="0-based target indices (default 0,1,2)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    started = time.perf_counter()
    args.run(args)
    print(f"# {time.perf_counter() - started:.1f} s wall time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
