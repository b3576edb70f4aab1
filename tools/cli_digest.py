"""Digest of the command line's answers on a fixed corpus of calls.

    python3 tools/cli_digest.py
    python3 tools/cli_digest.py --src ../other/src

It calls `tamedeg.cli.main(argv)` in-process on every argv of the corpus
and hashes each call's argv, exit code, stdout and stderr, in a fixed
order.  The corpus:

- `decide` on every sorted triple with d3 <= 12, with and without
  `--witness`, in text and `--json`;
- `scan --max 10` in CSV and JSON;
- `bracket` and `su-check` inline and with `--file` on the components of
  the paper's (10, 23, 25) map, whose text comes from the benchmark's
  `example` workload (`bench/workloads.example_inputs`);
- `reduce` on the 160 map files of the benchmark's `reduce` stream
  (`bench/workloads.reduce_inputs`, seed 1), and on the paper's map;
- `semigroup`, `mdeg`, `compose` and both forms of `verify-example`;
- one parse, one usage and one domain error for each file format
  (polynomial, map and word files).

The files are written to a temporary directory, which is the working
directory during the calls, so that the messages name only relative
paths, and argparse wraps its usage text at 80 columns.  Stdout has one line per subcommand with its number of calls and
the sha256 of its calls, then one total line; it is deterministic, so
two versions of the library answer alike on the corpus exactly when
their stdout is the same.  The wall time goes to stderr.  `--src`
chooses the `tamedeg` source tree to import (default: this repository's
`src/`).  Nothing under `bench/` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
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


def corpus(example_files, reduce_files) -> list[list[str]]:
    calls = []
    for d3 in range(1, 13):
        for d2 in range(1, d3 + 1):
            for d1 in range(1, d2 + 1):
                for extra in ([], ["--witness"], ["--json"], ["--witness", "--json"]):
                    calls.append(["decide", str(d1), str(d2), str(d3), *extra])
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


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tamedeg source tree to import")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to this width
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import workloads
    from tamedeg import cli

    example_files = workloads.example_inputs(1).files
    reduce_files = workloads.reduce_inputs(1).files
    started = time.perf_counter()
    digests = {}
    counts = {}
    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in {**example_files, **reduce_files, G_FILE: "v^2 - u\n", **WORD_FILES, **BAD_FILES}.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            for call in corpus(example_files, reduce_files):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(call)
                record = (json.dumps([call, code, out.getvalue(), err.getvalue()]) + "\n").encode()
                digests.setdefault(call[0], hashlib.sha256()).update(record)
                counts[call[0]] = counts.get(call[0], 0) + 1
                total.update(record)
        finally:
            os.chdir(cwd)
    for command, digest in digests.items():
        print(f"{command} calls {counts[command]} sha256 {digest.hexdigest()}")
    print(f"total calls {sum(counts.values())} sha256 {total.hexdigest()}")
    print(f"# {time.perf_counter() - started:.1f} s wall time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
