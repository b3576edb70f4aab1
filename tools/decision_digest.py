"""Digest of `decide`'s answers on every sorted triple up to a degree.

    python3 tools/decision_digest.py --max 40
    python3 tools/decision_digest.py --max 20 --src ../other/src

It runs `decision.scan(N)` (every 1 <= d1 <= d2 <= d3 <= N, in (d3, d2,
d1) order, on scan's own process pool) and hashes each decision's
triple, verdict, reason, representation, unmet hypotheses and witness
word, the word as its word file (`parsing.format_word_file`) or `none`.
Stdout has one line with the sha256 and the number of decisions, then
one line per reason with its count; it is deterministic, so two versions
of the library decide alike exactly when their stdout is the same.  The
wall time goes to stderr.  `--src` chooses the `tamedeg` source tree to
import (default: this repository's `src/`).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--max", type=int, default=40, help="largest d3 (default 40)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tamedeg source tree to import")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from tamedeg import decision
    from tamedeg.parsing import format_word_file

    started = time.perf_counter()
    decisions = decision.scan(args.max)
    digest = hashlib.sha256()
    reasons = Counter()
    for d in decisions:
        word = "none\n" if d.witness is None else format_word_file(d.witness, ("x", "y", "z"))
        digest.update(f"{d.triple} {d.verdict} {d.reason} {d.representation} {list(d.failed_hypotheses)}\n"
                      f"{word}".encode())
        reasons[d.reason] += 1
    print(f"max {args.max} sha256 {digest.hexdigest()} decisions {len(decisions)}")
    for reason in sorted(reasons):
        print(f"{reason} {reasons[reason]}")
    print(f"# {time.perf_counter() - started:.1f} s wall time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
