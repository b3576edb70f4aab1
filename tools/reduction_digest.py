"""Digest of the reduction search's answers on the benchmark's map streams.

    python3 tools/reduction_digest.py --streams 1-30
    python3 tools/reduction_digest.py --streams 1-4 --budgets 0,3 --src ../other/src

For every `MAP_SEED` stream of `bench/workloads.reduce_inputs` (160 map
files each, seed 1), every target index and every `SUBSET_BUDGET` value asked
for, it calls `find_elementary_reduction` on each map at the default cap
and hashes the answers `(g, residual, residual_degree)`, or `None`, in a
fixed order.  Stdout has one line per budget and stream with the sha256
and the counts of found and None answers, and one total line per
budget; it is deterministic, so two versions of the library give the
same answers exactly when their stdout is the same.  The process time
goes to stderr.  `--src` chooses the `tamedeg` source tree to import
(default: this repository's `src/`).  Nothing under `bench/` is written.

`tools/expected/reduction_digest.txt` holds the stdout of
`--streams 1-30 --budgets default,0,3`, and CI diffs each run against
it; a change that alters reduction answers on purpose records it anew.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def int_list(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out.extend(range(int(first), int(last or first) + 1))
    return out


def budget_list(text: str) -> list[int | None]:
    """'default,0,3' -> [None, 0, 3]; None keeps the library's value."""
    return [None if part == "default" else int(part) for part in text.split(",")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--streams", type=int_list, default=int_list("1-30"), help="MAP_SEED values, e.g. 1-30 or 1,4,9")
    parser.add_argument("--targets", type=int_list, default=[0, 1, 2], help="0-based target indices (default 0,1,2)")
    parser.add_argument("--budgets", type=budget_list, default=[None], help="SUBSET_BUDGET values, 'default' for the library's own")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tamedeg source tree to import")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import workloads
    from tamedeg import PolyMap, find_elementary_reduction, parse_map_file, reduction
    from tamedeg.parsing import format_polynomial

    default_budget = reduction.SUBSET_BUDGET
    started = time.process_time()
    for budget in args.budgets:
        reduction.SUBSET_BUDGET = default_budget if budget is None else budget
        label = "default" if budget is None else budget
        found = none = 0
        total = hashlib.sha256()
        for stream in args.streams:
            workloads.MAP_SEED = stream
            files = workloads.reduce_inputs(1).files
            digest = hashlib.sha256()
            stream_found = stream_none = 0
            for name in sorted(files):
                polys, names = parse_map_file(files[name])
                pmap = PolyMap(tuple(polys))
                for target in args.targets:
                    result = find_elementary_reduction(pmap, target)
                    if result is None:
                        answer = "None"
                        stream_none += 1
                    else:
                        answer = (f"{format_polynomial(result.g, ('u', 'v'))} | "
                                  f"{format_polynomial(result.residual, names)} | {result.residual_degree}")
                        stream_found += 1
                    digest.update(f"{name} {target} {answer}\n".encode())
            print(f"budget {label} stream {stream} sha256 {digest.hexdigest()} "
                  f"found {stream_found} none {stream_none}", flush=True)
            total.update(digest.digest())
            found += stream_found
            none += stream_none
        print(f"budget {label} total sha256 {total.hexdigest()} found {found} none {none}", flush=True)
    print(f"# {time.process_time() - started:.1f} s process time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
