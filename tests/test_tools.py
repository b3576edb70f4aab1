"""The tools: code_lines.py on a hand-counted fixture, digest.py against tools/expected/."""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def recorded(name):
    return (ROOT / "tools" / "expected" / name).read_text(encoding="utf-8").splitlines()


# Each code line ends in "# n", numbering the code lines in order; in a
# line inside a string the label is part of the string.  The other
# lines are not code lines.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # 1

# A comment line is not code.


class A:  # 2
    """Class docstring."""

    text = """a string  # 3
over two lines"""  # 4

    def f(self, a,  # 5
          b):  # 6
        """Function
        docstring."""
        return (a +  # 7
                b)  # 8


async def g():  # 9
    "one-line docstring"
    "a second string is an expression"  # 10
    total = 1 + \\
        2  # 11 and 12
    return total  # 13
'''


def test_code_lines_of_fixture(tmp_path):
    package = tmp_path / "tamedeg"
    package.mkdir()
    (package / "fixture.py").write_text(FIXTURE)
    (package / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    done = subprocess.run([sys.executable, "tools/code_lines.py", "--src", str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "     0 tamedeg/empty.py",
        "    13 tamedeg/fixture.py",
        "    13 total",
    ]


@pytest.mark.parametrize("argv, file, count", [
    (["decisions", "--max", "20"], "decision_digest.txt", 20),
    # every target at the default cap on the benchmark's first two map
    # streams, which take each branch of the candidate stream: stream 1
    # map007.txt backs off a level at target indices 0 and 1, and stream
    # 1 map139.txt (index 0) and stream 2 map119.txt (index 2) move past
    # a support whose members are all rejected, then win with a kernel
    # shift
    (["reductions", "--streams", "1-2"], "reduction_digest.txt", 2),
    # with SUBSET_BUDGET 0 every level jumps straight to the whole
    # family, a path the first two streams at the default budget never
    # take; stream 14 takes it 137 times over a nonempty kernel
    (["reductions", "--streams", "14", "--budgets", "0"], "reduction_digest.txt", 1),
], ids=["decisions-max-20", "reductions-streams-1-2", "reductions-stream-14-budget-0"])
def test_digest_lines_are_recorded(argv, file, count):
    # each d3 or stream line of a short tools/digest.py run is a line of
    # the file that CI diffs the full run against
    done = subprocess.run([sys.executable, "tools/digest.py", *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    printed = [line for line in done.stdout.splitlines() if line.startswith("d3 ") or " stream " in line]
    assert len(printed) == count
    lines = set(recorded(file))
    assert [line for line in printed if line not in lines] == []


def counts(words):
    # "... sha256 <hex> found 155 none 325" -> {"found": 155, "none": 325}
    pairs = words[words.index("sha256") + 2:]
    return {key: int(n) for key, n in zip(pairs[::2], pairs[1::2])}


def test_recorded_decision_digest_adds_up():
    # d3 = k has k(k + 1)/2 sorted triples; the d3 lines' counts per
    # reason add up to the total line and to each reason line
    lines = recorded("decision_digest.txt")
    blocks = [line.split() for line in lines if line.startswith("d3 ")]
    assert [int(block[1]) for block in blocks] == list(range(1, 41))
    reasons = Counter()
    for d3, block in enumerate(blocks, 1):
        assert sum(counts(block).values()) == d3 * (d3 + 1) // 2, block[:2]
        reasons.update(counts(block))
    total, *reason_lines = lines[len(blocks):]
    assert total.startswith("max 40 sha256 ") and total.endswith(f" decisions {sum(reasons.values())}")
    assert dict((reason, int(n)) for reason, n in map(str.split, reason_lines)) == reasons


def test_recorded_reduction_digest_adds_up():
    # under each budget, stream lines 1-30 in order, each with 160 maps
    # x 3 targets = 480 answers, then a total line that adds them up
    lines = [line.split() for line in recorded("reduction_digest.txt")]
    assert len(lines) == 3 * 31
    for budget, i in zip(("default", "0", "3"), range(0, 93, 31)):
        *streams, total = lines[i:i + 31]
        assert [words[:4] for words in streams] == [["budget", budget, "stream", str(s)] for s in range(1, 31)]
        assert [sum(counts(words).values()) for words in streams] == [480] * 30, f"budget {budget}"
        assert total[:3] == ["budget", budget, "total"]
        assert counts(total) == {key: sum(counts(words)[key] for words in streams) for key in ("found", "none")}


def test_recorded_bracket_digest_adds_up():
    # the dependent and independent pairs of arities 2-5 add up to the total
    *arities, total = [line.split() for line in recorded("bracket_digest.txt")]
    assert [words[:2] for words in arities] == [["arity", str(n)] for n in range(2, 6)]
    assert total[:3] == ["total", "pairs", str(sum(sum(counts(words).values()) for words in arities))]
