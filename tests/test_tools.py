"""tools/code_lines.py on a fixture module whose code lines are counted by hand."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
