"""The README's `python` blocks run as written, in order and in one namespace,
and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_blocks_run_and_print_their_comments():
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in python_blocks():
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    assert lines[0] == "SimplexStats(pivots=2, degenerate_pivots=1, bland_at=None, refactors=1)"
    kappa, bound = lines[1].split()
    assert kappa.startswith("1.421") and bound.startswith("1.581")
    assert lines[2] == "3.8"
    assert lines[3] == "1.0 1.0 True"
    assert lines[4] == "2.0 [0. 1. 1. 2. 1. 2. 2. 3.]"
    assert lines[5] == "1 12"
