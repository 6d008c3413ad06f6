"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_code_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["yd", "threshold"], ["yd_r", "threshold"], ["sbh", "p_cutoff"]
    ]
