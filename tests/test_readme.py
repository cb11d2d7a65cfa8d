"""README.md's `python` blocks, each run and compared with the `text`
block that follows it."""

import contextlib
import difflib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
# a python block, then the next fenced block, which must be its output
BLOCK = re.compile(r"```python\n(.*?)```\n(?:[^`]*?)```(\w*)\n(.*?)```", re.S)


def _examples():
    text = README.read_text(encoding="utf-8")
    examples = BLOCK.findall(text)
    assert len(examples) == text.count("```python"), "a python block has no output block after it"
    return examples


@pytest.mark.parametrize("index", range(len(_examples())))
def test_readme_python_block_prints_its_output(index):
    code, kind, want = _examples()[index]
    assert kind == "text", f"block {index} is followed by a {kind or 'plain'} block, not its text output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})
    got = out.getvalue()
    assert got == want, "".join(difflib.unified_diff(want.splitlines(True), got.splitlines(True), "README", "printed"))
