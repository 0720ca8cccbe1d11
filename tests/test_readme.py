"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_prints_its_comments():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # each print line documents its output as "# value", optionally followed
    # by two spaces and a remark
    documented = [
        line.split("# ", 1)[1].split("  ")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert documented == ["2d 760000", "(12, 3, 1)", "760000", "76", "True", "True"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == documented
