"""The README's library example runs as written: it is one of the uses the library must keep."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "no python block opens the Library example section"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), f"{README}:Library example", "exec"), {})
    ioi_xy, ioi_z, ioi_3d = map(float, out.getvalue().split())
    assert ioi_3d == ioi_xy * ioi_z
