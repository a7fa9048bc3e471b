"""The README's library example runs as written, and every command of its CLI block parses.

Both are uses the library and the command must keep.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from frustumkit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands() -> list[str]:
    """The `frustumkit ...` lines of the Command-line usage block, `\\` continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## Command-line usage\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "no sh block in the Command-line usage section"
    text = re.sub(r"\\\n\s*", " ", block.group(1))
    return [line.strip() for line in text.splitlines() if line.strip().startswith("frustumkit ")]


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "no python block opens the Library example section"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), f"{README}:Library example", "exec"), {})
    ioi_xy, ioi_z, ioi_3d = map(float, out.getvalue().split())
    assert ioi_3d == ioi_xy * ioi_z


def test_cli_block_commands_parse():
    commands = _cli_commands()
    assert len(commands) == 12
    for command in commands:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {command}\n{err.getvalue()}") from None
