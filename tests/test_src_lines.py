"""``tools/src_lines.py`` splits a module's lines into code, docstring, comment and blank."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
PACKAGE = TOOL.parents[1] / "src" / "frustumkit"

# hand count: docstring lines 1-4, 11, 14-15; comment lines 8, 25; blank lines
# 5, 7, 9, 12, 21, 22; the other 12 are code, the string of lines 16-19 too
FIXTURE = '''\
"""Module docstring.

Second paragraph.
"""

import os  # a trailing comment leaves a code line

# a comment line

class A:
    """One-line class docstring."""

    def f(self):
        """Method
        docstring."""
        text = """not a docstring

# not a comment
"""
        return text


def g():
    x = os.sep
    # an indented comment
    """A string after the first statement is code."""
    return x
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_has_the_hand_counted_split(src_lines):
    assert src_lines.split_lines(FIXTURE) == src_lines.LineSplit(code=12, docstring=7, comment=2, blank=6)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_modules_split_sums_to_its_wc_l(src_lines, path):
    assert src_lines.split_lines(path.read_text(encoding="utf-8")).total == path.read_bytes().count(b"\n")


def test_main_prints_a_row_per_module_and_the_total(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# one comment\n\nx = 1\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docstring", "comment", "blank", "total"],
        ["a.py", "12", "7", "2", "6", "27"],
        ["b.py", "1", "0", "1", "1", "3"],
        ["total", "13", "7", "3", "7", "30"],
    ]
