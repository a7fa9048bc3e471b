"""The test tools have one set of versions: the CI job and the ``test`` extra pin the same ones.

Hypothesis draws other examples from one release to the next, so a fuzz test
that passes under one pin can fail under another. numpy is pinned with them:
the determinism checks compare output bytes with digests recorded on one numpy
release, and ``pip install .[test]`` must bring in that release, not just any
numpy the runtime dependency allows.

The warning filters in ``pyproject.toml`` turn warnings into errors; a failing
``@given`` example must still be reported as one failed test, not end the
session.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pins(path: str) -> dict[str, str]:
    text = (ROOT / path).read_text(encoding="utf-8")
    return dict(re.findall(r"\b(numpy|pytest|hypothesis)==([0-9][0-9A-Za-z.]*)", text))


def test_ci_and_the_test_extra_pin_the_same_tool_versions():
    ci = _pins(".github/workflows/tier1.yml")
    assert set(ci) == {"numpy", "pytest", "hypothesis"}
    assert _pins("pyproject.toml") == ci


def test_the_declared_python_floor_is_the_version_ci_runs():
    """``requires-python`` names no version the ``test`` extra cannot install on:
    its floor is the one Python the CI job runs (numpy 2.4.6 needs 3.11)."""
    floor = re.search(r'^requires-python = ">=([0-9.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    ci = re.findall(r'python-version: "([0-9.]+)"', (ROOT / ".github/workflows/tier1.yml").read_text())
    assert floor is not None and ci == [floor.group(1)]


FAILING_EXAMPLE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_example_is_one_failed_test(tmp_path):
    """Reporting a failing example may import libraries that warn; the session still runs every test."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_example.py").write_text(FAILING_EXAMPLE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
