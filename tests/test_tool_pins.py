"""The test tools have one set of versions: the CI job and the ``test`` extra pin the same ones.

Hypothesis draws other examples from one release to the next, so a fuzz test
that passes under one pin can fail under another. numpy is pinned with them:
the determinism checks compare output bytes with digests recorded on one numpy
release, and ``pip install .[test]`` must bring in that release, not just any
numpy the runtime dependency allows.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _pins(path: str) -> dict[str, str]:
    text = (ROOT / path).read_text(encoding="utf-8")
    return dict(re.findall(r"\b(numpy|pytest|hypothesis)==([0-9][0-9A-Za-z.]*)", text))


def test_ci_and_the_test_extra_pin_the_same_tool_versions():
    ci = _pins(".github/workflows/tier1.yml")
    assert set(ci) == {"numpy", "pytest", "hypothesis"}
    assert _pins("pyproject.toml") == ci
