"""Each library name has one import path: through its module.

The package ``__init__`` re-exports nothing, so ``frustumkit.<module>`` is
always the module, never a function of the same name that a re-export bound
over it (``import frustumkit.ioi as m`` once gave the function ``ioi``).
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

import frustumkit

MODULES = sorted(p.stem for p in Path(frustumkit.__file__).parent.glob("*.py") if p.stem != "__init__")


def test_the_walk_finds_the_modules():
    assert {"cli", "cropbox", "geometry", "ioi", "voxelizer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_import_paths_give_the_module(name):
    module = importlib.import_module(f"frustumkit.{name}")
    assert isinstance(module, types.ModuleType)
    namespace: dict = {}
    exec(f"import frustumkit.{name} as x", namespace)
    assert namespace["x"] is module
