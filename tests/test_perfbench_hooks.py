"""The benchmark's traced run swaps library names for span wrappers.

``perfbench/instrument.py`` lists every ``(module, attribute)`` it replaces in
``WRAPS``; a renamed or deleted library function makes that run fail with an
AttributeError. ``perfbench/workloads.py`` reads more names the same way, such
as the CSV header and row function of the curve and drift tables. These checks
keep both files and the library in step, and check that the whole-dataset
calls reach ``candidate_centers`` through the module name, so the wrapper sees
each per-object call.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from frustumkit.cropbox import ObjectSample, SizeSearchConfig, recall_curves
from frustumkit.geometry import CameraIntrinsics, OrientedBox3, Rect2, RigidTransform
from frustumkit.pipesim import stale_frustum_experiment

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
WORKLOADS = INSTRUMENT.with_name("workloads.py")


def _samples(n):
    """n point cubes straight ahead of an identity-pose camera, each inside its rect."""
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    pose = RigidTransform.identity()
    xs = np.linspace(-0.4, 0.4, 5)
    cube = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    rect = Rect2(40.0, 20.0, 120.0, 100.0)
    centers = [np.array([0.0, 0.0, 3.0 + i]) for i in range(n)]
    return [ObjectSample("chair", cube + c, rect, OrientedBox3(c, 0.8, 0.8, 0.8, 0.0), k, pose) for c in centers]


def _instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Tracer:
    def __init__(self):
        self.spans = Counter()

    @contextlib.contextmanager
    def span(self, name):
        self.spans[name] += 1
        yield

    def count(self, name, n=1):
        pass


def test_every_wrapped_name_resolves():
    for modules, attr, span, _ in _instrument().WRAPS:
        for module in modules:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"


def test_every_library_name_the_workloads_read_resolves():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: importlib.import_module(f"frustumkit.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "frustumkit"
        for alias in node.names
    }
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    csv_names = {
        ("cropbox", "CURVE_CSV_HEADER"),
        ("cropbox", "curve_point_to_csv_row"),
        ("pipesim", "DRIFT_CSV_HEADER"),
        ("pipesim", "drift_row_to_csv"),
    }
    assert csv_names <= read
    for module, attr in sorted(read):
        assert hasattr(modules[module], attr), f"perfbench/workloads.py reads {module}.{attr}"


def test_dataset_calls_reach_candidate_centers_through_the_module():
    samples = _samples(3)
    cfg = SizeSearchConfig([1.6, 3.2], [1.5], fr_fc=[(1, 1), (3, 3)])
    tracer = _Tracer()
    with _instrument().instrumented(tracer):
        recall_curves(samples, cfg)
        stale_frustum_experiment(samples, [0.0, 2.0])
    # one call per object per subdivision, then one per object per drift;
    # both score their crops in batches with crop_scores, not best_cropbox
    assert tracer.spans["geometry.candidate_centers"] == 3 * 2 + 3 * 2
    assert tracer.spans["cropbox.best_cropbox"] == 0
