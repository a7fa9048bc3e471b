"""Outputs are byte-identical to the benchmark's recorded digests.

Determinism is the tool's contract: every CSV and binary output of a seeded
run must match, byte for byte, what the same seed wrote before. The
benchmark (``perfbench/``) keeps one book of sha256 digests per output. This
module rebuilds a slice of the seed-42 outputs through the benchmark's own
workload code and checks it against that book; there is no second golden
file. The slice:

- ``dataset/seed42/manifest.json`` and every scene's cloud and range image
  (the ``gen-scenes --count 200 --seed 42`` dataset);
- every ``sizing/seed42/*.csv`` (one sizing pass: six recall-curve tables,
  the stale sweep and the selected size);
- ``voxel/s42`` to ``voxel/s51``: each object's grid and sparse CSV (the
  first voxel block of ten frames, and its evaluate tables).

The benchmark files are loaded read-only: nothing under ``perfbench/`` is
written, not even a bytecode cache. An intended output change re-records the
book with ``python3 perfbench/run.py --record``, which then updates this
check too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 42
VOXEL_SCENES = range(SEED, SEED + 10)  # the first voxel block


class _Untimed:
    """The workloads' tracer and host-speed clock, for a run that is not timed."""

    def span(self, name):
        return contextlib.nullcontext()

    def factor(self):
        return 1.0


@pytest.fixture(scope="module")
def workloads():
    dont_write, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports calibrate and digests by bare name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up by name
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
    return module


def _in_slice(key: str) -> bool:
    if key == f"dataset/seed{SEED}/manifest.json" or key.startswith(f"sizing/seed{SEED}/"):
        return True
    return any(key.startswith(f"{kind}/s{s}/") for kind in ("scene3", "voxel") for s in VOXEL_SCENES)


def test_seed42_outputs_match_the_recorded_digests(workloads, tmp_path):
    book = workloads.DigestBook()
    ctx = workloads.Context(seed=SEED, work=tmp_path, tracer=_Untimed(), book=book, clock=_Untimed())
    voxel = workloads.Voxel()
    voxel.setup(ctx, repeats=1)
    sizing = workloads.Sizing()
    sizing.manifest_path, sizing.data, sizing.samples = voxel.manifest_path, voxel.data, voxel.samples
    sizing.unit(ctx, 0)
    voxel.unit(ctx, 0)

    assert book.mismatched == [] and book.conflicts == []
    assert ctx.failures == [] and ctx.broken == []
    assert book.unrecorded == 0
    unchecked = sorted(key for key in book.known if _in_slice(key) and key not in book.seen)
    assert unchecked == []
