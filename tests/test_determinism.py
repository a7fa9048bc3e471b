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

The benchmark writes some of these files with its own code (the sizing CSVs
and the manifest), so a second check runs ``frustumkit`` itself in-process
and hashes the bytes the CLI writes: ``gen-scenes --count 200 --seed 42``
(manifest, and the first ten scenes' cloud and range files), two
``recall-curves`` tables, ``stale-sweep``, ``voxelize --sparse`` for every
object of frames 0 and 7, and ``encode-check --seed 42``.

The benchmark files are loaded read-only: nothing under ``perfbench/`` is
written, not even a bytecode cache. An intended output change re-records the
book with ``python3 perfbench/run.py --record``, which then updates this
check too.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from frustumkit.cli import main
from frustumkit.manifest import load_manifest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 42
VOXEL_SCENES = range(SEED, SEED + 10)  # the first voxel block


class _Untimed:
    """The workloads' tracer and host-speed clock, for a run that is not timed."""

    def span(self, name):
        return contextlib.nullcontext()

    def factor(self):
        return 1.0


def _load(name: str, filename: str):
    """A perfbench module, loaded without writing a bytecode cache under perfbench/."""
    dont_write, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports calibrate and digests by bare name
    try:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up by name
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", "workloads.py")


@pytest.fixture(scope="module")
def digests():
    return _load("perfbench_digests", "digests.py")


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


def _run(argv: list[str]) -> tuple[int, str]:
    """``frustumkit <argv>`` in-process: the exit code, and the text the benchmark hashes for encode-check."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def test_cli_outputs_match_the_recorded_digests(digests, tmp_path):
    book = digests.DigestBook()
    data = tmp_path / "data"
    manifest = str(data / "manifest.json")
    assert _run(["gen-scenes", "--out", str(data), "--count", "200", "--seed", str(SEED)])[0] == 0
    book.check_file(f"dataset/seed{SEED}/manifest.json", data / "manifest.json")
    for i, scene_seed in enumerate(VOXEL_SCENES):
        book.check_file(f"scene3/s{scene_seed}/cloud", data / f"scene_{i:04d}.cloud")
        book.check_file(f"scene3/s{scene_seed}/range", data / f"scene_{i:04d}.rng")

    sizes = ["--sides", "1.6,3.2,4.8", "--heights", "1.5,1.7,2.2"]
    for fr_fc, mode in (("1x1", "average"), ("5x5", "median")):
        name = f"recall_curves_{fr_fc}_{mode}.csv"
        argv = ["recall-curves", "--manifest", manifest, *sizes, "--fr-fc", fr_fc, "--mode", mode]
        assert _run([*argv, "--out", str(tmp_path / name)])[0] == 0
        book.check_file(f"sizing/seed{SEED}/{name}", tmp_path / name)
    argv = ["stale-sweep", "--manifest", manifest, "--drifts", "0,2,4,8", "--out", str(tmp_path / "stale.csv")]
    assert _run(argv)[0] == 0
    book.check_file(f"sizing/seed{SEED}/stale_sweep.csv", tmp_path / "stale.csv")

    frames = load_manifest(manifest).frames
    for frame in (0, 7):
        for obj in range(len(frames[frame].objects)):
            grid, sparse = tmp_path / f"f{frame}o{obj}.vox", tmp_path / f"f{frame}o{obj}.csv"
            argv = ["voxelize", "--manifest", manifest, "--frame", str(frame), "--object", str(obj)]
            assert _run([*argv, "--out", str(grid), "--sparse", str(sparse)])[0] == 0
            book.check_file(f"voxel/s{SEED + frame}/o{obj}/grid", grid)
            book.check_file(f"voxel/s{SEED + frame}/o{obj}/sparse", sparse)

    # exits 4 on this dataset (an edge-on object loses every point); the book holds that text
    _, text = _run(["encode-check", "--manifest", manifest, "--seed", str(SEED)])
    book.check(f"voxel/seed{SEED}/encode_check", digests.sha256_bytes(text.encode()))

    assert book.mismatched == [] and book.conflicts == []
    # the manifest, 10 scenes x 2 files, 3 tables, 6 objects x 2 files and encode-check
    assert book.unrecorded == 0 and book.checked == len(book.seen) == 1 + 10 * 2 + 3 + 6 * 2 + 1
