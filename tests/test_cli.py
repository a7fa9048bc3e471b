"""End-to-end tests for the command-line interface.

A small synthetic dataset is generated once per session through the real
`gen-scenes` subcommand; every other subcommand then runs against it via
``main(argv)`` so the dispatch, exit-code, and file-output paths are all
exercised exactly as a shell user would hit them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import frustumkit
from frustumkit.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from frustumkit.cropbox import SCALE_SPECS
from frustumkit.errors import ManifestError
from frustumkit.geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    project_cloud,
    read_cloud_binary,
    rect_points,
    write_cloud_binary,
)
from frustumkit.head import read_anchor_csv
from frustumkit.manifest import ManifestObject, iter_object_samples, load_manifest, record_to_json

SEED = 7
N_SCENES = 4
OBJECTS_PER_SCENE = 2


@pytest.fixture(scope="session")
def dataset(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli_dataset") / "data"
    code = main(
        [
            "gen-scenes",
            "--out",
            str(out),
            "--count",
            str(N_SCENES),
            "--seed",
            str(SEED),
            "--objects",
            str(OBJECTS_PER_SCENE),
        ]
    )
    assert code == EXIT_OK
    return out / "manifest.json"


@pytest.fixture(scope="session")
def perfect_detections(dataset: Path, tmp_path_factory) -> Path:
    manifest = load_manifest(dataset)
    frames = []
    for frame in manifest.frames:
        dets = []
        for j, obj in enumerate(frame.objects):
            dets.append(
                {
                    "category": obj.category,
                    "score": 0.9 - 0.05 * j,
                    "box": record_to_json(obj.box),
                }
            )
        frames.append(dets)
    path = tmp_path_factory.mktemp("dets") / "dets.json"
    path.write_text(json.dumps({"frames": frames}))
    return path


# --- dispatch and exit codes --------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_manifest_is_io_error(tmp_path, capsys):
    code = main(
        [
            "recall-curves",
            "--manifest",
            str(tmp_path / "nope.json"),
            "--out",
            str(tmp_path / "c.csv"),
            "--sides",
            "1.6",
            "--heights",
            "1.5",
        ]
    )
    assert code == EXIT_IO
    assert "recall-curves" in capsys.readouterr().err


def test_malformed_manifest_is_io_error(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"categories": ["a"], "frames": [], "surprise": 1}))
    code = main(["anchors", "--manifest", str(bad), "--out", str(tmp_path / "a.csv")])
    assert code == EXIT_IO


def test_bad_flag_value_is_usage_error(dataset, tmp_path, capsys):
    code = main(
        [
            "recall-curves",
            "--manifest",
            str(dataset),
            "--out",
            str(tmp_path / "c.csv"),
            "--sides",
            "eleven",
            "--heights",
            "1.5",
        ]
    )
    assert code == EXIT_USAGE


def test_flag_prefix_is_usage_error(dataset, tmp_path, capsys):
    """Each flag has one spelling: --man is not taken for --manifest, nor --dr for --drifts."""
    out = tmp_path / "x.csv"
    assert main(["stale-sweep", "--man", str(dataset), "--dr", "0,4", "--out", str(out)]) == EXIT_USAGE
    assert "the following arguments are required: --manifest, --drifts" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_returns_the_exit_code():
    """The installed ``frustumkit`` script calls its ``[project.scripts]`` target with no
    arguments and exits with what it returns; the target is ``main``, which reads ``argv``."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["frustumkit"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["netshape", "check", "--categories", "0"]) == EXIT_USAGE
    assert entry(["pipesim", "--t2d", "29", "--t3d", "48", "--mode", "pipelined"]) == EXIT_OK


# --- gen-scenes ----------------------------------------------------------------


def test_gen_scenes_output_is_loadable(dataset):
    manifest = load_manifest(dataset)
    assert len(manifest.frames) == N_SCENES
    assert manifest.n_objects > 0
    assert set(manifest.categories) >= {o.category for f in manifest.frames for o in f.objects}
    for frame in manifest.frames:
        assert frame.cloud_path.is_file()
        assert frame.range_image_path is not None and frame.range_image_path.is_file()


def test_gen_scenes_objects_have_conservative_rects(dataset):
    # every sample's frustum (from the manifest rect) must capture cloud points
    for sample in iter_object_samples(load_manifest(dataset)):
        assert sample.rect.width > 0 and sample.rect.height > 0
        projection = project_cloud(sample.cloud, sample.intrinsics, sample.pose)
        assert rect_points(projection, sample.rect).size > 0


def test_gen_scenes_flags_write_the_recorded_bytes(tmp_path, capsys):
    """Every gen-scenes flag changed from its default, against sha256 digests recorded at f13a52e."""
    out = tmp_path / "g"
    argv = ["gen-scenes", "--out", str(out), "--count", "3", "--seed", "5", "--objects", "4", "--density", "200"]
    assert main([*argv, "--no-occlusion", "--no-floor", "--no-range-images"]) == EXIT_OK
    expected = f"gen-scenes: wrote 3 scenes, kept 12/12 labeled objects -> {out / 'manifest.json'}\n"
    assert capsys.readouterr().out == expected
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == {
        "manifest.json": "610f76dd17232a227dafafcb3b2e583c06f2062c1e812ec54e40ba02e41354bc",
        "scene_0000.cloud": "bcffe5b37845bea1d45f5a51b04540dd9fc80481c51d8674ed9551d7320e5a26",
        "scene_0001.cloud": "9d37b188d65b8a9d9cd7f249c6d97b04dd4e1f117c9058ef0522722f7ecdc262",
        "scene_0002.cloud": "ae812f3460c8e6254ef3f5d1d9ffa5342ddfc8c8a834210923030ae7f1c7d7d0",
    }


# --- recall-curves / select-size ------------------------------------------------


def run_recall_curves(dataset: Path, out: Path) -> int:
    return main(
        [
            "recall-curves",
            "--manifest",
            str(dataset),
            "--out",
            str(out),
            "--sides",
            "1.6,3.2,4.8",
            "--heights",
            "1.5,1.7,2.2",
        ]
    )


def test_recall_curves_rows_and_bound(dataset, tmp_path):
    out = tmp_path / "curves.csv"
    assert run_recall_curves(dataset, out) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # two fr/fc grids by default, 3 sides x 3 heights each
    assert len(rows) == 2 * 3 * 3
    for row in rows:
        assert row["bound_satisfied"] == "1"
        assert float(row["recall_volume"]) >= float(row["bound"]) - 1e-12


def test_volume_recall_takes_the_best_product_over_candidates(tmp_path):
    """An object whose two candidates trade footprint IoI for vertical IoI: neither crop is volume-positive.

    Identity pose, so world (x, y, z) is camera (x, y, depth) and z is the
    boxes' vertical axis. The unit box sits at (0, 0, 5); its 3x3 rect holds
    two single-point subfrustums, whose averages are the points themselves.
    Under a 1 x 1 crop, A = (0, 0, 5.5) keeps the whole footprint and half the
    height, B = (0.5, 0, 5) half the footprint and the whole height: each
    axis is recalled by some candidate, but the best product is 0.5, below
    0.8 * 0.8, so volume recall is 0 where max xy * max z would give 1. A
    2 m side keeps B's whole footprint too, and volume recall is 1.
    """
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
    # A projects to (u, v) = (50, 50), B to (60, 50): tiles (1, 1) and (1, 2)
    write_cloud_binary(np.array([[0.0, 0.0, 5.5], [0.5, 0.0, 5.0]]), str(tmp_path / "cloud.bin"))
    obj = ManifestObject("chair", Rect2(30.0, 44.0, 66.0, 56.0), OrientedBox3((0.0, 0.0, 5.0), 1.0, 1.0, 1.0, 0.0))
    frame = {
        "cloud": "cloud.bin",
        "intrinsics": record_to_json(k),
        "pose": record_to_json(RigidTransform.identity()),
        "objects": [record_to_json(obj)],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"categories": ["chair"], "frames": [frame]}))
    out = tmp_path / "curves.csv"
    argv = ["recall-curves", "--manifest", str(manifest), "--out", str(out), "--fr-fc", "3x3"]
    argv += ["--sides", "1,2", "--heights", "1", "--threshold-xy", "0.8", "--threshold-z", "0.8"]
    assert main(argv) == EXIT_OK
    with open(out, newline="") as fh:
        fields = ("side_m", "recall_xy", "recall_z", "recall_volume", "bound_satisfied")
        rows = [tuple(row[f] for f in fields) for row in csv.DictReader(fh)]
    # at side 1 the per-axis recalls (1 and 1) bound volume recall below by 1, and the product misses it
    assert rows == [("1", "1", "1", "0", "0"), ("2", "1", "1", "1", "1")]


# argv for each subcommand that writes files, given (manifest, detections, output dir)
RERUN_ARGV = {
    "gen-scenes": lambda m, dets, d: ["gen-scenes", "--out", str(d), "--count", "2", "--seed", "3"],
    "anchors": lambda m, dets, d: ["anchors", "--manifest", str(m), "--out", str(d / "anchors.csv")],
    "recall-curves": lambda m, dets, d: [
        "recall-curves", "--manifest", str(m), "--out", str(d / "curves.csv"),
        "--sides", "1.6,3.2,4.8", "--heights", "1.5,1.7,2.2",
    ],
    "stale-sweep": lambda m, dets, d: [
        "stale-sweep", "--manifest", str(m), "--drifts", "0,4,8", "--out", str(d / "drift.csv"),
    ],
    "voxelize-sparse": lambda m, dets, d: [
        "voxelize", "--manifest", str(m), "--out", str(d / "obj.vox"), "--sparse", str(d / "obj.csv"),
    ],
    "dhs-uint8": lambda m, dets, d: ["dhs", "--manifest", str(m), "--out", str(d / "frame0"), "--uint8"],
    "evaluate": lambda m, dets, d: [
        "evaluate", "--manifest", str(m), "--dets", str(dets), "--out-prefix", str(d / "eval"),
    ],
    "pipesim-csv": lambda m, dets, d: [
        "pipesim", "--t2d", "29", "--t3d", "48", "--mode", "pipelined", "--csv", str(d / "trace.csv"),
    ],
}


@pytest.mark.parametrize("command", sorted(RERUN_ARGV))
def test_rerun_is_byte_identical(dataset, perfect_detections, tmp_path, command):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        assert main(RERUN_ARGV[command](dataset, perfect_detections, out)) == EXIT_OK
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_select_size_reports_crossing(dataset, capsys):
    code = main(
        [
            "select-size",
            "--manifest",
            str(dataset),
            "--sides",
            "1.6,3.2,4.8",
            "--heights",
            "1.5,1.7,2.2",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "side_m=" in out and "height_m=" in out


def test_target_flags_belong_to_select_size_only(dataset, tmp_path, capsys):
    search = ["--manifest", str(dataset), "--sides", "1.6,3.2,4.8", "--heights", "1.5,1.7,2.2"]
    curves = ["recall-curves", *search, "--out", str(tmp_path / "c.csv")]
    assert main([*curves, "--target-xy", "0.5"]) == EXIT_USAGE
    assert "unrecognized arguments: --target-xy 0.5" in capsys.readouterr().err
    assert main(["select-size", *search, "--target-xy", "0.01", "--target-z", "0.01"]) == EXIT_OK
    assert "select-size: side_m=1.6 height_m=1.5" in capsys.readouterr().out


def test_select_size_infeasible_exit_code(dataset, capsys):
    code = main(
        [
            "select-size",
            "--manifest",
            str(dataset),
            "--sides",
            "0.05",
            "--heights",
            "0.05",
        ]
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


# --- voxelize / anchors ----------------------------------------------------------


def test_voxelize_writes_readable_grid(dataset, tmp_path):
    vox = tmp_path / "obj.vox"
    sparse = tmp_path / "obj.csv"
    code = main(
        [
            "voxelize",
            "--manifest",
            str(dataset),
            "--frame",
            "0",
            "--object",
            "0",
            "--out",
            str(vox),
            "--sparse",
            str(sparse),
        ]
    )
    assert code == EXIT_OK
    raw = vox.read_bytes()
    header = struct.Struct("<8s3i3d3d")
    magic, nx, ny, nz = header.unpack_from(raw, 0)[:4]
    assert magic == b"FVGRID01"
    counts = np.frombuffer(raw[header.size :], dtype="<u4").reshape(nx, ny, nz)
    assert counts.sum() > 0
    header = sparse.read_text().splitlines()[0]
    assert header == "ix,iy,iz,count"


@pytest.mark.parametrize("fr, fc", [(2, 2), (1, 3), (7, 7)])
def test_voxelize_accepts_only_the_swept_subdivisions(dataset, tmp_path, capsys, fr, fc):
    vox = tmp_path / "obj.vox"
    argv = ["voxelize", "--manifest", str(dataset), "--out", str(vox), "--fr", str(fr), "--fc", str(fc)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"frustumkit voxelize: subdivision ({fr}, {fc}) not in [(1, 1), (3, 3), (5, 5)]\n"
    assert not vox.exists()


def test_voxelize_with_an_explicit_scale_class_uses_its_grid(dataset, tmp_path, capsys):
    # object 1 of frame 0 is a shelf, which auto assigns to medium_tall (134 x 134 x 134)
    vox = tmp_path / "obj.vox"
    argv = ["voxelize", "--manifest", str(dataset), "--object", "1", "--out", str(vox), "--scale", "large_short"]
    assert main(argv) == EXIT_OK
    assert "voxelize: shelf grid 198x198x102," in capsys.readouterr().out
    _, nx, ny, nz, *cell = struct.unpack_from("<8s3i3d", vox.read_bytes())
    spec = SCALE_SPECS["large_short"]
    assert (nx, ny, nz) == spec.grid and tuple(cell) == spec.cell_size


def test_voxelize_into_a_missing_directory_is_io_error(dataset, tmp_path, capsys):
    vox = tmp_path / "missing" / "g.vox"
    assert main(["voxelize", "--manifest", str(dataset), "--out", str(vox)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"frustumkit voxelize: i/o error: [Errno 2] No such file or directory: '{vox}'")
    assert not vox.parent.exists()


def test_voxelize_object_index_out_of_range(dataset, tmp_path, capsys):
    code = main(
        [
            "voxelize",
            "--manifest",
            str(dataset),
            "--frame",
            "0",
            "--object",
            "99",
            "--out",
            str(tmp_path / "o.vox"),
        ]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "frustumkit voxelize: object index 99 out of range (frame has 2 objects)\n"


def test_anchors_round_trip(dataset, tmp_path):
    out = tmp_path / "anchors.csv"
    assert main(["anchors", "--manifest", str(dataset), "--out", str(out)]) == EXIT_OK
    anchors = read_anchor_csv(out)
    manifest = load_manifest(dataset)
    present = {o.category for f in manifest.frames for o in f.objects}
    assert set(anchors) == present
    for anchor in anchors.values():
        assert anchor.a_w > 0 and anchor.a_d > 0 and anchor.a_h > 0


# --- an output never overwrites an input or another output of its run ------------


@pytest.mark.parametrize("name", ["same-path", "symlink", "hard-link", "dangling-symlink"])
def test_voxelize_refuses_one_file_for_the_grid_and_the_sparse_csv(dataset, tmp_path, capsys, name):
    grid = tmp_path / "g.vox"
    other = grid if name == "same-path" else tmp_path / "other"
    if name in ("symlink", "hard-link"):
        grid.write_bytes(b"old")
    if name == "hard-link":
        os.link(grid, other)
    elif name != "same-path":
        other.symlink_to(grid)
    argv = ["voxelize", "--manifest", str(dataset), "--out", str(grid), "--sparse", str(other)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"frustumkit voxelize: output {other} and {grid} name the same file\n"
    if name in ("symlink", "hard-link"):
        assert grid.read_bytes() == b"old"
    else:
        assert not grid.exists()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_voxelize_may_name_a_device_twice(dataset, capsys):
    argv = ["voxelize", "--manifest", str(dataset), "--out", "/dev/null", "--sparse", "/dev/null"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.endswith("wrote /dev/null, /dev/null\n")


@pytest.mark.parametrize("spelling", ["same-path", "symlink"])
def test_anchors_refuses_to_overwrite_its_manifest(dataset, tmp_path, capsys, spelling):
    manifest = tmp_path / "m.json"
    shutil.copyfile(dataset, manifest)
    out = manifest
    if spelling == "symlink":
        out = tmp_path / "link.json"
        out.symlink_to(manifest)
    assert main(["anchors", "--manifest", str(manifest), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"frustumkit anchors: output {out} and {manifest} name the same file\n"
    assert manifest.read_bytes() == dataset.read_bytes()


def test_evaluate_refuses_to_overwrite_its_detections(dataset, perfect_detections, tmp_path, capsys):
    dets = tmp_path / "e_categories.csv"
    shutil.copyfile(perfect_detections, dets)
    argv = ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"frustumkit evaluate: output {dets} and {dets} name the same file\n"
    assert dets.read_bytes() == perfect_detections.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == [dets.name]


@pytest.mark.parametrize("uint8, code", [(True, EXIT_USAGE), (False, EXIT_OK)])
def test_dhs_refuses_only_the_outputs_it_writes(dataset, tmp_path, capsys, uint8, code):
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    manifest = data / "frame0.u8"
    (data / "manifest.json").rename(manifest)
    text = manifest.read_bytes()
    argv = ["dhs", "--manifest", str(manifest), "--out", str(data / "frame0"), *(["--uint8"] if uint8 else [])]
    assert main(argv) == code
    assert manifest.read_bytes() == text
    assert (data / "frame0.f32").exists() == (not uint8)
    if uint8:
        assert capsys.readouterr().err == f"frustumkit dhs: output {manifest} and {manifest} name the same file\n"


REPRODUCTIONS = {
    "voxelize": (["voxelize", "--frame", "0", "--object", "0"], "scene_0000.cloud"),
    "recall-curves": (["recall-curves", "--sides", "1.6", "--heights", "1.5"], "scene_0001.rng"),
}


@pytest.mark.parametrize("spelling", ["same-path", "symlink", "hard-link"])
@pytest.mark.parametrize("command", sorted(REPRODUCTIONS))
def test_an_output_may_not_name_a_file_the_manifest_names(dataset, tmp_path, capsys, command, spelling):
    """recall-curves reads no range image, and still may not write over one."""
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    argv, name = REPRODUCTIONS[command]
    target = (data / name).resolve()
    text = target.read_bytes()
    out = data / name
    if spelling == "symlink":
        out = tmp_path / "link"
        out.symlink_to(target)
    elif spelling == "hard-link":
        out = tmp_path / "hard"
        os.link(target, out)
    assert main([argv[0], "--manifest", str(data / "manifest.json"), *argv[1:], "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"frustumkit {command}: output {out} and {target} name the same file\n"
    assert target.read_bytes() == text
    assert out.is_symlink() == (spelling == "symlink")


def test_anchors_may_not_write_over_the_manifests_anchors_file(dataset, tmp_path, capsys):
    """anchors does not read the file the manifest names, but encode-check does: it is refused too."""
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    anchors_csv = data / "anchors.csv"
    anchors_csv.write_text("hand-tuned\n")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["anchors"] = anchors_csv.name
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["anchors", "--manifest", str(data / "manifest.json"), "--out", str(anchors_csv)]) == EXIT_USAGE
    expected = f"frustumkit anchors: output {anchors_csv} and {anchors_csv.resolve()} name the same file\n"
    assert capsys.readouterr().err == expected
    assert anchors_csv.read_text() == "hand-tuned\n"


# --- encode-check ------------------------------------------------------------------


def test_encode_check_passes_on_clean_data(dataset, capsys):
    code = main(["encode-check", "--manifest", str(dataset), "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "round-trip" in out and "gradient check" in out


def test_encode_check_prints_the_recorded_line(dataset, capsys):
    """The success line on the session dataset, as f13a52e printed it."""
    assert main(["encode-check", "--manifest", str(dataset), "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "encode-check: 8 objects round-trip (max abs error 3.33e-16), 0 skipped with center outside crop; "
        "gradient check over 50 cases (max rel disagreement 1.5e-08)\n"
    )


def test_encode_check_round_trip_above_the_tolerance_is_invariant_violation(dataset, capsys):
    # decode(encode(box)) is exact only to rounding, so a zero tolerance fails
    code = main(["encode-check", "--manifest", str(dataset), "--seed", "3", "--tolerance", "0"])
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    prefix = "frustumkit encode-check: invariant violated: encode/decode round trip error "
    assert err.startswith(prefix) and err.endswith(" exceeds 0\n")
    assert float(err[len(prefix) :].split()[0]) > 0


def test_encode_check_reads_manifest_anchors_file(dataset, tmp_path, capsys):
    anchors_csv = dataset.parent / "anchors_missing_one.csv"
    assert main(["anchors", "--manifest", str(dataset), "--out", str(anchors_csv)]) == EXIT_OK
    header, dropped, *kept = anchors_csv.read_text().splitlines()
    anchors_csv.write_text("\n".join([header, *kept]) + "\n")
    data = json.loads(dataset.read_text())
    data["anchors"] = anchors_csv.name
    edited = dataset.parent / "with_anchors.json"
    edited.write_text(json.dumps(data))
    try:
        code = main(["encode-check", "--manifest", str(edited), "--seed", "3"])
    finally:
        edited.unlink()
        anchors_csv.unlink()
    assert code == EXIT_USAGE
    assert f"no anchor for category '{dropped.split(',')[0]}'" in capsys.readouterr().err


# --- evaluate ----------------------------------------------------------------------


def test_evaluate_perfect_detections(dataset, perfect_detections, tmp_path):
    prefix = str(tmp_path / "eval")
    code = main(
        [
            "evaluate",
            "--manifest",
            str(dataset),
            "--dets",
            str(perfect_detections),
            "--out-prefix",
            prefix,
        ]
    )
    assert code == EXIT_OK
    with open(prefix + "_categories.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert float(row["ap"]) == 1.0
        assert float(row["recall"]) == 1.0
        assert float(row["mean_d_xyz"]) == 0.0
    assert Path(prefix + "_iou_hist.csv").is_file()
    assert Path(prefix + "_orientation_hist.csv").is_file()


def test_evaluate_frame_count_mismatch_is_io_error(dataset, tmp_path):
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps({"frames": [[]]}))
    code = main(
        [
            "evaluate",
            "--manifest",
            str(dataset),
            "--dets",
            str(dets),
            "--out-prefix",
            str(tmp_path / "e"),
        ]
    )
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda box: box.pop("yaw"), "missing keys ['yaw']"),
        (lambda box: box.update(bogus=1.0), "unknown keys ['bogus']"),
        (lambda box: box.update(width=float("nan")), "non-finite number NaN"),
        (lambda box: box.update(width=True), "box width must be a number, got True"),
    ],
    ids=["missing-key", "unknown-key", "nan-value", "bool-value"],
)
def test_evaluate_rejects_bad_detection_box(dataset, perfect_detections, tmp_path, capsys, edit, message):
    data = json.loads(perfect_detections.read_text())
    edit(data["frames"][0][0]["box"])
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps(data))
    code = main(
        ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    )
    assert code == EXIT_IO
    assert message in capsys.readouterr().err


def test_evaluate_rejects_non_object_detection_box(dataset, perfect_detections, tmp_path, capsys):
    data = json.loads(perfect_detections.read_text())
    data["frames"][0][0]["box"] = [0.0, 0.0, 0.0]
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps(data))
    code = main(
        ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    )
    assert code == EXIT_IO
    assert "box must be a JSON object" in capsys.readouterr().err


def _accented_dataset(tmp_path: Path) -> tuple[Path, Path]:
    """A 2-frame manifest whose category names end in e-acute, and detections for it."""
    data_dir = tmp_path / "data"
    assert main(["gen-scenes", "--out", str(data_dir), "--count", "2", "--seed", "3"]) == EXIT_OK
    manifest_path = data_dir / "manifest.json"
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    data["categories"] = [c + "\u00e9" for c in data["categories"]]
    for frame in data["frames"]:
        for obj in frame["objects"]:
            obj["category"] += "\u00e9"
    manifest_path.write_text(json.dumps(data), encoding="utf-8")
    dets = [[{"category": o["category"], "score": 0.9, "box": o["box"]} for o in f["objects"]] for f in data["frames"]]
    dets_path = tmp_path / "dets.json"
    dets_path.write_text(json.dumps({"frames": dets}), encoding="utf-8")
    return manifest_path, dets_path


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _run_anchors_and_evaluate(
    dataset: tuple[Path, Path], out: Path, env_overrides: dict[str, str], unset: tuple[str, ...] = ()
) -> tuple[list[bytes], dict[str, bytes]]:
    """(stdout of each run, files written to out) of `anchors` and `evaluate` in a subprocess."""
    manifest_path, dets_path = dataset
    out.mkdir()
    src = str(Path(frustumkit.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env.update({"PYTHONPATH": src, **env_overrides})
    stdout = []
    for argv in (
        ["anchors", "--manifest", str(manifest_path), "--out", "anchors.csv"],
        ["evaluate", "--manifest", str(manifest_path), "--dets", str(dets_path), "--out-prefix", "eval"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "frustumkit.cli", *argv], cwd=out, env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
        assert proc.stderr == b""
        stdout.append(proc.stdout)
    return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_anchors_and_evaluate_write_the_same_bytes_under_an_ascii_locale(tmp_path):
    """Files are UTF-8 whatever the locale: a non-ASCII category name is written, not an error."""
    dataset = _accented_dataset(tmp_path)
    # stdout is pinned to UTF-8, so only the encoding of the files differs between runs
    ascii_run = _run_anchors_and_evaluate(dataset, tmp_path / "ascii", {**ASCII_LOCALE, "PYTHONIOENCODING": "utf-8"})
    utf8_run = _run_anchors_and_evaluate(dataset, tmp_path / "utf8", {"PYTHONUTF8": "1", "PYTHONIOENCODING": "utf-8"})
    assert ascii_run == utf8_run
    assert "\u00e9".encode("utf-8") in utf8_run[1]["anchors.csv"]
    assert "\u00e9".encode("utf-8") in utf8_run[1]["eval_categories.csv"]


def test_ascii_stdout_escapes_category_names_instead_of_failing(tmp_path):
    """With stdout in the locale's ASCII encoding, a name it cannot encode is printed as escapes."""
    dataset = _accented_dataset(tmp_path)
    unset = ("PYTHONIOENCODING",)
    ascii_stdout, ascii_files = _run_anchors_and_evaluate(dataset, tmp_path / "ascii", ASCII_LOCALE, unset)
    utf8_stdout, utf8_files = _run_anchors_and_evaluate(dataset, tmp_path / "utf8", {"PYTHONUTF8": "1"}, unset)
    assert ascii_files == utf8_files
    assert b"\\xe9" in ascii_stdout[0]
    assert ascii_stdout == [out.decode("utf-8").replace("\u00e9", "\\xe9").encode("ascii") for out in utf8_stdout]


def test_cloud_point_at_subnormal_camera_depth_runs_without_warnings(dataset, tmp_path):
    """A camera 1e-310 m behind the plane x = 0 sees a cloud point on that plane at
    depth 1e-310: its pixel coordinates overflow to inf, outside the depth range and every rect."""
    data = json.loads(dataset.read_text())
    frame = data["frames"][0]
    cloud = np.vstack([read_cloud_binary(str(dataset.parent / frame["cloud"])), [[0.0, 0.5, 1.0]]])
    write_cloud_binary(cloud, str(tmp_path / "cloud.bin"))
    frame["cloud"] = "cloud.bin"
    frame.pop("range_image", None)
    frame["pose"]["translation"] = [-1e-310, 0.0, 1.2]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"categories": data["categories"], "frames": [frame]}))
    src = str(Path(frustumkit.__file__).resolve().parents[1])
    argv = ["recall-curves", "--manifest", str(manifest), "--out", "c.csv", "--sides", "1.6", "--heights", "1.5"]
    proc = subprocess.run(
        [sys.executable, "-m", "frustumkit.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""


# --- pipesim -------------------------------------------------------------------------


def test_pipesim_pipelined_period_line(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    code = main(
        [
            "pipesim",
            "--t2d",
            "29",
            "--t3d",
            "48",
            "--mode",
            "pipelined",
            "--csv",
            str(trace_csv),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "period=48 ms" in out
    assert "125/6" in out
    header = trace_csv.read_text().splitlines()[0]
    assert header == "frame,start_2d,done_2d,start_3d,done_3d,latency"


def test_pipesim_sequential_period_line(capsys):
    assert main(["pipesim", "--t2d", "29", "--t3d", "48", "--mode", "sequential"]) == EXIT_OK
    assert "period=77 ms" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["sequential", "pipelined"])
def test_pipesim_rejects_clock_overflow(tmp_path, capsys, mode):
    trace_csv = tmp_path / "p.csv"
    argv = ["pipesim", "--t2d", "1e308", "--t3d", "1e308", "--mode", mode, "--frames", "3", "--csv", str(trace_csv)]
    assert main(argv) == EXIT_USAGE
    assert "overflow the clock over 3 frames" in capsys.readouterr().err
    assert not trace_csv.exists()


@pytest.mark.parametrize("mode", ["sequential", "pipelined"])
def test_pipesim_rejects_frame_count_above_the_bound(tmp_path, capsys, mode):
    trace_csv = tmp_path / "p.csv"
    argv = ["pipesim", "--t2d", "29", "--t3d", "48", "--mode", mode, "--frames", "100001", "--csv", str(trace_csv)]
    assert main(argv) == EXIT_USAGE
    assert "n_frames must lie in [1, 100000], got 100001" in capsys.readouterr().err
    assert not trace_csv.exists()


def test_pipesim_rejects_unbounded_throughput(capsys):
    assert main(["pipesim", "--t2d", "0", "--t3d", "0", "--mode", "sequential"]) == EXIT_USAGE
    assert capsys.readouterr().err == "frustumkit pipesim: zero-cost stages have unbounded throughput\n"


@pytest.mark.parametrize("mode", ["sequential", "pipelined"])
@pytest.mark.parametrize("t2d", ["5e-324", "1e-306", "5.5e-306"])
def test_pipesim_names_a_period_that_overflows_the_throughput(capsys, mode, t2d):
    # no stage costs zero, but 1000 / period overflows a float below about 5.6e-306 ms
    assert main(["pipesim", "--t2d", t2d, "--t3d", "0", "--mode", mode]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"frustumkit pipesim: period {t2d} ms overflows the throughput 1000 / period to inf\n"
    )


def test_pipesim_period_just_above_the_overflow_has_a_throughput(capsys):
    assert main(["pipesim", "--t2d", "5.6e-306", "--t3d", "0", "--mode", "sequential"]) == EXIT_OK
    assert " throughput=1785714285714285" in capsys.readouterr().out


def test_pipesim_tiny_stage_times_have_a_bounded_exact_throughput(capsys):
    # the float and the exact throughput agree: a 1e-12 ms period is bounded for both
    assert main(["pipesim", "--t2d", "1e-12", "--t3d", "1e-12", "--mode", "pipelined"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "throughput=1000000000000000.00 fps" in out
    assert "pipesim: exact pipelined throughput 1000000000000000 fps = 1e+15 fps" in out


@pytest.mark.parametrize(
    "value", ["-1e-1", "-1E+2", "-.5e3", "-2.", "-1", "-0.5", "-.5", "-inf", "-Infinity", "-nan"]
)
def test_negative_number_is_a_value_not_a_flag(value):
    args = build_parser().parse_args(["pipesim", "--t2d", value, "--t3d", "1", "--mode", "sequential"])
    assert repr(args.t2d) == repr(float(value))  # repr, since nan != nan


@pytest.mark.parametrize("value", ["-x", "-e5", "-1e", "-1.5.5", "-i", "-infx", "-nanx"])
def test_a_dash_word_that_is_no_number_is_still_a_flag(capsys, value):
    assert main(["pipesim", "--t2d", value, "--t3d", "1", "--mode", "sequential"]) == EXIT_USAGE
    assert "argument --t2d: expected one argument" in capsys.readouterr().err


def test_every_parser_takes_an_exponent_form_for_a_negative_number():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *sub.choices.values()):
        assert p._negative_number_matcher.match("-1e-1"), p.prog


def test_negative_exponent_value_as_a_separate_argument_equals_the_joined_form(dataset, tmp_path, capsys):
    base = ["dhs", "--manifest", str(dataset), "--frame", "1", "--out"]
    assert main([*base, str(tmp_path / "joined"), "--h-min=-1e-1"]) == EXIT_OK
    assert main([*base, str(tmp_path / "separate"), "--h-min", "-1e-1"]) == EXIT_OK
    assert main([*base, str(tmp_path / "default")]) == EXIT_OK
    capsys.readouterr()
    separate = (tmp_path / "separate.f32").read_bytes()
    assert separate == (tmp_path / "joined.f32").read_bytes()
    assert separate != (tmp_path / "default.f32").read_bytes()  # -0.1, not the default -0.5


def test_pipesim_negative_exponent_stage_time_is_rejected_by_stage_timing(capsys):
    assert main(["pipesim", "--t2d", "-1e-1", "--t3d", "48", "--mode", "pipelined"]) == EXIT_USAGE
    assert "frustumkit pipesim: stage times must be finite and >= 0, got -0.1, 48.0" in capsys.readouterr().err


def test_pipesim_negative_infinity_stage_time_is_rejected_by_stage_timing(capsys):
    assert main(["pipesim", "--t2d", "-inf", "--t3d", "1", "--mode", "sequential"]) == EXIT_USAGE
    assert capsys.readouterr().err == "frustumkit pipesim: stage times must be finite and >= 0, got -inf, 1.0\n"


# --- stale-sweep ------------------------------------------------------------------------


def test_stale_sweep_is_non_increasing(dataset, tmp_path):
    out = tmp_path / "drift.csv"
    code = main(
        [
            "stale-sweep",
            "--manifest",
            str(dataset),
            "--drifts",
            "0,4,8,16,160",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    means = [float(r["mean_ioi_3d"]) for r in rows]
    assert means == sorted(means, reverse=True)
    assert float(rows[-1]["mean_ioi_3d"]) == 0.0  # 160 px > image width kills every frustum


def test_stale_sweep_rejects_drift_that_collapses_a_rect(dataset, tmp_path, capsys):
    out = tmp_path / "drift.csv"
    argv = ["stale-sweep", "--manifest", str(dataset), "--drifts", "0,1e300", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("frustumkit stale-sweep: drift 1e+300 px collapses the rect of sample 0 (")
    assert "in float64" in err
    assert not out.exists()


# --- netshape check -----------------------------------------------------------------------


def test_netshape_check_table(capsys):
    assert main(["netshape", "check", "--scale", "medium_tall", "--categories", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final flat length: 70" in out


def test_netshape_check_forward(capsys):
    code = main(
        ["netshape", "check", "--grid", "16x16x16", "--categories", "2", "--forward-seed", "5"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "final flat length: 14" in out
    assert "forward ok" in out


@pytest.fixture
def no_count_draw(monkeypatch):
    """Fail a netshape run that draws the forward pass's counts: a refused plan must not get that far."""

    def draw(*args, **kwargs):
        raise AssertionError("counts drawn for a refused plan")

    monkeypatch.setattr("frustumkit.cli.np.random.default_rng", draw)


def test_netshape_forward_rejects_big_grids(capsys, no_count_draw):
    code = main(
        ["netshape", "check", "--grid", "198x198x102", "--categories", "2", "--forward-seed", "5"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "frustumkit netshape: forward_naive is capped at 32^3 grids; got dims (198, 198, 102)\n"


def test_netshape_check_rejects_zero_categories(capsys):
    assert main(["netshape", "check", "--scale", "medium_tall", "--categories", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "frustumkit netshape: n_categories must be >= 1\n"


# --- dhs -----------------------------------------------------------------------------------


def test_dhs_writes_planes_and_bytes(dataset, tmp_path):
    prefix = str(tmp_path / "frame0")
    code = main(["dhs", "--manifest", str(dataset), "--frame", "0", "--out", prefix, "--uint8"])
    assert code == EXIT_OK
    manifest = load_manifest(dataset)
    h = manifest.frames[0].intrinsics.height
    w = manifest.frames[0].intrinsics.width
    assert Path(prefix + ".f32").stat().st_size == 3 * 4 * h * w
    assert Path(prefix + ".u8").stat().st_size == 3 * h * w
    planes = np.frombuffer(Path(prefix + ".f32").read_bytes(), dtype="<f4")
    assert planes.min() >= 0.0 and planes.max() <= 1.0


# --- broken binary inputs -------------------------------------------------------------------


def _nan_first_coordinate(raw: bytes) -> bytes:
    return raw[:8] + struct.pack("<f", float("nan")) + raw[12:]


def _first_depth(value: float):
    return lambda raw: raw[:16] + struct.pack("<f", value) + raw[20:]


@pytest.mark.parametrize(
    "suffix, edit, command, message",
    [
        (".cloud", _nan_first_coordinate, "recall-curves", "point cloud contains non-finite coordinates"),
        (".cloud", _nan_first_coordinate, "voxelize-sparse", "point cloud contains non-finite coordinates"),
        (".cloud", lambda raw: raw[:-4], "voxelize-sparse", "expected "),
        (".rng", lambda raw: raw[:-4], "dhs-uint8", "payload size mismatch"),
        (".rng", _first_depth(float("nan")), "dhs-uint8", "range image contains non-finite depths"),
        (".rng", _first_depth(float("inf")), "dhs-uint8", "range image contains non-finite depths"),
    ],
    ids=[
        "nan-point-recall-curves",
        "nan-point-voxelize",
        "truncated-cloud",
        "truncated-range-image",
        "nan-depth-range-image",
        "inf-depth-range-image",
    ],
)
def test_broken_binary_input_is_usage_error_naming_the_file(dataset, tmp_path, capsys, suffix, edit, command, message):
    data_dir = shutil.copytree(dataset.parent, tmp_path / "data")
    broken = data_dir / f"scene_0000{suffix}"
    broken.write_bytes(edit(broken.read_bytes()))
    out = tmp_path / "out"
    out.mkdir()
    argv = RERUN_ARGV[command](data_dir / "manifest.json", None, out)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"frustumkit {argv[0]}: {broken.resolve()}: {message}")
    assert not any(out.iterdir())


# --- manifest loader unit checks --------------------------------------------------------------


def _manifest_with_rect(dataset, frame: int, rect) -> tuple[dict, Path]:
    """A copy of the session manifest, beside it, with one rect replaced;
    ``rect`` maps the frame's (width, height) to the new rect."""
    data = json.loads(dataset.read_text())
    k = data["frames"][frame]["intrinsics"]
    data["frames"][frame]["objects"][0]["rect"] = rect(k["width"], k["height"])
    bad = dataset.parent / "edited_rect.json"
    bad.write_text(json.dumps(data))
    return data, bad


# rects with no area inside the image: far away, and touching each edge from outside
OUTSIDE_RECTS = {
    "far": lambda w, h: [1e6, 1e6, 1e6 + 20.0, 1e6 + 20.0],
    "left": lambda w, h: [-20.0, 10.0, 0.0, 30.0],
    "top": lambda w, h: [10.0, -20.0, 30.0, 0.0],
    "right": lambda w, h: [w, 10.0, w + 20.0, 30.0],
    "bottom": lambda w, h: [10.0, h, 30.0, h + 20.0],
}


@pytest.mark.parametrize("rect", OUTSIDE_RECTS.values(), ids=OUTSIDE_RECTS.keys())
def test_manifest_rejects_rect_wholly_outside_the_image(dataset, rect):
    _, bad = _manifest_with_rect(dataset, 1, rect)
    try:
        with pytest.raises(ManifestError, match=r"^frame 1 object 0: rect \(.*\) lies wholly outside the \d+x\d+ image$"):
            load_manifest(bad)
    finally:
        bad.unlink()


def test_manifest_keeps_a_rect_partly_outside_the_image(dataset):
    data, bad = _manifest_with_rect(dataset, 1, lambda w, h: [-20.0, -20.0, 1.0, h + 20.0])
    try:
        manifest = load_manifest(bad)
    finally:
        bad.unlink()
    k = data["frames"][1]["intrinsics"]
    assert manifest.frames[1].objects[0].rect == Rect2(-20.0, -20.0, 1.0, k["height"] + 20.0)


def test_cli_rejects_rect_wholly_outside_the_image(dataset, tmp_path, capsys):
    data, bad = _manifest_with_rect(dataset, 1, OUTSIDE_RECTS["far"])
    try:
        code = main(RERUN_ARGV["recall-curves"](bad, None, tmp_path))
    finally:
        bad.unlink()
    assert code == EXIT_IO
    k = data["frames"][1]["intrinsics"]
    assert capsys.readouterr().err == (
        "frustumkit recall-curves: bad input: frame 1 object 0: rect (1000000.0, 1000000.0, 1000020.0, "
        f"1000020.0) lies wholly outside the {k['width']}x{k['height']} image\n"
    )
    assert not any(tmp_path.iterdir())


def test_voxelize_with_no_candidates_is_infeasible(dataset, tmp_path, capsys):
    # no point of frame 0 projects into the image's top 30 rows, so all 3x3 subfrustums are empty
    _, bad = _manifest_with_rect(dataset, 0, lambda w, h: [0.0, 0.0, 160.0, 30.0])
    vox = tmp_path / "obj.vox"
    try:
        code = main(["voxelize", "--manifest", str(bad), "--fr", "3", "--fc", "3", "--out", str(vox)])
    finally:
        bad.unlink()
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "frustumkit voxelize: infeasible: all 3x3 subfrustums of the rect are empty\n"
    assert not vox.exists()


def test_manifest_rejects_unknown_frame_key(dataset, tmp_path):
    data = json.loads(dataset.read_text())
    data["frames"][0]["extra"] = True
    bad = dataset.parent / "bad_manifest.json"
    bad.write_text(json.dumps(data))
    try:
        with pytest.raises(ManifestError, match="extra"):
            load_manifest(bad)
    finally:
        bad.unlink()


def test_manifest_rejects_unvocabularied_category(dataset):
    data = json.loads(dataset.read_text())
    data["frames"][0]["objects"][0]["category"] = "zeppelin"
    bad = dataset.parent / "bad_category.json"
    bad.write_text(json.dumps(data))
    try:
        with pytest.raises(ManifestError, match="zeppelin"):
            load_manifest(bad)
    finally:
        bad.unlink()


def test_manifest_rejects_missing_cloud_file(dataset):
    data = json.loads(dataset.read_text())
    data["frames"][0]["cloud"] = "ghost.cloud"
    bad = dataset.parent / "bad_cloud.json"
    bad.write_text(json.dumps(data))
    try:
        with pytest.raises(ManifestError, match="ghost.cloud"):
            load_manifest(bad)
    finally:
        bad.unlink()


def test_anchors_rejects_nan_box_height(dataset, tmp_path, capsys):
    data = json.loads(dataset.read_text())
    data["frames"][0]["objects"][0]["box"]["height"] = float("nan")
    bad = dataset.parent / "nan_height.json"
    bad.write_text(json.dumps(data))  # json.dumps writes the bare token NaN
    try:
        code = main(["anchors", "--manifest", str(bad), "--out", str(tmp_path / "a.csv")])
    finally:
        bad.unlink()
    assert code == EXIT_IO
    assert "non-finite number NaN" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def _run_anchors_on_manifest_text(dataset, tmp_path, text: bytes) -> int:
    bad = dataset.parent / "edited_manifest.json"
    bad.write_bytes(text)
    try:
        return main(["anchors", "--manifest", str(bad), "--out", str(tmp_path / "a.csv")])
    finally:
        bad.unlink()


@pytest.mark.parametrize(
    "path, literal, message",
    [
        (("objects", 0, "box", "height"), "1e999", "number 1e999 overflows a float"),
        (("objects", 0, "box", "width"), "1" * 400, "integer of 400 characters overflows a float"),
        (("intrinsics", "height"), "1e999", "number 1e999 overflows a float"),
        (("objects", 0, "box", "width"), "true", "box width must be a number, got True"),
        (("objects", 0, "box", "center", 1), "false", "box center entry must be a number, got False"),
        (("objects", 0, "rect", 0), "false", "rect entry must be a number, got False"),
        (("intrinsics", "fx"), "true", "intrinsics fx must be a number, got True"),
        (("intrinsics", "width"), "160.7", "intrinsics width must be a whole number of pixels, got 160.7"),
        (("intrinsics", "height"), '"120"', "intrinsics height must be a number, got '120'"),
        (("pose", "translation", 2), "true", "pose translation entry must be a number, got True"),
        (("pose", "rotation", 0, 0), "false", "pose rotation entry must be a number, got False"),
    ],
    ids=[
        "box-height-1e999",
        "box-width-400-digits",
        "intrinsics-height-1e999",
        "box-width-bool",
        "box-center-bool",
        "rect-bool",
        "intrinsics-fx-bool",
        "intrinsics-width-fractional",
        "intrinsics-height-string",
        "pose-translation-bool",
        "pose-rotation-bool",
    ],
)
def test_manifest_rejects_bad_numbers(dataset, tmp_path, capsys, path, literal, message):
    data = json.loads(dataset.read_text())
    target = data["frames"][0]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "OVERFLOW_SENTINEL"
    text = json.dumps(data).replace('"OVERFLOW_SENTINEL"', literal)
    assert _run_anchors_on_manifest_text(dataset, tmp_path, text.encode()) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("frustumkit anchors: ") and message in err
    assert not (tmp_path / "a.csv").exists()


def _repeat_first_yaw(text: str) -> bytes:
    """The first box's "yaw" key given twice, the first time as 0.0; json.loads alone keeps the last."""
    assert '"yaw": ' in text
    return text.replace('"yaw": ', '"yaw": 0.0, "yaw": ', 1).encode()


def test_manifest_rejects_a_repeated_key(dataset, tmp_path, capsys):
    assert _run_anchors_on_manifest_text(dataset, tmp_path, _repeat_first_yaw(dataset.read_text())) == EXIT_IO
    assert "is not valid JSON: duplicate key 'yaw'" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_evaluate_rejects_a_repeated_detection_key(dataset, perfect_detections, tmp_path, capsys):
    dets = tmp_path / "dets.json"
    dets.write_bytes(_repeat_first_yaw(perfect_detections.read_text()))
    code = main(
        ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    )
    assert code == EXIT_IO
    assert f"detections file {dets} is not valid JSON: duplicate key 'yaw'" in capsys.readouterr().err


def _record_key_errors(name: str, block: str, locate, missing: str) -> dict:
    """An unknown key, a missing key and a value that is not an object, each for
    the record that ``locate(data)`` names as ``(holder, key)``."""
    return {
        f"{name}-unknown-key": (block, locate, lambda r: r.update(bogus=1.0), f"{block}: unknown keys ['bogus']"),
        f"{name}-missing-key": (block, locate, lambda r: r.pop(missing), f"{block}: missing keys ['{missing}']"),
        f"{name}-not-object": (block, locate, None, f"{block} must be a JSON object"),
    }


RECORD_KEY_ERRORS = {
    **_record_key_errors("intrinsics", "frame 0 intrinsics", lambda d: (d["frames"][0], "intrinsics"), "cy"),
    **_record_key_errors("pose", "frame 0 pose", lambda d: (d["frames"][0], "pose"), "translation"),
    **_record_key_errors("box", "frame 0 object 0 box", lambda d: (d["frames"][0]["objects"][0], "box"), "yaw"),
    **_record_key_errors("object", "frame 0 object 0", lambda d: (d["frames"][0]["objects"], 0), "rect"),
    **_record_key_errors("detection", "detections frame 0 entry 0", lambda d: (d["frames"][0], 0), "score"),
    **_record_key_errors(
        "detection-box", "detections frame 0 entry 0 box", lambda d: (d["frames"][0][0], "box"), "yaw"
    ),
}


@pytest.mark.parametrize("block, locate, edit, message", RECORD_KEY_ERRORS.values(), ids=RECORD_KEY_ERRORS.keys())
def test_manifest_rejects_bad_record_keys(
    dataset, perfect_detections, tmp_path, capsys, block, locate, edit, message
):
    """Every manifest and detections record shares one key check; each error is one full stderr line."""
    in_detections = block.startswith("detection")
    data = json.loads((perfect_detections if in_detections else dataset).read_text())
    holder, key = locate(data)
    if edit is None:
        holder[key] = [0.0, 0.0, 0.0]
    else:
        edit(holder[key])
    if in_detections:
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps(data))
        argv = ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == EXIT_IO
    else:
        assert _run_anchors_on_manifest_text(dataset, tmp_path, json.dumps(data).encode()) == EXIT_IO
    command = "evaluate" if in_detections else "anchors"
    assert capsys.readouterr().err == f"frustumkit {command}: bad input: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["dets.json"] if in_detections else [])


MANIFEST_SHAPE_ERRORS = {
    "rect-of-three": (
        lambda d: d["frames"][0]["objects"][0].update(rect=[0, 0, 5]),
        "frame 0 object 0 rect must be a list [u_min, v_min, u_max, v_max]",
    ),
    "objects-not-a-list": (lambda d: d["frames"][0].update(objects={}), "frame 0 objects must be a list"),
    "duplicate-category": (lambda d: d["categories"].append(d["categories"][0]), "categories must be unique"),
}


@pytest.mark.parametrize("edit, message", MANIFEST_SHAPE_ERRORS.values(), ids=MANIFEST_SHAPE_ERRORS.keys())
def test_manifest_rejects_bad_lists(dataset, tmp_path, capsys, edit, message):
    data = json.loads(dataset.read_text())
    edit(data)
    assert _run_anchors_on_manifest_text(dataset, tmp_path, json.dumps(data).encode()) == EXIT_IO
    assert capsys.readouterr().err == f"frustumkit anchors: bad input: {message}\n"
    assert not (tmp_path / "a.csv").exists()


MANIFEST_PATH_KEYS = {
    "cloud": ("frame 0 cloud", lambda d, rel: d["frames"][0].update(cloud=rel)),
    "range-image": ("frame 0 range image", lambda d, rel: d["frames"][0].update(range_image=rel)),
    "anchors": ("anchors file", lambda d, rel: d.update(anchors=rel)),
}


@pytest.mark.parametrize("is_dir, state", [(True, "is not a regular file"), (False, "does not exist")],
                         ids=["directory", "missing"])
@pytest.mark.parametrize("key", MANIFEST_PATH_KEYS)
def test_manifest_path_that_is_not_a_file(dataset, tmp_path, capsys, key, is_dir, state):
    """A directory named as a file is told apart from a missing path; both exit 3."""
    what, edit = MANIFEST_PATH_KEYS[key]
    data = json.loads(dataset.read_text())
    edit(data, "adir")
    target = dataset.parent / "adir"
    if is_dir:
        target.mkdir()
    try:
        assert _run_anchors_on_manifest_text(dataset, tmp_path, json.dumps(data).encode()) == EXIT_IO
    finally:
        if is_dir:
            target.rmdir()
    message = f"{what} 'adir' {state} under {dataset.parent.resolve()}"
    assert capsys.readouterr().err == f"frustumkit anchors: bad input: {message}\n"
    assert not (tmp_path / "a.csv").exists()


#: (in the detections file, edit of frame i and its last object or entry j, message)
PLACED_ERRORS = {
    "object-category": (
        False, lambda d, i, j: d["frames"][i]["objects"][j].update(category="sofa"),
        "frame {i} object {j} category 'sofa' is not in the declared vocabulary",
    ),
    "pose": (
        False, lambda d, i, j: d["frames"][i]["pose"].update(rotation=[[2.0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "bad frame {i} pose: rotation must be orthonormal",
    ),
    "detection-box": (
        True, lambda d, i, j: d["frames"][i][j]["box"].update(width=-1.0),
        "bad detections frame {i} entry {j} box: box dimensions must be finite and strictly positive",
    ),
    "detections-frame": (
        True, lambda d, i, j: d["frames"].__setitem__(i, {}), "detections frame {i} must be a list",
    ),
}


@pytest.mark.parametrize("in_detections, edit, message", PLACED_ERRORS.values(), ids=PLACED_ERRORS.keys())
def test_record_errors_name_their_place(dataset, perfect_detections, tmp_path, capsys, in_detections, edit, message):
    """A bad record past the first frame and entry is named by its frame and index in the file."""
    labels = json.loads(dataset.read_text())
    i = max(i for i, frame in enumerate(labels["frames"]) if frame["objects"])
    j = len(labels["frames"][i]["objects"]) - 1
    assert i > 0 and j > 0
    data = json.loads(perfect_detections.read_text()) if in_detections else labels
    edit(data, i, j)
    if in_detections:
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps(data))
        argv = ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
        assert main(argv) == EXIT_IO
    else:
        assert _run_anchors_on_manifest_text(dataset, tmp_path, json.dumps(data).encode()) == EXIT_IO
    command = "evaluate" if in_detections else "anchors"
    assert capsys.readouterr().err.startswith(f"frustumkit {command}: bad input: {message.format(i=i, j=j)}")


def test_manifest_that_is_not_utf8_is_io_error(dataset, tmp_path, capsys):
    text = dataset.read_text().replace('"categories"', '"categories\xe9"', 1).encode("latin-1")
    assert _run_anchors_on_manifest_text(dataset, tmp_path, text) == EXIT_IO
    assert "'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "score, message",
    [
        ("abc", "detections frame 0 entry 0 score must be a number, got 'abc'"),
        (True, "detections frame 0 entry 0 score must be a number, got True"),
        (1.5, "bad detections frame 0 entry 0: detection score must be finite in [0, 1], got 1.5"),
        (-0.25, "bad detections frame 0 entry 0: detection score must be finite in [0, 1], got -0.25"),
        (None, "detections frame 0 entry 0 score must be a number, got None"),
    ],
    ids=["string", "bool", "above-one", "negative", "null"],
)
def test_evaluate_rejects_bad_detection_score(dataset, perfect_detections, tmp_path, capsys, score, message):
    data = json.loads(perfect_detections.read_text())
    data["frames"][0][0]["score"] = score
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps(data))
    code = main(
        ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    )
    assert code == EXIT_IO
    assert message in capsys.readouterr().err


def test_evaluate_detections_not_utf8_is_io_error(dataset, tmp_path, capsys):
    dets = tmp_path / "dets.json"
    dets.write_bytes(b'{"frames": [["\xff"]]}')
    code = main(
        ["evaluate", "--manifest", str(dataset), "--dets", str(dets), "--out-prefix", str(tmp_path / "e")]
    )
    assert code == EXIT_IO
    assert "'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code, message",
    [
        (b'[{"kind": "dropout"', EXIT_IO, "layer list is not valid JSON"),
        (b'[{"kind": "pool3d", "kernel": NaN, "stride": 2}]', EXIT_IO, "non-finite number NaN"),
        (b'[{"kind": "pool3d", "kernel": 1e999, "stride": 2}]', EXIT_IO, "number 1e999 overflows a float"),
        (b'[{"kind": "dropout", "padding": "\xff"}]', EXIT_IO, "'utf-8' codec can't decode"),
        (b'[{"kind": "pool3d", "kernel": "abc", "stride": 2}]', EXIT_USAGE, "kernel must be a positive int"),
        (b'[{"kind": "pool3d", "kernel": [2, 2.5, 2], "stride": 2}]', EXIT_USAGE, "kernel must be a positive int"),
        (b'[{"kind": "conv3d", "channels_out": "8"}]', EXIT_USAGE, "conv3d requires a positive channels_out"),
        (b'[{"kernel": 2, "stride": 2}]', EXIT_IO, "layer entry: missing keys ['kind']"),
        (b'[{"kind": "dropout", "rate": 0.5}]', EXIT_IO, "layer entry: unknown keys ['rate']"),
        (b'[{"kind": "conv3d", "kind": "dropout"}]', EXIT_IO, "layer list is not valid JSON: duplicate key 'kind'"),
        (b"[5]", EXIT_IO, "layer entry must be a JSON object"),
        (b'{"kind": "dropout"}', EXIT_IO, "layer list JSON must be a top-level array"),
        # too big for the naive forward pass: refused before anything is allocated
        (b'[{"kind": "conv3d", "kernel": 100000, "channels_out": 1}]', EXIT_USAGE, "caps kernel dims at 32"),
        (b'[{"kind": "pool3d", "kernel": 100000}]', EXIT_USAGE, "caps kernel dims at 32"),
        (
            b'[{"kind": "global_reduce"}, {"kind": "dense", "channels_out": 10000000},'
            b' {"kind": "dense", "channels_out": 1}]',
            EXIT_USAGE,
            "plan has 20000000 weights; forward_naive is capped at 16777216",
        ),
        (
            b'[{"kind": "conv3d", "kernel": [16, 16, 17], "channels_out": 1}]',
            EXIT_USAGE,
            "an array of 17825792 elements exceeds forward_naive's cap of 16777216",
        ),
        (
            b'[{"kind": "conv3d", "kernel": 1, "channels_out": 4000},'
            b' {"kind": "pool3d", "kernel": 2, "stride": 15}]',
            EXIT_USAGE,
            "layer 1 (pool3d): an array of 19652000 elements exceeds forward_naive's cap",
        ),
    ],
    ids=[
        "truncated",
        "nan-kernel",
        "overflowing-kernel",
        "not-utf8",
        "string-kernel",
        "float-kernel",
        "string-channels",
        "missing-kind",
        "unknown-key",
        "repeated-key",
        "entry-not-object",
        "not-an-array",
        "forward-conv-kernel",
        "forward-pool-kernel",
        "forward-dense-weights",
        "forward-conv-windows",
        "forward-pool-padding",
    ],
)
def test_netshape_rejects_bad_layers_json(tmp_path, capsys, no_count_draw, text, code, message):
    layers = tmp_path / "layers.json"
    layers.write_bytes(text)
    argv = ["netshape", "check", "--grid", "16x16x16", "--layers-json", str(layers), "--forward-seed", "1"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("frustumkit netshape: ") and message in err


@pytest.mark.parametrize("name", ["a\x00b.cloud", "\ud800.cloud"], ids=["nul-byte", "lone-surrogate"])
def test_manifest_rejects_unusable_cloud_path(dataset, tmp_path, capsys, name):
    data = json.loads(dataset.read_text())
    data["frames"][0]["cloud"] = name
    assert _run_anchors_on_manifest_text(dataset, tmp_path, json.dumps(data).encode()) == EXIT_IO
    assert "is not a usable path" in capsys.readouterr().err


def test_manifest_nested_too_deeply_is_io_error(dataset, tmp_path, capsys):
    text = b'{"categories": ["a"], "frames": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    assert _run_anchors_on_manifest_text(dataset, tmp_path, text) == EXIT_IO
    assert "nests JSON arrays or objects too deeply" in capsys.readouterr().err


# --- out-of-range flag values and anchor rows ------------------------------------------


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options(keep) -> list[tuple[str, str]]:
    """(command, flag) of every option of build_parser() whose action `keep` accepts."""
    return sorted(
        (command, action.option_strings[0])
        for command, parser in _subcommands().items()
        for action in parser._actions
        if action.option_strings and keep(action)
    )


#: every float flag, plus the flags that parse comma-separated floats
NUMBER_FLAGS = _options(lambda a: a.type is float or a.dest in ("sides", "heights", "drifts"))
INT_FLAGS = _options(lambda a: a.type is int)


def _argv(command, dataset, dets, tmp_path, flag, value) -> list[str]:
    """argv for `command` with `flag value` and every other required argument filled in.

    netshape also gets a grid small enough for its naive forward pass, so
    that --forward-seed reaches the code that reads it.
    """
    defaults = {
        "--manifest": str(dataset),
        "--out": str(tmp_path / "out"),
        "--out-prefix": str(tmp_path / "e"),
        "--dets": str(dets),
        "--count": "1",
        "--seed": "3",
        "--sides": "1.6",
        "--heights": "1.5",
        "--drifts": "0,2",
        "--t2d": "10",
        "--t3d": "20",
        "--mode": "pipelined",
    }
    argv = [command]
    for action in _subcommands()[command]._actions:
        if not action.option_strings:
            argv.append(action.choices[0])  # netshape's action
        elif action.required and action.option_strings[0] != flag:
            argv += [action.option_strings[0], defaults[action.option_strings[0]]]
    if command == "netshape":
        argv += ["--grid", "8x8x8"]
    return argv + [flag, value]


@pytest.mark.parametrize("command, flag", NUMBER_FLAGS, ids=[f"{c} {f}" for c, f in NUMBER_FLAGS])
def test_every_number_flag_rejects_nan(dataset, perfect_detections, tmp_path, capsys, command, flag):
    argv = _argv(command, dataset, perfect_detections, tmp_path, flag, "nan")
    assert main(argv) == EXIT_USAGE
    assert f"frustumkit {command}: " in capsys.readouterr().err


def test_int_flags_are_listed():
    assert len(INT_FLAGS) == 13 and ("netshape", "--forward-seed") in INT_FLAGS


@pytest.mark.parametrize("command, flag", INT_FLAGS, ids=[f"{c} {f}" for c, f in INT_FLAGS])
def test_every_int_flag_rejects_negative(dataset, perfect_detections, tmp_path, capsys, command, flag):
    argv = _argv(command, dataset, perfect_detections, tmp_path, flag, "-1")
    assert main(argv) == EXIT_USAGE
    assert f"frustumkit {command}: {flag} must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("evaluate", "--iou", "0", "iou_thresh must lie in (0, 1], got 0.0"),
        ("evaluate", "--iou", "2", "iou_thresh must lie in (0, 1], got 2.0"),
        ("pipesim", "--t3d", "inf", "stage times must be finite and >= 0, got 10.0, inf"),
        ("stale-sweep", "--threshold-z", "7", "threshold_z must lie in (0, 1], got 7.0"),
        ("recall-curves", "--sides", "1,nan", "size candidates must be finite and positive"),
        ("gen-scenes", "--density", "inf", "patch density must be finite and positive, got inf"),
        ("dhs", "--h-max", "inf", "need finite h_min < h_max, got -0.5, inf"),
        ("encode-check", "--tolerance", "-1", "--tolerance must be finite and >= 0, got -1.0"),
        ("encode-check", "--tolerance", "inf", "--tolerance must be finite and >= 0, got inf"),
        ("recall-curves", "--sides", ",", "--sides expects at least one value"),
        ("stale-sweep", "--drifts", " , ", "--drifts expects at least one value"),
        ("recall-curves", "--fr-fc", "2", "--fr-fc expects positive integers like 3x3, got '2'"),
        ("recall-curves", "--fr-fc", "1x1,ax1", "--fr-fc expects positive integers like 3x3, got 'ax1'"),
        ("recall-curves", "--fr-fc", "1x1x1", "--fr-fc expects positive integers like 3x3, got '1x1x1'"),
        ("recall-curves", "--fr-fc", ",", "--fr-fc expects at least one value"),
        ("recall-curves", "--fr-fc", "1x1,2x2", "subdivision (2, 2) not in [(1, 1), (3, 3), (5, 5)]"),
        ("netshape", "--grid", "8x8", "--grid expects positive integers like 198x198x102, got '8x8'"),
        ("netshape", "--grid", "8xax8", "--grid expects positive integers like 198x198x102, got '8xax8'"),
        ("netshape", "--grid", "0x8x8", "--grid expects positive integers like 198x198x102, got '0x8x8'"),
        ("dhs", "--frame", "4", "frame index 4 out of range (manifest has 4 frames)"),
    ],
    ids=[
        "evaluate-iou-0",
        "evaluate-iou-2",
        "pipesim-t3d-inf",
        "stale-sweep-threshold-z-7",
        "recall-curves-sides-nan-entry",
        "gen-scenes-density-inf",
        "dhs-h-max-inf",
        "encode-check-tolerance-negative",
        "encode-check-tolerance-inf",
        "recall-curves-sides-comma",
        "stale-sweep-drifts-blank",
        "recall-curves-fr-fc-one-number",
        "recall-curves-fr-fc-letter",
        "recall-curves-fr-fc-three-numbers",
        "recall-curves-fr-fc-comma",
        "recall-curves-fr-fc-unswept",
        "netshape-grid-two-numbers",
        "netshape-grid-letter",
        "netshape-grid-zero",
        "dhs-frame-past-the-end",
    ],
)
def test_out_of_range_value_is_usage_error(
    dataset, perfect_detections, tmp_path, capsys, command, flag, value, message
):
    argv = _argv(command, dataset, perfect_detections, tmp_path, flag, value)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"frustumkit {command}: ") and message in err


@pytest.mark.parametrize("density", ["1e308", "10000.5"])
def test_gen_scenes_rejects_density_above_the_bound(tmp_path, capsys, density):
    out = tmp_path / "gx" / "sub"
    code = main(["gen-scenes", "--out", str(out), "--count", "1", "--seed", "0", "--density", density])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("frustumkit gen-scenes: patch density must be at most 10000 samples per m^2, got ")
    assert not (tmp_path / "gx").exists()


def test_gen_scenes_rejects_zero_objects_and_creates_nothing(tmp_path, capsys):
    out = tmp_path / "gx" / "sub"
    code = main(["gen-scenes", "--out", str(out), "--count", "1", "--seed", "0", "--objects", "0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("frustumkit gen-scenes: n_objects must be >= 1")
    assert not (tmp_path / "gx").exists()


@pytest.mark.parametrize(
    "gen_flags, argv, message",
    [
        (["--count", "0"], ["anchors", "--out", "a.csv"], "manifest contains no labeled objects"),
        (
            ["--count", "0"],
            ["recall-curves", "--sides", "1.6", "--heights", "1.5", "--out", "c.csv"],
            "manifest contains no labeled objects",
        ),
        (
            ["--count", "1", "--no-range-images"],
            ["dhs", "--out", "d"],
            "frame 0 has no range image in the manifest",
        ),
    ],
    ids=["anchors-no-objects", "recall-curves-no-objects", "dhs-no-range-image"],
)
def test_dataset_without_what_a_command_needs_is_usage_error(
    tmp_path, monkeypatch, capsys, gen_flags, argv, message
):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-scenes", "--out", "data", "--seed", "0", *gen_flags]) == EXIT_OK
    capsys.readouterr()
    assert main([argv[0], "--manifest", "data/manifest.json", *argv[1:]]) == EXIT_USAGE
    assert capsys.readouterr().err == f"frustumkit {argv[0]}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


@pytest.mark.parametrize(
    "values, message",
    [
        ("abc,1,1", "could not convert string to float: 'abc'"),
        ("inf,1,1", "anchor dimensions must be finite and positive"),
    ],
    ids=["not-a-number", "infinite"],
)
def test_encode_check_rejects_bad_anchor_row(dataset, tmp_path, capsys, values, message):
    anchors_csv = tmp_path / "anchors.csv"
    assert main(["anchors", "--manifest", str(dataset), "--out", str(anchors_csv)]) == EXIT_OK
    header, first, *rest = anchors_csv.read_text().splitlines()
    row = f"{first.split(',')[0]},{values}"  # a category the dataset has objects of
    anchors_csv.write_text("\n".join([header, row, *rest]) + "\n")
    code = main(["encode-check", "--manifest", str(dataset), "--seed", "3", "--anchors", str(anchors_csv)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{anchors_csv}: bad anchor row {row.split(',')}" in err and message in err


@pytest.mark.parametrize(
    "extra_row, message",
    [
        (lambda row: row, "duplicate anchor row for category "),
        (lambda row: b"\xff" + row, "unreadable anchor CSV: 'utf-8' codec can't decode byte 0xff"),
        (lambda row: b"x," + b"1" * 200_000 + b",1,1", "unreadable anchor CSV: field larger than field limit"),
    ],
    ids=["duplicate-category", "not-utf-8", "field-over-the-csv-limit"],
)
def test_encode_check_rejects_unreadable_or_duplicate_anchors_file(dataset, tmp_path, capsys, extra_row, message):
    anchors_csv = tmp_path / "anchors.csv"
    assert main(["anchors", "--manifest", str(dataset), "--out", str(anchors_csv)]) == EXIT_OK
    rows = anchors_csv.read_bytes().splitlines()
    anchors_csv.write_bytes(b"\n".join([*rows, extra_row(rows[1])]) + b"\n")
    code = main(["encode-check", "--manifest", str(dataset), "--seed", "3", "--anchors", str(anchors_csv)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"frustumkit encode-check: {anchors_csv}: {message}")
