"""Fuzz the command line's JSON and CSV inputs.

A small valid manifest, detections file, layer list and anchors CSV are
generated once. Each example replaces one node of one of them (a leaf or a
whole subtree of the JSON, a field of the CSV) with a random value, or
splices random bytes into the file where that node was, then runs a
subcommand on the result. Whatever the input, ``cli.main`` must return one
of the documented exit codes without raising, and every failure must name
its subcommand on stderr. A run that exits 0
must write only finite numbers: every CSV field that parses as a float is
finite, and so is every value of a float32 plane file. An empty field is
allowed only in evaluate's three mean columns of a category with no matched
pair (recall 0). The stage-time flags of ``pipesim`` are fuzzed the same way.

The examples are derandomized so the suite is reproducible; raise
``max_examples`` locally to search further.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumkit.cli import EXIT_OK, main
from frustumkit.manifest import load_manifest, record_to_json

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}
SENTINEL = "\u0000fuzz-sentinel"

FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    argv = ["gen-scenes", "--out", str(data), "--count", "2", "--seed", "3", "--objects", "2", "--density", "40"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    (root / "out").mkdir()
    manifest_path = data / "manifest.json"
    anchors_path = root / "anchors.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["anchors", "--manifest", str(manifest_path), "--out", str(anchors_path)]) == EXIT_OK
    manifest = load_manifest(manifest_path)
    detections = {
        "frames": [
            [{"category": o.category, "score": 0.5, "box": record_to_json(o.box)} for o in frame.objects]
            for frame in manifest.frames
        ]
    }
    layers = [
        {"kind": "conv3d", "kernel": [3, 3, 3], "stride": [2, 2, 2], "padding": "same", "channels_out": 4},
        {"kind": "dropout"},
        {"kind": "pool3d", "kernel": 2, "stride": 2, "padding": "valid"},
        {"kind": "global_reduce"},
        {"kind": "dense", "channels_out": 14},
    ]
    return {
        "dir": data,
        "out": root / "out",
        "manifest": json.loads(manifest_path.read_text()),
        "detections": detections,
        "layers": layers,
        "anchors": [line.split(",") for line in anchors_path.read_text(encoding="utf-8").splitlines()],
    }


def _paths(node, prefix=()):
    """Every path below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_numbers = (
    st.integers()
    | st.sampled_from([0, -1, 10**300, 10**400, 2**64])
    | st.floats()  # includes NaN and +-inf, which json.dumps writes as bare tokens
    | st.sampled_from([1e308, -1e308, 1e-320, 0.5, 3.0])
)
_scalars = (
    st.none()
    | st.booleans()
    | _numbers
    | st.text(max_size=8)
    | st.sampled_from(["", ".", "a\x00b", "\ud800", "manifest.json", "scene_0000.cloud", "scene_0000.rng", "table"])
)
# Numbers are drawn twice as often as other values so more examples get past parsing.
json_values = _numbers | st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@st.composite
def fuzzed_file(draw, doc):
    """Bytes of `doc` with one node replaced by a random JSON value or random bytes."""
    path = draw(st.sampled_from(list(_paths(doc))))
    if draw(st.booleans()):
        return json.dumps(_replaced(doc, path, draw(json_values))).encode()
    text = json.dumps(_replaced(doc, path, SENTINEL)).encode()
    return text.replace(json.dumps(SENTINEL).encode(), draw(st.binary(max_size=12)))


_anchor_fields = (
    st.text(max_size=8)
    | st.floats().map(repr)
    | st.sampled_from(["", "nan", "-inf", "0", "-1", "1e308", "1e-320", "a_w", "table", "lamp", '"', "1,2"])
)


@st.composite
def fuzzed_csv(draw, rows):
    """Bytes of a CSV whose rows are `rows`, with one field replaced by a random value or random bytes."""
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    edited = [list(row) for row in rows]
    edited[r][c] = SENTINEL
    text = ("\n".join(",".join(row) for row in edited) + "\n").encode("utf-8")
    if draw(st.booleans()):
        return text.replace(SENTINEL.encode("utf-8"), draw(_anchor_fields).encode("utf-8"))
    return text.replace(SENTINEL.encode("utf-8"), draw(st.binary(max_size=12)))


def _number_files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".f32"))


# evaluate leaves these empty for a category with no matched pair (recall 0)
NO_MATCH_MEANS = {"mean_d_xyz", "mean_d_wdh", "mean_orientation_score"}


def _assert_finite_outputs(out: Path) -> None:
    for path in _number_files(out):
        if path.suffix == ".f32":
            assert np.all(np.isfinite(np.fromfile(path, dtype="<f4"))), path
            continue
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            fields = dict(zip(header, row))
            no_match = fields.get("recall") == "0"
            for name, field in fields.items():
                if field == "":
                    assert no_match and name in NO_MATCH_MEANS, (path, name)
                    continue
                try:
                    value = float(field)
                except ValueError:
                    continue  # a category name
                assert math.isfinite(value), (path, name, field)


def _check_main(argv: list[str], out: Path) -> None:
    for stale in _number_files(out):  # so only this run's outputs are checked
        stale.unlink()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    if code != EXIT_OK:
        assert err.getvalue().startswith(f"frustumkit {argv[0]}: "), err.getvalue()
    else:
        _assert_finite_outputs(out)


MANIFEST_COMMANDS = ["anchors", "recall-curves", "voxelize", "encode-check", "dhs", "stale-sweep", "evaluate"]


def _manifest_argv(command: str, manifest: Path, dets: Path, out: Path) -> list[str]:
    flags = {
        "anchors": ["--out", str(out / "a.csv")],
        "recall-curves": ["--out", str(out / "c.csv"), "--sides", "1.6,3.2", "--heights", "1.5", "--fr-fc", "1x1,3x3"],
        "voxelize": ["--out", str(out / "v.vox"), "--sparse", str(out / "v.csv"), "--object", "1"],
        "encode-check": ["--seed", "1", "--fd-cases", "1"],
        "dhs": ["--out", str(out / "d")],
        "stale-sweep": ["--out", str(out / "s.csv"), "--drifts", "0,8"],
        "evaluate": ["--dets", str(dets), "--out-prefix", str(out / "e")],
    }[command]
    return [command, "--manifest", str(manifest), *flags]


@FUZZ_SETTINGS
@given(data=st.data(), command=st.sampled_from(MANIFEST_COMMANDS))
def test_fuzzed_manifest_exits_with_a_documented_code(base, data, command):
    manifest = base["dir"] / "fuzzed_manifest.json"  # beside the clouds it names
    manifest.write_bytes(data.draw(fuzzed_file(base["manifest"])))
    dets = base["out"] / "dets.json"
    dets.write_text(json.dumps(base["detections"]))
    _check_main(_manifest_argv(command, manifest, dets, base["out"]), base["out"])


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_detections_exit_with_a_documented_code(base, data):
    dets = base["out"] / "fuzzed_dets.json"
    dets.write_bytes(data.draw(fuzzed_file(base["detections"])))
    _check_main(_manifest_argv("evaluate", base["dir"] / "manifest.json", dets, base["out"]), base["out"])


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_layer_list_exits_with_a_documented_code(base, data):
    layers = base["out"] / "fuzzed_layers.json"
    layers.write_bytes(data.draw(fuzzed_file(base["layers"])))
    _check_main(["netshape", "check", "--grid", "16x16x16", "--layers-json", str(layers)], base["out"])


@FUZZ_SETTINGS
@given(data=st.data())
def test_fuzzed_anchors_csv_exits_with_a_documented_code(base, data):
    anchors = base["dir"] / "fuzzed_anchors.csv"  # outside "out", whose CSVs are outputs
    anchors.write_bytes(data.draw(fuzzed_csv(base["anchors"])))
    argv = ["encode-check", "--manifest", str(base["dir"] / "manifest.json"), "--seed", "1", "--fd-cases", "1"]
    _check_main([*argv, "--anchors", str(anchors)], base["out"])


_stage_times = st.floats(min_value=0.0) | st.sampled_from([1e308, 1.7e308, 5e-324, 1e-320, 0.0, 29.0, 48.0])


@FUZZ_SETTINGS
@given(
    t2d=_stage_times,
    t3d=_stage_times,
    mode=st.sampled_from(["sequential", "pipelined"]),
    frames=st.integers(min_value=-1, max_value=40),
)
def test_fuzzed_pipesim_times_exit_with_a_documented_code(base, t2d, t3d, mode, frames):
    argv = ["pipesim", "--t2d", repr(t2d), "--t3d", repr(t3d), "--mode", mode, "--frames", str(frames)]
    _check_main([*argv, "--csv", str(base["out"] / "p.csv")], base["out"])
