"""The manifest's JSON records: each is read and written through its dataclass fields.

What :func:`record_to_json` writes, :func:`record_from_json` reads back bit
for bit, for every record a manifest or detections file holds, at the edges
of a float: negative zero, the smallest subnormal and a number near the
largest float.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest

from frustumkit.errors import ManifestError
from frustumkit.evalkit import Detection
from frustumkit.geometry import CameraIntrinsics, OrientedBox3, Rect2, RigidTransform
from frustumkit.manifest import (
    _FIELD_READERS,
    _FIELD_WRITERS,
    Manifest,
    ManifestFrame,
    ManifestObject,
    load_detections,
    load_manifest,
    manifest_to_json,
    parse_json,
    record_from_json,
    record_to_json,
)

EDGES = (-0.0, 5e-324, 1e308)
INTRINSICS = CameraIntrinsics(fx=5e-324, fy=1e308, cx=-0.0, cy=0.5, width=640, height=480)
POSE = RigidTransform(np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]]), np.array(EDGES))
BOX = OrientedBox3(center=np.array(EDGES), width=5e-324, depth=1e308, height=1.5, yaw=-3.0)
RECORDS = {
    "intrinsics": INTRINSICS,
    "pose": POSE,
    "box": BOX,
    "manifest-object": ManifestObject(category="chair", rect=Rect2(-0.0, 5e-324, 1e308, 1e308), box=BOX),
    "detection-negative-zero": Detection(box=BOX, category="chair", score=-0.0),
    "detection-subnormal": Detection(box=BOX, category="chair", score=5e-324),
}
RECORD_TYPES = (CameraIntrinsics, RigidTransform, OrientedBox3, ManifestObject, Detection)


def _bits(value: object) -> object:
    """A value as comparable bits: floats by their IEEE bytes, arrays by dtype,
    shape and bytes, records field by field, tuples entry by entry."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    return type(value).__name__, value


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_every_record_reads_back_bit_for_bit(record):
    text = json.dumps(record_to_json(record))
    back = record_from_json(type(record), parse_json(text, "record"), "record")
    assert type(back) is type(record)
    assert _bits(back) == _bits(record)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_every_field_annotation_has_a_reader_and_a_writer(cls):
    for field in dataclasses.fields(cls):
        assert field.type in _FIELD_READERS and field.type in _FIELD_WRITERS, field


def test_a_detections_file_written_by_record_to_json_loads_back(tmp_path):
    frames = [
        [RECORDS["detection-negative-zero"], Detection(box=BOX, category="table", score=1.0)],
        [],
        [RECORDS["detection-subnormal"]],
    ]
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({"frames": [[record_to_json(d) for d in frame] for frame in frames]}))
    frame = ManifestFrame(tmp_path / "cloud.bin", None, INTRINSICS, POSE, ())
    manifest = Manifest(root=tmp_path, categories=("chair", "table"), anchors_path=None, frames=(frame,) * 3)
    loaded = load_detections(path, manifest)
    assert [[_bits(d) for d in f] for f in loaded] == [[_bits(d) for d in f] for f in frames]


def test_a_manifest_written_by_manifest_to_json_loads_back(tmp_path):
    """Every key manifest_to_json writes, the optional anchors and range image included, loads back."""
    root = tmp_path.resolve()
    for name in ("cloud.bin", "frame.rng", "anchors.csv"):
        (root / name).write_bytes(b"")
    frame = ManifestFrame(root / "cloud.bin", root / "frame.rng", INTRINSICS, POSE, (RECORDS["manifest-object"],))
    manifest = Manifest(root, ("chair", "table"), anchors_path=root / "anchors.csv", frames=(frame,) * 2)
    path = root / "manifest.json"
    path.write_text(manifest_to_json(manifest))
    assert json.loads(path.read_text())["anchors"] == "anchors.csv"
    assert _bits(load_manifest(path)) == _bits(manifest)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o.update(rect=[1.0, 0.0, 1.0, 2.0]), "bad manifest object: degenerate rect: (1.0, 0.0, 1.0, 2.0)"),
        (lambda o: o["box"].update(width=0.0), "bad manifest object box: box dimensions must be finite"),
        (lambda o: o["box"].update(width="1"), "manifest object box width must be a number, got '1'"),
        (lambda o: o.update(category=3), "manifest object category must be a string, got 3"),
    ],
    ids=["constructor", "nested-constructor", "nested-reader", "reader"],
)
def test_a_record_error_is_prefixed_once(edit, message):
    """A constructor's error gets the record's name once; a reader's already names its field."""
    obj = record_to_json(RECORDS["manifest-object"])
    edit(obj)
    with pytest.raises(ManifestError) as info:
        record_from_json(ManifestObject, obj, "manifest object")
    assert str(info.value).startswith(message)
