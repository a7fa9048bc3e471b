"""Dataset manifests: a strict JSON index over clouds, labels, and rects.

A manifest ties together everything the crop-size search and the evaluator
need per frame: a point-cloud file, optional range image, camera intrinsics
and pose, and the labeled objects (category, image rect, oriented box).
Loading is strict — unknown keys, missing files, non-UTF-8 bytes,
NaN/Infinity tokens, numbers that overflow a float, a bool or string where a
number belongs, or categories outside the declared vocabulary all raise
:class:`ManifestError` rather than being silently tolerated. The same
strict-JSON helpers parse the detections file of ``frustumkit evaluate``
(:func:`load_detections`) and the layer list of ``frustumkit netshape``.
Every record of a manifest or detections file (camera, pose, labeled object,
box, detection) maps to a JSON object through its dataclass fields
(:func:`record_from_json`, :func:`record_to_json`), as CSV rows do in ``csvio``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .cropbox import ObjectSample
from .csvio import _record_fields
from .errors import ManifestError
from .evalkit import Detection
from .geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    read_cloud_binary,
)

_TOP_KEYS = {"categories", "anchors", "frames"}
_FRAME_KEYS = {"cloud", "range_image", "intrinsics", "pose", "objects"}


# --- strict JSON ----------------------------------------------------------------


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"number {token} overflows a float")
    return value


def _float_sized_int(token: str) -> int:
    value = int(token)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"integer of {len(token)} characters overflows a float") from None
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_json(data: str | bytes, what: str) -> object:
    """Strict json.loads: malformed text, non-UTF-8 bytes, NaN/Infinity tokens,
    numbers that overflow a float and an object that repeats a key all raise
    ManifestError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(
            text,
            object_pairs_hook=_unique_keys,
            parse_constant=_reject_constant,
            parse_float=_finite_float,
            parse_int=_float_sized_int,
        )
    except ValueError as exc:  # includes JSONDecodeError and UnicodeDecodeError
        raise ManifestError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ManifestError(f"{what} nests JSON arrays or objects too deeply") from None


def check_json_keys(obj: dict, allowed: set, required: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ManifestError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ManifestError(f"{what}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ManifestError(f"{what}: missing keys {sorted(missing)}")


def _number(value: object, what: str) -> float:
    """A JSON number as a float; bools, strings, null and containers raise ManifestError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"{what} must be a number, got {value!r}")
    return float(value)


def _number_array(value: object, what: str) -> np.ndarray:
    """A (nested) JSON list of numbers as a float64 array; see :func:`_number`."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            _number(item, f"{what} entry")
    return np.asarray(value, dtype=np.float64)


def _pixel_count(value: object, what: str) -> int:
    number = _number(value, what)
    if not number.is_integer():
        raise ManifestError(f"{what} must be a whole number of pixels, got {value!r}")
    return int(number)


def _string(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise ManifestError(f"{what} must be a string, got {value!r}")
    return value


def _rect(value: object, what: str) -> Rect2:
    if not isinstance(value, list) or len(value) != 4:
        raise ManifestError(f"{what} must be a list [u_min, v_min, u_max, v_max]")
    return Rect2(*(_number(v, f"{what} entry") for v in value))


def record_from_json(cls: type, obj: object, what: str) -> object:
    """A dataclass record from a JSON object whose keys are exactly its field
    names, each value read by the field's annotated type; the constructor's
    own checks run last.

    A reader's ManifestError names the field and passes unchanged; any other
    ValueError or TypeError, a constructor's among them, becomes one
    ``ManifestError("bad <what>: ...")``.
    """
    record_fields = _record_fields(cls)
    names = {f.name for f in record_fields}
    check_json_keys(obj, names, names, what)
    try:
        return cls(**{f.name: _FIELD_READERS[f.type](obj[f.name], f"{what} {f.name}") for f in record_fields})
    except ManifestError:
        raise
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad {what}: {exc}") from exc


def record_to_json(record: object) -> dict:
    """Every field of a dataclass record under its name, written by the
    field's annotated type: arrays as lists, a rect as its four edges, a
    nested record as its object and a number or string as it is.

    A field name is a file key: renaming a field renames a key of the
    manifest, which the manifest digest in ``tests/test_determinism.py``
    catches, or of the detections file, whose hand-written keys in
    ``tests/test_cli.py`` catch it.
    """
    return {f.name: _FIELD_WRITERS[f.type](getattr(record, f.name)) for f in _record_fields(type(record))}


def _as_is(value: object) -> object:
    return value


# every field annotation of a record in a manifest or detections file, with its reader and writer
_FIELD_READERS = {
    "float": _number, "int": _pixel_count, "str": _string, "np.ndarray": _number_array, "Rect2": _rect,
    "OrientedBox3": lambda value, what: record_from_json(OrientedBox3, value, what),
}
_FIELD_WRITERS = {
    "float": _as_is, "int": _as_is, "str": _as_is, "np.ndarray": np.ndarray.tolist,
    "Rect2": lambda rect: [getattr(rect, f.name) for f in _record_fields(Rect2)],
    "OrientedBox3": record_to_json,
}


def _check_category(category: str, categories: tuple[str, ...], what: str) -> None:
    if category not in categories:
        raise ManifestError(f"{what} category {category!r} is not in the declared vocabulary {list(categories)}")


# --- manifest ---------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestObject:
    """One labeled object: category, its image rect, and its oriented box."""

    category: str
    rect: Rect2
    box: OrientedBox3


@dataclass(frozen=True)
class ManifestFrame:
    """One frame: cloud path, optional range-image path, camera, labels."""

    cloud_path: Path
    range_image_path: Path | None
    intrinsics: CameraIntrinsics
    pose: RigidTransform
    objects: tuple[ManifestObject, ...]


@dataclass(frozen=True)
class Manifest:
    """A loaded dataset index, with all paths resolved against its directory."""

    root: Path
    categories: tuple[str, ...]
    anchors_path: Path | None
    frames: tuple[ManifestFrame, ...]

    @property
    def n_objects(self) -> int:
        return sum(len(frame.objects) for frame in self.frames)


def _resolve_existing(root: Path, rel: object, what: str) -> Path:
    if not isinstance(rel, str) or not rel:
        raise ManifestError(f"{what} must be a non-empty path string")
    try:
        path = (root / rel).resolve()
        found = path.is_file()
        exists = found or path.exists()
    except (OSError, ValueError) as exc:  # e.g. a NUL byte or a lone surrogate in the name
        raise ManifestError(f"{what} {rel!r} is not a usable path: {exc}") from exc
    if not found:
        raise ManifestError(f"{what} {rel!r} {'is not a regular file' if exists else 'does not exist'} under {root}")
    return path


def _check_rect_overlaps_image(rect: Rect2, k: CameraIntrinsics, where: str) -> None:
    """A rect partly outside the image is kept; one with no area inside it
    seeds an empty frustum, so it is rejected."""
    if min(rect.u_max, k.width) <= max(rect.u_min, 0.0) or min(rect.v_max, k.height) <= max(rect.v_min, 0.0):
        raise ManifestError(
            f"{where}: rect ({rect.u_min}, {rect.v_min}, {rect.u_max}, {rect.v_max}) "
            f"lies wholly outside the {k.width}x{k.height} image"
        )


def _parse_frame(entry: object, root: Path, categories: tuple[str, ...], index: int) -> ManifestFrame:
    where = f"frame {index}"
    check_json_keys(entry, _FRAME_KEYS, _FRAME_KEYS - {"range_image"}, where)
    cloud_path = _resolve_existing(root, entry["cloud"], f"{where} cloud")
    range_image_path = None
    if "range_image" in entry:
        range_image_path = _resolve_existing(root, entry["range_image"], f"{where} range image")
    intrinsics = record_from_json(CameraIntrinsics, entry["intrinsics"], f"{where} intrinsics")
    pose = record_from_json(RigidTransform, entry["pose"], f"{where} pose")
    objects_value = entry["objects"]
    if not isinstance(objects_value, list):
        raise ManifestError(f"{where} objects must be a list")
    objects = tuple(
        record_from_json(ManifestObject, obj, f"{where} object {j}") for j, obj in enumerate(objects_value)
    )
    for j, obj in enumerate(objects):
        _check_category(obj.category, categories, f"{where} object {j}")
        _check_rect_overlaps_image(obj.rect, intrinsics, f"{where} object {j}")
    return ManifestFrame(
        cloud_path=cloud_path,
        range_image_path=range_image_path,
        intrinsics=intrinsics,
        pose=pose,
        objects=objects,
    )


def load_manifest(path: str | Path) -> Manifest:
    """Load and validate a manifest; all relative paths resolve against it."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    data = parse_json(raw, f"manifest {path}")
    check_json_keys(data, _TOP_KEYS, {"categories", "frames"}, "manifest")
    categories_value = data["categories"]
    if (
        not isinstance(categories_value, list)
        or not categories_value
        or not all(isinstance(c, str) and c for c in categories_value)
    ):
        raise ManifestError("categories must be a non-empty list of names")
    if len(set(categories_value)) != len(categories_value):
        raise ManifestError("categories must be unique")
    categories = tuple(categories_value)
    root = path.resolve().parent
    anchors_path = None
    if "anchors" in data:
        anchors_path = _resolve_existing(root, data["anchors"], "anchors file")
    frames_value = data["frames"]
    if not isinstance(frames_value, list):
        raise ManifestError("frames must be a list")
    frames = tuple(_parse_frame(entry, root, categories, i) for i, entry in enumerate(frames_value))
    return Manifest(root=root, categories=categories, anchors_path=anchors_path, frames=frames)


def load_detections(path: str | Path, manifest: Manifest) -> list[list[Detection]]:
    """The detections file of ``frustumkit evaluate``: one list per manifest frame."""
    data = parse_json(Path(path).read_bytes(), f"detections file {path}")
    check_json_keys(data, {"frames"}, {"frames"}, "detections file")
    frames_value = data["frames"]
    if not isinstance(frames_value, list) or len(frames_value) != len(manifest.frames):
        raise ManifestError(
            f"detections must list one entry per manifest frame "
            f"({len(manifest.frames)} expected)"
        )
    out: list[list[Detection]] = []
    for i, entry in enumerate(frames_value):
        if not isinstance(entry, list):
            raise ManifestError(f"detections frame {i} must be a list")
        dets = [record_from_json(Detection, det, f"detections frame {i} entry {j}") for j, det in enumerate(entry)]
        for j, det in enumerate(dets):
            _check_category(det.category, manifest.categories, f"detections frame {i} entry {j}")
        out.append(dets)
    return out


def manifest_to_json(manifest: Manifest) -> str:
    """Serialize a manifest back to JSON with paths relative to its root."""
    frames = []
    for frame in manifest.frames:
        entry: dict = {
            "cloud": frame.cloud_path.relative_to(manifest.root).as_posix(),
            "intrinsics": record_to_json(frame.intrinsics),
            "pose": record_to_json(frame.pose),
            "objects": [record_to_json(obj) for obj in frame.objects],
        }
        if frame.range_image_path is not None:
            entry["range_image"] = frame.range_image_path.relative_to(manifest.root).as_posix()
        frames.append(entry)
    data: dict = {"categories": list(manifest.categories)}
    if manifest.anchors_path is not None:
        data["anchors"] = manifest.anchors_path.relative_to(manifest.root).as_posix()
    data["frames"] = frames
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def iter_object_samples(manifest: Manifest) -> Iterator[ObjectSample]:
    """Yield one :class:`ObjectSample` per labeled object, loading each cloud once."""
    for frame in manifest.frames:
        cloud = read_cloud_binary(frame.cloud_path)
        for obj in frame.objects:
            yield ObjectSample(
                category=obj.category,
                cloud=cloud,
                rect=obj.rect,
                gt_box=obj.box,
                intrinsics=frame.intrinsics,
                pose=frame.pose,
            )
