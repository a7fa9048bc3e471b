"""Dataset manifests: a strict JSON index over clouds, labels, and rects.

A manifest ties together everything the crop-size search and the evaluator
need per frame: a point-cloud file, optional range image, camera intrinsics
and pose, and the labeled objects (category, image rect, oriented box).
Loading is strict — unknown keys, missing files, non-UTF-8 bytes,
NaN/Infinity tokens, numbers that overflow a float, a bool or string where a
number belongs, or categories outside the declared vocabulary all raise
:class:`ManifestError` rather than being silently tolerated. The same strict-JSON helpers parse the detections file of
``frustumkit evaluate`` and the layer list of ``frustumkit netshape``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .cropbox import ObjectSample
from .errors import ManifestError
from .geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    read_cloud_binary,
)

_TOP_KEYS = {"categories", "anchors", "frames"}
_FRAME_KEYS = {"cloud", "range_image", "intrinsics", "pose", "objects"}
_OBJECT_KEYS = {"category", "rect", "box"}
_BOX_KEYS = {"center", "width", "depth", "height", "yaw"}
_K_KEYS = {"fx", "fy", "cx", "cy", "width", "height"}
_POSE_KEYS = {"rotation", "translation"}


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


def parse_json(data: str | bytes, what: str) -> object:
    """Strict json.loads: malformed text, non-UTF-8 bytes, NaN/Infinity tokens
    and numbers that overflow a float all raise ManifestError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(
            text,
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


def intrinsics_from_json(obj: dict) -> CameraIntrinsics:
    check_json_keys(obj, _K_KEYS, _K_KEYS, "intrinsics")
    return CameraIntrinsics(
        fx=_number(obj["fx"], "intrinsics fx"),
        fy=_number(obj["fy"], "intrinsics fy"),
        cx=_number(obj["cx"], "intrinsics cx"),
        cy=_number(obj["cy"], "intrinsics cy"),
        width=_pixel_count(obj["width"], "intrinsics width"),
        height=_pixel_count(obj["height"], "intrinsics height"),
    )


def intrinsics_to_json(k: CameraIntrinsics) -> dict:
    return {"fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy, "width": k.width, "height": k.height}


def pose_from_json(obj: dict) -> RigidTransform:
    check_json_keys(obj, _POSE_KEYS, _POSE_KEYS, "pose")
    return RigidTransform(
        rotation=_number_array(obj["rotation"], "pose rotation"),
        translation=_number_array(obj["translation"], "pose translation"),
    )


def pose_to_json(pose: RigidTransform) -> dict:
    return {"rotation": pose.rotation.tolist(), "translation": pose.translation.tolist()}


def box_from_json(obj: object) -> OrientedBox3:
    """Parse a box object; wrong keys or values raise ManifestError."""
    check_json_keys(obj, _BOX_KEYS, _BOX_KEYS, "box")
    try:
        return OrientedBox3(
            center=_number_array(obj["center"], "box center"),
            width=_number(obj["width"], "box width"),
            depth=_number(obj["depth"], "box depth"),
            height=_number(obj["height"], "box height"),
            yaw=_number(obj["yaw"], "box yaw"),
        )
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad box: {exc}") from exc


def box_to_json(box: OrientedBox3) -> dict:
    return {
        "center": [float(v) for v in box.center],
        "width": box.width,
        "depth": box.depth,
        "height": box.height,
        "yaw": box.yaw,
    }


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


def _parse_rect(value: object) -> Rect2:
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ManifestError("rect must be a list [u_min, v_min, u_max, v_max]")
    try:
        return Rect2(*(_number(v, "rect entry") for v in value))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad rect {value!r}: {exc}") from exc


def _parse_object(entry: object, categories: tuple[str, ...]) -> ManifestObject:
    check_json_keys(entry, _OBJECT_KEYS, _OBJECT_KEYS, "manifest object")
    category = entry["category"]
    if category not in categories:
        raise ManifestError(
            f"category {category!r} is not in the declared vocabulary {list(categories)}"
        )
    box = box_from_json(entry["box"])
    return ManifestObject(category=category, rect=_parse_rect(entry["rect"]), box=box)


def _resolve_existing(root: Path, rel: object, what: str) -> Path:
    if not isinstance(rel, str) or not rel:
        raise ManifestError(f"{what} must be a non-empty path string")
    try:
        path = (root / rel).resolve()
        found = path.is_file()
    except (OSError, ValueError) as exc:  # e.g. a NUL byte or a lone surrogate in the name
        raise ManifestError(f"{what} {rel!r} is not a usable path: {exc}") from exc
    if not found:
        raise ManifestError(f"{what} {rel!r} does not exist under {root}")
    return path


def _parse_frame(entry: object, root: Path, categories: tuple[str, ...]) -> ManifestFrame:
    check_json_keys(entry, _FRAME_KEYS, _FRAME_KEYS - {"range_image"}, "manifest frame")
    cloud_path = _resolve_existing(root, entry["cloud"], "frame cloud")
    range_image_path = None
    if "range_image" in entry:
        range_image_path = _resolve_existing(root, entry["range_image"], "frame range image")
    try:
        intrinsics = intrinsics_from_json(entry["intrinsics"])
        pose = pose_from_json(entry["pose"])
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad camera block: {exc}") from exc
    objects_value = entry["objects"]
    if not isinstance(objects_value, list):
        raise ManifestError("frame objects must be a list")
    objects = tuple(_parse_object(obj, categories) for obj in objects_value)
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
    frames = tuple(_parse_frame(entry, root, categories) for entry in frames_value)
    return Manifest(root=root, categories=categories, anchors_path=anchors_path, frames=frames)


def manifest_to_json(manifest: Manifest) -> str:
    """Serialize a manifest back to JSON with paths relative to its root."""
    frames = []
    for frame in manifest.frames:
        entry: dict = {
            "cloud": frame.cloud_path.relative_to(manifest.root).as_posix(),
            "intrinsics": intrinsics_to_json(frame.intrinsics),
            "pose": pose_to_json(frame.pose),
            "objects": [
                {
                    "category": obj.category,
                    "rect": [obj.rect.u_min, obj.rect.v_min, obj.rect.u_max, obj.rect.v_max],
                    "box": box_to_json(obj.box),
                }
                for obj in frame.objects
            ],
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
