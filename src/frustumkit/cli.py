"""Command-line front door tying the library into reproducible experiments.

Every subcommand reads a manifest or explicit flags and writes CSV or binary
artifacts. Output is deterministic given (manifest, config, seed): re-running
a command produces byte-identical files. Exit codes are: 0 success, 2 usage
or configuration error, 3 I/O or malformed manifest, 4 infeasible request
(no candidates, unreachable recall target, unsupported scale class), 5
violated numerical invariant.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .cropbox import (
    TARGET_XY_DEFAULT,
    TARGET_Z_DEFAULT,
    THRESHOLD_DEFAULT,
    SizeSearchConfig,
    assign_scale,
    best_cropbox,
    candidate_centers,
    curve_point_to_csv_row,
    get_scale_spec,
    recall_curves,
    select_min_size,
    split_frames,
    CURVE_CSV_HEADER,
    SCALE_SPECS,
    SUBDIVISIONS,
)
from .dhs import D_MAX_DEFAULT, H_MAX_DEFAULT, H_MIN_DEFAULT, depth_to_dhs, read_range_image, write_range_image
from .errors import (
    EncodeDomainError,
    FrustumKitError,
    InfeasibleSizeError,
    InvariantViolation,
    ManifestError,
    NoCandidatesError,
    UnsupportedScaleError,
)
from .evalkit import (
    IOU_THRESH_DEFAULT,
    Detection,
    LabeledBox,
    evaluate,
    write_category_csv,
    write_histogram_csv,
)
from .geometry import read_cloud_binary, write_cloud_binary
from .head import (
    Anchor,
    HeadVector,
    LossWeights,
    compute_anchors,
    decode,
    encode,
    fd_check,
    read_anchor_csv,
    write_anchor_csv,
)
from .manifest import (
    Manifest,
    ManifestFrame,
    ManifestObject,
    box_from_json,
    check_json_keys,
    iter_object_samples,
    load_manifest,
    manifest_to_json,
    parse_json,
)
from .netshape import (
    NAIVE_DIM_CAP,
    default_layers,
    forward_naive,
    layers_from_json,
    propagate,
)
from .pipesim import (
    DRIFT_CSV_HEADER,
    STALE_SWEEP_SCALE,
    StageTiming,
    drift_row_to_csv,
    exact_throughput_fps,
    simulate,
    stale_frustum_experiment,
    write_trace_csv,
)
from .scenegen import CATEGORY_PRESETS, DEFAULT_DENSITY, random_scene, render
from .voxelizer import voxelize, write_sparse_csv, write_voxel_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INVARIANT = 5


# --- small flag parsers ------------------------------------------------------


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise FrustumKitError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise FrustumKitError(f"{flag} expects at least one value")
    return values


def _parse_fr_fc(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("x")
        if len(parts) != 2:
            raise FrustumKitError(f"--fr-fc expects entries like 1x1 or 3x3, got {chunk!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FrustumKitError(f"--fr-fc entry {chunk!r} is not two integers") from exc
    if not pairs:
        raise FrustumKitError("--fr-fc expects at least one RxC entry")
    return pairs


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.split("x")
    if len(parts) != 3:
        raise FrustumKitError(f"--grid expects WxDxH like 198x198x102, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FrustumKitError(f"--grid entries must be integers, got {text!r}") from exc
    if any(d < 1 for d in dims):
        raise FrustumKitError("--grid dimensions must be positive")
    return dims  # type: ignore[return-value]


def _check_non_negative(args: argparse.Namespace) -> None:
    # every int option is a count, an index or a seed
    for name, value in vars(args).items():
        if type(value) is int and value < 0:
            raise FrustumKitError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def _get_frame(manifest: Manifest, index: int) -> ManifestFrame:
    if not 0 <= index < len(manifest.frames):
        raise FrustumKitError(
            f"frame index {index} out of range (manifest has {len(manifest.frames)} frames)"
        )
    return manifest.frames[index]


def _samples(manifest: Manifest) -> list:
    samples = list(iter_object_samples(manifest))
    if not samples:
        raise FrustumKitError("manifest contains no labeled objects")
    return samples


def _anchors_from_labels(manifest: Manifest) -> dict[str, Anchor]:
    boxes_by_category: dict[str, list] = {}
    for frame in manifest.frames:
        for obj in frame.objects:
            boxes_by_category.setdefault(obj.category, []).append(obj.box)
    if not boxes_by_category:
        raise FrustumKitError("manifest contains no labeled objects")
    return compute_anchors(boxes_by_category)


def _search_config(args: argparse.Namespace) -> SizeSearchConfig:
    return SizeSearchConfig(
        side_candidates=_parse_floats(args.sides, "--sides"),
        height_candidates=_parse_floats(args.heights, "--heights"),
        threshold_xy=args.threshold_xy,
        threshold_z=args.threshold_z,
        fr_fc=_parse_fr_fc(args.fr_fc),
    )


# --- subcommands -------------------------------------------------------------


def _cmd_gen_scenes(args: argparse.Namespace) -> int:
    out = Path(args.out)
    frames: list[ManifestFrame] = []
    n_rendered = 0
    n_kept = 0
    for i in range(args.count):
        spec = random_scene(
            seed=args.seed + i,
            n_objects=args.objects,
            occlusion=not args.no_occlusion,
            density=args.density,
            with_floor=not args.no_floor,
        )
        scene = render(spec)
        # made once a scene has rendered, so a run rejected by its first scene leaves nothing behind
        out.mkdir(parents=True, exist_ok=True)
        cloud_path = (out / f"scene_{i:04d}.cloud").resolve()
        write_cloud_binary(scene.cloud, cloud_path)
        range_path = None
        if not args.no_range_images:
            range_path = (out / f"scene_{i:04d}.rng").resolve()
            write_range_image(scene.range_image, range_path)
        objects = tuple(
            ManifestObject(category=o.category, rect=o.rect, box=o.box)
            for o in scene.objects
            if o.rect is not None
        )
        n_rendered += len(scene.objects)
        n_kept += len(objects)
        frames.append(
            ManifestFrame(
                cloud_path=cloud_path,
                range_image_path=range_path,
                intrinsics=spec.intrinsics,
                pose=spec.pose,
                objects=objects,
            )
        )
    out.mkdir(parents=True, exist_ok=True)  # --count 0 still writes an empty manifest
    manifest = Manifest(
        root=out.resolve(),
        categories=tuple(sorted(CATEGORY_PRESETS)),
        anchors_path=None,
        frames=tuple(frames),
    )
    manifest_file = out / "manifest.json"
    manifest_file.write_text(manifest_to_json(manifest), encoding="utf-8")
    print(
        f"gen-scenes: wrote {args.count} scenes, kept {n_kept}/{n_rendered} "
        f"labeled objects -> {manifest_file}"
    )
    return EXIT_OK


def _cmd_dhs(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    frame = _get_frame(manifest, args.frame)
    if frame.range_image_path is None:
        raise FrustumKitError(f"frame {args.frame} has no range image in the manifest")
    img = read_range_image(frame.range_image_path, frame.intrinsics, frame.pose)
    channels = depth_to_dhs(img, d_max=args.d_max, h_min=args.h_min, h_max=args.h_max)
    f32_path = Path(args.out + ".f32")
    f32_path.write_bytes(channels.to_float32_planes())
    written = [str(f32_path)]
    if args.uint8:
        u8_path = Path(args.out + ".u8")
        u8_path.write_bytes(channels.to_uint8().tobytes())
        written.append(str(u8_path))
    rows, cols = channels.d.shape
    print(f"dhs: frame {args.frame} -> {rows}x{cols} x3 channels, wrote {', '.join(written)}")
    return EXIT_OK


def _cmd_recall_curves(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    cfg = _search_config(args)
    curves = recall_curves(_samples(manifest), cfg, mode=args.mode)
    lines = [CURVE_CSV_HEADER] + [curve_point_to_csv_row(p) for p in curves]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"recall-curves: wrote {len(curves)} rows over {manifest.n_objects} objects -> {args.out}")
    return EXIT_OK


def _cmd_select_size(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    cfg = _search_config(args)
    curves = recall_curves(_samples(manifest), cfg, mode=args.mode)
    side, height = select_min_size(curves, target_xy=args.target_xy, target_z=args.target_z)
    print(f"select-size: side_m={side:.12g} height_m={height:.12g}")
    return EXIT_OK


def _cmd_voxelize(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    frame = _get_frame(manifest, args.frame)
    if not 0 <= args.object < len(frame.objects):
        raise FrustumKitError(
            f"object index {args.object} out of range (frame has {len(frame.objects)} objects)"
        )
    obj = frame.objects[args.object]
    if (args.fr, args.fc) not in SUBDIVISIONS:
        raise FrustumKitError(f"--fr/--fc subdivision ({args.fr}, {args.fc}) not in {list(SUBDIVISIONS)}")
    if args.scale == "auto":
        spec = get_scale_spec(assign_scale(obj.box.width, obj.box.depth, obj.box.height))
    else:
        spec = get_scale_spec(args.scale)
    cloud = read_cloud_binary(frame.cloud_path)
    candidates = candidate_centers(
        cloud, obj.rect, frame.intrinsics, pose=frame.pose, fr=args.fr, fc=args.fc, mode=args.mode
    )
    crop, breakdown = best_cropbox(obj.box, candidates, spec)
    grid = voxelize(cloud, crop, spec)
    write_voxel_grid(grid, args.out)
    written = [args.out]
    if args.sparse is not None:
        write_sparse_csv(grid, args.sparse)
        written.append(args.sparse)
    print(
        f"voxelize: {obj.category} grid {grid.dims[0]}x{grid.dims[1]}x{grid.dims[2]}, "
        f"{grid.total_points} points in {grid.cells.size} cells, "
        f"ioi_3d={breakdown.ioi_3d:.6g}, wrote {', '.join(written)}"
    )
    return EXIT_OK


def _cmd_anchors(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    anchors = _anchors_from_labels(manifest)
    write_anchor_csv(anchors, args.out)
    for name in sorted(anchors):
        a = anchors[name]
        print(f"anchors: {name} a_w={a.a_w:.6g} a_d={a.a_d:.6g} a_h={a.a_h:.6g}")
    print(f"anchors: wrote {len(anchors)} rows -> {args.out}")
    return EXIT_OK


def _cmd_encode_check(args: argparse.Namespace) -> int:
    if not (0 <= args.tolerance < math.inf):
        raise FrustumKitError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    manifest = load_manifest(args.manifest)
    anchors_path = args.anchors if args.anchors is not None else manifest.anchors_path
    if anchors_path is not None:
        anchors = read_anchor_csv(anchors_path)
    else:
        anchors = _anchors_from_labels(manifest)
    worst_round_trip = 0.0
    n_checked = 0
    n_skipped = 0
    for frame, projection in split_frames(_samples(manifest)):
        for sample in frame:
            if sample.category not in anchors:
                raise FrustumKitError(f"no anchor for category {sample.category!r}")
            anchor = anchors[sample.category]
            spec = get_scale_spec(
                assign_scale(sample.gt_box.width, sample.gt_box.depth, sample.gt_box.height)
            )
            candidates = candidate_centers(
                sample.cloud, sample.rect, sample.intrinsics, pose=sample.pose, projection=projection
            )
            crop, _ = best_cropbox(sample.gt_box, candidates, spec)
            try:
                vec = encode(sample.gt_box, crop, anchor)
            except EncodeDomainError:
                n_skipped += 1
                continue
            back = decode(vec, crop, anchor)
            err = max(
                float(np.max(np.abs(back.center - sample.gt_box.center))),
                abs(back.width - sample.gt_box.width),
                abs(back.depth - sample.gt_box.depth),
                abs(back.height - sample.gt_box.height),
                abs(float(np.cos(back.yaw) - np.cos(sample.gt_box.yaw))),
                abs(float(np.sin(back.yaw) - np.sin(sample.gt_box.yaw))),
            )
            worst_round_trip = max(worst_round_trip, err)
            n_checked += 1
    rng = np.random.default_rng(args.seed)
    weights = LossWeights()
    worst_fd = 0.0
    for _ in range(args.fd_cases):
        vecs = []
        for _ in range(2):
            yaw = rng.uniform(-np.pi, np.pi)
            vecs.append(
                HeadVector(
                    ori_cos=float(np.cos(yaw)),
                    ori_sin=float(np.sin(yaw)),
                    tx=float(rng.uniform(0.0, 1.0)),
                    ty=float(rng.uniform(0.0, 1.0)),
                    tz=float(rng.uniform(0.0, 1.0)),
                    lw=float(rng.normal(0.0, 0.5)),
                    ld=float(rng.normal(0.0, 0.5)),
                    lh=float(rng.normal(0.0, 0.5)),
                )
            )
        worst_fd = max(worst_fd, fd_check(vecs[0], vecs[1], weights))
    print(
        f"encode-check: {n_checked} objects round-trip (max abs error {worst_round_trip:.3g}), "
        f"{n_skipped} skipped with center outside crop; "
        f"gradient check over {args.fd_cases} cases (max rel disagreement {worst_fd:.3g})"
    )
    if n_checked and worst_round_trip > args.tolerance:
        raise InvariantViolation(
            f"encode/decode round trip error {worst_round_trip:.3g} exceeds {args.tolerance:g}"
        )
    if worst_fd > 1e-4:
        raise InvariantViolation(f"analytic gradient disagrees with finite differences: {worst_fd:.3g}")
    return EXIT_OK


_DET_KEYS = {"category", "score", "box"}


def _load_detections(path: str, manifest: Manifest) -> list[list[Detection]]:
    data = parse_json(Path(path).read_bytes(), f"detections file {path}")
    check_json_keys(data, {"frames"}, {"frames"}, "detections file")
    frames_value = data["frames"]
    if not isinstance(frames_value, list) or len(frames_value) != len(manifest.frames):
        raise ManifestError(
            f"detections must list one entry per manifest frame "
            f"({len(manifest.frames)} expected)"
        )
    out: list[list[Detection]] = []
    for entry in frames_value:
        if not isinstance(entry, list):
            raise ManifestError("each detections frame must be a list")
        dets = []
        for det in entry:
            check_json_keys(det, _DET_KEYS, _DET_KEYS, "detection")
            if det["category"] not in manifest.categories:
                raise ManifestError(f"detection category {det['category']!r} not in vocabulary")
            score = det["score"]
            if isinstance(score, bool) or not isinstance(score, (int, float)) or not 0 <= score <= 1:
                raise ManifestError(f"detection score must be a number in [0, 1], got {score!r}")
            dets.append(Detection(box=box_from_json(det["box"]), category=det["category"], score=float(score)))
        out.append(dets)
    return out


def _cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    detections = _load_detections(args.dets, manifest)
    frames = [
        (dets, [LabeledBox(o.category, o.box) for o in frame.objects])
        for dets, frame in zip(detections, manifest.frames)
    ]
    report = evaluate(frames, iou_thresh=args.iou)
    categories_csv = args.out_prefix + "_categories.csv"
    iou_csv = args.out_prefix + "_iou_hist.csv"
    ori_csv = args.out_prefix + "_orientation_hist.csv"
    write_category_csv(report.rows, categories_csv)
    write_histogram_csv(report.iou_values, iou_csv)
    write_histogram_csv(report.orientation_values, ori_csv)
    for row in report.rows:
        print(
            f"evaluate: {row.category} ap={row.ap:.4f} recall={row.recall:.4f} "
            f"n_gt={row.n_gt} n_det={row.n_det}"
        )
    print(f"evaluate: wrote {categories_csv}, {iou_csv}, {ori_csv}")
    return EXIT_OK


def _cmd_pipesim(args: argparse.Namespace) -> int:
    timing = StageTiming(t_2d=args.t2d, t_3d=args.t3d)
    trace = simulate(args.frames, timing, args.mode)
    print(f"pipesim: {trace.summary()}")
    if args.mode == "pipelined":
        fps: Fraction = exact_throughput_fps(timing)
        print(f"pipesim: exact pipelined throughput {fps} fps = {float(fps):.6g} fps")
    if args.csv is not None:
        write_trace_csv(trace, args.csv)
        print(f"pipesim: wrote {args.frames}-frame trace -> {args.csv}")
    return EXIT_OK


def _cmd_stale_sweep(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    drifts = _parse_floats(args.drifts, "--drifts")
    rows = stale_frustum_experiment(
        _samples(manifest),
        drifts,
        spec=args.scale,
        threshold_xy=args.threshold_xy,
        threshold_z=args.threshold_z,
    )
    lines = [DRIFT_CSV_HEADER] + [drift_row_to_csv(r) for r in rows]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    first, last = rows[0], rows[-1]
    print(
        f"stale-sweep: mean ioi_3d {first.mean_ioi_3d:.4f} @ drift {first.drift_px:g}px -> "
        f"{last.mean_ioi_3d:.4f} @ drift {last.drift_px:g}px ({len(rows)} rows) -> {args.out}"
    )
    return EXIT_OK


def _cmd_netshape(args: argparse.Namespace) -> int:
    if args.grid is not None:
        dims = _parse_dims(args.grid)
    else:
        spec = get_scale_spec(args.scale)
        dims = spec.grid
    if args.layers_json is not None:
        layers = layers_from_json(Path(args.layers_json).read_bytes())
    else:
        layers = default_layers(args.categories)
    plan = propagate((*dims, 1), layers)
    print(plan.table())
    if args.forward_seed is not None:
        if max(dims) > NAIVE_DIM_CAP:
            raise FrustumKitError(
                f"--forward-seed needs every grid dimension <= {NAIVE_DIM_CAP}, got {dims}"
            )
        counts = np.random.default_rng(args.forward_seed).poisson(0.5, size=dims)
        out = forward_naive(counts, plan, weights_seed=args.forward_seed)
        print(
            f"netshape: forward ok, output length {out.size}, "
            f"checksum {float(np.abs(out).sum()):.12g}"
        )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_manifest_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", required=True, help="path to manifest.json")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    _add_manifest_flag(p)
    p.add_argument("--sides", required=True, help="comma-separated crop side candidates (m)")
    p.add_argument("--heights", required=True, help="comma-separated crop height candidates (m)")
    p.add_argument("--mode", choices=["average", "median"], default="average")
    p.add_argument("--threshold-xy", type=float, default=THRESHOLD_DEFAULT, help="per-object footprint IoI threshold")
    p.add_argument("--threshold-z", type=float, default=THRESHOLD_DEFAULT, help="per-object vertical IoI threshold")
    p.add_argument("--fr-fc", default="1x1,3x3", help="subdivision grids to sweep, e.g. 1x1,3x3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frustumkit",
        description="Frustum proposal, crop sizing, voxel, and evaluation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenes", help="render seeded synthetic scenes and a manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, required=True, help="number of scenes")
    p.add_argument("--seed", type=int, required=True, help="base seed; scene i uses seed+i")
    p.add_argument("--objects", type=int, default=3, help="objects per scene")
    p.add_argument("--density", type=float, default=DEFAULT_DENSITY, help="surface samples per m^2")
    p.add_argument("--no-occlusion", action="store_true", help="disable occlusion testing")
    p.add_argument("--no-floor", action="store_true", help="omit the floor patch")
    p.add_argument("--no-range-images", action="store_true", help="skip .rng files")
    p.set_defaults(func=_cmd_gen_scenes)

    p = sub.add_parser("dhs", help="encode one frame's range image into d/h/s channels")
    _add_manifest_flag(p)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix (.f32 appended)")
    p.add_argument("--d-max", type=float, default=D_MAX_DEFAULT)
    p.add_argument("--h-min", type=float, default=H_MIN_DEFAULT)
    p.add_argument("--h-max", type=float, default=H_MAX_DEFAULT)
    p.add_argument("--uint8", action="store_true", help="also write a .u8 byte image")
    p.set_defaults(func=_cmd_dhs)

    p = sub.add_parser("recall-curves", help="sweep crop sizes and write recall rows")
    _add_search_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_recall_curves)

    p = sub.add_parser("select-size", help="smallest crop side/height reaching the recall targets")
    _add_search_flags(p)
    p.add_argument("--target-xy", type=float, default=TARGET_XY_DEFAULT, help="footprint recall target")
    p.add_argument("--target-z", type=float, default=TARGET_Z_DEFAULT, help="vertical recall target")
    p.set_defaults(func=_cmd_select_size)

    p = sub.add_parser("voxelize", help="voxelize one labeled object's best crop")
    _add_manifest_flag(p)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--object", type=int, default=0)
    p.add_argument("--out", required=True, help="output voxel grid path")
    p.add_argument(
        "--scale",
        default="auto",
        choices=["auto", *sorted(SCALE_SPECS)],
        help="scale class, or auto from the object's own dimensions",
    )
    p.add_argument("--sparse", default=None, help="optional sparse-occupancy CSV path")
    p.add_argument("--mode", choices=["average", "median"], default="average")
    p.add_argument("--fr", type=int, default=1, help="frustum subdivision rows")
    p.add_argument("--fc", type=int, default=1, help="frustum subdivision columns")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("anchors", help="per-category mean-dimension anchors CSV")
    _add_manifest_flag(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("encode-check", help="round-trip and gradient checks on manifest labels")
    _add_manifest_flag(p)
    p.add_argument("--anchors", default=None, help="anchor CSV (default: the manifest's, else from its labels)")
    p.add_argument("--seed", type=int, required=True, help="seed for gradient-check vectors")
    p.add_argument("--fd-cases", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-9, help="round-trip tolerance")
    p.set_defaults(func=_cmd_encode_check)

    p = sub.add_parser("evaluate", help="AP and center/size metrics from a detections file")
    _add_manifest_flag(p)
    p.add_argument("--dets", required=True, help='detections JSON: {"frames": [[{category,score,box}...]...]}')
    p.add_argument("--out-prefix", required=True, help="prefix for the three output CSVs")
    p.add_argument("--iou", type=float, default=IOU_THRESH_DEFAULT)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipesim", help="two-stage latency/throughput simulation")
    p.add_argument("--t2d", type=float, required=True, help="2D stage time (ms)")
    p.add_argument("--t3d", type=float, required=True, help="3D stage time (ms)")
    p.add_argument("--mode", choices=["sequential", "pipelined"], required=True)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--csv", default=None, help="optional per-frame trace CSV")
    p.set_defaults(func=_cmd_pipesim)

    p = sub.add_parser("stale-sweep", help="recall degradation under stale 2D rects")
    _add_manifest_flag(p)
    p.add_argument("--drifts", required=True, help="comma-separated pixel drifts, e.g. 0,2,4,8")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--scale", default=STALE_SWEEP_SCALE, choices=sorted(SCALE_SPECS))
    p.add_argument("--threshold-xy", type=float, default=THRESHOLD_DEFAULT)
    p.add_argument("--threshold-z", type=float, default=THRESHOLD_DEFAULT)
    p.set_defaults(func=_cmd_stale_sweep)

    p = sub.add_parser("netshape", help="network shape arithmetic")
    p.add_argument("action", choices=["check"], help="'check' prints the per-layer shape table")
    p.add_argument("--grid", default=None, help="input dims WxDxH, e.g. 198x198x102")
    p.add_argument("--scale", default="medium_short", choices=sorted(SCALE_SPECS))
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--layers-json", default=None, help="custom layer list JSON file")
    p.add_argument(
        "--forward-seed",
        type=int,
        default=None,
        help=f"also run the naive forward pass (grid dims must be <= {NAIVE_DIM_CAP})",
    )
    p.set_defaults(func=_cmd_netshape)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # stdout follows the terminal's encoding: a category name it cannot
    # encode is printed as backslash escapes instead of ending the run
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        _check_non_negative(args)
        return args.func(args)
    except (InfeasibleSizeError, NoCandidatesError, UnsupportedScaleError) as exc:
        print(f"frustumkit {args.command}: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InvariantViolation as exc:
        print(f"frustumkit {args.command}: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ManifestError as exc:
        print(f"frustumkit {args.command}: bad input: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"frustumkit {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FrustumKitError as exc:
        print(f"frustumkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
