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
import os
import re
import stat
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

# assign_scale, best_cropbox, candidate_centers, encode, decode and fd_check go unused
# here: perfbench's traced run wraps them in this module too
from .cropbox import (
    TARGET_XY_DEFAULT,
    TARGET_Z_DEFAULT,
    THRESHOLD_DEFAULT,
    SizeSearchConfig,
    assign_scale,
    best_cropbox,
    candidate_centers,
    check_subdivision,
    choose_crop,
    get_scale_spec,
    own_scale_spec,
    recall_curves,
    select_min_size,
    CURVE_CSV_HEADER,
    SCALE_SPECS,
)
from .csvio import csv_values, write_csv
from .dhs import D_MAX_DEFAULT, H_MAX_DEFAULT, H_MIN_DEFAULT, depth_to_dhs, read_range_image
from .errors import (
    FrustumKitError,
    InfeasibleSizeError,
    InvariantViolation,
    ManifestError,
    NoCandidatesError,
    UnsupportedScaleError,
)
from .evalkit import (
    IOU_THRESH_DEFAULT,
    LabeledBox,
    evaluate,
    write_category_csv,
    write_histogram_csv,
)
from .geometry import CENTER_MODES, project_cloud, read_cloud_binary
from .head import (
    Anchor,
    compute_anchors,
    decode,
    encode,
    fd_check,
    gradient_check,
    read_anchor_csv,
    round_trip_error,
    write_anchor_csv,
)
from .manifest import Manifest, iter_object_samples, load_detections, load_manifest
from .netshape import (
    NAIVE_DIM_CAP,
    check_naive_size,
    default_layers,
    forward_naive,
    layers_from_json,
    propagate,
)
from .outfile import open_output
from .pipesim import (
    DRIFT_CSV_HEADER,
    PIPELINE_MODES,
    STALE_SWEEP_SCALE,
    StageTiming,
    exact_throughput_fps,
    simulate,
    stale_frustum_experiment,
    write_trace_csv,
)
from .scenegen import DEFAULT_DENSITY, random_scene, write_dataset
from .voxelizer import voxelize, write_sparse_csv, write_voxel_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_INVARIANT = 5

#: An argument that matches this is a negative number, not a flag. argparse's
#: own pattern (-1, -.5) misses the exponent forms (-1e-1, -1E+2, -.5e3) and
#: the infinity and NaN spellings float() takes in any case (-inf, -Infinity, -nan).
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


# --- small flag parsers ------------------------------------------------------


def _entries(text: str, flag: str) -> list[str]:
    """The stripped comma-separated entries of a list flag, blank ones skipped; there must be one."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if not entries:
        raise FrustumKitError(f"{flag} expects at least one value")
    return entries


def _parse_floats(text: str, flag: str) -> list[float]:
    entries = _entries(text, flag)
    try:
        return [float(v) for v in entries]
    except ValueError as exc:
        raise FrustumKitError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _parse_dims(text: str, flag: str, example: str) -> tuple[int, ...]:
    """Positive integers joined by 'x', as many as ``example`` has."""
    try:
        dims = tuple(int(p) for p in text.split("x"))
    except ValueError:
        dims = ()
    if len(dims) != example.count("x") + 1 or min(dims) < 1:
        raise FrustumKitError(f"{flag} expects positive integers like {example}, got {text!r}")
    return dims


def _check_non_negative(args: argparse.Namespace) -> None:
    # every int option is a count, an index or a seed
    for name, value in vars(args).items():
        if type(value) is int and value < 0:
            raise FrustumKitError(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def _file_key(path: str | Path) -> tuple[int, int] | str | None:
    """What every name of one file shares: a regular file's device and inode, or the resolved name of a
    path not yet written; None for a device, FIFO or directory, which may be named twice."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _check_outputs(outputs: Sequence[str | None], inputs: Sequence[str | Path | None]) -> None:
    """Refuse outputs that name one regular file twice or name one of the inputs; a device or FIFO such
    as ``/dev/null`` may be named twice."""
    named: dict = {}
    for out in filter(None, outputs):
        key = _file_key(out)
        if key in named:
            raise FrustumKitError(f"output {out} and {named[key]} name the same file")
        if key is not None:
            named[key] = out
    for path in filter(None, inputs if named else ()):
        if (out := named.get(_file_key(path))) is not None:
            raise FrustumKitError(f"output {out} and {path} name the same file")


def _load_manifest(args: argparse.Namespace, *outputs: str | None) -> Manifest:
    """``--manifest``, loaded once no output names another output, the manifest or ``--dets``, and returned
    once none names a cloud, range image or anchors file that the manifest names: before any write."""
    _check_outputs(outputs, (args.manifest, getattr(args, "dets", None)))
    manifest = load_manifest(args.manifest)
    files = (p for frame in manifest.frames for p in (frame.cloud_path, frame.range_image_path))
    _check_outputs(outputs, (manifest.anchors_path, *files))
    return manifest


def _pick(items: Sequence, index: int, item: str, holder: str):
    if not 0 <= index < len(items):
        raise FrustumKitError(f"{item} index {index} out of range ({holder} has {len(items)} {item}s)")
    return items[index]


def _require_labels(manifest: Manifest) -> None:
    if manifest.n_objects == 0:
        raise FrustumKitError("manifest contains no labeled objects")


def _samples(manifest: Manifest) -> list:
    _require_labels(manifest)
    return list(iter_object_samples(manifest))


def _anchors_from_labels(manifest: Manifest) -> dict[str, Anchor]:
    _require_labels(manifest)
    boxes_by_category: dict[str, list] = {}
    for frame in manifest.frames:
        for obj in frame.objects:
            boxes_by_category.setdefault(obj.category, []).append(obj.box)
    return compute_anchors(boxes_by_category)


def _search_curves(args: argparse.Namespace, *outputs: str | None) -> tuple[Manifest, list]:
    """A search command's manifest and recall curves; checks the manifest and outputs, then the flags, then
    the labels."""
    manifest = _load_manifest(args, *outputs)
    cfg = SizeSearchConfig(
        side_candidates=_parse_floats(args.sides, "--sides"),
        height_candidates=_parse_floats(args.heights, "--heights"),
        threshold_xy=args.threshold_xy,
        threshold_z=args.threshold_z,
        fr_fc=[_parse_dims(e, "--fr-fc", "3x3") for e in _entries(args.fr_fc, "--fr-fc")],
    )
    return manifest, recall_curves(_samples(manifest), cfg, mode=args.mode)


# --- subcommands -------------------------------------------------------------


def _cmd_gen_scenes(args: argparse.Namespace) -> int:
    specs = (
        random_scene(
            seed=args.seed + i,
            n_objects=args.objects,
            occlusion=not args.no_occlusion,
            density=args.density,
            with_floor=not args.no_floor,
        )
        for i in range(args.count)
    )
    manifest_file, n_kept, n_rendered = write_dataset(args.out, specs, range_images=not args.no_range_images)
    print(f"gen-scenes: wrote {args.count} scenes, kept {n_kept}/{n_rendered} labeled objects -> {manifest_file}")
    return EXIT_OK


def _cmd_dhs(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args, args.out + ".f32", args.out + ".u8" if args.uint8 else None)
    frame = _pick(manifest.frames, args.frame, "frame", "manifest")
    if frame.range_image_path is None:
        raise FrustumKitError(f"frame {args.frame} has no range image in the manifest")
    img = read_range_image(frame.range_image_path, frame.intrinsics, frame.pose)
    channels = depth_to_dhs(img, d_max=args.d_max, h_min=args.h_min, h_max=args.h_max)
    f32_path = Path(args.out + ".f32")
    with open_output(f32_path) as fh:
        fh.write(channels.to_float32_planes())
    written = [str(f32_path)]
    if args.uint8:
        u8_path = Path(args.out + ".u8")
        with open_output(u8_path) as fh:
            fh.write(channels.to_uint8().tobytes())
        written.append(str(u8_path))
    rows, cols = channels.d.shape
    print(f"dhs: frame {args.frame} -> {rows}x{cols} x3 channels, wrote {', '.join(written)}")
    return EXIT_OK


def _cmd_recall_curves(args: argparse.Namespace) -> int:
    manifest, curves = _search_curves(args, args.out)
    write_csv(args.out, CURVE_CSV_HEADER, map(csv_values, curves), "\n")
    print(f"recall-curves: wrote {len(curves)} rows over {manifest.n_objects} objects -> {args.out}")
    return EXIT_OK


def _cmd_select_size(args: argparse.Namespace) -> int:
    _, curves = _search_curves(args)
    side, height = select_min_size(curves, target_xy=args.target_xy, target_z=args.target_z)
    print(f"select-size: side_m={side:.12g} height_m={height:.12g}")
    return EXIT_OK


def _cmd_voxelize(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args, args.out, args.sparse)
    frame = _pick(manifest.frames, args.frame, "frame", "manifest")
    obj = _pick(frame.objects, args.object, "object", "frame")
    check_subdivision(args.fr, args.fc)
    spec = own_scale_spec(obj.box) if args.scale == "auto" else get_scale_spec(args.scale)
    cloud = read_cloud_binary(frame.cloud_path)
    projection = project_cloud(cloud, frame.intrinsics, frame.pose)
    crop, breakdown = choose_crop(projection, obj.rect, obj.box, spec, args.fr, args.fc, args.mode)
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
    manifest = _load_manifest(args, args.out)
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
    worst_round_trip, n_checked, n_skipped = round_trip_error(_samples(manifest), anchors)
    worst_fd = gradient_check(args.seed, args.fd_cases)
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


def _cmd_evaluate(args: argparse.Namespace) -> int:
    categories_csv = args.out_prefix + "_categories.csv"
    iou_csv = args.out_prefix + "_iou_hist.csv"
    ori_csv = args.out_prefix + "_orientation_hist.csv"
    manifest = _load_manifest(args, categories_csv, iou_csv, ori_csv)
    detections = load_detections(args.dets, manifest)
    frames = [
        (dets, [LabeledBox(o.category, o.box) for o in frame.objects])
        for dets, frame in zip(detections, manifest.frames)
    ]
    report = evaluate(frames, iou_thresh=args.iou)
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
    manifest = _load_manifest(args, args.out)
    drifts = _parse_floats(args.drifts, "--drifts")
    rows = stale_frustum_experiment(
        _samples(manifest),
        drifts,
        spec=args.scale,
        threshold_xy=args.threshold_xy,
        threshold_z=args.threshold_z,
    )
    write_csv(args.out, DRIFT_CSV_HEADER, map(csv_values, rows), "\n")
    first, last = rows[0], rows[-1]
    print(
        f"stale-sweep: mean ioi_3d {first.mean_ioi_3d:.4f} @ drift {first.drift_px:g}px -> "
        f"{last.mean_ioi_3d:.4f} @ drift {last.drift_px:g}px ({len(rows)} rows) -> {args.out}"
    )
    return EXIT_OK


def _cmd_netshape(args: argparse.Namespace) -> int:
    if args.grid is not None:
        dims = _parse_dims(args.grid, "--grid", "198x198x102")
    else:
        dims = get_scale_spec(args.scale).grid
    if args.layers_json is not None:
        layers = layers_from_json(Path(args.layers_json).read_bytes())
    else:
        layers = default_layers(args.categories)
    plan = propagate((*dims, 1), layers)
    print(plan.table())
    if args.forward_seed is not None:
        check_naive_size(plan)  # before the counts are drawn
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
    p.add_argument("--mode", choices=CENTER_MODES, default="average")
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
    p.add_argument("--mode", choices=CENTER_MODES, default="average")
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
    p.add_argument("--mode", choices=PIPELINE_MODES, required=True)
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

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.allow_abbrev = False  # one spelling per flag: a prefix is an unknown argument
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


if __name__ == "__main__":
    sys.exit(main())
