"""frustumkit benchmark: three seeded workloads, run in-process from one command.

Usage, from the repository root:

    python3 perfbench/run.py --workload sizing|voxel|scenes|all \
        [--seed 42] [--seconds 10] [--trace 0|1] [--record]

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs a fixed amount of work twice, untraced and then traced, and reports the
per-layer metrics from the traced copy plus the tracing overhead (the
difference between the two). ``--workload all`` runs each workload in its own
process and prints every table. ``--record`` runs each workload over its whole
dataset once and adds the digests of its outputs to ``digests.json``.

Human-readable tables go to stdout first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.perfbench/`` at the repository root and are deleted at
the end of the run; traces stay in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("sizing", "voxel", "scenes")
SETUP_REPEATS = 3
LAYERS = (
    "scenegen", "manifest", "geometry", "cropbox", "pipesim", "voxelizer", "head", "evalkit", "dhs", "cli", "bench"
)

# per-layer metric -> span whose summed duration it reports
SPAN_METRICS = {
    "scenegen.render_s": "scenegen.render",
    "geometry.candidate_centers_s": "geometry.candidate_centers",
    "geometry.read_cloud_s": "geometry.read_cloud",
    "geometry.write_cloud_s": "geometry.write_cloud",
    **{
        f"cropbox.recall_curves_{f}x{f}_{mode}_s": f"cropbox.recall_curves_{f}x{f}_{mode}"
        for f in (1, 3, 5)
        for mode in ("average", "median")
    },
    "cropbox.best_cropbox_s": "cropbox.best_cropbox",
    "cropbox.select_size_s": "cropbox.select_size",
    "pipesim.stale_sweep_s": "pipesim.stale_sweep",
    "voxelizer.voxelize_s": "voxelizer.voxelize",
    "voxelizer.write_grid_s": "voxelizer.write_grid",
    "voxelizer.write_sparse_s": "voxelizer.write_sparse",
    "head.encode_s": "head.encode",
    "head.decode_s": "head.decode",
    "evalkit.evaluate_s": "evalkit.evaluate",
    "dhs.read_range_image_s": "dhs.read_range_image",
    "dhs.depth_to_dhs_s": "dhs.depth_to_dhs",
    "manifest.load_s": "manifest.load",
    "manifest.iter_samples_s": "manifest.iter_samples",
}
COUNT_METRICS = (
    "scenegen.points_out",
    "geometry.point_tile_tests",
    "cropbox.no_candidate_objects",
    "pipesim.lost_items",
    "voxelizer.cells_allocated",
    "voxelizer.cells_occupied",
    "voxelizer.points_in_crop",
    "voxelizer.bytes_written",
    "head.encode_skipped",
    "evalkit.iou_pairs",
    "dhs.pixels",
)
# ratio metric -> (numerator count, denominator count, unit); 0 when the base is 0
RATIO_METRICS = {
    "scenegen.objects_kept_frac": ("scenegen.objects_kept", "scenegen.objects_rendered", "frac"),
    "geometry.empty_tile_frac": ("geometry.empty_tiles", "geometry.tiles", "frac"),
    "geometry.ns_per_point_tile": ("geometry.candidate_centers_ns", "geometry.point_tile_tests", "ns"),
    "voxelizer.occupancy_frac": ("voxelizer.cells_occupied", "voxelizer.cells_allocated", "frac"),
    "evalkit.mean_ap": ("evalkit.ap_sum", "evalkit.ap_rows", "frac"),
    "dhs.missing_frac": ("dhs.missing", "dhs.pixels", "frac"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=42, help="workload seed; scene i of a dataset uses seed + i")
    p.add_argument("--seconds", type=float, default=10.0, help="run the whole units that take this long at reference speed")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true", help="add this code's output digests to digests.json")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_library() -> float:
    """Import frustumkit from this checkout's src/; returns the seconds it took."""
    if not (SRC / "frustumkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no frustumkit sources at {SRC}/frustumkit; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import frustumkit  # noqa: F401  (timed: numpy and the whole package)

    elapsed = time.perf_counter() - t0
    if Path(frustumkit.__file__).resolve().parent != SRC / "frustumkit":
        sys.exit(f"perfbench: imported frustumkit from {frustumkit.__file__}, not from {SRC}")
    return elapsed


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    return max(0, int(100 * (1 - 10 / n))) if n > 10 else 0


def units_for(wl, seconds: float) -> int:
    """Whole units that take about ``seconds`` at the reference host speed, at least one.

    The count is fixed before measuring, so every run of a workload does the same
    work; stopping on a measured time would give fast runs an extra unit.
    """
    return max(1, round(seconds / wl.unit_seconds))


def run_units(wl, ctx, units: int) -> dict:
    done = [wl.unit(ctx, index) for index in range(units)]
    if hasattr(wl, "finish"):
        done.append(wl.finish(ctx))
    return {
        "units": units,
        "objects": sum(u.objects for u in done),
        **{key: sum(getattr(u, key) for u in done) for key in ("raw_s", "norm_s")},
        **{key: [s for u in done for s in getattr(u, key)] for key in ("raw_ms", "norm_ms")},
    }


def layer_counts(tracer) -> dict:
    """The tracer's counts plus the candidate_centers span total in ns, the base of ns_per_point_tile."""
    counts = dict(tracer.counts)
    centers = tracer.totals().get("geometry.candidate_centers", {})
    counts["geometry.candidate_centers_ns"] = centers.get("span_s", 0.0) * 1e9
    return counts


def per_layer_metrics(tracer, ref: dict, traced: dict) -> dict:
    totals = tracer.totals()
    counts = layer_counts(tracer)
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = (totals.get(span, {}).get("span_s", 0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    for name, (num, den, unit) in RATIO_METRICS.items():
        d = counts.get(den, 0)
        metrics[name] = (counts.get(num, 0) / d if d else 0.0, unit)
    layer_self = tracer.layer_self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    overhead = traced["norm_s"] - ref["norm_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / ref["norm_s"], "frac")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def ratio_bases(tracer) -> list[str]:
    c = layer_counts(tracer)
    return [
        f"{name} = {c.get(num, 0):.12g} / {c.get(den, 0):.12g} ({num} / {den})"
        for name, (num, den, _) in RATIO_METRICS.items()
        if num in c or den in c
    ]


def print_table(title: str, metrics: dict, notes: list[str]) -> None:
    print(title)
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit}")
    for note in notes:
        print(f"  # {note}")


def run_workload(args) -> int:
    import_raw_s = import_library()
    import workloads
    from calibrate import REFERENCE_S, Clock
    from digests import DigestBook
    from instrument import instrumented
    from spans import NullTracer, Tracer

    clock = Clock()
    import_s = import_raw_s * REFERENCE_S / clock.last
    work = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    book = DigestBook(record=args.record)
    ctx = workloads.Context(seed=args.seed, work=work, tracer=NullTracer(), book=book, clock=clock)
    wl = workloads.WORKLOADS[args.workload]()
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            wl.setup(ctx, 1)
            full = len(wl.data.frames) // workloads.VOXEL_BLOCK_FRAMES if args.workload == "voxel" else 1
            run_units(wl, ctx, full)
        elif args.trace:
            tracer = Tracer()
            ctx.tracer = tracer
            with instrumented(tracer):
                wl.setup(ctx, 1)
            ctx.tracer = NullTracer()
            ref = run_units(wl, ctx, wl.fixed_units)
            ctx.tracer = tracer
            with instrumented(tracer):
                traced = run_units(wl, ctx, wl.fixed_units)
            metrics = per_layer_metrics(tracer, ref, traced)
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "units": wl.fixed_units})
            notes = ratio_bases(tracer) + [
                f"traced work: {traced['units']} unit(s), {traced['objects']} objects; untraced copy "
                f"{ref['norm_s']:.4f} s, traced {traced['norm_s']:.4f} s (normalized; raw "
                f"{ref['raw_s']:.4f} s and {traced['raw_s']:.4f} s)",
                "computed from array and file sizes: point_tile_tests, cells_allocated, bytes_written, iou_pairs",
                f"spans written to {trace_path.relative_to(ROOT)}",
            ]
        else:
            setup = wl.setup(ctx, SETUP_REPEATS)
            stats = run_units(wl, ctx, units_for(wl, args.seconds))
            samples = stats["norm_ms"]
            metrics = {
                "setup_s": (import_s + statistics.median(setup.norm_ms) / 1e3, "s"),
                "objects_per_s": (stats["objects"] / stats["norm_s"], "1/s"),
                "op_p50_ms": (percentile(samples, 50), "ms"),
                "op_p90_ms": (percentile(samples, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            tail = tail_percentile(len(samples))
            op = {"sizing": "pass", "voxel": "object", "scenes": "frame"}[args.workload]
            raw = stats["raw_ms"]
            kernels = sorted(clock.kernels)
            notes = [
                f"times normalized to the reference host speed (calibrate.py); kernel {kernels[0] * 1e3:.2f}/"
                f"{statistics.median(kernels) * 1e3:.2f}/{kernels[-1] * 1e3:.2f} ms min/median/max over "
                f"{len(kernels)} timings, reference {REFERENCE_S * 1e3:.2f} ms",
                f"op = one {op}; {len(samples)} latency samples over {stats['units']} unit(s), "
                f"{stats['objects']} objects in {stats['norm_s']:.3f} s of normalized op time",
                f"{op}_p50_ms = {percentile(samples, 50):.4f}"
                + (f", {op}_p{tail}_ms = {percentile(samples, tail):.4f} (the highest percentile with "
                   ">= 10 samples beyond it)" if tail else ""),
                f"raw wall: objects_per_s = {stats['objects'] / stats['raw_s']:.4f}, op_p50_ms = "
                f"{percentile(raw, 50):.4f}, op_p90_ms = {percentile(raw, 90):.4f}, setup_s = "
                f"{import_raw_s + statistics.median(setup.raw_ms) / 1e3:.4f}",
                f"setup: import {import_s:.4f} s + median of {[round(t / 1e3, 4) for t in setup.norm_ms]} s",
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record:
        added = book.save()
        print(f"recorded {len(book.seen)} digests for {args.workload} seed {args.seed} ({added} new)")
        if ctx.failures:
            print(f"  {ctx.failed} failed ops, e.g. {ctx.failures[0]}")
        return 1 if book.conflicts or ctx.broken else 0

    correct = not (book.mismatched or book.conflicts or ctx.broken)
    notes += [
        f"fail_frac = {ctx.failed / ctx.attempted:.6f} ({ctx.failed} of {ctx.attempted} ops)",
        f"outputs_mismatched = {len(book.mismatched)} (of {book.checked} checked against recorded digests; "
        f"{book.unrecorded} outputs have no recorded digest for this seed)",
    ]
    notes += [f"failed: {f}" for f in ctx.failures[:5]]
    notes += [f"MISMATCH: {k}" for k in book.mismatched[:5]]
    notes += [f"CHECK FAILED: {b}" for b in ctx.broken[:5]]
    notes += [f"NONDETERMINISTIC: {k}" for k in book.conflicts[:5]]
    print_table(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}", metrics, notes)
    result = {
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd.append("--record")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if lines and not args.record else lines))
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        if args.record:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if not args.record:
        print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
