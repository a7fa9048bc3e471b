"""Wrap frustumkit's cross-module calls in spans for the traced run.

``instrumented(tracer)`` replaces module attributes with wrappers for as long
as the block runs and puts the originals back afterwards. A wrapper records
one span around the call and, where the call's arguments or result hold a
per-layer count, adds it to the tracer's counters after the span has ended.
Counts marked *computed* are derived from array sizes, not observed work.

Calls that the library makes into another module through a name it imported
(``pipesim`` calling ``candidate_centers``) are wrapped under that name too,
so a whole-dataset call's span has its per-object work as children.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from frustumkit import cli, cropbox, dhs, evalkit, geometry, head, manifest, pipesim, scenegen, voxelizer
from frustumkit.errors import EncodeDomainError, NoCandidatesError


def _plain(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _render(tracer, name, fn):
    def wrapper(spec):
        with tracer.span(name):
            scene = fn(spec)
        tracer.count("scenegen.points_out", len(scene.cloud))
        tracer.count("scenegen.objects_rendered", len(scene.objects))
        tracer.count("scenegen.objects_kept", sum(o.rect is not None for o in scene.objects))
        return scene

    return wrapper


def _candidate_centers(tracer, name, fn):
    def wrapper(cloud, rect, k, pose=None, fr=1, fc=1, mode="average", **kwargs):
        tiles = fr * fc
        tracer.count("geometry.tiles", tiles)
        tracer.count("geometry.point_tile_tests", len(cloud) * tiles)  # computed
        try:
            with tracer.span(name):
                centers = fn(cloud, rect, k, pose=pose, fr=fr, fc=fc, mode=mode, **kwargs)
        except NoCandidatesError:
            tracer.count("geometry.empty_tiles", tiles)
            tracer.count("cropbox.no_candidate_objects")
            raise
        tracer.count("geometry.empty_tiles", tiles - len(centers))
        return centers

    return wrapper


def _recall_curves(tracer, name, fn):
    def wrapper(dataset, cfg, mode="average"):
        configs = "_".join(f"{fr}x{fc}" for fr, fc in cfg.fr_fc)
        with tracer.span(f"{name}_{configs}_{mode}"):
            return fn(dataset, cfg, mode=mode)

    return wrapper


def _stale_sweep(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            rows = fn(*args, **kwargs)
        tracer.count("pipesim.lost_items", sum(r.n_lost for r in rows))
        return rows

    return wrapper


def _voxelize(tracer, name, fn):
    def wrapper(cloud, crop, spec):
        with tracer.span(name):
            grid = fn(cloud, crop, spec)
        tracer.count("voxelizer.cells_allocated", grid.data.size)  # computed
        tracer.count("voxelizer.cells_occupied", int(np.count_nonzero(grid.data)))
        tracer.count("voxelizer.points_in_crop", grid.total_points)
        return grid

    return wrapper


def _file_writer(tracer, name, fn):
    def wrapper(grid, path):
        with tracer.span(name):
            fn(grid, path)
        tracer.count("voxelizer.bytes_written", os.path.getsize(path))  # computed from the files' sizes

    return wrapper


def _encode(tracer, name, fn):
    def wrapper(gt, crop, anchor):
        try:
            with tracer.span(name):
                return fn(gt, crop, anchor)
        except EncodeDomainError:
            tracer.count("head.encode_skipped")
            raise

    return wrapper


def _evaluate(tracer, name, fn):
    def wrapper(frames, *args, **kwargs):
        pairs = 0
        for dets, gts in frames:
            for category in {d.category for d in dets}:
                n_det = sum(d.category == category for d in dets)
                pairs += n_det * sum(g.category == category for g in gts)
        tracer.count("evalkit.iou_pairs", pairs)  # computed: same-category (detection, label) pairs
        with tracer.span(name):
            report = fn(frames, *args, **kwargs)
        tracer.count("evalkit.ap_sum", sum(r.ap for r in report.rows))
        tracer.count("evalkit.ap_rows", len(report.rows))
        return report

    return wrapper


def _depth_to_dhs(tracer, name, fn):
    def wrapper(img, *args, **kwargs):
        with tracer.span(name):
            channels = fn(img, *args, **kwargs)
        tracer.count("dhs.pixels", img.depth.size)
        tracer.count("dhs.missing", int(np.count_nonzero(img.missing_mask)))
        return channels

    return wrapper


def _iter_samples(tracer, name, fn):
    def wrapper(data):
        with tracer.span(name):
            return list(fn(data))

    return wrapper


# (modules that hold the name, attribute, span name, wrapper factory)
WRAPS = [
    ((scenegen,), "random_scene", "scenegen.random_scene", _plain),
    ((scenegen,), "render", "scenegen.render", _render),
    ((geometry,), "write_cloud_binary", "geometry.write_cloud", _plain),
    ((geometry, manifest), "read_cloud_binary", "geometry.read_cloud", _plain),
    ((dhs,), "write_range_image", "dhs.write_range_image", _plain),
    ((dhs,), "read_range_image", "dhs.read_range_image", _plain),
    ((dhs,), "depth_to_dhs", "dhs.depth_to_dhs", _depth_to_dhs),
    ((manifest,), "manifest_to_json", "manifest.to_json", _plain),
    ((manifest, cli), "load_manifest", "manifest.load", _plain),
    ((manifest, cli), "iter_object_samples", "manifest.iter_samples", _iter_samples),
    ((cropbox, pipesim, cli), "candidate_centers", "geometry.candidate_centers", _candidate_centers),
    ((cropbox, pipesim, cli), "best_cropbox", "cropbox.best_cropbox", _plain),
    ((cropbox, cli), "assign_scale", "cropbox.assign_scale", _plain),
    ((cropbox,), "recall_curves", "cropbox.recall_curves", _recall_curves),
    ((cropbox,), "select_min_size", "cropbox.select_size", _plain),
    ((pipesim,), "stale_frustum_experiment", "pipesim.stale_sweep", _stale_sweep),
    ((voxelizer,), "voxelize", "voxelizer.voxelize", _voxelize),
    ((voxelizer,), "write_voxel_grid", "voxelizer.write_grid", _file_writer),
    ((voxelizer,), "write_sparse_csv", "voxelizer.write_sparse", _file_writer),
    ((head, cli), "encode", "head.encode", _encode),
    ((head, cli), "decode", "head.decode", _plain),
    ((head, cli), "fd_check", "head.fd_check", _plain),
    ((head, cli), "compute_anchors", "head.compute_anchors", _plain),
    ((evalkit,), "evaluate", "evalkit.evaluate", _evaluate),
    ((evalkit,), "write_category_csv", "evalkit.write_csv", _plain),
    ((evalkit,), "write_histogram_csv", "evalkit.write_csv", _plain),
    ((cli,), "main", "cli.main", _plain),
]


@contextlib.contextmanager
def instrumented(tracer):
    saved = []
    try:
        for modules, attr, span, factory in WRAPS:
            wrapper = factory(tracer, span, getattr(modules[0], attr))
            for module in modules:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
