"""Acceptance gate: the twelve headline checks, one test per criterion.

Each test computes its quantities, prints a single PASS/FAIL line (visible
with ``pytest -s``), and then asserts. Tolerances and runtime budgets are
pinned in the assertions themselves.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from frustumkit.cropbox import (
    SCALE_SPECS,
    CurvePoint,
    ObjectSample,
    SizeSearchConfig,
    recall_curves,
    select_min_size,
)
from frustumkit.evalkit import average_precision, center_size_metrics
from frustumkit.geometry import (
    Aabb3,
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    project_points,
)
from frustumkit.head import Anchor, HeadVector, LossWeights, decode, encode, fd_check
from frustumkit.ioi import (
    IoiBreakdown,
    ioi,
    iou_2d,
    mc_intersection_volume,
    recall_from_breakdowns,
    recall_lower_bound,
)
from frustumkit.netshape import default_plan, forward_naive
from frustumkit.pipesim import StageTiming, exact_throughput_fps, simulate
from frustumkit.scenegen import random_scene, render
from frustumkit.voxelizer import voxelize


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[ACCEPTANCE {num:02d}] {name}: {status} ({detail}; {elapsed:.3f}s of {budget:g}s budget)"
    )


# --- random-shape generators ---------------------------------------------------


def _random_pair(rng: np.random.Generator) -> tuple[OrientedBox3, Aabb3]:
    center = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 2.0)])
    box = OrientedBox3(
        center=center,
        width=rng.uniform(0.2, 2.0),
        depth=rng.uniform(0.2, 2.0),
        height=rng.uniform(0.2, 2.0),
        yaw=rng.uniform(-math.pi, math.pi),
    )
    crop = Aabb3(
        center=center + rng.uniform(-1.0, 1.0, size=3),
        side=rng.uniform(0.5, 3.0),
        height=rng.uniform(0.5, 3.0),
    )
    return box, crop


# --- criterion 1 ----------------------------------------------------------------


def test_01_worked_example_squares():
    """Two squares against a side-3 region: IoU 1/9 and 2/11, IoI 1.0 and 0.5."""
    region = Rect2(-1.5, -1.5, 1.5, 1.5)
    rect_a = Rect2(-0.5, -0.5, 0.5, 0.5)  # unit square fully inside
    rect_b = Rect2(0.5, -1.0, 2.5, 1.0)  # side-2 square, half inside
    crop = Aabb3(center=(0.0, 0.0, 0.5), side=3.0, height=1.0)
    box_a = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
    box_b = OrientedBox3(center=(1.5, 0.0, 0.5), width=2.0, depth=2.0, height=1.0, yaw=0.0)

    elapsed = math.inf
    for _ in range(5):  # the fastest of five timings: one scheduler pause cannot miss the budget
        t0 = time.perf_counter()
        iou_a = iou_2d(rect_a, region)
        iou_b = iou_2d(rect_b, region)
        ioi_a = ioi(box_a, crop).ioi_xy
        ioi_b = ioi(box_b, crop).ioi_xy
        elapsed = min(elapsed, time.perf_counter() - t0)

    errs = [
        abs(iou_a - 1.0 / 9.0),
        abs(iou_b - 2.0 / 11.0),
        abs(ioi_a - 1.0),
        abs(ioi_b - 0.5),
    ]
    ok = max(errs) < 1e-12
    _report(1, "worked-example iou/ioi", ok, f"max abs err {max(errs):.2e}", elapsed, 1e-3)
    assert iou_a == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert iou_b == pytest.approx(2.0 / 11.0, abs=1e-12)
    assert ioi_a == pytest.approx(1.0, abs=1e-12)
    assert ioi_b == pytest.approx(0.5, abs=1e-12)
    assert elapsed < 1e-3


# --- criterion 2 ----------------------------------------------------------------


def test_02_factorization_and_monte_carlo():
    """ioi_3d == ioi_xy * ioi_z on 1e4 pairs; MC agreement within 3 sigma on 100."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240214)
    worst_fact = 0.0
    pairs = []
    for _ in range(10_000):
        box, crop = _random_pair(rng)
        b = ioi(box, crop)
        worst_fact = max(worst_fact, abs(b.ioi_3d - b.ioi_xy * b.ioi_z))
        pairs.append((box, crop, b.ioi_3d))

    n_mc = 1_000_000
    worst_ratio = 0.0
    for i, (box, crop, ioi_3d) in enumerate(pairs[:100]):
        est, stderr = mc_intersection_volume(box, crop, n_samples=n_mc, seed=1000 + i)
        frac = est / box.volume
        sigma = stderr / box.volume
        # when every sample lands on one side the binomial sigma-hat is zero;
        # the rule-of-three bound 3/n plays the role of 3 sigma there
        tol = max(3.0 * sigma, 3.0 / n_mc)
        worst_ratio = max(worst_ratio, abs(frac - ioi_3d) / tol)
    elapsed = time.perf_counter() - t0

    ok = worst_fact < 1e-12 and worst_ratio <= 1.0
    _report(
        2,
        "ioi factorization + MC oracle",
        ok,
        f"max |3d - xy*z| {worst_fact:.2e}, worst MC deviation {worst_ratio:.2f}x its 3-sigma budget",
        elapsed,
        60.0,
    )
    assert worst_fact < 1e-12
    assert worst_ratio <= 1.0
    assert elapsed < 60.0


# --- criterion 3 ----------------------------------------------------------------


def test_03_recall_bound_and_headline_points():
    """Volume recall respects the additive bound over 1e4 random sets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 40))
        xy = rng.uniform(0.0, 1.0, size=n)
        zz = rng.uniform(0.0, 1.0, size=n)
        breakdowns = [IoiBreakdown(x, z, x * z) for x, z in zip(xy, zz)]
        txy = float(rng.uniform(0.05, 1.0))
        tz = float(rng.uniform(0.05, 1.0))
        report = recall_from_breakdowns(breakdowns, txy, tz)
        if not report.bound_satisfied:
            violations += 1
    p1 = recall_lower_bound(0.90, 0.95)
    p2 = recall_lower_bound(0.95, 0.99)
    elapsed = time.perf_counter() - t0

    ok = violations == 0 and abs(p1 - 0.85) < 1e-12 and abs(p2 - 0.94) < 1e-12
    _report(
        3,
        "recall lower bound",
        ok,
        f"{violations} violations; points {p1:.3f}/{p2:.3f}",
        elapsed,
        30.0,
    )
    assert violations == 0
    assert abs(p1 - 0.85) < 1e-12
    assert abs(p2 - 0.94) < 1e-12
    assert elapsed < 30.0


# --- criterion 4 ----------------------------------------------------------------


def test_04_scale_table_cell_sizes():
    """Grid cell sizes in cm match the published per-scale resolutions."""
    printed_cm = {
        "small_short": (0.8, 0.8, 1.5),
        "medium_short": (1.6, 1.6, 1.7),
        "large_short": (2.4, 2.4, 2.2),
        "medium_tall": (2.1, 2.1, 2.2),
    }
    t0 = time.perf_counter()
    mismatches = []
    for name, expected in printed_cm.items():
        spec = SCALE_SPECS[name]
        got = tuple(round(c * 100.0, 1) for c in spec.cell_size)
        if got != expected:
            mismatches.append(f"{name}: {got} != {expected}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report(4, "scale-table cell sizes", ok, mismatches[0] if mismatches else "4/4 scales", elapsed, 1.0)
    assert not mismatches
    assert elapsed < 1.0


# --- criterion 5 ----------------------------------------------------------------


def test_05_voxel_conservation():
    """Grid counts sum to the brute-force number of contained points, exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checked = 0
    for name, spec in SCALE_SPECS.items():
        crop = Aabb3(
            center=(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 1.5)),
            side=spec.crop_side,
            height=spec.crop_height,
        )
        span = max(spec.crop_side, spec.crop_height)
        cloud = crop.center + rng.uniform(-0.75 * span, 0.75 * span, size=(100_000, 3))
        grid = voxelize(cloud, crop, spec)
        lo, hi = crop.min_corner, crop.max_corner
        inside = np.all((cloud >= lo) & (cloud <= hi), axis=1)
        assert grid.total_points == int(inside.sum()), name
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 4
    _report(5, "voxel count conservation", ok, f"{checked} scales x 1e5 points, exact", elapsed, 10.0)
    assert elapsed < 10.0


# --- criterion 6 ----------------------------------------------------------------


def test_06_encode_decode_round_trip():
    """1e4 fuzzed (gt, crop, anchor) triples round-trip to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        side = rng.uniform(0.5, 4.0)
        height = rng.uniform(0.5, 4.0)
        crop = Aabb3(
            center=(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 3)),
            side=side,
            height=height,
        )
        lo = crop.min_corner
        frac = rng.uniform(0.0, 1.0, size=3)
        center = lo + frac * np.array([side, side, height])
        gt = OrientedBox3(
            center=center,
            width=rng.uniform(0.1, 3.0),
            depth=rng.uniform(0.1, 3.0),
            height=rng.uniform(0.1, 3.0),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        anchor = Anchor("thing", rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        back = decode(encode(gt, crop, anchor), crop, anchor)
        yaw_err = abs(math.remainder(back.yaw - gt.yaw, 2.0 * math.pi))
        worst = max(
            worst,
            float(np.max(np.abs(back.center - gt.center))),
            abs(back.width - gt.width),
            abs(back.depth - gt.depth),
            abs(back.height - gt.height),
            yaw_err,
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9
    _report(6, "encode/decode round trip", ok, f"max err {worst:.2e} over 1e4 triples", elapsed, 5.0)
    assert worst < 1e-9
    assert elapsed < 5.0


# --- criterion 7 ----------------------------------------------------------------


def _random_head_vector(rng: np.random.Generator) -> HeadVector:
    yaw = rng.uniform(-math.pi, math.pi)
    return HeadVector(
        ori_cos=math.cos(yaw),
        ori_sin=math.sin(yaw),
        tx=float(rng.uniform(0, 1)),
        ty=float(rng.uniform(0, 1)),
        tz=float(rng.uniform(0, 1)),
        lw=float(rng.normal(0, 0.6)),
        ld=float(rng.normal(0, 0.6)),
        lh=float(rng.normal(0, 0.6)),
    )


def test_07_gradient_check():
    """Analytic gradient vs central differences: max relative error < 1e-4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        weights = LossWeights(
            w_orientation=float(rng.uniform(0.1, 2.0)),
            w_center=float(rng.uniform(0.1, 2.0)),
            w_size=float(rng.uniform(0.1, 2.0)),
        )
        worst = max(
            worst,
            fd_check(_random_head_vector(rng), _random_head_vector(rng), weights, eps=1e-5),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4
    _report(7, "loss gradient fd check", ok, f"max rel err {worst:.2e} over 1000 cases", elapsed, 5.0)
    assert worst < 1e-4
    assert elapsed < 5.0


# --- criterion 8 ----------------------------------------------------------------


def test_08_pipelining_arithmetic():
    """Sequential 77/158 ms, pipelined period 48 ms, ~20.8 fps (rounds to 21)."""
    t0 = time.perf_counter()
    seq_small = simulate(8, StageTiming(29, 48), "sequential").steady_period
    seq_big = simulate(8, StageTiming(110, 48), "sequential").steady_period
    pipe = simulate(8, StageTiming(29, 48), "pipelined").steady_period
    fps = exact_throughput_fps(StageTiming(29, 48))
    elapsed = time.perf_counter() - t0

    ok = (
        seq_small == 77
        and seq_big == 158
        and pipe == 48
        and fps == Fraction(1000, 48)
        and round(float(fps)) == 21
        and f"{float(fps):.1f}" == "20.8"
    )
    _report(
        8,
        "pipelining arithmetic",
        ok,
        f"77/158 sequential, {pipe} ms pipelined, {float(fps):.4f} fps",
        elapsed,
        1.0,
    )
    assert seq_small == 77
    assert seq_big == 158
    assert pipe == 48
    assert fps == Fraction(125, 6)
    assert round(float(fps)) == 21
    assert f"{float(fps):.1f}" == "20.8"
    assert elapsed < 1.0


# --- criterion 9 ----------------------------------------------------------------


def _scene_samples(n_scenes: int, base_seed: int) -> list[ObjectSample]:
    samples: list[ObjectSample] = []
    for i in range(n_scenes):
        spec = random_scene(seed=base_seed + i, n_objects=3, density=60.0)
        scene = render(spec)
        for obj in scene.objects:
            if obj.rect is None:
                continue
            samples.append(
                ObjectSample(
                    category=obj.category,
                    cloud=scene.cloud,
                    rect=obj.rect,
                    gt_box=obj.box,
                    intrinsics=spec.intrinsics,
                    pose=spec.pose,
                )
            )
    return samples


def test_09_recall_monotonicity_and_size_selection():
    """500-scene sweep: recall_xy rises with side, recall_z with height."""
    t0 = time.perf_counter()
    samples = _scene_samples(500, base_seed=5000)
    cfg = SizeSearchConfig(
        side_candidates=[0.8, 1.6, 3.2, 4.8],
        height_candidates=[0.8, 1.5, 2.2],
        fr_fc=[(1, 1), (3, 3)],
    )
    curves = recall_curves(samples, cfg)

    monotone = True
    by_group: dict[tuple, dict] = {}
    for p in curves:
        by_group.setdefault((p.fr, p.fc, p.height_m), {})[p.side_m] = p.recall_xy
        by_group.setdefault((p.fr, p.fc, "z", p.side_m), {})[p.height_m] = p.recall_z
    for key, series in by_group.items():
        values = [series[k] for k in sorted(series)]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            monotone = False

    # constructed curve with a known exact crossing of both targets
    def point(side, height, rxy, rz):
        return CurvePoint(
            fr=1, fc=1, mode="average", side_m=side, height_m=height,
            recall_xy=rxy, recall_z=rz, recall_volume=min(rxy, rz),
            bound=recall_lower_bound(rxy, rz), bound_satisfied=True,
        )

    constructed = [
        point(1.0, 1.0, 0.50, 0.80),
        point(2.0, 1.0, 0.90, 0.80),
        point(3.0, 1.0, 0.99, 0.80),
        point(1.0, 2.0, 0.50, 0.95),
        point(2.0, 2.0, 0.90, 0.95),
        point(3.0, 2.0, 0.99, 0.95),
    ]
    selected = select_min_size(constructed, target_xy=0.90, target_z=0.95)
    elapsed = time.perf_counter() - t0

    ok = monotone and selected == (2.0, 2.0) and len(samples) > 1000
    _report(
        9,
        "recall monotonicity + size selection",
        ok,
        f"{len(samples)} objects, {len(curves)} curve rows, crossing {selected}",
        elapsed,
        60.0,
    )
    assert monotone
    assert selected == (2.0, 2.0)
    assert len(samples) > 1000
    assert elapsed < 60.0


# --- criterion 10 ----------------------------------------------------------------


def _centered_samples(n: int) -> list[ObjectSample]:
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    rotation = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    pose = RigidTransform(rotation=rotation, translation=np.array([0.0, 0.0, 1.0]))
    samples = []
    for i in range(n):
        center = np.array([2.5 + 0.3 * i, 0.0, 0.4])
        box = OrientedBox3(center=center, width=0.8, depth=0.8, height=0.8, yaw=0.0)
        axes = [np.linspace(c - 0.4, c + 0.4, 9) for c in center]
        xs, ys, zs = np.meshgrid(*axes, indexing="ij")
        cloud = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        u, v, _ = project_points(pose.inverse().apply(cloud), k)
        # one pixel of detector slack so a full-width drift clears every point
        rect = Rect2(float(u.min()) - 1.0, float(v.min()) - 1.0, float(u.max()) + 1.0, float(v.max()) + 1.0)
        samples.append(
            ObjectSample(
                category="box", cloud=cloud, rect=rect, gt_box=box, intrinsics=k, pose=pose
            )
        )
    return samples


def test_10_stale_frustum_sweep():
    """Mean IoI^3D never rises with drift; ~zero recall at full rect width."""
    from frustumkit.pipesim import stale_frustum_experiment

    t0 = time.perf_counter()
    samples = _centered_samples(8)
    max_width = max(s.rect.width for s in samples)
    drifts = list(np.linspace(0.0, max_width, 9))
    rows = stale_frustum_experiment(samples, drifts, spec="medium_short")
    means = [r.mean_ioi_3d for r in rows]
    elapsed = time.perf_counter() - t0

    non_increasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    ok = non_increasing and means[0] > 0.9 and rows[-1].recall_volume <= 0.05
    _report(
        10,
        "stale-frustum degradation",
        ok,
        f"mean ioi {means[0]:.3f} -> {means[-1]:.3f}, final recall {rows[-1].recall_volume:.3f}",
        elapsed,
        60.0,
    )
    assert non_increasing
    assert means[0] > 0.9
    assert rows[-1].recall_volume <= 0.05
    assert elapsed < 60.0


# --- criterion 11 ----------------------------------------------------------------


def test_11_metric_hand_cases():
    """D_xyz of a 3-4-0 offset is 5; a pi yaw flip scores 1.0; AP = 5/6."""
    t0 = time.perf_counter()
    gt = OrientedBox3(center=(0.0, 0.0, 0.0), width=1.0, depth=1.0, height=1.0, yaw=0.0)
    pred = OrientedBox3(center=(3.0, 4.0, 0.0), width=1.0, depth=1.0, height=1.0, yaw=math.pi)
    row = center_size_metrics(pred, gt)
    ap = average_precision([(0.9, True), (0.8, False), (0.7, True)], n_gt=2)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(row.d_xyz - 5.0) < 1e-12
        and abs(row.orientation_score - 1.0) < 1e-12
        and abs(ap - 5.0 / 6.0) < 1e-12
    )
    _report(
        11,
        "metric hand cases",
        ok,
        f"D_xyz {row.d_xyz:g}, orientation {row.orientation_score:g}, AP {ap:.6f}",
        elapsed,
        1.0,
    )
    assert row.d_xyz == pytest.approx(5.0, abs=1e-12)
    assert row.orientation_score == pytest.approx(1.0, abs=1e-12)
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert elapsed < 1.0


# --- criterion 12 ----------------------------------------------------------------


def test_12_netshape_contract():
    """Default plan flattens to C*7 on every scale grid; 16^3 forward agrees."""
    t0 = time.perf_counter()
    grids = sorted({spec.grid for spec in SCALE_SPECS.values()})
    lengths_ok = True
    for grid in grids:
        for n_categories in (1, 10, 19):
            plan = default_plan(grid, n_categories)
            if plan.final_length != 7 * n_categories:
                lengths_ok = False

    rng = np.random.default_rng(8)
    grid16 = rng.poisson(0.4, size=(16, 16, 16))
    plan16 = default_plan((16, 16, 16), 10)
    out_a = forward_naive(grid16, plan16, weights_seed=3)
    out_b = forward_naive(grid16, plan16, weights_seed=3)
    out_c = forward_naive(grid16, plan16, weights_seed=4)
    elapsed = time.perf_counter() - t0

    forward_ok = (
        out_a.shape == (plan16.final_length,)
        and np.all(np.isfinite(out_a))
        and np.array_equal(out_a, out_b)
        and not np.array_equal(out_a, out_c)
    )
    ok = lengths_ok and forward_ok
    _report(
        12,
        "netshape plan + forward",
        ok,
        f"{len(grids)} grids x 3 category counts; forward len {out_a.size}",
        elapsed,
        10.0,
    )
    assert lengths_ok
    assert forward_ok
    assert elapsed < 10.0
