"""Tests for range images and the depth / height / slope encoding."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from frustumkit.dhs import (
    DhsImage,
    RangeImage,
    depth_to_dhs,
    read_range_image,
    world_points,
    write_range_image,
)
from frustumkit.errors import GeometryError
from frustumkit.geometry import CameraIntrinsics, RigidTransform

K = CameraIntrinsics(fx=60.0, fy=60.0, cx=20.0, cy=15.0, width=40, height=30)


def horizontal_pose(height: float = 1.2) -> RigidTransform:
    """Camera at the given height looking along world +x, +z up."""
    rot = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    return RigidTransform(rot, np.array([0.0, 0.0, height]))


def floor_range_image(cam_height: float = 1.2) -> RangeImage:
    """Analytic depths of an infinite floor plane at world z = 0."""
    depth = np.zeros((K.height, K.width))
    for v in range(K.height):
        dy = (v + 0.5) - K.cy
        if dy <= 1.0:  # rays at or above the horizon never reach the floor
            continue
        depth[v, :] = cam_height * K.fy / dy
    return RangeImage(depth=depth, intrinsics=K, pose=horizontal_pose(cam_height))


class TestRangeImage:
    def test_shape_must_match_intrinsics(self):
        with pytest.raises(GeometryError):
            RangeImage(depth=np.zeros((10, 10)), intrinsics=K, pose=RigidTransform.identity())

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: RangeImage(np.zeros(K.width), K, RigidTransform.identity()),
                r"depth must be a 2D array \(rows, cols\)",
            ),
            (
                lambda: DhsImage(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2))),
                "channels must share one shape",
            ),
            (lambda: DhsImage(np.zeros(3), np.zeros((1, 3)), np.zeros((1, 3))), "channel d must be 2D"),
        ],
        ids=["range-image-1d", "dhs-channel-shapes-differ", "dhs-channel-1d"],
    )
    def test_array_shapes_rejected(self, make, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            make()

    def test_depth_must_be_finite(self):
        depth = np.zeros((K.height, K.width))
        depth[0, 0] = np.inf
        with pytest.raises(GeometryError):
            RangeImage(depth=depth, intrinsics=K, pose=RigidTransform.identity())

    def test_world_points_land_on_the_floor(self):
        img = floor_range_image()
        pts = world_points(img)
        seen = ~img.missing_mask
        np.testing.assert_allclose(pts[seen][:, 2], 0.0, atol=1e-9)


class TestDhsChannels:
    def test_d_is_scaled_depth(self):
        depth = np.full((K.height, K.width), 2.0)
        img = RangeImage(depth=depth, intrinsics=K, pose=RigidTransform.identity())
        out = depth_to_dhs(img, d_max=10.0)
        np.testing.assert_allclose(out.d, 0.2, atol=0)

    def test_d_clamps_beyond_max_range(self):
        depth = np.full((K.height, K.width), 50.0)
        img = RangeImage(depth=depth, intrinsics=K, pose=RigidTransform.identity())
        out = depth_to_dhs(img, d_max=10.0)
        np.testing.assert_allclose(out.d, 1.0, atol=0)

    @pytest.mark.parametrize(
        "kwargs, channel",
        [({"d_max": 5e-324}, "d"), ({"h_min": 0.0, "h_max": 5e-324}, "h")],
        ids=["d-max", "h-span"],
    )
    def test_subnormal_range_saturates_without_warnings(self, kwargs, channel):
        # every pixel lies 2 m away, between 0.7 m and 1.7 m above the floor
        img = RangeImage(np.full((K.height, K.width), 2.0), K, pose=horizontal_pose())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the unclipped quotient would overflow
            out = depth_to_dhs(img, **kwargs)
        np.testing.assert_array_equal(getattr(out, channel), 1.0)

    def test_d_and_h_equal_the_clipped_quotients(self):
        rng = np.random.default_rng(7)
        depth = rng.uniform(-1.0, 20.0, size=(K.height, K.width))
        depth[rng.random(depth.shape) < 0.2] = 0.0
        depth[0, :4] = [10.0, np.nextafter(10.0, 0.0), np.nextafter(10.0, 20.0), -0.0]
        img = RangeImage(depth, K, pose=horizontal_pose())
        out = depth_to_dhs(img, d_max=10.0, h_min=-0.5, h_max=1.0)
        with np.errstate(invalid="ignore"):
            z = world_points(img)[:, :, 2]
            want_d = np.where(img.missing_mask, 0.0, np.clip(depth / 10.0, 0.0, 1.0))
            want_h = np.where(img.missing_mask, 0.0, np.clip((z + 0.5) / 1.5, 0.0, 1.0))
        assert np.array_equal(out.d, want_d)
        assert np.array_equal(out.h, want_h)
        assert np.any((want_h > 0.0) & (want_h < 1.0)) and np.any(want_h == 1.0)

    def test_d_monotone_below_max_range(self):
        rng = np.random.default_rng(5)
        d1 = rng.uniform(0.5, 4.0, size=(K.height, K.width))
        d2 = d1 + rng.uniform(0.1, 2.0, size=d1.shape)
        out1 = depth_to_dhs(RangeImage(d1, K, RigidTransform.identity()), d_max=10.0)
        out2 = depth_to_dhs(RangeImage(d2, K, RigidTransform.identity()), d_max=10.0)
        assert np.all(out2.d >= out1.d)

    def test_floor_plane_slope_is_half(self):
        img = floor_range_image()
        out = depth_to_dhs(img)
        seen_pair = ~img.missing_mask[:, :-1] & ~img.missing_mask[:, 1:]
        np.testing.assert_allclose(out.s[:, :-1][seen_pair], 0.5, atol=1e-9)

    def test_floor_plane_height_channel(self):
        img = floor_range_image()
        out = depth_to_dhs(img, h_min=-0.5, h_max=2.5)
        seen = ~img.missing_mask
        np.testing.assert_allclose(out.h[seen], (0.0 - -0.5) / 3.0, atol=1e-9)

    def test_slope_matches_independent_unprojection(self):
        """Spot-check one pixel pair against hand unprojection."""
        pose = horizontal_pose(1.0)
        depth = np.zeros((K.height, K.width))
        v, u = 20, 7
        depth[v, u] = 2.0
        depth[v, u + 1] = 2.3
        img = RangeImage(depth=depth, intrinsics=K, pose=pose)
        out = depth_to_dhs(img)

        def lift(uu, vv, dd):
            x = (uu + 0.5 - K.cx) * dd / K.fx
            y = (vv + 0.5 - K.cy) * dd / K.fy
            return pose.apply(np.array([x, y, dd]))

        a = lift(u, v, 2.0)
        b = lift(u + 1, v, 2.3)
        d3 = b - a
        elev = math.atan2(d3[2], math.hypot(d3[0], d3[1]))
        expected = (elev + math.pi / 2) / math.pi
        assert out.s[v, u] == pytest.approx(expected, abs=1e-12)

    def test_missing_pixels_are_zero_in_all_channels(self):
        depth = np.full((K.height, K.width), 3.0)
        depth[4, 10] = 0.0
        img = RangeImage(depth=depth, intrinsics=K, pose=horizontal_pose())
        out = depth_to_dhs(img)
        assert out.d[4, 10] == 0.0
        assert out.h[4, 10] == 0.0
        assert out.s[4, 10] == 0.0  # right neighbor step starts on a hole
        assert out.s[4, 9] == 0.0  # step into the hole is also undefined

    def test_all_missing_image_is_all_zero(self):
        img = RangeImage(depth=np.zeros((K.height, K.width)), intrinsics=K, pose=RigidTransform.identity())
        out = depth_to_dhs(img)
        assert not out.d.any() and not out.h.any() and not out.s.any()

    def test_last_column_copies_left_neighbor(self):
        rng = np.random.default_rng(11)
        depth = rng.uniform(1.0, 5.0, size=(K.height, K.width))
        img = RangeImage(depth=depth, intrinsics=K, pose=horizontal_pose())
        out = depth_to_dhs(img)
        np.testing.assert_array_equal(out.s[:, -1], out.s[:, -2])

    def test_channels_bounded_on_fuzzed_input(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            depth = rng.uniform(0.0, 30.0, size=(K.height, K.width))
            depth[rng.random(depth.shape) < 0.3] = 0.0
            img = RangeImage(depth=depth, intrinsics=K, pose=horizontal_pose())
            out = depth_to_dhs(img)
            for ch in (out.d, out.h, out.s):
                assert ch.min() >= 0.0 and ch.max() <= 1.0

    def test_parameter_validation(self):
        img = RangeImage(np.zeros((K.height, K.width)), K, RigidTransform.identity())
        with pytest.raises(GeometryError):
            depth_to_dhs(img, d_max=0.0)
        with pytest.raises(GeometryError):
            depth_to_dhs(img, h_min=2.0, h_max=1.0)


class TestExports:
    def test_uint8_rounds_half_up(self):
        shape = (1, 4)
        d = np.array([[0.0, 0.5, 1.0, 0.2]])
        h = np.zeros(shape)
        s = np.full(shape, 127.5 / 255.0)
        out = DhsImage(d=d, h=h, s=s).to_uint8()
        assert out.dtype == np.uint8
        assert out[0, 0, 0] == 0
        assert out[0, 1, 0] == 128  # 127.5 rounds up, not to even
        assert out[0, 2, 0] == 255
        assert out[0, 3, 0] == 51
        np.testing.assert_array_equal(out[:, :, 2], 128)

    def test_float32_planes_round_trip(self):
        rng = np.random.default_rng(9)
        d = rng.random((6, 5))
        h = rng.random((6, 5))
        s = rng.random((6, 5))
        blob = DhsImage(d=d, h=h, s=s).to_float32_planes()
        assert len(blob) == 3 * 6 * 5 * 4
        arr = np.frombuffer(blob, dtype="<f4").reshape(3, 6, 5)
        np.testing.assert_allclose(arr[0], d.astype(np.float32), atol=0)
        np.testing.assert_allclose(arr[2], s.astype(np.float32), atol=0)

    def test_channel_bounds_enforced(self):
        with pytest.raises(GeometryError):
            DhsImage(d=np.array([[1.2]]), h=np.zeros((1, 1)), s=np.zeros((1, 1)))

    @pytest.mark.parametrize("channel", ["d", "h", "s"])
    def test_nan_channel_rejected(self, channel):
        planes = {name: np.full((2, 3), 0.5) for name in "dhs"}
        planes[channel][1, 2] = np.nan
        with pytest.raises(GeometryError, match=f"channel {channel} leaves"):
            DhsImage(**planes)


class TestRangeImageIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = rng.uniform(0, 8, size=(K.height, K.width))
        img = RangeImage(depth=depth, intrinsics=K, pose=horizontal_pose())
        path = str(tmp_path / "img.rimg")
        write_range_image(img, path)
        back = read_range_image(path, K, pose=img.pose)
        np.testing.assert_allclose(back.depth, depth.astype(np.float32), atol=0)

    def test_rejects_wrong_magic(self, tmp_path):
        path = str(tmp_path / "bad.rimg")
        with open(path, "wb") as fh:
            fh.write(b"JUNKJUNK" + b"\x00" * 32)
        with pytest.raises(GeometryError):
            read_range_image(path, K, RigidTransform.identity())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_depth_naming_the_file(self, tmp_path, value):
        path = tmp_path / "img.rimg"
        write_range_image(RangeImage(np.zeros((K.height, K.width)), K, RigidTransform.identity()), path)
        raw = bytearray(path.read_bytes())
        raw[16 + 4 : 16 + 8] = np.array(value, "<f4").tobytes()  # pixel (0, 1)
        path.write_bytes(raw)
        with pytest.raises(GeometryError) as exc:
            read_range_image(path, K, RigidTransform.identity())
        assert str(exc.value) == f"{path}: range image contains non-finite depths (use 0 for missing)"

    def test_rejects_size_mismatch(self, tmp_path):
        img = RangeImage(np.zeros((K.height, K.width)), K, RigidTransform.identity())
        path = str(tmp_path / "img.rimg")
        write_range_image(img, path)
        other = CameraIntrinsics(fx=60, fy=60, cx=10, cy=10, width=21, height=30)
        with pytest.raises(GeometryError):
            read_range_image(path, other, RigidTransform.identity())
