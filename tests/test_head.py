"""Regression-head checks: anchors, encode/decode, loss terms, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumkit.errors import EncodeDomainError, GeometryError
from frustumkit.geometry import Aabb3, OrientedBox3, normalize_yaw
from frustumkit.head import (
    Anchor,
    HeadVector,
    LossWeights,
    compute_anchors,
    decode,
    encode,
    fd_check,
    loss,
    loss_grad,
    read_anchor_csv,
    write_anchor_csv,
)

ANCHOR = Anchor("chair", 0.6, 0.6, 0.9)
CROP = Aabb3(center=np.array([1.0, -2.0, 0.6]), side=3.2, height=1.7)


def random_box_in_crop(rng, crop=CROP, anchor=ANCHOR):
    """A box whose center is strictly inside the crop (valid encode domain)."""
    lo = crop.min_corner
    center = lo + rng.uniform(0.05, 0.95, size=3) * np.array([crop.side, crop.side, crop.height])
    return OrientedBox3(
        center=center,
        width=anchor.a_w * math.exp(rng.uniform(-0.6, 0.6)),
        depth=anchor.a_d * math.exp(rng.uniform(-0.6, 0.6)),
        height=anchor.a_h * math.exp(rng.uniform(-0.6, 0.6)),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def random_head_vector(rng):
    yaw = rng.uniform(-math.pi, math.pi)
    return HeadVector(
        ori_cos=math.cos(yaw),
        ori_sin=math.sin(yaw),
        tx=rng.uniform(0, 1),
        ty=rng.uniform(0, 1),
        tz=rng.uniform(0, 1),
        lw=rng.uniform(-1, 1),
        ld=rng.uniform(-1, 1),
        lh=rng.uniform(-1, 1),
    )


class TestAnchors:
    def test_means_match_hand_average(self):
        boxes = {
            "chair": [
                OrientedBox3(np.zeros(3), 0.5, 0.6, 0.8, 0.0),
                OrientedBox3(np.zeros(3), 0.7, 0.4, 1.0, 0.1),
            ]
        }
        a = compute_anchors(boxes)["chair"]
        assert a.a_w == pytest.approx(0.6)
        assert a.a_d == pytest.approx(0.5)
        assert a.a_h == pytest.approx(0.9)

    def test_empty_category_rejected(self):
        with pytest.raises(GeometryError):
            compute_anchors({"chair": []})

    def test_nonpositive_anchor_rejected(self):
        with pytest.raises(GeometryError):
            Anchor("bad", 0.0, 0.5, 0.5)

    def test_csv_round_trip(self, tmp_path):
        anchors = {
            "chair": Anchor("chair", 0.6, 0.55, 0.9),
            "table": Anchor("table", 1.1, 0.8, 0.75),
        }
        path = str(tmp_path / "anchors.csv")
        write_anchor_csv(anchors, path)
        back = read_anchor_csv(path)
        assert set(back) == set(anchors)
        for name in anchors:
            assert back[name] == anchors[name]

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,a,b,c\n")
        with pytest.raises(GeometryError):
            read_anchor_csv(str(path))


class TestHeadVectorValidation:
    def test_non_unit_orientation_rejected(self):
        with pytest.raises(GeometryError):
            HeadVector(0.9, 0.9, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0)

    def test_center_fraction_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            HeadVector(1.0, 0.0, 1.2, 0.5, 0.5, 0.0, 0.0, 0.0)


class TestEncodeDecode:
    def test_round_trip_fuzzed(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            box = random_box_in_crop(rng)
            back = decode(encode(box, CROP, ANCHOR), CROP, ANCHOR)
            np.testing.assert_allclose(back.center, box.center, rtol=0, atol=1e-9)
            assert back.width == pytest.approx(box.width, abs=1e-9)
            assert back.depth == pytest.approx(box.depth, abs=1e-9)
            assert back.height == pytest.approx(box.height, abs=1e-9)
            assert normalize_yaw(back.yaw - box.yaw) == pytest.approx(0.0, abs=1e-9)

    def test_known_encoding_by_hand(self):
        crop = Aabb3(center=np.array([0.0, 0.0, 1.0]), side=2.0, height=2.0)
        box = OrientedBox3(np.array([0.5, -0.5, 1.0]), 0.6, 0.6, 0.9, 0.0)
        anchor = Anchor("c", 0.6, 0.6, 0.9)
        v = encode(box, crop, anchor)
        # crop spans x,y in [-1, 1], z in [0, 2]
        assert v.tx == pytest.approx(0.75)
        assert v.ty == pytest.approx(0.25)
        assert v.tz == pytest.approx(0.5)
        assert v.lw == pytest.approx(0.0)
        assert (v.ori_cos, v.ori_sin) == pytest.approx((1.0, 0.0))

    def test_center_outside_crop_rejected(self):
        box = OrientedBox3(CROP.min_corner + np.array([-0.1, 1.0, 1.0]), 0.5, 0.5, 0.5, 0.0)
        with pytest.raises(EncodeDomainError):
            encode(box, CROP, ANCHOR)

    def test_center_on_crop_face_is_valid(self):
        box = OrientedBox3(CROP.min_corner.copy(), 0.5, 0.5, 0.5, 0.0)
        v = encode(box, CROP, ANCHOR)
        assert (v.tx, v.ty, v.tz) == (0.0, 0.0, 0.0)

    def test_yaw_decodes_into_canonical_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            box = random_box_in_crop(rng)
            back = decode(encode(box, CROP, ANCHOR), CROP, ANCHOR)
            assert -math.pi <= back.yaw < math.pi

    @given(
        frac=st.floats(0.0, 1.0),
        side=st.floats(0.5, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tx_is_affine_in_center(self, frac, side):
        crop = Aabb3(center=np.zeros(3), side=side, height=2.0)
        x = crop.min_corner[0] + frac * side
        box = OrientedBox3(np.array([x, 0.0, 1.0]), 0.5, 0.5, 0.5, 0.0)
        v = encode(box, crop, Anchor("c", 0.5, 0.5, 0.5))
        assert v.tx == pytest.approx(frac, abs=1e-12)


class TestLoss:
    def test_breakdown_matches_hand_recomputation(self):
        rng = np.random.default_rng(11)
        weights = LossWeights(w_orientation=2.0, w_center=0.5, w_size=3.0)
        for _ in range(300):
            p = random_head_vector(rng)
            t = random_head_vector(rng)
            got = loss(p, t, weights)
            dp = p.as_array() - t.as_array()
            ori = dp[0] ** 2 + dp[1] ** 2
            xyz = float(np.sum(dp[2:5] ** 2))
            wdh = float(np.sum(dp[5:8] ** 2))
            assert got.orientation == pytest.approx(ori, rel=1e-12)
            assert got.xyz == pytest.approx(xyz, rel=1e-12)
            assert got.wdh == pytest.approx(wdh, rel=1e-12)
            assert got.total == pytest.approx(2.0 * ori + 0.5 * xyz + 3.0 * wdh, rel=1e-12)

    def test_orientation_term_equals_two_minus_two_cos(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ya, yb = rng.uniform(-math.pi, math.pi, size=2)
            p = HeadVector(math.cos(ya), math.sin(ya), 0.5, 0.5, 0.5, 0, 0, 0)
            t = HeadVector(math.cos(yb), math.sin(yb), 0.5, 0.5, 0.5, 0, 0, 0)
            got = loss(p, t).orientation
            assert got == pytest.approx(2.0 - 2.0 * math.cos(ya - yb), abs=1e-12)

    def test_identical_vectors_give_zero(self):
        v = random_head_vector(np.random.default_rng(0))
        b = loss(v, v)
        assert b.total == 0.0 and b.orientation == 0.0 and b.xyz == 0.0 and b.wdh == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(GeometryError):
            LossWeights(w_center=-1.0)


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(97)
        worst = 0.0
        for _ in range(1000):
            p = random_head_vector(rng)
            t = random_head_vector(rng)
            weights = LossWeights(
                w_orientation=rng.uniform(0.1, 3.0),
                w_center=rng.uniform(0.1, 3.0),
                w_size=rng.uniform(0.1, 3.0),
            )
            worst = max(worst, fd_check(p, t, weights, eps=1e-5))
        assert worst < 1e-4

    def test_gradient_zero_at_target(self):
        v = random_head_vector(np.random.default_rng(4))
        np.testing.assert_array_equal(loss_grad(v, v), np.zeros(8))

    def test_gradient_signs_and_values_by_hand(self):
        p = HeadVector(1.0, 0.0, 0.6, 0.5, 0.5, 0.2, 0.0, 0.0)
        t = HeadVector(1.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0)
        g = loss_grad(p, t, LossWeights(w_orientation=1.0, w_center=2.0, w_size=3.0))
        expected = np.zeros(8)
        expected[2] = 2.0 * 2.0 * 0.1
        expected[5] = 2.0 * 3.0 * 0.2
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-15)

    def test_fd_eps_out_of_range_rejected(self):
        v = random_head_vector(np.random.default_rng(4))
        with pytest.raises(GeometryError):
            fd_check(v, v, eps=1e-2)
        with pytest.raises(GeometryError):
            fd_check(v, v, eps=1e-9)
