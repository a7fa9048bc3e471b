"""Shape-plan arithmetic and the naive forward pass checked against oracles."""

import numpy as np
import pytest

from frustumkit.cropbox import SCALE_SPECS
from frustumkit.errors import ShapePlanError
from frustumkit.netshape import (
    LayerSpec,
    NAIVE_DIM_CAP,
    default_layers,
    default_plan,
    forward_naive,
    forward_with_weights,
    init_weights,
    layers_from_json,
    propagate,
)
from frustumkit.voxelizer import VoxelGrid


def make_grid(dims, data=None, cell=0.1):
    dims = tuple(dims)
    if data is None:
        data = np.zeros(dims, dtype=np.int64)
    return VoxelGrid(
        dims=dims,
        cell=(cell, cell, cell),
        origin=(0.0, 0.0, 0.0),
        data=np.asarray(data, dtype=np.int64),
    )


class TestPropagate:
    def test_stride_one_same_conv_keeps_spatial_dims(self):
        plan = propagate((10, 11, 12, 1), [LayerSpec("conv3d", kernel=3, stride=1, channels_out=4)])
        assert plan.shapes[0] == (10, 11, 12, 4)

    # per-dimension halving sequences computed by hand with ceil(n/2)
    HAND_TABLES = {
        198: [99, 50, 25, 13, 7, 4],
        102: [51, 26, 13, 7, 4, 2],
        134: [67, 34, 17, 9, 5, 3],
        16: [8, 4, 2, 1, 1, 1],
    }

    @pytest.mark.parametrize("start", sorted(HAND_TABLES))
    def test_stride_two_same_sequence_matches_hand_table(self, start):
        shape = (start, start, start, 1)
        for expected in self.HAND_TABLES[start]:
            plan = propagate(shape, [LayerSpec("conv3d", kernel=3, stride=2, channels_out=1)])
            assert plan.shapes[0][:3] == (expected, expected, expected)
            shape = plan.shapes[0]

    @pytest.mark.parametrize("name,spec", sorted(SCALE_SPECS.items()))
    def test_default_plan_on_every_scale_grid_ends_at_seven_per_category(self, name, spec):
        for n_categories in (1, 8):
            plan = default_plan(spec.grid, n_categories)
            assert plan.final_shape == (7 * n_categories,)
            assert plan.final_length == 7 * n_categories

    def test_default_plan_layerwise_shapes_for_large_short(self):
        plan = default_plan(SCALE_SPECS["large_short"].grid, 8)
        conv_shapes = [s for layer, s in zip(plan.layers, plan.shapes) if layer.kind == "conv3d"]
        expected_xy = self.HAND_TABLES[198]
        expected_z = self.HAND_TABLES[102]
        for (x, y, z, c), ex, ez, channels in zip(
            conv_shapes, expected_xy, expected_z, (16, 32, 64, 64, 128, 128)
        ):
            assert (x, y) == (ex, ex)
            assert z == ez
            assert c == channels

    def test_valid_padding_non_integral_errors_and_names_layer(self):
        layers = [
            LayerSpec("conv3d", kernel=3, stride=1, channels_out=2, padding="valid"),
            LayerSpec("conv3d", kernel=2, stride=2, channels_out=2, padding="valid"),
        ]
        # 9 -> (9-3)/1+1 = 7 (fine); then (7-2)/2 is not integral
        with pytest.raises(ShapePlanError, match="layer 1"):
            propagate((9, 9, 9, 1), layers)

    def test_valid_padding_exact_division_is_accepted(self):
        plan = propagate(
            (8, 8, 8, 1), [LayerSpec("conv3d", kernel=2, stride=2, channels_out=2, padding="valid")]
        )
        assert plan.shapes[0] == (4, 4, 4, 2)

    def test_kernel_larger_than_input_errors(self):
        with pytest.raises(ShapePlanError, match="layer 0"):
            propagate((2, 2, 2, 1), [LayerSpec("conv3d", kernel=3, channels_out=1, padding="valid")])

    def test_dense_before_reduce_errors(self):
        with pytest.raises(ShapePlanError, match="dense"):
            propagate((4, 4, 4, 1), [LayerSpec("dense", channels_out=7)])

    def test_dropout_is_shape_neutral(self):
        plan = propagate((5, 6, 7, 3), [LayerSpec("dropout")])
        assert plan.shapes[0] == (5, 6, 7, 3)

    def test_table_lists_every_layer(self):
        plan = default_plan((16, 16, 16), 2)
        text = plan.table()
        assert text.count("conv3d") == 6
        assert "final flat length: 14" in text


class TestLayerSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapePlanError):
            LayerSpec("conv2d", channels_out=4)

    def test_conv_requires_channels(self):
        with pytest.raises(ShapePlanError):
            LayerSpec("conv3d")

    def test_pool_must_not_set_channels(self):
        with pytest.raises(ShapePlanError):
            LayerSpec("pool3d", kernel=2, stride=2, channels_out=4)

    def test_scalar_kernel_broadcasts(self):
        layer = LayerSpec("conv3d", kernel=3, stride=2, channels_out=4)
        assert layer.kernel == (3, 3, 3)
        assert layer.stride == (2, 2, 2)

    def test_json_layer_list_parses_to_specs(self):
        text = """[
            {"kind": "conv3d", "kernel": [3, 3, 3], "stride": [2, 2, 2], "padding": "same", "channels_out": 8},
            {"kind": "dropout"},
            {"kind": "pool3d", "kernel": 2, "stride": 2, "padding": "valid"},
            {"kind": "global_reduce"},
            {"kind": "dense", "channels_out": 21}
        ]"""
        assert layers_from_json(text) == (
            LayerSpec("conv3d", kernel=3, stride=2, channels_out=8),
            LayerSpec("dropout"),
            LayerSpec("pool3d", kernel=2, stride=2, padding="valid"),
            LayerSpec("global_reduce"),
            LayerSpec("dense", channels_out=21),
        )

    def test_json_unknown_key_rejected(self):
        with pytest.raises(ShapePlanError, match="unknown layer keys"):
            layers_from_json('[{"kind": "dropout", "rate": 0.5}]')

    def test_json_must_be_array(self):
        with pytest.raises(ShapePlanError):
            layers_from_json('{"kind": "dropout"}')


class TestForwardNaive:
    def test_zero_grid_gives_zero_output(self):
        plan = default_plan((16, 16, 16), 3)
        out = forward_naive(make_grid((16, 16, 16)), plan, weights_seed=7)
        np.testing.assert_array_equal(out, np.zeros(21))

    def test_fixed_seed_is_bitwise_reproducible(self):
        rng = np.random.default_rng(0)
        grid = make_grid((16, 16, 16), rng.integers(0, 5, size=(16, 16, 16)))
        plan = default_plan((16, 16, 16), 4)
        a = forward_naive(grid, plan, weights_seed=123)
        b = forward_naive(grid, plan, weights_seed=123)
        np.testing.assert_array_equal(a, b)
        c = forward_naive(grid, plan, weights_seed=124)
        assert not np.array_equal(a, c)

    def test_output_finite_and_shape_matches_plan(self):
        rng = np.random.default_rng(1)
        grid = make_grid((16, 16, 16), rng.integers(0, 9, size=(16, 16, 16)))
        plan = default_plan((16, 16, 16), 5)
        out = forward_naive(grid, plan, weights_seed=2)
        assert out.shape == plan.final_shape == (35,)
        assert np.all(np.isfinite(out))

    def test_doubling_final_dense_weights_doubles_output(self):
        rng = np.random.default_rng(3)
        grid = make_grid((8, 8, 8), rng.integers(0, 4, size=(8, 8, 8)))
        plan = default_plan((8, 8, 8), 2)
        weights = init_weights(plan, seed=5)
        base = forward_with_weights(grid, plan, weights)
        # double only the last layer's (dense) weight matrix
        doubled = list(weights)
        last = len(weights) - 1
        doubled[last] = {"weight": 2.0 * weights[last]["weight"], "bias": weights[last]["bias"]}
        out = forward_with_weights(grid, plan, doubled)
        np.testing.assert_allclose(out, 2.0 * base, rtol=1e-12)

    def test_dim_cap_enforced(self):
        dims = (NAIVE_DIM_CAP + 1, 4, 4)
        plan = propagate((*dims, 1), [LayerSpec("global_reduce"), LayerSpec("dense", channels_out=7)])
        with pytest.raises(ShapePlanError, match="capped"):
            forward_naive(make_grid(dims), plan, weights_seed=0)

    def test_grid_plan_mismatch_rejected(self):
        plan = default_plan((16, 16, 16), 1)
        with pytest.raises(ShapePlanError, match="do not match"):
            forward_naive(make_grid((8, 8, 8)), plan, weights_seed=0)

    def test_single_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        dims = (5, 4, 6)
        grid = make_grid(dims, rng.integers(0, 7, size=dims))
        layer = LayerSpec("conv3d", kernel=2, stride=1, channels_out=3, padding="valid")
        plan = propagate((*dims, 1), [layer])
        weights = init_weights(plan, seed=9)
        got = forward_with_weights(grid, plan, weights)
        w = weights[0]["weight"]  # (2, 2, 2, 1, 3)
        x = grid.data.astype(float)
        expected = np.zeros((4, 3, 5, 3))
        for ix in range(4):
            for iy in range(3):
                for iz in range(5):
                    patch = x[ix : ix + 2, iy : iy + 2, iz : iz + 2]
                    for c in range(3):
                        acc = float(np.sum(patch * w[:, :, :, 0, c]))
                        expected[ix, iy, iz, c] = max(acc, 0.0)  # conv then ReLU
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_same_padding_conv_matches_padded_valid_oracle(self):
        rng = np.random.default_rng(13)
        dims = (5, 5, 5)
        grid = make_grid(dims, rng.integers(0, 7, size=dims))
        layer = LayerSpec("conv3d", kernel=3, stride=2, channels_out=2, padding="same")
        plan = propagate((*dims, 1), [layer])
        weights = init_weights(plan, seed=4)
        got = forward_with_weights(grid, plan, weights)
        # same output dim: ceil(5/2) = 3; pad total = (3-1)*2 + 3 - 5 = 2 -> 1 each side
        x = np.pad(grid.data.astype(float), 1)
        w = weights[0]["weight"]
        expected = np.zeros((3, 3, 3, 2))
        for ix in range(3):
            for iy in range(3):
                for iz in range(3):
                    patch = x[2 * ix : 2 * ix + 3, 2 * iy : 2 * iy + 3, 2 * iz : 2 * iz + 3]
                    for c in range(2):
                        expected[ix, iy, iz, c] = max(float(np.sum(patch * w[:, :, :, 0, c])), 0.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_max_pool_matches_blockwise_oracle(self):
        rng = np.random.default_rng(17)
        dims = (4, 4, 4)
        data = rng.integers(0, 100, size=dims)
        grid = make_grid(dims, data)
        plan = propagate((*dims, 1), [LayerSpec("pool3d", kernel=2, stride=2, padding="valid")])
        got = forward_with_weights(grid, plan, [None])
        x = data.astype(float)
        expected = np.zeros((2, 2, 2, 1))
        for ix in range(2):
            for iy in range(2):
                for iz in range(2):
                    expected[ix, iy, iz, 0] = x[
                        2 * ix : 2 * ix + 2, 2 * iy : 2 * iy + 2, 2 * iz : 2 * iz + 2
                    ].max()
        np.testing.assert_array_equal(got, expected)

    def test_global_reduce_is_mean(self):
        rng = np.random.default_rng(19)
        dims = (3, 3, 3)
        data = rng.integers(0, 50, size=dims)
        grid = make_grid(dims, data)
        plan = propagate((*dims, 1), [LayerSpec("global_reduce")])
        got = forward_with_weights(grid, plan, [None])
        np.testing.assert_allclose(got, [data.mean()], rtol=1e-15)
