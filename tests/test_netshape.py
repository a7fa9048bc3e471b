"""Shape-plan arithmetic and the naive forward pass checked against oracles."""

import math
import re

import numpy as np
import pytest

from frustumkit.cropbox import SCALE_SPECS
from frustumkit.errors import ManifestError, ShapePlanError
from frustumkit.netshape import (
    LayerSpec,
    NAIVE_DIM_CAP,
    default_layers,
    forward_naive,
    forward_with_weights,
    init_weights,
    layers_from_json,
    propagate,
)


def make_grid(dims, data=None):
    """The dense int64 (x, y, z) count array the forward pass takes."""
    if data is None:
        return np.zeros(tuple(dims), dtype=np.int64)
    return np.asarray(data, dtype=np.int64)


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
            plan = propagate((*spec.grid, 1), default_layers(n_categories))
            assert plan.final_shape == (7 * n_categories,)
            assert plan.final_length == 7 * n_categories

    def test_default_plan_layerwise_shapes_for_large_short(self):
        plan = propagate((*SCALE_SPECS["large_short"].grid, 1), default_layers(8))
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

    def test_input_shape_needs_four_entries(self):
        with pytest.raises(ShapePlanError, match=re.escape("4 positive ints (x, y, z, c), got (8, 8, 8)")):
            propagate((8, 8, 8), [LayerSpec("dropout")])

    def test_dense_before_reduce_errors(self):
        with pytest.raises(ShapePlanError, match="dense"):
            propagate((4, 4, 4, 1), [LayerSpec("dense", channels_out=7)])

    @pytest.mark.parametrize(
        "layer",
        [LayerSpec("global_reduce"), LayerSpec("conv3d", channels_out=2), LayerSpec("pool3d")],
        ids=lambda layer: layer.kind,
    )
    def test_spatial_layer_after_reduce_errors(self, layer):
        with pytest.raises(ShapePlanError, match=r"layer 1 \(\w+\): needs a spatial \(x, y, z, c\) input, got \(3,\)"):
            propagate((4, 4, 4, 3), [LayerSpec("global_reduce"), layer])

    def test_dropout_is_shape_neutral(self):
        plan = propagate((5, 6, 7, 3), [LayerSpec("dropout")])
        assert plan.shapes[0] == (5, 6, 7, 3)

    def test_input_shapes_are_the_input_then_each_earlier_output(self):
        layers = [LayerSpec("conv3d", kernel=3, stride=2, channels_out=4), LayerSpec("global_reduce")]
        plan = propagate((8, 6, 4, 1), layers)
        assert plan.input_shapes == ((8, 6, 4, 1), (4, 3, 2, 4))
        assert propagate((8, 6, 4, 1), []).input_shapes == ()

    def test_table_lists_every_layer(self):
        plan = propagate((16, 16, 16, 1), default_layers(2))
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
        with pytest.raises(ManifestError, match=re.escape("layer entry: unknown keys ['rate']")):
            layers_from_json('[{"kind": "dropout", "rate": 0.5}]')

    def test_json_entries_are_checked_in_order(self):
        """Each entry's keys and values are checked before the next entry's."""
        with pytest.raises(ShapePlanError, match="kernel must be a positive int"):
            layers_from_json('[{"kind": "pool3d", "kernel": "abc"}, {"kind": "dropout", "rate": 0.5}]')
        with pytest.raises(ManifestError, match=re.escape("layer entry: unknown keys ['rate']")):
            layers_from_json('[{"kind": "dropout", "rate": 0.5}, {"kind": "pool3d", "kernel": "abc"}]')

    def test_json_must_be_array(self):
        with pytest.raises(ManifestError, match="^layer list JSON must be a top-level array$"):
            layers_from_json('{"kind": "dropout"}')


class TestForwardNaive:
    def test_zero_grid_gives_zero_output(self):
        plan = propagate((16, 16, 16, 1), default_layers(3))
        out = forward_naive(make_grid((16, 16, 16)), plan, weights_seed=7)
        np.testing.assert_array_equal(out, np.zeros(21))

    def test_fixed_seed_is_bitwise_reproducible(self):
        rng = np.random.default_rng(0)
        grid = make_grid((16, 16, 16), rng.integers(0, 5, size=(16, 16, 16)))
        plan = propagate((16, 16, 16, 1), default_layers(4))
        a = forward_naive(grid, plan, weights_seed=123)
        b = forward_naive(grid, plan, weights_seed=123)
        np.testing.assert_array_equal(a, b)
        c = forward_naive(grid, plan, weights_seed=124)
        assert not np.array_equal(a, c)

    def test_init_weights_draws_are_pinned(self):
        """One generator, draws in plan order, shapes written out by hand, each over sqrt(fan-in)."""
        layers = [
            LayerSpec("conv3d", kernel=(3, 2, 1), stride=2, channels_out=4),
            LayerSpec("pool3d", kernel=2, stride=2),
            LayerSpec("conv3d", kernel=(1, 2, 3), channels_out=5),
            LayerSpec("global_reduce"),
            LayerSpec("dense", channels_out=6),
        ]
        weights = init_weights(propagate((8, 8, 8, 1), layers), seed=11)
        rng = np.random.default_rng(11)
        expected = [
            rng.standard_normal((3, 2, 1, 1, 4)) / math.sqrt(3 * 2 * 1 * 1),
            None,
            rng.standard_normal((1, 2, 3, 4, 5)) / math.sqrt(1 * 2 * 3 * 4),
            None,
            rng.standard_normal((5, 6)) / math.sqrt(5),
        ]
        assert len(weights) == len(expected)
        for got, want in zip(weights, expected):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got["weight"], want)
                assert np.array_equal(got["bias"], np.zeros(want.shape[-1]))

    def test_output_finite_and_shape_matches_plan(self):
        rng = np.random.default_rng(1)
        grid = make_grid((16, 16, 16), rng.integers(0, 9, size=(16, 16, 16)))
        plan = propagate((16, 16, 16, 1), default_layers(5))
        out = forward_naive(grid, plan, weights_seed=2)
        assert out.shape == plan.final_shape == (35,)
        assert np.all(np.isfinite(out))

    def test_doubling_final_dense_weights_doubles_output(self):
        rng = np.random.default_rng(3)
        grid = make_grid((8, 8, 8), rng.integers(0, 4, size=(8, 8, 8)))
        plan = propagate((8, 8, 8, 1), default_layers(2))
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
        plan = propagate((16, 16, 16, 1), default_layers(1))
        with pytest.raises(ShapePlanError, match="do not match"):
            forward_naive(make_grid((8, 8, 8)), plan, weights_seed=0)

    def test_weight_count_must_match_plan(self):
        plan = propagate((8, 8, 8, 1), default_layers(1))
        weights = init_weights(plan, seed=0)[:-1]
        with pytest.raises(ShapePlanError, match="^expected 14 weight entries, got 13$"):
            forward_with_weights(make_grid((8, 8, 8)), plan, weights)

    def test_single_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        dims = (5, 4, 6)
        grid = make_grid(dims, rng.integers(0, 7, size=dims))
        layer = LayerSpec("conv3d", kernel=2, stride=1, channels_out=3, padding="valid")
        plan = propagate((*dims, 1), [layer])
        weights = init_weights(plan, seed=9)
        got = forward_with_weights(grid, plan, weights)
        w = weights[0]["weight"]  # (2, 2, 2, 1, 3)
        x = grid.astype(float)
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
        x = np.pad(grid.astype(float), 1)
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
