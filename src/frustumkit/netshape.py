"""Layer-by-layer tensor shape propagation and a naive 3D forward pass.

The contract being verified is structural, not learned: a stack of strided
3D convolutions over a voxel grid must terminate in a flat vector of length
`7 * n_categories` (one oriented-box regression head per category). The
shape arithmetic is the standard convolution bookkeeping; `forward_naive`
executes the plan with seeded random weights as an executable witness that
the claimed shapes are actually realizable by a real computation.

Tensors are laid out (x, y, z, channels). Dropout is modeled as identity
(inference mode), so it is shape- and value-neutral here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapePlanError
from .manifest import parse_json
from .voxelizer import VoxelGrid

LAYER_KINDS = ("conv3d", "pool3d", "dropout", "global_reduce", "dense")

#: Largest grid or kernel dimension forward_naive will accept. The direct
#: convolution loop is meant for desk-scale verification grids, not for
#: the full Table-sized inputs (those are covered by shape propagation).
NAIVE_DIM_CAP = 32

#: Largest element count forward_naive will allocate: for all of a plan's
#: weights together, and for any one array a layer builds (its padded input,
#: its window copy, its output). 2**24 float64 values are 128 MiB.
NAIVE_ELEMENT_CAP = 1 << 24


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _as_triple(value, name: str) -> tuple[int, int, int]:
    if _is_int(value):
        value = (value, value, value)
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 3
        and all(_is_int(v) and v >= 1 for v in value)
    ):
        raise ShapePlanError(f"{name} must be a positive int or 3 positive ints, got {value!r}")
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a shape plan.

    `channels_out` is required for conv3d and dense and must be omitted for
    the channel-preserving kinds (pool3d, dropout, global_reduce).
    """

    kind: str
    kernel: tuple[int, int, int] = (1, 1, 1)
    stride: tuple[int, int, int] = (1, 1, 1)
    channels_out: int | None = None
    padding: str = "same"

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ShapePlanError(f"unknown layer kind {self.kind!r}; expected one of {LAYER_KINDS}")
        object.__setattr__(self, "kernel", _as_triple(self.kernel, "kernel"))
        object.__setattr__(self, "stride", _as_triple(self.stride, "stride"))
        if self.padding not in ("same", "valid"):
            raise ShapePlanError(f"padding must be 'same' or 'valid', got {self.padding!r}")
        needs_channels = self.kind in ("conv3d", "dense")
        if needs_channels:
            if not (_is_int(self.channels_out) and self.channels_out >= 1):
                raise ShapePlanError(f"{self.kind} requires a positive channels_out")
        elif self.channels_out is not None:
            raise ShapePlanError(f"{self.kind} preserves channels; channels_out must be omitted")


_LAYER_JSON_KEYS = {"kind", "kernel", "stride", "channels_out", "padding"}


def layer_from_json(obj: dict) -> LayerSpec:
    if not isinstance(obj, dict):
        raise ShapePlanError(f"layer entry must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _LAYER_JSON_KEYS
    if unknown:
        raise ShapePlanError(f"unknown layer keys: {sorted(unknown)}")
    if "kind" not in obj:
        raise ShapePlanError("layer entry missing 'kind'")
    kwargs = {k: obj[k] for k in obj}
    return LayerSpec(**kwargs)


def layers_from_json(text: str | bytes) -> tuple[LayerSpec, ...]:
    """Parse a JSON array of layer objects; unknown keys and bad values are hard errors.

    The text goes through the strict reader (:func:`manifest.parse_json`), so
    malformed JSON, non-UTF-8 bytes and non-finite or overflowing numbers
    raise ManifestError; a well-formed entry with a bad field raises
    ShapePlanError.
    """
    data = parse_json(text, "layer list")
    if not isinstance(data, list):
        raise ShapePlanError("layer list JSON must be a top-level array")
    return tuple(layer_from_json(entry) for entry in data)


@dataclass(frozen=True)
class ShapePlan:
    """A propagated plan: the input shape plus each layer's output shape."""

    input_shape: tuple[int, int, int, int]
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)
    shapes: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @property
    def final_shape(self) -> tuple[int, ...]:
        return self.shapes[-1] if self.shapes else self.input_shape

    @property
    def final_length(self) -> int:
        return math.prod(self.final_shape)

    def table(self) -> str:
        """Human-readable per-layer shape table (one line per layer)."""
        lines = [f"{'layer':<6}{'kind':<16}{'output shape'}"]
        lines.append(f"{'in':<6}{'input':<16}{self.input_shape}")
        for i, (layer, shape) in enumerate(zip(self.layers, self.shapes)):
            lines.append(f"{i:<6}{layer.kind:<16}{shape}")
        lines.append(f"final flat length: {self.final_length}")
        return "\n".join(lines)


def _conv_output_dim(dim: int, k: int, s: int, padding: str, where: str) -> int:
    if padding == "same":
        return -(-dim // s)
    span = dim - k
    if span < 0:
        raise ShapePlanError(f"{where}: kernel {k} exceeds input extent {dim} under valid padding")
    if span % s != 0:
        raise ShapePlanError(
            f"{where}: valid padding needs (in - kernel) divisible by stride, "
            f"got in={dim} kernel={k} stride={s}"
        )
    return span // s + 1


def _layer_output_shape(index: int, layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    where = f"layer {index} ({layer.kind})"
    if layer.kind == "dropout":
        return shape
    if layer.kind == "global_reduce":
        if len(shape) != 4:
            raise ShapePlanError(f"{where}: needs a spatial (x, y, z, c) input, got {shape}")
        return (shape[3],)
    if layer.kind == "dense":
        if len(shape) != 1:
            raise ShapePlanError(f"{where}: needs a flat input, got {shape}; reduce first")
        return (layer.channels_out,)
    # conv3d / pool3d
    if len(shape) != 4:
        raise ShapePlanError(f"{where}: needs a spatial (x, y, z, c) input, got {shape}")
    spatial = tuple(
        _conv_output_dim(dim, k, s, layer.padding, where)
        for dim, k, s in zip(shape[:3], layer.kernel, layer.stride)
    )
    channels = layer.channels_out if layer.kind == "conv3d" else shape[3]
    return (*spatial, channels)


def propagate(input_shape: Sequence[int], layers: Sequence[LayerSpec]) -> ShapePlan:
    """Run the shape arithmetic for every layer; errors name the layer."""
    ishape = tuple(int(v) for v in input_shape)
    if len(ishape) != 4 or any(v < 1 for v in ishape):
        raise ShapePlanError(f"input shape must be 4 positive ints (x, y, z, c), got {input_shape!r}")
    shapes: list[tuple[int, ...]] = []
    shape: tuple[int, ...] = ishape
    for i, layer in enumerate(layers):
        shape = _layer_output_shape(i, layer, shape)
        shapes.append(shape)
    return ShapePlan(input_shape=ishape, layers=tuple(layers), shapes=tuple(shapes))


DEFAULT_CONV_CHANNELS = (16, 32, 64, 64, 128, 128)


def default_layers(n_categories: int) -> tuple[LayerSpec, ...]:
    """The default 6-layer fully convolutional stack.

    Six stride-2 'same' 3x3x3 convolutions (each followed by dropout),
    then a global mean reduce and a dense head of length 7 per category:
    2 orientation + 3 center + 3 size outputs, heading the way the
    regression head in :mod:`frustumkit.head` expects. Works on any of the
    shipped voxel grid shapes because 'same' padding never leaves a
    non-integral size.
    """
    if n_categories < 1:
        raise ShapePlanError("n_categories must be >= 1")
    layers: list[LayerSpec] = []
    for channels in DEFAULT_CONV_CHANNELS:
        layers.append(LayerSpec("conv3d", kernel=3, stride=2, channels_out=channels))
        layers.append(LayerSpec("dropout"))
    layers.append(LayerSpec("global_reduce"))
    layers.append(LayerSpec("dense", channels_out=7 * n_categories))
    return tuple(layers)


def default_plan(grid_dims: Sequence[int], n_categories: int) -> ShapePlan:
    dims = tuple(int(v) for v in grid_dims)
    return propagate((*dims, 1), default_layers(n_categories))


# --- naive forward pass ---------------------------------------------------


def _check_naive_size(plan: ShapePlan) -> None:
    """Refuse, before anything is allocated, a plan too big for the naive pass."""
    if max(plan.input_shape[:3]) > NAIVE_DIM_CAP:
        raise ShapePlanError(
            f"forward_naive is capped at {NAIVE_DIM_CAP}^3 grids; got dims {plan.input_shape[:3]}"
        )
    n_weights = 0
    shape_in: tuple[int, ...] = plan.input_shape
    for i, (layer, shape_out) in enumerate(zip(plan.layers, plan.shapes)):
        where = f"layer {i} ({layer.kind})"
        largest = math.prod(shape_out)
        if layer.kind in ("conv3d", "pool3d"):
            if max(layer.kernel) > NAIVE_DIM_CAP:
                raise ShapePlanError(
                    f"{where}: forward_naive caps kernel dims at {NAIVE_DIM_CAP}, got {layer.kernel}"
                )
            padded = math.prod(
                max(dim, (out - 1) * s + k)
                for dim, out, k, s in zip(shape_in[:3], shape_out[:3], layer.kernel, layer.stride)
            )
            windows = math.prod(shape_out[:3]) * math.prod(layer.kernel)
            largest = max(largest, max(padded, windows) * shape_in[3])
        if layer.kind == "conv3d":
            n_weights += math.prod(layer.kernel) * shape_in[3] * layer.channels_out
        elif layer.kind == "dense":
            n_weights += shape_in[0] * layer.channels_out
        if largest > NAIVE_ELEMENT_CAP:
            raise ShapePlanError(
                f"{where}: an array of {largest} elements exceeds forward_naive's cap of {NAIVE_ELEMENT_CAP}"
            )
        shape_in = shape_out
    if n_weights > NAIVE_ELEMENT_CAP:
        raise ShapePlanError(
            f"plan has {n_weights} weights; forward_naive is capped at {NAIVE_ELEMENT_CAP}"
        )


def init_weights(plan: ShapePlan, seed: int) -> list[dict | None]:
    """Seeded random weights per layer: N(0, 1)/sqrt(fan_in), zero biases.

    Entries are None for weight-free layers. Draw order is plan order, so a
    fixed seed fixes every array bitwise. Plans beyond the naive pass's caps
    raise ShapePlanError before any weight is drawn.
    """
    _check_naive_size(plan)
    rng = np.random.default_rng(seed)
    weights: list[dict | None] = []
    shape_in: tuple[int, ...] = plan.input_shape
    for layer, shape_out in zip(plan.layers, plan.shapes):
        if layer.kind == "conv3d":
            kx, ky, kz = layer.kernel
            c_in = shape_in[3]
            fan_in = kx * ky * kz * c_in
            w = rng.standard_normal((kx, ky, kz, c_in, layer.channels_out)) / math.sqrt(fan_in)
            weights.append({"weight": w, "bias": np.zeros(layer.channels_out)})
        elif layer.kind == "dense":
            c_in = shape_in[0]
            w = rng.standard_normal((c_in, layer.channels_out)) / math.sqrt(c_in)
            weights.append({"weight": w, "bias": np.zeros(layer.channels_out)})
        else:
            weights.append(None)
        shape_in = shape_out
    return weights


def _pad_spatial(x: np.ndarray, layer: LayerSpec, out_spatial: tuple[int, ...], fill: float) -> np.ndarray:
    pads = []
    for dim, out, k, s in zip(x.shape[:3], out_spatial, layer.kernel, layer.stride):
        total = max((out - 1) * s + k - dim, 0)
        pads.append((total // 2, total - total // 2))
    pads.append((0, 0))
    if not any(lo or hi for lo, hi in pads):
        return x
    return np.pad(x, pads, mode="constant", constant_values=fill)


def _windows(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    # (ox, oy, oz, c, kx, ky, kz) after striding the sliding-window view
    view = np.lib.stride_tricks.sliding_window_view(x, layer.kernel, axis=(0, 1, 2))
    sx, sy, sz = layer.stride
    return view[::sx, ::sy, ::sz]


def _apply_layer(x: np.ndarray, layer: LayerSpec, w: dict | None, out_shape: tuple[int, ...]) -> np.ndarray:
    if layer.kind == "dropout":
        return x
    if layer.kind == "global_reduce":
        return x.mean(axis=(0, 1, 2))
    if layer.kind == "dense":
        return x @ w["weight"] + w["bias"]
    if layer.kind == "conv3d":
        padded = _pad_spatial(x, layer, out_shape[:3], fill=0.0)
        win = _windows(padded, layer)
        y = np.tensordot(win, w["weight"], axes=([4, 5, 6, 3], [0, 1, 2, 3])) + w["bias"]
        return np.maximum(y, 0.0)  # ReLU on conv outputs only
    # pool3d (max)
    padded = _pad_spatial(x, layer, out_shape[:3], fill=-np.inf)
    win = _windows(padded, layer)
    return win.max(axis=(4, 5, 6))


def forward_with_weights(grid: VoxelGrid, plan: ShapePlan, weights: Sequence[dict | None]) -> np.ndarray:
    """Execute the plan on a voxel grid with explicit per-layer weights."""
    if tuple(grid.dims) != plan.input_shape[:3] or plan.input_shape[3] != 1:
        raise ShapePlanError(
            f"grid dims {tuple(grid.dims)} do not match plan input {plan.input_shape}"
        )
    _check_naive_size(plan)
    if len(weights) != len(plan.layers):
        raise ShapePlanError(f"expected {len(plan.layers)} weight entries, got {len(weights)}")
    x = grid.data.astype(np.float64)[..., None]
    for layer, w, shape_out in zip(plan.layers, weights, plan.shapes):
        x = _apply_layer(x, layer, w, shape_out)
        if x.shape != shape_out:
            raise ShapePlanError(
                f"forward shape {x.shape} disagrees with propagated shape {shape_out}"
            )
    return x


def forward_naive(grid: VoxelGrid, plan: ShapePlan, weights_seed: int) -> np.ndarray:
    """Seeded-random-weight forward pass; the shape witness for the plan."""
    return forward_with_weights(grid, plan, init_weights(plan, weights_seed))
