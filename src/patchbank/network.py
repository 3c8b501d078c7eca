"""Declarative model construction and the three-stream forward pass.

A backbone is an ordered stack of ``Conv``, ``Pool`` and ``ReLU`` layers,
one frozen type per kind, with named tap points; each ``ReLU`` runs fused
into the ``Conv`` before it.  At each tapped feature map a patch-detector
module attaches a bank of 1x1 filters (``conv6``), pools each response map
to one value by global max or average pooling, classifies the pooled
vector (P-Stream), and feeds a parameter-free side branch that averages
each class's filter group (the side stream).  The G-Stream is one GAP+FC
head: it averages the final backbone map over space and classifies that
vector.  The G, P and side streams are merged at test time by a weighted
sum of logits.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from . import ops
from .checks import check_int, check_real
from .tensor import Tensor, active_tape, resolve_dtype

# Images per untaped backbone chunk; ``_run_backbone`` says why.
BACKBONE_CHUNK = 4
# Input channels: images are RGB, as ``data.Sample`` and the PPM files are.
IN_CHANNELS = 3


# One frozen type per layer kind; what a kind cannot vary is a ClassVar.
@dataclass(frozen=True)
class Conv:
    kernel: int
    out_channels: int
    stride: int = 1
    pad: int = 0
    kind: ClassVar[str] = "conv"

    def __post_init__(self):
        for name, least in (("kernel", 1), ("out_channels", 1), ("stride", 1), ("pad", 0)):
            check_int(name, getattr(self, name), least)


@dataclass(frozen=True)
class Pool:
    kernel: int
    stride: int
    kind: ClassVar[str] = "pool"
    pad: ClassVar[int] = 0

    def __post_init__(self):
        check_int("kernel", self.kernel, 1)
        check_int("stride", self.stride, 1)


@dataclass(frozen=True)
class ReLU:
    kind: ClassVar[str] = "relu"
    kernel: ClassVar[int] = 1
    stride: ClassVar[int] = 1
    pad: ClassVar[int] = 0


Layer = Conv | Pool | ReLU


@dataclass(frozen=True)
class BackboneSpec:
    """Layers and named tap points; frozen, with ``taps`` a read-only mapping."""

    layers: tuple[Layer, ...]
    taps: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "taps", MappingProxyType(dict(self.taps)))
        # Each relu runs fused into the conv before it, whose pre-ReLU map no tap reads.
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise ValueError(f"layer {i} must be a Conv, Pool or ReLU, got {layer!r}")
            if layer.kind == "relu" and (i == 0 or self.layers[i - 1].kind != "conv"):
                raise ValueError(f"relu layer {i} must directly follow a conv layer")
        for name, idx in self.taps.items():
            check_int(f"tap {name!r} index", idx)
            if not 0 <= idx < len(self.layers):
                raise ValueError(f"tap {name!r} index {idx} out of range")
            if self._relu_follows(idx):
                raise ValueError(f"tap {name!r} reads conv layer {idx}, which a relu follows; "
                                 f"tap the relu at {idx + 1}")

    def _relu_follows(self, i: int) -> bool:
        """Whether layer ``i`` is a conv that runs fused with the relu after it."""
        return (self.layers[i].kind == "conv" and i + 1 < len(self.layers)
                and self.layers[i + 1].kind == "relu")

    def __reduce__(self):
        # A mappingproxy does not pickle, so copies and pickles rebuild from a dict.
        return BackboneSpec, (self.layers, dict(self.taps))


@dataclass(frozen=True)
class ReceptiveFieldInfo:
    size: int      # pixels covered by one site
    stride: int    # pixels between adjacent sites
    offset: float  # image-space center of site (0, 0)


def _tap_index(spec: BackboneSpec, tap: str) -> int:
    if tap not in spec.taps:
        raise KeyError(f"unknown tap {tap!r}; available: {sorted(spec.taps)}")
    return spec.taps[tap]


def receptive_field(spec: BackboneSpec, tap: str) -> ReceptiveFieldInfo:
    """Receptive field size/stride/offset of the feature map at a tap point.

    Composition recurrence: size += (kernel-1)*jump, offset moves by
    ((kernel-1)/2 - pad)*jump, jump *= stride.
    """
    size, jump, offset = 1, 1, 0.0
    for layer in spec.layers[: _tap_index(spec, tap) + 1]:
        size += (layer.kernel - 1) * jump
        offset += ((layer.kernel - 1) / 2.0 - layer.pad) * jump
        jump *= layer.stride
    return ReceptiveFieldInfo(size=size, stride=jump, offset=offset)


def feature_shapes(spec: BackboneSpec, input_size: int) -> list[tuple[int, int, int]]:
    """(C, H, W) after each backbone layer for a square ``IN_CHANNELS`` input."""
    c, h, w = IN_CHANNELS, input_size, input_size
    out = []
    for layer in spec.layers:
        h = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
        w = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
        if layer.kind == "conv":
            c = layer.out_channels
        if h < 1 or w < 1:
            raise ValueError(f"feature map collapses to {h}x{w} at layer {layer}")
        out.append((c, h, w))
    return out


@dataclass(frozen=True)
class DFLModuleSpec:
    """One patch-detector module: k 1x1 filters per class at a tap.

    The class count M is one number for the whole network, so it lives in
    ``ModelSpec.classes``; a module holds only its tap and its k.
    """

    tap: str
    filters_per_class: int
    # Every module has the side branch.  Only bench/replay.py reads this
    # constant and ModelSpec.g_hidden; both go with the replay (ROADMAP item 2).
    with_side_branch: ClassVar[bool] = True

    def __post_init__(self):
        check_int("filters_per_class", self.filters_per_class, 1)


@dataclass(frozen=True)
class ModelSpec:
    """The model's shape, validated once: backbone, modules, input geometry
    and the class count M that every module's bank and every head share.
    Frozen, like the specs it holds, so nothing changes after ``__post_init__``.
    """

    backbone: BackboneSpec
    modules: tuple[DFLModuleSpec, ...]
    input_size: int
    classes: int
    pooling: str = "gmp"           # conv6 readout: "gmp" or "gap"
    fusion_g: float = 1.0
    fusion_p: float = 1.0          # per module
    fusion_side: float = 0.1       # per module
    # Always 0: the G-stream is one GAP+FC head.  Kept for bench/replay.py; see DFLModuleSpec.
    g_hidden: ClassVar[int] = 0

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(self.modules))
        if not self.modules:
            raise ValueError("at least one patch-detector module is required")
        for name, least in (("input_size", 1), ("classes", 2)):
            check_int(name, getattr(self, name), least)
        if self.pooling not in ("gmp", "gap"):
            raise ValueError(f"pooling must be 'gmp' or 'gap', got {self.pooling!r}")
        _check_fusion_weights([self.fusion_g, self.fusion_p, self.fusion_side],
                              ("fusion_g", "fusion_p", "fusion_side"))
        for m in self.modules:
            if m.tap not in self.backbone.taps:
                raise ValueError(f"module tap {m.tap!r} is not a backbone tap")
        feature_shapes(self.backbone, self.input_size)

    def default_fusion_weights(self) -> np.ndarray:
        n = len(self.modules)
        return np.array([self.fusion_g] + [self.fusion_p] * n + [self.fusion_side] * n,
                        dtype=np.float64)


@dataclass(frozen=True)
class FilterBank:
    """The k*M grid of 1x1 patch-detector filters; filter j belongs to class j // k.

    Frozen, like the specs, so the checks in ``__post_init__`` hold for its life.
    """

    weight: Tensor                 # (k*M, C, 1, 1)
    classes: int
    filters_per_class: int

    def __post_init__(self):
        if not isinstance(self.weight, Tensor):
            raise ValueError(f"filter bank weight must be a Tensor, got {type(self.weight).__name__}")
        check_int("classes", self.classes, 2)
        check_int("filters_per_class", self.filters_per_class, 1)
        km = self.classes * self.filters_per_class
        if self.weight.ndim != 4 or self.weight.shape[0] != km or self.weight.shape[2:] != (1, 1):
            raise ValueError(
                f"filter bank weight must be ({km}, C, 1, 1), got {self.weight.shape}"
            )

    def class_of_filter(self, j: int) -> int:
        return j // self.filters_per_class


@dataclass
class StreamOutputs:
    """Per-sample logits of every stream plus filter-bank diagnostics."""

    g_logits: Tensor
    p_logits: list[Tensor]
    side_logits: list[Tensor]
    peak_values: list[Tensor]      # (..., k*M) GMP of each conv6 map, the P-stream input under GMP
    peak_argmax: list[np.ndarray]  # (..., k*M, 2) int (h, w) of each conv6 map's peak


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order ``build_model`` draws them."""
    shapes = feature_shapes(spec.backbone, spec.input_size)
    m = spec.classes
    out: dict[str, tuple[int, ...]] = {}
    for i, layer in enumerate(spec.backbone.layers):
        if layer.kind == "conv":
            c_in = shapes[i - 1][0] if i else IN_CHANNELS
            out[f"backbone.{i}.weight"] = (layer.out_channels, c_in, layer.kernel, layer.kernel)
    for mi, mod in enumerate(spec.modules):
        km = m * mod.filters_per_class
        out[f"module{mi}.conv6.weight"] = (km, shapes[spec.backbone.taps[mod.tap]][0], 1, 1)
        out[f"module{mi}.phead.weight"] = (m, km)
        out[f"module{mi}.phead.bias"] = (m,)
    out["ghead.weight"] = (m, shapes[-1][0])
    out["ghead.bias"] = (m,)
    return out


class Model:
    """A built network: spec plus named params in ``param_shapes`` order, each a finite
    Tensor of its shape and of ``dtype``, the one dtype they share; else ``ValueError``."""

    def __init__(self, spec: ModelSpec, params: Mapping[str, Tensor]):
        shapes = param_shapes(spec)
        if params.keys() != shapes.keys():
            name = min(params.keys() ^ shapes.keys())
            raise ValueError(f"{'missing' if name in shapes else 'unexpected'} param {name!r}")
        self.spec = spec
        self.params = {name: params[name] for name in shapes}
        self.dtype = getattr(next(iter(self.params.values())), "dtype", None)
        for name, p in self.params.items():
            if not isinstance(p, Tensor) or p.shape != shapes[name] or p.dtype != self.dtype:
                got = repr(p) if isinstance(p, Tensor) else type(p).__name__
                raise ValueError(f"param {name!r} does not match shape {shapes[name]} and dtype "
                                 f"{self.dtype}: got {got}")
            if not np.isfinite(p.data).all():
                raise ValueError(f"param {name!r} has NaN or inf values")


def build_model(spec: ModelSpec, bank_init=None, seed: int = 0, dtype="f64") -> Model:
    """Materialize parameters for a spec.

    Each ``param_shapes`` weight in turn is drawn from a uniform law on
    +-1/sqrt(fan-in), fan-in ``prod(shape[1:])``; biases start at zero.
    ``bank_init`` optionally holds one FilterBank (or None) per module, copied
    into that module's conv6: bit-exactly when the bank has the model's
    dtype, else rounded once to it.  The random stream is consumed the same
    either way, so two builds with one seed share every other param.
    """
    np_dtype = resolve_dtype(dtype)
    check_int("seed", seed, 0)
    if isinstance(bank_init, FilterBank):
        raise ValueError("bank_init must be a list with one entry per module "
                         f"({len(spec.modules)}), got a bare FilterBank")
    if bank_init is not None and len(bank_init) != len(spec.modules):
        raise ValueError(f"bank_init must have one entry per module ({len(spec.modules)}), "
                         f"got {len(bank_init)}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=np_dtype)
        else:
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
            data = rng.uniform(-bound, bound, size=shape).astype(np_dtype)
        params[name] = Tensor(data, requires_grad=True)
    for mi, (mod, bank) in enumerate(zip(spec.modules, bank_init or ())):
        if bank is None:
            continue
        if not isinstance(bank, FilterBank):
            raise ValueError(f"module {mi} bank_init entry must be a FilterBank or None, "
                             f"got {type(bank).__name__}")
        if (bank.classes, bank.filters_per_class) != (spec.classes, mod.filters_per_class):
            raise ValueError(f"module {mi} bank has {bank.classes} classes x "
                             f"{bank.filters_per_class} filters, module needs {spec.classes} x "
                             f"{mod.filters_per_class}")
        params[f"module{mi}.conv6.weight"] = Tensor(bank.weight.data.astype(np_dtype),
                                                    requires_grad=True)
    return Model(spec, params)


def _check_input(model: Model, image) -> Tensor:
    x = image if isinstance(image, Tensor) else Tensor(image)
    spec = model.spec
    want = (IN_CHANNELS, spec.input_size, spec.input_size)
    if x.shape[-3:] != want or x.ndim not in (3, 4):
        raise ValueError(f"input shape {x.shape} does not match spec {want}")
    if x.dtype != model.dtype:
        if x.requires_grad:
            raise ValueError(f"input is a {x.dtype} Tensor that requires grad, but the model "
                             f"is {model.dtype}: a cast copy would get no gradient")
        x = Tensor(x, dtype=model.dtype)
    if not np.isfinite(x.data).all():
        raise ValueError(f"input image has NaN or inf values at model dtype {x.dtype}")
    return x


def _run_backbone(model: Model, x: Tensor, wanted: set[int]) -> dict[int, Tensor]:
    """The backbone maps at the layer indices in ``wanted``, walking only through
    layer ``max(wanted)``.

    A conv layer followed by a relu layer runs as one ``conv2d(...,
    relu=True)``, whose backward masks from its output, and the relu layer
    runs nothing; the spec alone decides this.  Without a tape, a batch
    runs every layer on ``BACKBONE_CHUNK`` images at a time, since a few
    images' activations and im2col columns fit in cache where a whole
    batch's do not, and ``ops.parallel_for`` spreads the chunks over its
    workers.  Each wanted map is allocated once at batch size, from the
    spec's feature shapes, and each chunk's result is copied into its own
    slice as soon as the chunk finishes, so no map exists twice and the
    traced peak stays near the returned bytes.  Each kernel treats images
    independently, so the bytes equal a whole-batch pass.  A taped pass
    runs whole, since the tape records only the calling thread's ops;
    its convs spread their images over the workers themselves.
    """
    if x.ndim == 4 and len(x.data) > BACKBONE_CHUNK and active_tape() is None:
        n = len(x.data)
        shapes = feature_shapes(model.spec.backbone, model.spec.input_size)
        maps = {i: np.empty((n, *shapes[i]), x.dtype) for i in wanted}

        def run_chunk(c):
            part = slice(c * BACKBONE_CHUNK, (c + 1) * BACKBONE_CHUNK)
            for i, t in _run_backbone(model, Tensor(x.data[part]), wanted).items():
                maps[i][part] = t.data

        ops.parallel_for(-(-n // BACKBONE_CHUNK), run_chunk)
        return {i: Tensor(m) for i, m in maps.items()}
    maps = {}
    cur = x
    for i, layer in enumerate(model.spec.backbone.layers[: max(wanted) + 1]):
        if layer.kind == "conv":
            cur = ops.conv2d(cur, model.params[f"backbone.{i}.weight"], layer.stride, layer.pad,
                             relu=model.spec.backbone._relu_follows(i))
        elif layer.kind == "pool":
            cur = ops.maxpool2d(cur, layer.kernel, layer.stride)
        if i in wanted:
            maps[i] = cur
    return maps


def tap_features(model: Model, image, tap: str) -> Tensor:
    """Feature map at a tap point; runs only the backbone prefix, with the same
    fused ops and untaped chunking as ``forward`` (see ``_run_backbone``), and
    is byte-equal to a whole-batch pass."""
    idx = _tap_index(model.spec.backbone, tap)
    return _run_backbone(model, _check_input(model, image), {idx})[idx]


def forward(model: Model, image) -> StreamOutputs:
    """Run every stream on one image (C,S,S) or a batch (N,C,S,S).

    Pixels are float32 or float64 in [0, 1], as ``load_ppm`` and ``generate``
    make them; ``Tensor`` rejects an integer or bool array (a raw uint8 image).
    Deterministic; also records the argmax location of every conv6 filter
    response for later patch visualization.  One backbone walk returns the
    final map and each module's tap, with each conv and its relu fused and
    untaped batches chunked as ``_run_backbone`` describes; the heads run
    on the whole batch.  Under ``pooling="gmp"`` conv6 and its global max
    pooling run fused as ``ops.bank_peaks``, so the (k*M, H, W) response
    maps are never stored; ``pooling="gap"`` needs the dense maps for
    their mean, so it runs ``conv2d`` and then both global pools.  Every
    output is byte-equal to a whole-batch pass.
    """
    spec = model.spec
    last = len(spec.backbone.layers) - 1
    maps = _run_backbone(model, _check_input(model, image),
                         {last, *(spec.backbone.taps[m.tap] for m in spec.modules)})

    g_logits = ops.fully_connected(ops.global_avg_pool(maps[last]), model.params["ghead.weight"],
                                   model.params["ghead.bias"])

    p_logits, side_logits, peaks, argmaxes = [], [], [], []
    for mi, mod in enumerate(spec.modules):
        tap_feat = maps[spec.backbone.taps[mod.tap]]
        w6 = model.params[f"module{mi}.conv6.weight"]
        if spec.pooling == "gmp":
            peak, argmax = ops.bank_peaks(tap_feat, w6)
            vec = peak
        else:
            conv6 = ops.conv2d(tap_feat, w6)
            peak, argmax = ops.global_max_pool(conv6)
            vec = ops.global_avg_pool(conv6)
        p_logits.append(
            ops.fully_connected(vec, model.params[f"module{mi}.phead.weight"],
                                model.params[f"module{mi}.phead.bias"])
        )
        peaks.append(peak)
        argmaxes.append(argmax)
        side_logits.append(ops.cross_channel_avg_pool(vec, mod.filters_per_class))
    return StreamOutputs(g_logits=g_logits, p_logits=p_logits, side_logits=side_logits,
                         peak_values=peaks, peak_argmax=argmaxes)


def logit_streams(outputs: StreamOutputs) -> list[Tensor]:
    """All logit streams in fusion order: G, then P per module, then side per module."""
    return [outputs.g_logits] + list(outputs.p_logits) + list(outputs.side_logits)


def _check_fusion_weights(weights, names) -> np.ndarray:
    """``weights`` as float64 once each passes ``check_real`` under its name and
    the sign rule holds."""
    for name, wi in zip(names, weights):
        check_real(name, wi)
    w = np.asarray(weights, dtype=np.float64)
    if w.min() < 0 or w.max() <= 0:
        raise ValueError("fusion weights must be nonnegative with at least one positive")
    return w


def fuse_predictions(outputs: StreamOutputs, weights) -> tuple[Tensor, np.ndarray | int]:
    """Weighted sum of stream logits and its argmax class (ties -> smallest index).
    Every stream's logits must be finite and of G's shape; the error names the
    first that is not.  ``outputs`` must hold one P and one side stream per module."""
    if len(outputs.p_logits) != len(outputs.side_logits):
        raise ValueError(f"outputs hold {len(outputs.p_logits)} P streams but "
                         f"{len(outputs.side_logits)} side streams; each module gives one of each")
    streams = logit_streams(outputs)
    if np.shape(weights) != (len(streams),):
        raise ValueError(f"expected {len(streams)} fusion weights, got shape {np.shape(weights)}")
    w = _check_fusion_weights(weights, [f"fusion weight {i}" for i in range(len(streams))])
    names = (["G"] + [f"P{i}" for i in range(len(outputs.p_logits))]
             + [f"side{i}" for i in range(len(outputs.side_logits))])
    for name, s in zip(names, streams):
        # A (1, M) stream would broadcast against (N, M) ones and add rows.
        if s.shape != outputs.g_logits.shape:
            raise ValueError(f"{name} stream logits have shape {s.shape}, but G's have "
                             f"{outputs.g_logits.shape}")
        # argmax returns the first NaN's index, so one NaN logit would pick the class.
        if not np.isfinite(s.data).all():
            raise ValueError(f"{name} stream logits have NaN or inf values")
    fused = sum(wi * s.data for wi, s in zip(w, streams))
    cls = fused.argmax(axis=-1)
    return Tensor(fused), (int(cls) if fused.ndim == 1 else cls)


def tinynet_spec(classes: int, filters_per_class: int = 4, input_size: int = 64,
                 pooling: str = "gmp") -> ModelSpec:
    """Desk-scale default backbone: four 3x3 conv blocks (16,32,64,64), 2x2
    pools after blocks 1 and 2, patch module tapped after block 3
    (receptive field 18, stride 4 on the input)."""
    layers = (
        Conv(3, 16, pad=1), ReLU(), Pool(2, 2),
        Conv(3, 32, pad=1), ReLU(), Pool(2, 2),
        Conv(3, 64, pad=1), ReLU(),
        Conv(3, 64, pad=1), ReLU(),
    )
    backbone = BackboneSpec(layers=layers, taps={"block3": 7, "block4": 9})
    module = DFLModuleSpec(tap="block3", filters_per_class=filters_per_class)
    return ModelSpec(backbone=backbone, modules=(module,), input_size=input_size,
                     classes=classes, pooling=pooling)


def vgg16_backbone() -> BackboneSpec:
    """The 16-layer VGG conv stack through conv5_3 with named taps."""
    channels = [(64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512)]
    layers: list[Layer] = []
    names: dict[str, int] = {}
    for bi, block in enumerate(channels, start=1):
        for ci, ch in enumerate(block, start=1):
            layers.append(Conv(3, ch, pad=1))
            layers.append(ReLU())
            names[f"conv{bi}_{ci}"] = len(layers) - 1  # tap after the relu
        if bi < len(channels):
            layers.append(Pool(2, 2))
    return BackboneSpec(layers=tuple(layers), taps=names)
