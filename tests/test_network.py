"""Model construction, receptive-field arithmetic, forward pass, fusion."""

import copy
import dataclasses
import hashlib
import inspect
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from patchbank.network import (
    BackboneSpec,
    Conv,
    DFLModuleSpec,
    FilterBank,
    Model,
    ModelSpec,
    Pool,
    ReLU,
    StreamOutputs,
    build_model,
    feature_shapes,
    forward,
    fuse_predictions,
    logit_streams,
    param_shapes,
    receptive_field,
    tap_features,
    tinynet_spec,
    vgg16_backbone,
)
from patchbank import data, network, ops
from patchbank.tensor import GradTape, Tensor
from patchbank.tensorio import load_tensors, save_tensors


# ------------------------------------------------------------ receptive field


def probe_changed_sites(spec, in_channels, input_size, pixel, tap):
    """Empirical receptive-field oracle: bump one input pixel hugely and
    report which tap sites change.

    Uses positive weights and positive inputs so a positive bump always
    propagates through convs, max pools, and relus.
    """
    from patchbank import ops
    from patchbank.tensor import Tensor as T

    rng = np.random.default_rng(1234)
    weights = []
    c = in_channels
    for layer in spec.layers:
        if layer.kind == "conv":
            weights.append(rng.uniform(0.1, 1.0, (layer.out_channels, c, layer.kernel, layer.kernel)))
            c = layer.out_channels
        else:
            weights.append(None)

    def run(img):
        cur = T(img)
        for layer, w in zip(spec.layers[: spec.taps[tap] + 1], weights):
            if layer.kind == "conv":
                cur = ops.conv2d(cur, T(w), layer.stride, layer.pad)
            elif layer.kind == "pool":
                cur = ops.maxpool2d(cur, layer.kernel, layer.stride)
            else:
                cur = ops.relu(cur)
        return cur.data

    base = rng.uniform(0.5, 1.5, (in_channels, input_size, input_size))
    bumped = base.copy()
    bumped[:, pixel[0], pixel[1]] += 1e6
    diff = np.abs(run(bumped) - run(base)).max(axis=0)
    return {(h, w) for h, w in zip(*np.nonzero(diff > 1e-6))}


def predicted_sites(rf, n_h, n_w, pixel, input_size):
    start0 = rf.offset - (rf.size - 1) / 2.0
    sites = set()
    for h in range(n_h):
        for w in range(n_w):
            top = start0 + rf.stride * h
            left = start0 + rf.stride * w
            if top <= pixel[0] <= top + rf.size - 1 and left <= pixel[1] <= left + rf.size - 1:
                sites.add((h, w))
    return sites


class TestReceptiveField:
    def test_vgg16_conv4_3_is_92_by_8(self):
        rf = receptive_field(vgg16_backbone(), "conv4_3")
        assert rf.size == 92
        assert rf.stride == 8

    def test_single_1x1_conv(self):
        spec = BackboneSpec(layers=(Conv(1, 4),), taps={"t": 0})
        rf = receptive_field(spec, "t")
        assert (rf.size, rf.stride, rf.offset) == (1, 1, 0.0)

    def test_conv_pool_conv_is_8_by_2(self):
        spec = BackboneSpec(layers=(Conv(3, 4), Pool(2, 2), Conv(3, 4)), taps={"t": 2})
        rf = receptive_field(spec, "t")
        assert rf.size == 8
        assert rf.stride == 2
        # Verify empirically: the set of tap sites changed by a single-pixel
        # bump must equal the sites whose declared field covers that pixel.
        shapes = feature_shapes(spec, 16)
        n_h, n_w = shapes[-1][1:]
        for pixel in [(5, 7), (8, 3), (11, 11)]:
            got = probe_changed_sites(spec, 2, 16, pixel, "t")
            assert got == predicted_sites(rf, n_h, n_w, pixel, 16)

    def test_unknown_tap_rejected(self):
        with pytest.raises(KeyError, match="unknown tap"):
            receptive_field(vgg16_backbone(), "conv9_9")

    def test_tap_features_names_the_available_taps_too(self):
        model = build_model(tinynet_spec(classes=4), seed=0)
        message = r"unknown tap 'nope'; available: \['block3', 'block4'\]"
        for lookup in (lambda: receptive_field(model.spec.backbone, "nope"),
                       lambda: tap_features(model, np.zeros((3, 64, 64)), "nope")):
            with pytest.raises(KeyError, match=message):
                lookup()

    def test_tinynet_tap_is_18_by_4(self):
        spec = tinynet_spec(classes=8)
        rf = receptive_field(spec.backbone, "block3")
        assert (rf.size, rf.stride) == (18, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_probing_agrees_on_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):  # rejection-sample a spec whose maps stay >= 1
            layers = []
            for _ in range(int(rng.integers(1, 9))):
                kind = rng.choice(["conv", "pool", "relu"], p=[0.5, 0.3, 0.2])
                if kind == "conv":
                    layers.append(Conv(int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                                       stride=int(rng.integers(1, 3)), pad=int(rng.integers(0, 2))))
                elif kind == "pool":
                    layers.append(Pool(int(rng.integers(2, 4)), int(rng.integers(1, 3))))
                elif layers and layers[-1].kind == "conv":  # a relu only right after a conv
                    layers.append(ReLU())
            try:
                spec = BackboneSpec(layers=tuple(layers), taps={"t": len(layers) - 1})
                shapes = feature_shapes(spec, 20)
                break
            except ValueError:
                continue
        else:
            pytest.skip("no valid random spec found")
        rf = receptive_field(spec, "t")
        n_h, n_w = shapes[-1][1:]
        pixel = (int(rng.integers(3, 17)), int(rng.integers(3, 17)))
        got = probe_changed_sites(spec, 2, 20, pixel, "t")
        want = predicted_sites(rf, n_h, n_w, pixel, 20)
        # The declared field is the bounding hull of the true dependency set,
        # so changed sites are always inside it; when every prefix keeps the
        # composed jump within the composed size the dependencies are dense
        # and the two sets coincide.
        assert got <= want
        size, jump, dense = 1, 1, True
        for layer in spec.layers:
            k = 1 if layer.kind == "relu" else layer.kernel
            s = 1 if layer.kind == "relu" else layer.stride
            size += (k - 1) * jump
            jump *= s
            dense = dense and jump <= size
        if dense:
            assert got == want


# -------------------------------------------------------------------- build


class TestBuildModel:
    def test_filter_counts_from_classes_and_k(self):
        spec = tinynet_spec(classes=4, filters_per_class=3)
        model = build_model(spec, seed=0)
        assert model.params["module0.conv6.weight"].shape == (12, 64, 1, 1)
        outs = forward(model, np.zeros((3, 64, 64)))
        assert outs.peak_values[0].shape == (12,)
        assert outs.side_logits[0].shape == (4,)

    def test_two_modules_two_p_streams_one_g_stream(self):
        base = tinynet_spec(classes=4, filters_per_class=2)
        mods = (
            DFLModuleSpec(tap="block3", filters_per_class=2),
            DFLModuleSpec(tap="block4", filters_per_class=2),
        )
        spec = ModelSpec(backbone=base.backbone, modules=mods, input_size=64, classes=4)
        model = build_model(spec, seed=0)
        outs = forward(model, np.zeros((3, 64, 64)))
        assert len(outs.p_logits) == 2
        assert len(outs.side_logits) == 2
        assert outs.g_logits.shape == (4,)
        np.testing.assert_array_equal(spec.default_fusion_weights(), [1.0, 1.0, 1.0, 0.1, 0.1])

    def test_bank_init_copied_bit_exactly(self):
        spec = tinynet_spec(classes=4, filters_per_class=3)
        rng = np.random.default_rng(5)
        bank = FilterBank(weight=Tensor(rng.standard_normal((12, 64, 1, 1))),
                          classes=4, filters_per_class=3)
        model = build_model(spec, bank_init=[bank], seed=0)
        np.testing.assert_array_equal(model.params["module0.conv6.weight"].data, bank.weight.data)

    def test_f64_bank_rounded_once_into_an_f32_model(self):
        spec = tinynet_spec(classes=4, filters_per_class=3)
        bank = FilterBank(weight=Tensor(np.random.default_rng(5).standard_normal((12, 64, 1, 1))),
                          classes=4, filters_per_class=3)
        weight = build_model(spec, bank_init=[bank], seed=0, dtype="f32").params[
            "module0.conv6.weight"].data
        want = bank.weight.data.astype(np.float32)
        assert weight.dtype == np.float32 and weight.tobytes() == want.tobytes()

    def test_bank_init_leaves_other_weights_unchanged(self):
        spec = tinynet_spec(classes=4, filters_per_class=3)
        bank = FilterBank(weight=Tensor(np.zeros((12, 64, 1, 1))), classes=4, filters_per_class=3)
        a = build_model(spec, seed=3)
        b = build_model(spec, bank_init=[bank], seed=3)
        np.testing.assert_array_equal(a.params["backbone.0.weight"].data,
                                      b.params["backbone.0.weight"].data)
        np.testing.assert_array_equal(a.params["ghead.weight"].data, b.params["ghead.weight"].data)

    def test_bank_init_none_entry_keeps_the_drawn_weight(self):
        spec = two_module_spec()
        bank = FilterBank(weight=Tensor(np.random.default_rng(5).standard_normal((8, 64, 1, 1))),
                          classes=4, filters_per_class=2)
        drawn = build_model(spec, seed=0)
        model = build_model(spec, bank_init=[None, bank], seed=0)
        np.testing.assert_array_equal(model.params["module0.conv6.weight"].data,
                                      drawn.params["module0.conv6.weight"].data)
        np.testing.assert_array_equal(model.params["module1.conv6.weight"].data, bank.weight.data)

    def test_bank_shape_mismatch_rejected(self):
        spec = tinynet_spec(classes=4, filters_per_class=3)
        bank = FilterBank(weight=Tensor(np.zeros((12, 32, 1, 1))), classes=4, filters_per_class=3)
        with pytest.raises(ValueError, match="does not match"):
            build_model(spec, bank_init=[bank])

    def test_bank_class_layout_mismatch_rejected(self):
        # Same (16, 64, 1, 1) weight, but 2 classes x 8 filters against 4 x 4.
        spec = tinynet_spec(classes=4, filters_per_class=4)
        bank = FilterBank(weight=Tensor(np.zeros((16, 64, 1, 1))), classes=2, filters_per_class=8)
        with pytest.raises(ValueError, match="module 0 bank has 2 classes x 8 filters, "
                                             "module needs 4 x 4"):
            build_model(spec, bank_init=[bank])

    def test_filter_bank_class_ownership(self):
        bank = FilterBank(weight=Tensor(np.zeros((12, 8, 1, 1))), classes=4, filters_per_class=3)
        assert [bank.class_of_filter(j) for j in range(12)] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]


class TestModelParams:
    def test_param_shapes_are_build_model_params_in_order(self):
        for spec in (tinynet_spec(2, 1, 16), tinynet_spec(3, 2, 32, "gap"), two_module_spec(),
                     ModelSpec(vgg16_backbone(), (DFLModuleSpec("conv4_3", 2),), 32, 3)):
            params = build_model(spec, dtype="f32").params
            assert list(param_shapes(spec).items()) == [(k, p.shape) for k, p in params.items()]

    def test_build_model_params_pinned(self):
        """sha256 of every param's name, shape, dtype and bytes over a spec x seed x
        dtype x bank grid.  A change to the init law changes it on purpose and re-pins it."""
        rng = np.random.default_rng(21)
        digest = hashlib.sha256()
        for spec in (tinynet_spec(2, 1, 16), tinynet_spec(3, 2, 32, "gap"), two_module_spec()):
            banks = [FilterBank(Tensor(rng.standard_normal((spec.classes * m.filters_per_class,
                                                            64, 1, 1))),
                                spec.classes, m.filters_per_class) for m in spec.modules]
            for seed in (0, 7):
                for dtype in ("f32", "f64"):
                    for bank_init in (None, banks):
                        for name, p in build_model(spec, bank_init, seed, dtype).params.items():
                            digest.update(f"{name} {p.shape} {p.dtype}".encode())
                            digest.update(p.data.tobytes())
        assert digest.hexdigest() == (
            "84e34cbc45217504f0bc38a724ff5cc2c933b4740c3c94a789a904722207c876")

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("pooling", ["gmp", "gap"])
    def test_saved_params_give_byte_equal_forward(self, tmp_path, dtype, pooling):
        model = build_model(tinynet_spec(4, 2, 32, pooling), seed=3, dtype=dtype)
        save_tensors(tmp_path / "params.npz", model.params)
        loaded = Model(model.spec, load_tensors(tmp_path / "params.npz"))
        assert loaded.dtype == model.dtype
        x = np.random.default_rng(4).random((5, 3, 32, 32))
        a, b = forward(model, x), forward(loaded, x)
        for u, v in zip([*logit_streams(a), *a.peak_values, *a.peak_argmax],
                        [*logit_streams(b), *b.peak_values, *b.peak_argmax]):
            assert np.asarray(u).dtype == np.asarray(v).dtype
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes()

    def test_params_kept_in_layout_order(self):
        model = build_model(tinynet_spec(4, 2, 32))
        shuffled = dict(reversed(list(model.params.items())))
        again = Model(model.spec, shuffled)
        assert list(again.params) == list(param_shapes(model.spec))
        assert all(again.params[k] is p for k, p in shuffled.items())

    @pytest.mark.parametrize("change,message", [
        (lambda p: p.pop("ghead.bias"), "missing param 'ghead.bias'"),
        (lambda p: p.update({"ghead.fc.weight": Tensor(np.ones(2))}),
         "unexpected param 'ghead.fc.weight'"),
        (lambda p: p.update({"module0.conv6.weight": Tensor(np.ones((8, 32, 1, 1)))}),
         r"param 'module0.conv6.weight' does not match shape \(8, 64, 1, 1\) and dtype float64: "
         r"got Tensor\(shape=\(8, 32, 1, 1\)"),
        (lambda p: p.update({"ghead.weight": np.ones((4, 64))}),
         r"param 'ghead.weight' does not match shape \(4, 64\) and dtype float64: got ndarray"),
        (lambda p: p.update({"ghead.weight": Tensor(p["ghead.weight"], True, "f32")}),
         r"param 'ghead.weight' does not match shape \(4, 64\) and dtype float64: "
         r"got Tensor\(shape=\(4, 64\), dtype=float32"),
        (lambda p: p["module0.phead.bias"].data.__setitem__(1, np.nan),
         "param 'module0.phead.bias' has NaN or inf values"),
        (lambda p: p["backbone.3.weight"].data.__setitem__((0, 0, 0, 0), -np.inf),
         "param 'backbone.3.weight' has NaN or inf values"),
    ], ids=["missing", "extra", "mis-shaped", "not-a-tensor", "mixed-dtype", "nan", "inf"])
    def test_bad_params_rejected(self, change, message):
        params = dict(build_model(tinynet_spec(4, 2, 32)).params)
        change(params)
        with pytest.raises(ValueError, match=message):
            Model(tinynet_spec(4, 2, 32), params)

    def test_bank_that_overflows_the_model_dtype_rejected(self):
        # Finite at f64, inf once copied into an f32 conv6.
        bank = FilterBank(Tensor(np.full((8, 64, 1, 1), 1e300)), classes=4, filters_per_class=2)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="param 'module0.conv6.weight' has NaN or inf values"):
            build_model(tinynet_spec(4, 2, 32), bank_init=[bank], dtype="f32")


# ------------------------------------------------------------------ forward


def hand_trace(x, w1, w6, wp, bp, wg, bg):
    """Fully hand-rolled forward for a 1-conv backbone with one module (k=1, M=2)."""
    bb = np.einsum("oc,chw->ohw", w1[:, :, 0, 0], x)
    g = wg @ bb.mean(axis=(1, 2)) + bg
    c6 = np.einsum("fc,chw->fhw", w6[:, :, 0, 0], bb)
    peaks = c6.reshape(2, -1).max(axis=1)
    p = wp @ peaks + bp
    side = peaks.copy()  # k=1: group means are the values themselves
    return g, p, side, peaks


def two_module_spec():
    """tinynet with a patch module at block3 and another at block4, GMP pooling."""
    spec = tinynet_spec(classes=4, filters_per_class=3)
    modules = (spec.modules[0], DFLModuleSpec(tap="block4", filters_per_class=2))
    return ModelSpec(backbone=spec.backbone, modules=modules, input_size=spec.input_size,
                     classes=spec.classes)


def tiny_model_spec(**overrides):
    """tinynet_spec(4)'s ModelSpec with some fields replaced."""
    base = tinynet_spec(4)
    fields = dict(backbone=base.backbone, modules=base.modules, input_size=64, classes=4)
    return ModelSpec(**{**fields, **overrides})


def walk_backbone(model, x):
    """Every backbone layer as its own op, conv and relu unfused; returns (output, all maps)."""
    cur = x if isinstance(x, Tensor) else Tensor(x, dtype=model.dtype)
    taps = {}
    for i, layer in enumerate(model.spec.backbone.layers):
        if layer.kind == "conv":
            cur = ops.conv2d(cur, model.params[f"backbone.{i}.weight"], layer.stride, layer.pad)
        elif layer.kind == "pool":
            cur = ops.maxpool2d(cur, layer.kernel, layer.stride)
        else:
            cur = ops.relu(cur)
        taps[i] = cur
    return cur, taps


def unfused_gmp_forward(model, x):
    """The GMP forward with every layer its own op, conv6 and its pooling too.

    Returns the logit streams in fusion order, peak_values and peak_argmax.
    """
    spec, params = model.spec, model.params
    cur, taps = walk_backbone(model, x)
    g = ops.fully_connected(ops.global_avg_pool(cur), params["ghead.weight"], params["ghead.bias"])
    p, side, peaks, argmaxes = [], [], [], []
    for mi, mod in enumerate(spec.modules):
        conv6 = ops.conv2d(taps[spec.backbone.taps[mod.tap]], params[f"module{mi}.conv6.weight"])
        peak, argmax = ops.global_max_pool(conv6)
        p.append(ops.fully_connected(peak, params[f"module{mi}.phead.weight"],
                                     params[f"module{mi}.phead.bias"]))
        side.append(ops.cross_channel_avg_pool(peak, mod.filters_per_class))
        peaks.append(peak)
        argmaxes.append(argmax)
    return [g, *p, *side], peaks, argmaxes


def summed_loss(streams, labels):
    loss = ops.softmax_cross_entropy(streams[0], labels)
    for s in streams[1:]:
        loss = ops.add(loss, ops.softmax_cross_entropy(s, labels))
    return loss


class TestForward:
    def test_shapes_contract(self):
        model = build_model(tinynet_spec(classes=8, filters_per_class=4), seed=0)
        outs = forward(model, np.random.default_rng(0).random((3, 64, 64)))
        assert outs.g_logits.shape == (8,)
        assert outs.p_logits[0].shape == (8,)
        assert outs.side_logits[0].shape == (8,)
        assert outs.peak_values[0].shape == (32,)
        assert outs.peak_argmax[0].shape == (32, 2)

    def test_zero_input_zero_weights_zero_logits(self):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=0)
        for p in model.params.values():
            p.data[...] = 0.0
        outs = forward(model, np.zeros((3, 64, 64)))
        assert not outs.g_logits.data.any()
        assert not outs.p_logits[0].data.any()
        assert not outs.side_logits[0].data.any()

    def test_matches_hand_rolled_trace(self):
        backbone = BackboneSpec(layers=(Conv(1, 3),), taps={"t": 0})
        spec = ModelSpec(
            backbone=backbone,
            modules=(DFLModuleSpec(tap="t", filters_per_class=1),),
            input_size=2,
            classes=2,
        )
        model = build_model(spec, seed=9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 2, 2))
        outs = forward(model, x)
        g, p, side, peaks = hand_trace(
            x,
            model.params["backbone.0.weight"].data,
            model.params["module0.conv6.weight"].data,
            model.params["module0.phead.weight"].data,
            model.params["module0.phead.bias"].data,
            model.params["ghead.weight"].data,
            model.params["ghead.bias"].data,
        )
        np.testing.assert_allclose(outs.g_logits.data, g, atol=1e-12)
        np.testing.assert_allclose(outs.p_logits[0].data, p, atol=1e-12)
        np.testing.assert_allclose(outs.side_logits[0].data, side, atol=1e-12)
        np.testing.assert_allclose(outs.peak_values[0].data, peaks, atol=1e-12)

    def test_deterministic_bit_identical(self):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=1)
        x = np.random.default_rng(2).random((3, 64, 64))
        a, b = forward(model, x), forward(model, x)
        np.testing.assert_array_equal(a.g_logits.data, b.g_logits.data)
        np.testing.assert_array_equal(a.p_logits[0].data, b.p_logits[0].data)
        np.testing.assert_array_equal(a.peak_values[0].data, b.peak_values[0].data)
        np.testing.assert_array_equal(a.peak_argmax[0], b.peak_argmax[0])

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("shape", [(3, 64, 64), (2, 3, 64, 64)])
    def test_gmp_readout_equals_conv2d_then_global_max_pool(self, dtype, shape):
        model = build_model(two_module_spec(), seed=11, dtype=dtype)
        x = np.random.default_rng(12).random(shape)
        with GradTape() as fused_tape:
            out = forward(model, x)
        with GradTape() as ref_tape:
            streams, peaks, argmaxes = unfused_gmp_forward(model, x)
        # conv6 and its global max pooling are one record instead of two,
        # and so is each backbone conv with the relu after it.
        layers = model.spec.backbone.layers
        pairs = sum(a.kind == "conv" and b.kind == "relu" for a, b in zip(layers, layers[1:]))
        assert len(fused_tape) == len(ref_tape) - len(model.spec.modules) - pairs
        for got, want in zip(logit_streams(out), streams, strict=True):
            assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()
        for mi in range(len(model.spec.modules)):
            assert out.peak_values[mi].data.tobytes() == peaks[mi].data.tobytes()
            np.testing.assert_array_equal(out.peak_argmax[mi], argmaxes[mi])

    @pytest.mark.parametrize("shape", [(3, 64, 64), (2, 3, 64, 64)])
    def test_gmp_gradients_match_conv2d_then_global_max_pool(self, shape):
        model = build_model(two_module_spec(), seed=13, dtype="f64")
        x = np.random.default_rng(14).random(shape)
        labels = np.array([1, 3]) if len(shape) == 4 else 2
        with GradTape() as fused_tape:
            fused_loss = summed_loss(logit_streams(forward(model, x)), labels)
        fused_tape.backward(fused_loss)
        with GradTape() as ref_tape:
            ref_loss = summed_loss(unfused_gmp_forward(model, x)[0], labels)
        ref_tape.backward(ref_loss)
        assert fused_loss.data.tobytes() == ref_loss.data.tobytes()
        for name, param in model.params.items():
            got, want = fused_tape.grad(param).data, ref_tape.grad(param).data
            # Only the order of the sums into conv6's input differs.
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    def test_every_conv_runs_fused_with_its_relu(self, monkeypatch):
        # The spec alone decides fusion: forward and tap_features run the
        # same conv2d(..., relu=True) for every tinynet conv.
        model = build_model(tinynet_spec(4, 3, 32), seed=15)
        params = model.params
        x = Tensor(np.random.default_rng(16).random((2, 3, 32, 32)), requires_grad=True)
        labels = np.array([1, 3])
        flags = []
        conv2d = ops.conv2d

        def spy(*args, relu=False, **kwargs):
            flags.append(relu)
            return conv2d(*args, relu=relu, **kwargs)

        monkeypatch.setattr(ops, "conv2d", spy)
        with GradTape() as tape:
            out = forward(model, x)
            loss = summed_loss(logit_streams(out), labels)
        assert flags == [True] * 4
        flags.clear()
        tap_maps = {tap: tap_features(model, x, tap) for tap in ("block3", "block4")}
        assert flags == [True] * 3 + [True] * 4
        monkeypatch.undo()
        tape.backward(loss)

        with GradTape() as ref_tape:
            final, maps = walk_backbone(model, x)
            g = ops.fully_connected(ops.global_avg_pool(final), params["ghead.weight"],
                                    params["ghead.bias"])
            peak, argmax = ops.bank_peaks(maps[7], params["module0.conv6.weight"])
            p = ops.fully_connected(peak, params["module0.phead.weight"],
                                    params["module0.phead.bias"])
            streams = [g, p, ops.cross_channel_avg_pool(peak, 3)]
            ref_loss = summed_loss(streams, labels)
        ref_tape.backward(ref_loss)

        # One record fewer per fused pair.
        assert len(ref_tape) - len(tape) == 4
        for tap, idx in (("block3", 7), ("block4", 9)):
            assert tap_maps[tap].data.tobytes() == maps[idx].data.tobytes()
        np.testing.assert_array_equal(out.peak_argmax[0], argmax)
        for got, want in zip([loss, *logit_streams(out)], [ref_loss, *streams], strict=True):
            assert got.data.tobytes() == want.data.tobytes()
        for t in [x, *params.values()]:
            assert tape.grad(t).data.tobytes() == ref_tape.grad(t).data.tobytes()

    def test_batched_matches_per_sample(self):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=1)
        xs = np.random.default_rng(3).random((3, 3, 64, 64))
        batched = forward(model, xs)
        for i in range(3):
            single = forward(model, xs[i])
            np.testing.assert_allclose(batched.g_logits.data[i], single.g_logits.data, atol=1e-12)
            np.testing.assert_allclose(batched.p_logits[0].data[i], single.p_logits[0].data,
                                       atol=1e-12)

    @pytest.mark.parametrize("pooling", ["gmp", "gap"])
    def test_f32_logits_within_bound_of_f64(self, pooling):
        spec = tinynet_spec(classes=8, filters_per_class=4, input_size=64, pooling=pooling)
        x = np.random.default_rng(11).uniform(0.0, 1.0, (4, 3, 64, 64))
        ref = logit_streams(forward(build_model(spec, seed=2, dtype="f64"), x))
        low = logit_streams(forward(build_model(spec, seed=2, dtype="f32"), x))
        for a, b in zip(low, ref):
            assert a.dtype == np.float32
            assert (np.abs(a.data - b.data) <= 1e-5 + 1e-4 * np.abs(b.data)).all()

    def test_input_size_mismatch_rejected(self):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=0)
        with pytest.raises(ValueError, match="does not match"):
            forward(model, np.zeros((3, 32, 32)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_non_finite_input_rejected(self, bad):
        # 1e300 is finite at f64 but overflows to inf at the f32 model's dtype.
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=0, dtype="f32")
        x = np.zeros((2, 3, 64, 64))
        x[1, 2, 5, 7] = bad
        for run in (lambda im: forward(model, im), lambda im: tap_features(model, im, "block3")):
            with pytest.raises(ValueError, match="NaN or inf"):
                run(x)
            with pytest.raises(ValueError, match="NaN or inf"):
                run(x[1])

    def test_input_of_another_dtype_that_requires_grad_rejected(self):
        # A cast copy would be on no tape, so tape.grad(x) would be None.
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=0)
        x = Tensor(np.zeros((2, 3, 64, 64)), requires_grad=True, dtype="f32")
        for run in (lambda im: forward(model, im), lambda im: tap_features(model, im, "block3")):
            with pytest.raises(ValueError, match="input is a float32 Tensor that requires grad, "
                                                 "but the model is float64"):
                run(x)

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor], ids=["array", "tensor"])
    def test_input_of_another_dtype_cast_to_the_model(self, wrap):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=0)
        x = np.random.default_rng(3).random((2, 3, 64, 64)).astype(np.float32)
        got, want = forward(model, wrap(x)), forward(model, x.astype(np.float64))
        for a, b in zip(logit_streams(got), logit_streams(want)):
            assert a.dtype == np.float64 and a.data.tobytes() == b.data.tobytes()
        tap = tap_features(model, wrap(x), "block3").data
        assert tap.tobytes() == tap_features(model, x.astype(np.float64), "block3").data.tobytes()

    def test_side_logits_depend_only_on_conv6_given_tap_features(self):
        # No learnable parameter sits between the side loss and conv6:
        # perturbing any head weight leaves side logits untouched.
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=4)
        x = np.random.default_rng(5).random((3, 64, 64))
        before = forward(model, x)
        model.params["ghead.weight"].data += 1.0
        model.params["module0.phead.weight"].data += 1.0
        after = forward(model, x)
        np.testing.assert_array_equal(before.side_logits[0].data, after.side_logits[0].data)
        assert not np.array_equal(before.g_logits.data, after.g_logits.data)
        assert not np.array_equal(before.p_logits[0].data, after.p_logits[0].data)

    def test_p_stream_invariant_to_post_tap_backbone(self):
        # The two streams are asymmetric: layers after the tap affect only G.
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=6)
        x = np.random.default_rng(7).random((3, 64, 64))
        before = forward(model, x)
        model.params["backbone.8.weight"].data += 0.5  # block-4 conv, after the tap
        after = forward(model, x)
        np.testing.assert_array_equal(before.p_logits[0].data, after.p_logits[0].data)
        np.testing.assert_array_equal(before.side_logits[0].data, after.side_logits[0].data)
        assert not np.array_equal(before.g_logits.data, after.g_logits.data)

    def test_tap_features_match_forward_prefix(self):
        model = build_model(tinynet_spec(classes=4, filters_per_class=2), seed=8)
        x = np.random.default_rng(9).random((3, 64, 64))
        taps = tap_features(model, x, "block3")
        assert taps.shape == (64, 16, 16)


# ---------------------------------------------------------- chunked backbone

CHUNK = network.BACKBONE_CHUNK


def traced_peak(call):
    """Result of ``call()`` and the peak bytes numpy allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def forward_arrays(model, x):
    out = forward(model, x)
    tensors = [*logit_streams(out), *out.peak_values]
    taps = [tap_features(model, x, tap) for tap in ("block3", "block4")]
    return [t.data for t in tensors + taps] + list(out.peak_argmax)


class TestChunkedBackbone:
    @pytest.mark.parametrize("pooling", ["gmp", "gap"])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("batch", [1, CHUNK, CHUNK + 1, 17])
    def test_byte_equal_to_single_chunk(self, monkeypatch, batch, dtype, pooling):
        model = build_model(tinynet_spec(4, 2, 32, pooling=pooling), seed=batch, dtype=dtype)
        x = np.random.default_rng(batch).random((batch, 3, 32, 32))
        chunked = forward_arrays(model, x)
        monkeypatch.setattr(network, "BACKBONE_CHUNK", batch)
        whole = forward_arrays(model, x)
        assert len(chunked) == len(whole) == 7
        for got, want in zip(chunked, whole):
            assert got.dtype == want.dtype and got.shape[0] == batch
            assert got.tobytes() == want.tobytes()

    # Each chunk is written into one batch-sized map, so no returned map
    # exists twice and the peak stays well under 2x the returned bytes.
    def test_tap_features_peak_near_output_bytes(self):
        model = build_model(tinynet_spec(4, 2, 32), seed=0)
        x = np.random.default_rng(0).random((32 * CHUNK, 3, 32, 32))
        out, peak = traced_peak(lambda: tap_features(model, x, "block3"))
        assert peak < 1.5 * out.data.nbytes

    def test_forward_peak_near_tap_and_final_bytes(self):
        spec = tinynet_spec(4, 2, 32)
        # A second module at block4 taps the final map, which is still filled once.
        block4 = dataclasses.replace(spec, modules=(*spec.modules, DFLModuleSpec("block4", 2)))
        x = np.random.default_rng(0).random((32 * CHUNK, 3, 32, 32))
        for model in (build_model(spec, seed=0), build_model(block4, seed=0)):
            _, peak = traced_peak(lambda: forward(model, x))
            maps = [tap_features(model, x, tap) for tap in ("block3", "block4")]
            assert peak < 1.5 * sum(m.data.nbytes for m in maps)

    def test_chunks_only_without_tape(self, monkeypatch):
        batches = []
        conv2d = ops.conv2d

        def spy(x, weight, *args, **kwargs):
            batches.append(len(x.data))
            return conv2d(x, weight, *args, **kwargs)

        monkeypatch.setattr(ops, "conv2d", spy)
        model = build_model(tinynet_spec(4, 2, 32), seed=0)
        x = np.random.default_rng(0).random((2 * CHUNK + 1, 3, 32, 32))
        tap_features(model, x, "block4")
        # Chunks run on concurrent workers, so their calls interleave.
        assert sorted(batches) == [1] * 4 + [CHUNK] * 8
        batches.clear()
        with GradTape() as tape:
            forward(model, x)
        assert batches == [2 * CHUNK + 1] * 4 and len(tape) > 0


class TestWorkers:
    """Untaped passes spread images over ``ops.WORKERS`` threads; bytes must not move."""

    @pytest.mark.parametrize("pooling", ["gmp", "gap"])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_byte_equal_to_one_worker(self, monkeypatch, workers, dtype, pooling):
        model = build_model(tinynet_spec(4, 2, 32, pooling=pooling), seed=workers, dtype=dtype)
        x = np.random.default_rng(workers).random((4 * CHUNK + 1, 3, 32, 32))
        monkeypatch.setattr(ops, "WORKERS", 1)
        serial = forward_arrays(model, x)
        monkeypatch.setattr(ops, "WORKERS", workers)
        spread = forward_arrays(model, x)
        for got, want in zip(spread, serial, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_eight_workers_under_fast_switching(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: a
        # chunk written to another's slice, or a lost write, changes bytes.
        model = build_model(tinynet_spec(200, 2, 16), seed=1, dtype="f32")
        x = np.random.default_rng(1).random((9 * CHUNK + 3, 3, 16, 16))
        monkeypatch.setattr(ops, "WORKERS", 1)
        want = forward_arrays(model, x)
        monkeypatch.setattr(ops, "WORKERS", 8)
        got = []
        runner = threading.Thread(target=lambda: got.extend(forward_arrays(model, x)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_taped_loss_under_fast_switching(self, monkeypatch):
        # A taped pass spreads each conv's images over the workers: an image
        # written to another's row, or a lost write, changes the loss or a gradient.
        model = build_model(tinynet_spec(4, 2, 16), seed=2, dtype="f32")
        x = np.random.default_rng(2).random((2 * CHUNK + 3, 3, 16, 16))
        labels = np.arange(len(x)) % 4

        def taped():
            image = Tensor(x, requires_grad=True, dtype="f32")
            with GradTape() as tape:
                loss = summed_loss(logit_streams(forward(model, image)), labels)
            tape.backward(loss)
            leaves = [image, *model.params.values()]
            return [loss.data.tobytes()] + [tape.grad(t).data.tobytes() for t in leaves]

        monkeypatch.setattr(ops, "WORKERS", 1)
        want = taped()
        monkeypatch.setattr(ops, "WORKERS", 8)
        got = []
        runner = threading.Thread(target=lambda: got.extend(taped()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got == want

    def test_nested_call_runs_serially_on_its_thread(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("needs sched_getaffinity")
        monkeypatch.setattr(ops, "WORKERS", 2)
        creators, lock = [], threading.Lock()

        class SpyThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                creators.append(threading.get_ident())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ops.threading, "Thread", SpyThread)
        ran = []
        both = threading.Barrier(2, timeout=60)  # so each outer share runs one nested call

        def outer(i):
            both.wait()
            me, cores = threading.get_ident(), os.sched_getaffinity(0)
            inner = []
            ops.parallel_for(5, lambda j: inner.append((j, threading.get_ident(),
                                                        os.sched_getaffinity(0))))
            assert os.sched_getaffinity(0) == cores
            with lock:
                ran.append((me, cores, inner))

        ops.parallel_for(2, outer)
        # Only the outer call started a thread, from the calling one.
        assert creators == [threading.get_ident()]
        assert len({me for me, _, _ in ran}) == 2
        for me, cores, inner in ran:
            assert inner == [(j, me, cores) for j in range(5)]

    def test_nested_exception_reaches_outer_caller(self, monkeypatch):
        monkeypatch.setattr(ops, "WORKERS", 2)
        caller = threading.get_ident()
        helper_ran = threading.Event()

        def outer(i):
            if threading.get_ident() == caller:
                assert helper_ran.wait(60)  # so the helper claims an index
                ops.parallel_for(3, lambda j: None)
                return
            helper_ran.set()

            def inner(j):
                if j == 2:
                    raise KeyError("nested in a helper")

            ops.parallel_for(3, inner)

        before = threading.active_count()
        with pytest.raises(KeyError, match="nested in a helper"):
            ops.parallel_for(4, outer)
        assert threading.active_count() == before
        # The caller is no longer inside a call's work, so its next call spreads again.
        both = threading.Barrier(2, timeout=10)
        ran = []
        ops.parallel_for(2, lambda i: ran.append((both.wait(), threading.get_ident())))
        assert len({t for _, t in ran}) == 2

    def test_helper_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(ops, "WORKERS", 2)
        caller, done = threading.get_ident(), []
        helper_ran = threading.Event()

        def work(i):
            if threading.get_ident() != caller:
                helper_ran.set()
                raise KeyError("in a helper")
            assert helper_ran.wait(60)  # so the helper claims an index
            done.append(i)

        before = threading.active_count()
        with pytest.raises(KeyError, match="in a helper"):
            ops.parallel_for(4, work)
        # The caller claims what the failed helper left.
        assert len(done) == 3 and threading.active_count() == before

    def test_every_index_runs_once_and_the_caller_takes_part(self, monkeypatch):
        monkeypatch.setattr(ops, "WORKERS", 3)
        ran, lock = [], threading.Lock()
        # A thread waiting here claims nothing more, so indices 0-2 go to
        # three threads, the caller one of them.
        first_three = threading.Barrier(3, timeout=60)

        def work(i):
            with lock:
                ran.append((i, threading.get_ident()))
            if i < 3:
                first_three.wait()

        ops.parallel_for(10, work)
        assert sorted(i for i, _ in ran) == list(range(10))
        threads = {t for i, t in ran if i < 3}
        assert len(threads) == 3 and threading.get_ident() in threads

    # Read at import, so a call that failed to give the caller its cores
    # back cannot shrink them before the test below reads them.
    CORES = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()

    def test_each_thread_held_to_its_own_core(self, monkeypatch):
        cores = self.CORES
        if len(cores) < 2:
            pytest.skip("needs two cores")
        monkeypatch.setattr(ops, "WORKERS", 2)
        held = {}
        both = threading.Barrier(2, timeout=60)

        def work(i):
            held[threading.get_ident()] = os.sched_getaffinity(0)
            if i < 2:
                both.wait()

        ops.parallel_for(6, work)
        masks = list(held.values())
        assert len(masks) == 2 and all(len(m) == 1 for m in masks) and masks[0] != masks[1]
        assert os.sched_getaffinity(0) == cores
        # More shares than cores: no thread is held.
        monkeypatch.setattr(ops, "WORKERS", len(cores) + 1)
        held.clear()
        ops.parallel_for(len(cores) + 1, lambda i: held.update({i: os.sched_getaffinity(0)}))
        assert all(m == cores for m in held.values()) and os.sched_getaffinity(0) == cores

    def test_make_runs_once_per_share(self, monkeypatch):
        monkeypatch.setattr(ops, "WORKERS", 2)
        made, ran, lock = {}, [], threading.Lock()
        both = threading.Barrier(2, timeout=60)  # so each share claims an index

        def make():
            me = threading.get_ident()
            with lock:
                assert me not in made
                made[me] = (object(), os.sched_getaffinity(0) if self.CORES else None)
            return made[me][0], "second"

        def work(i, buffer, second):
            with lock:
                ran.append((i, threading.get_ident(), buffer, second))
            if i < 2:
                both.wait()

        ops.parallel_for(6, work, make)
        assert sorted(i for i, _, _, _ in ran) == list(range(6))
        assert len(made) == 2 and threading.get_ident() in made
        # Every call of a share gets the buffers its own make() returned.
        assert all(buffer is made[t][0] and second == "second" for _, t, buffer, second in ran)
        if len(self.CORES) >= 2:  # made after the share's thread was held to its core
            assert all(len(cores) == 1 for _, cores in made.values())

    @pytest.mark.parametrize("nested", [False, True])
    def test_one_share_runs_make_once(self, monkeypatch, nested):
        # A nested call runs as one share, as does every call at one worker.
        monkeypatch.setattr(ops, "WORKERS", 2 if nested else 1)
        calls, lock = [], threading.Lock()

        def one_call(_=None):
            made, ran = [], []

            def make():
                made.append(object())
                return (made[-1],)

            ops.parallel_for(5, lambda i, buffer: ran.append((i, buffer, threading.get_ident())),
                             make)
            with lock:
                calls.append((made, ran))

        if nested:
            ops.parallel_for(2, one_call)
        else:
            one_call()
        assert len(calls) == (2 if nested else 1)
        for made, ran in calls:
            assert len(made) == 1
            assert [(i, buffer) for i, buffer, _ in ran] == [(i, made[0]) for i in range(5)]
            assert len({t for _, _, t in ran}) == 1

    def test_make_exception_in_a_helper_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(ops, "WORKERS", 2)
        caller, done = threading.get_ident(), []

        def make():
            if threading.get_ident() != caller:
                raise KeyError("make in a helper")
            return ()

        before = threading.active_count()
        with pytest.raises(KeyError, match="make in a helper"):
            ops.parallel_for(6, done.append, make)
        # The helper claimed nothing, so the caller ran every index; both were joined.
        assert done == list(range(6)) and threading.active_count() == before

    def test_one_worker_without_a_blas_setter(self, tmp_path):
        assert ops._pin_blas(tmp_path) == 1

    def test_wide_bank_logits_do_not_depend_on_blas_threads(self):
        # A K = 2,000 P head gave other f32 bytes at two OpenBLAS threads
        # than at one before the package pinned BLAS to one thread.
        script = (
            "import hashlib, numpy as np\n"
            "from patchbank.network import build_model, forward, logit_streams, tinynet_spec\n"
            "model = build_model(tinynet_spec(200, 10, 16), seed=0, dtype='f32')\n"
            "x = np.random.default_rng(0).random((8, 3, 16, 16))\n"
            "logits = b''.join(t.data.tobytes() for t in logit_streams(forward(model, x)))\n"
            "print(hashlib.sha256(logits).hexdigest())\n"
        )
        src = str(Path(network.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1


# ------------------------------------------------------------------- fusion


class TestFusePredictions:
    def _outputs(self, g, p, side):
        return StreamOutputs(g_logits=Tensor(np.asarray(g, dtype=float)),
                             p_logits=[Tensor(np.asarray(p, dtype=float))],
                             side_logits=[Tensor(np.asarray(side, dtype=float))],
                             peak_values=[], peak_argmax=[])

    def test_one_hot_weight_selects_g_stream(self):
        outs = self._outputs([0.0, 3.0], [5.0, 0.0], [9.0, 0.0])
        fused, cls = fuse_predictions(outs, (1.0, 0.0, 0.0))
        np.testing.assert_array_equal(fused.data, [0.0, 3.0])
        assert cls == 1

    def test_default_weights_mirror_training_losses(self):
        spec = tinynet_spec(classes=8, filters_per_class=4)
        np.testing.assert_array_equal(spec.default_fusion_weights(), [1.0, 1.0, 0.1])

    def test_scaling_all_weights_preserves_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            outs = self._outputs(rng.standard_normal(5), rng.standard_normal(5),
                                 rng.standard_normal(5))
            w = rng.random(3) + 0.1
            _, cls = fuse_predictions(outs, w)
            _, cls_scaled = fuse_predictions(outs, w * 7.5)
            assert cls == cls_scaled

    def test_tie_breaks_to_smallest_index(self):
        outs = self._outputs([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        _, cls = fuse_predictions(outs, (1.0, 1.0, 1.0))
        assert cls == 0

    def test_length_mismatch_rejected(self):
        outs = self._outputs([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="fusion weights"):
            fuse_predictions(outs, (1.0, 1.0))

    def test_p_and_side_counts_must_match(self):
        # Two P streams and no side stream made three streams, which three
        # weights fused into class 0.
        logits = [Tensor(np.array([1.0, 0.0])) for _ in range(3)]
        outs = StreamOutputs(g_logits=logits[0], p_logits=logits[1:], side_logits=[],
                             peak_values=[], peak_argmax=[])
        with pytest.raises(ValueError, match="outputs hold 2 P streams but 0 side streams"):
            fuse_predictions(outs, (1.0, 1.0, 1.0))

    def test_negative_weight_rejected(self):
        outs = self._outputs([1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            fuse_predictions(outs, (1.0, -1.0, 0.0))

    @pytest.mark.parametrize("weights,message", [
        (["1", "2", "0.5"], "fusion weight 0 must be a real number, got '1'"),
        ([True, False, True], "fusion weight 0 must be a real number, got True"),
        ([1.0, 2.0, None], "fusion weight 2 must be a real number, got None"),
    ], ids=["strings", "bools", "none"])
    def test_non_real_weight_rejected(self, weights, message):
        # np.asarray(..., float64) turned strings and bools into numbers.
        outs = self._outputs([0.0, 1.0], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            fuse_predictions(outs, weights)

    @pytest.mark.parametrize("stream,name", [(0, "G"), (1, "P0"), (2, "side0")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad, stream, name):
        # NaN loses every argmax comparison: NaN G logits gave class 0 for every row.
        logits = [[[0.0, 1.0], [1.0, 0.0]] for _ in range(3)]
        logits[stream][1][1] = bad
        with pytest.raises(ValueError, match=f"{name} stream logits have NaN or inf values"):
            fuse_predictions(self._outputs(*logits), (1.0, 1.0, 0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        outs = self._outputs([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            fuse_predictions(outs, (bad, 1.0, 1.0))


class TestSpecValidation:
    def test_tap_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            BackboneSpec(layers=(Conv(3, 4),), taps={"t": 5})

    def test_collapsing_feature_map_rejected(self):
        spec = BackboneSpec(layers=(Pool(2, 2), Pool(2, 2), Pool(2, 2)), taps={"t": 2})
        with pytest.raises(ValueError, match="collapses"):
            feature_shapes(spec, 4)

    @pytest.mark.parametrize("field", ["fusion_g", "fusion_p", "fusion_side"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fusion_weight_rejected(self, field, bad):
        base = tinynet_spec(classes=4)
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(backbone=base.backbone, modules=base.modules, input_size=64, classes=4,
                      **{field: bad})

    def test_module_needs_two_classes(self):
        with pytest.raises(ValueError, match="classes must be >= 2, got 1"):
            tinynet_spec(classes=1)

    def test_class_count_lives_in_model_spec(self):
        assert [f.name for f in dataclasses.fields(DFLModuleSpec)] == ["tap", "filters_per_class"]
        assert "classes" in [f.name for f in dataclasses.fields(ModelSpec)]
        assert tinynet_spec(classes=5).classes == 5

    def test_nothing_in_src_reads_with_side_branch(self):
        # Every module has the side branch; the constant stays for bench/replay.py alone.
        uses = [(path.name, line.strip())
                for path in sorted(Path(network.__file__).parent.glob("*.py"))
                for line in path.read_text().splitlines() if "with_side_branch" in line]
        assert uses == [("network.py", "with_side_branch: ClassVar[bool] = True")]

    def test_nothing_in_src_reads_g_hidden(self):
        # The G-stream is one GAP+FC head; the constant stays for bench/replay.py alone.
        uses = [(path.name, line.strip())
                for path in sorted(Path(network.__file__).parent.glob("*.py"))
                for line in path.read_text().splitlines()
                if "g_hidden" in line and not line.strip().startswith("#")]
        assert uses == [("network.py", "g_hidden: ClassVar[int] = 0")]
        assert ModelSpec.g_hidden == tinynet_spec(classes=4).g_hidden == 0
        model = build_model(tinynet_spec(classes=4), seed=0)
        assert not [name for name in model.params if name.startswith("ghead.fc")]

    def test_interfaces_have_one_name_per_fact(self):
        assert [f.name for f in dataclasses.fields(ModelSpec)] == [
            "backbone", "modules", "input_size", "classes", "pooling",
            "fusion_g", "fusion_p", "fusion_side"]
        # Images are RGB throughout (data.Sample, the PPM files), so the channel
        # count is one constant, not a spec field.
        assert network.IN_CHANNELS == 3
        assert [f.name for f in dataclasses.fields(StreamOutputs)] == [
            "g_logits", "p_logits", "side_logits", "peak_values", "peak_argmax"]
        assert list(inspect.signature(tinynet_spec).parameters) == [
            "classes", "filters_per_class", "input_size", "pooling"]
        assert list(inspect.signature(feature_shapes).parameters) == ["spec", "input_size"]
        # The generator's fixed look (noise, background, tint, distractors) is
        # module constants; a spec holds only what a run or an ablation varies.
        assert [f.name for f in dataclasses.fields(data.SynthSpec)] == [
            "classes", "per_class_train", "per_class_test", "image_size", "patch_size",
            "cue_reliability", "neutral_patch_rate", "patch_contrast", "seed"]

    def test_specs_cannot_change_after_validation(self):
        spec = tinynet_spec(classes=4)
        bank = FilterBank(weight=Tensor(np.zeros((8, 64, 1, 1))), classes=4, filters_per_class=2)
        for target, name, value in [(spec, "pooling", "max"), (spec, "fusion_side", -5.0),
                                    (spec, "classes", 3), (spec.backbone, "layers", ()),
                                    (spec.backbone, "taps", {}),
                                    (bank, "weight", np.zeros((8, 64, 1, 1))),
                                    (bank, "classes", 2), (bank, "filters_per_class", 4)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, value)
        with pytest.raises(TypeError):
            spec.backbone.taps["block3"] = 0
        taps = {"t": 0}
        backbone = BackboneSpec(layers=(Conv(3, 4),), taps=taps)
        taps["t"] = 5  # the spec keeps its own copy of the caller's mapping
        assert backbone.taps == {"t": 0}
        assert (spec.pooling, spec.fusion_side, spec.backbone.taps["block3"]) == ("gmp", 0.1, 7)

    def test_specs_survive_pickle_and_deepcopy(self):
        spec = two_module_spec()
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and copied is not spec
            with pytest.raises(TypeError):
                copied.backbone.taps["block3"] = 0

    @pytest.mark.parametrize("error,make,message", [
        # A layer type holds only the fields its kind can vary; any other is a TypeError.
        (TypeError, lambda: Conv(3, 4, kind="norm"), "unexpected keyword argument 'kind'"),
        (ValueError, lambda: Pool(0, 2), "kernel must be >= 1, got 0"),
        (TypeError, lambda: Conv(3), "missing 1 required positional argument: 'out_channels'"),
        (TypeError, lambda: Pool(2, 2, out_channels=4),
         "unexpected keyword argument 'out_channels'"),
        (TypeError, lambda: Pool(2, 2, pad=1), "unexpected keyword argument 'pad'"),
        (TypeError, lambda: ReLU(kernel=3), "unexpected keyword argument 'kernel'"),
        (TypeError, lambda: ReLU(stride=2), "unexpected keyword argument 'stride'"),
        (TypeError, lambda: ReLU(pad=1), "unexpected keyword argument 'pad'"),
        (ValueError, lambda: DFLModuleSpec(tap="t", filters_per_class=0),
         "filters_per_class must be >= 1, got 0"),
        (ValueError, lambda: tiny_model_spec(modules=()),
         "at least one patch-detector module is required"),
        (ValueError, lambda: tiny_model_spec(pooling="avg"),
         "pooling must be 'gmp' or 'gap', got 'avg'"),
        (ValueError, lambda: tiny_model_spec(modules=(DFLModuleSpec("conv6", 2),)),
         "module tap 'conv6' is not a backbone tap"),
        (ValueError, lambda: FilterBank(Tensor(np.zeros((8, 4, 3, 3))), 4, 2),
         r"filter bank weight must be \(8, C, 1, 1\), got \(8, 4, 3, 3\)"),
        (ValueError, lambda: build_model(tinynet_spec(4), bank_init=[]),
         r"bank_init must have one entry per module \(1\), got 0"),
        (ValueError, lambda: FilterBank(Tensor(np.zeros((5, 4, 1, 1))), classes=2.5,
                                        filters_per_class=2),
         "classes must be an integer, got 2.5"),
        (ValueError, lambda: FilterBank(Tensor(np.zeros((4, 4, 1, 1))), classes=2,
                                        filters_per_class=True),
         "filters_per_class must be an integer, got True"),
        (ValueError, lambda: FilterBank(Tensor(np.ones((2, 4, 1, 1))), classes=-1,
                                        filters_per_class=-2),
         "classes must be >= 2, got -1"),
        (ValueError, lambda: FilterBank(Tensor(np.ones((2, 4, 1, 1))), classes=1,
                                        filters_per_class=2),
         "classes must be >= 2, got 1"),
        (ValueError, lambda: FilterBank(Tensor(np.ones((2, 4, 1, 1))), classes=2,
                                        filters_per_class=0),
         "filters_per_class must be >= 1, got 0"),
        (ValueError, lambda: Conv(2.5, 4), "kernel must be an integer, got 2.5"),
        (ValueError, lambda: Conv(True, 4), "kernel must be an integer, got True"),
        (ValueError, lambda: Conv(3, 4.5), "out_channels must be an integer, got 4.5"),
        (ValueError, lambda: Conv(3, 4, stride=1.5), "stride must be an integer, got 1.5"),
        (ValueError, lambda: Conv(3, 4, pad=0.5), "pad must be an integer, got 0.5"),
        (ValueError, lambda: BackboneSpec(layers=(Conv(3, 4),), taps={"t": 0.0}),
         "tap 't' index must be an integer, got 0.0"),
        (ValueError, lambda: DFLModuleSpec(tap="t", filters_per_class=2.5),
         "filters_per_class must be an integer, got 2.5"),
        (ValueError, lambda: tinynet_spec(2.5), "classes must be an integer, got 2.5"),
        (ValueError, lambda: tinynet_spec(True), "classes must be an integer, got True"),
        (ValueError, lambda: tinynet_spec(3, 2, 16.5), "input_size must be an integer, got 16.5"),
        (ValueError, lambda: build_model(tinynet_spec(4), seed=2.5),
         "seed must be an integer, got 2.5"),
        (ValueError, lambda: build_model(tinynet_spec(4), seed=-1), "seed must be >= 0, got -1"),
        (ValueError, lambda: build_model(tinynet_spec(4), seed=True),
         "seed must be an integer, got True"),
        (ValueError, lambda: FilterBank(np.zeros((8, 64, 1, 1)), classes=4, filters_per_class=2),
         "filter bank weight must be a Tensor, got ndarray"),
        (ValueError, lambda: build_model(tinynet_spec(4, 2), bank_init=[
            FilterBank(Tensor(np.full((8, 64, 1, 1), np.nan)), classes=4, filters_per_class=2)]),
         "param 'module0.conv6.weight' has NaN or inf values"),
        (ValueError, lambda: build_model(tinynet_spec(4, 2), bank_init=[np.zeros((8, 64, 1, 1))]),
         "module 0 bank_init entry must be a FilterBank or None, got ndarray"),
        (ValueError, lambda: BackboneSpec(layers=(ReLU(), Conv(3, 4)), taps={"t": 1}),
         "relu layer 0 must directly follow a conv layer"),
        (ValueError, lambda: BackboneSpec(layers=(Conv(3, 4), Pool(2, 2), ReLU()), taps={"t": 2}),
         "relu layer 2 must directly follow a conv layer"),
        (ValueError, lambda: BackboneSpec(layers=(Conv(3, 4), ReLU(), ReLU()), taps={"t": 2}),
         "relu layer 2 must directly follow a conv layer"),
        (ValueError, lambda: BackboneSpec(tinynet_spec(4).backbone.layers,
                                          {"block3": 7, "conv3": 6}),
         "tap 'conv3' reads conv layer 6, which a relu follows; tap the relu at 7"),
        (ValueError, lambda: BackboneSpec(layers=(Conv(3, 4), "pool"), taps={"t": 0}),
         "layer 1 must be a Conv, Pool or ReLU, got 'pool'"),
        (ValueError, lambda: tiny_model_spec(fusion_g="1"),
         "fusion_g must be a real number, got '1'"),
        (ValueError, lambda: tiny_model_spec(fusion_p=None), "fusion_p must be a real number, got None"),
        (ValueError, lambda: tiny_model_spec(fusion_side=True),
         "fusion_side must be a real number, got True"),
    ], ids=["layer-kind", "layer-geometry", "conv-out-channels", "pool-out-channels", "pool-pad",
            "relu-kernel", "relu-stride", "relu-pad", "module-filters", "no-modules",
            "pooling", "module-tap", "bank-weight", "bank-init-length", "float-bank-classes",
            "bool-bank-filters", "negative-bank-counts", "one-bank-class", "no-bank-filters",
            "float-kernel",
            "bool-kernel", "float-out-channels", "float-stride", "float-pad", "float-tap-index",
            "float-filters", "float-classes", "bool-classes", "float-input-size",
            "float-seed", "negative-seed", "bool-seed",
            "ndarray-bank-weight", "nan-bank-weight", "ndarray-bank-init", "relu-first",
            "relu-after-pool", "relu-after-relu", "tap-before-relu", "not-a-layer",
            "string-fusion-g", "none-fusion-p", "bool-fusion-side"])
    def test_bad_spec_rejected(self, error, make, message):
        with pytest.raises(error, match=message):
            make()
