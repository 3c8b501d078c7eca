"""Kernel contracts checked against independent brute-force references."""

import decimal
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from patchbank import ops
from patchbank.tensor import GradTape, Tensor


# ---------------------------------------------------------------- references


def conv2d_reference(x, w, stride, pad):
    """Direct sextuple-loop convolution, independent of the kernel under test."""
    co, ci, kh, kw = w.shape
    c, h, ww = x.shape
    assert c == ci
    xp = np.zeros((c, h + 2 * pad, ww + 2 * pad))
    xp[:, pad : pad + h, pad : pad + ww] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ic in range(ci):
                    for a in range(kh):
                        for b in range(kw):
                            acc += w[o, ic, a, b] * xp[ic, i * stride + a, j * stride + b]
                out[o, i, j] = acc
    return out


def conv2d_batched_im2col(x, w, stride, pad):
    """The whole-batch im2col conv2d that the per-image kernel replaced.

    Returns the output and a backward(g) -> (gx, gw).  It builds every
    image's columns at once, (N, C*kh*kw, Ho*Wo); the kernel under test
    must give the same bytes.
    """
    xb = x.reshape((-1,) + x.shape[-3:])
    co, ci, kh, kw = w.shape
    n, c, h, ww = xb.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xb
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, ci * kh * kw, ho * wo)
    wmat = w.reshape(co, ci * kh * kw)
    out = np.matmul(wmat, cols).reshape(x.shape[:-3] + (co, ho, wo))

    def backward(g):
        gmat = g.reshape(n, co, ho * wo)
        gw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dcols = np.matmul(wmat.T, gmat).reshape(n, ci, kh, kw, ho, wo)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[
                    :, :, i, j
                ]
        gx = (dxp[:, :, pad : pad + h, pad : pad + ww] if pad else dxp).reshape(x.shape)
        return gx, gw

    return out, backward


def fc_reference(x, w, b):
    out = np.zeros(w.shape[0])
    for o in range(w.shape[0]):
        acc = b[o]
        for d in range(w.shape[1]):
            acc += w[o, d] * x[d]
        out[o] = acc
    return out


def maxpool_reference(x, window, stride):
    """Each window's value at its first row-major argmax, one window at a time.

    ``patch.flat[argmax]`` rather than ``patch.max()``: of tied -0.0 and
    +0.0 it keeps the first, and of a NaN window its first NaN.  Any
    leading axes are kept.
    """
    h, w = x.shape[-2:]
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    planes = x.reshape(-1, h, w)
    out = np.zeros((len(planes), ho, wo), dtype=x.dtype)
    for p in range(len(planes)):
        for i in range(ho):
            for j in range(wo):
                patch = planes[p, i * stride : i * stride + window,
                               j * stride : j * stride + window]
                out[p, i, j] = patch.flat[np.argmax(patch)]
    return out.reshape(x.shape[:-2] + (ho, wo))


def maxpool_backward_reference(x, g, window, stride):
    """Route each window's gradient to its first row-major argmax, one window at a time."""
    h, w = x.shape[-2:]
    planes, gp = x.reshape(-1, h, w), g.reshape((-1,) + g.shape[-2:])
    gx = np.zeros(planes.shape)
    for p in range(len(planes)):
        for i in range(gp.shape[1]):
            for j in range(gp.shape[2]):
                patch = planes[p, i * stride : i * stride + window,
                               j * stride : j * stride + window]
                a, b = np.unravel_index(np.argmax(patch), patch.shape)
                gx[p, i * stride + a, j * stride + b] += gp[p, i, j]
    return gx.reshape(x.shape)


def softmax_ce_reference(logits, label):
    """Cross entropy in 60-digit decimal arithmetic; ``Decimal(float)`` is exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        vals = [decimal.Decimal(float(v)) for v in logits]
        z = sum(v.exp() for v in vals)
        return float(-(vals[label] - z.ln()))


# ------------------------------------------------------------------- conv2d


class TestConv2d:
    def test_identity_shaped_case(self):
        out = ops.conv2d(Tensor(np.array([[[2.0]]])), Tensor(np.array([[[[3.0]]]])))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 6.0

    def test_inner_product_over_channels(self):
        x = Tensor(np.array([3.0, 4.0]).reshape(2, 1, 1))
        w = Tensor(np.array([1.0, 1.0]).reshape(1, 2, 1, 1))
        out = ops.conv2d(x, w)
        assert out.data[0, 0, 0] == 7.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=2, pad=1)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, 2, 1), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_loop_geometries(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.standard_normal((2, 7, 6))
        w = rng.standard_normal((3, 2, 3, 2))
        out = ops.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
        np.testing.assert_allclose(out.data, conv2d_reference(x, w, stride, pad), atol=1e-12)

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((3, 4, 4)))
        w = Tensor(np.zeros((2, 5, 1, 1)))
        with pytest.raises(ValueError, match=r"(?s)\(3, 4, 4\).*\(2, 5, 1, 1\)"):
            ops.conv2d(x, w)

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            ops.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((4, 3, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        batched = ops.conv2d(Tensor(xs), Tensor(w), stride=1, pad=1)
        for i in range(4):
            single = ops.conv2d(Tensor(xs[i]), Tensor(w), stride=1, pad=1)
            np.testing.assert_array_equal(batched.data[i], single.data)

    def test_1x1_conv_equals_fc_per_site(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4, 3))
        w = rng.standard_normal((6, 5, 1, 1))
        out = ops.conv2d(Tensor(x), Tensor(w))
        bias = Tensor(np.zeros(6))
        for h in range(4):
            for ww in range(3):
                site = ops.fully_connected(Tensor(x[:, h, ww]), Tensor(w[:, :, 0, 0]), bias)
                np.testing.assert_allclose(out.data[:, h, ww], site.data, atol=1e-12)

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_byte_equal_to_batched_im2col(self, kernel, stride, pad, dtype, batched):
        rng = np.random.default_rng(100 * kernel + 10 * stride + pad)
        xd = rng.standard_normal((3, 4, 9, 8) if batched else (4, 9, 8)).astype(dtype)
        wd = rng.standard_normal((5, 4, kernel, kernel)).astype(dtype)
        want, want_backward = conv2d_batched_im2col(xd, wd, stride, pad)
        g = rng.standard_normal(want.shape).astype(dtype)
        want_gx, want_gw = want_backward(g)
        for need_x, need_w in [(False, False), (True, False), (False, True), (True, True)]:
            x, w = Tensor(xd, requires_grad=need_x), Tensor(wd, requires_grad=need_w)
            with GradTape() as tape:
                out = ops.conv2d(x, w, stride=stride, pad=pad)
            assert out.dtype == want.dtype and out.data.tobytes() == want.tobytes()
            assert len(tape) == int(need_x or need_w)
            if not (need_x or need_w):
                continue
            tape.backward(out, seed=g)
            gx, gw = tape.grad(x), tape.grad(w)
            assert (gx is None) == (not need_x) and (gw is None) == (not need_w)
            if need_x:
                assert gx.dtype == want_gx.dtype and gx.data.tobytes() == want_gx.tobytes()
            if need_w:
                assert gw.dtype == want_gw.dtype and gw.data.tobytes() == want_gw.tobytes()

    def test_tape_keeps_one_image_of_columns(self):
        # Under a tape conv2d may keep, and at its peak hold, its output,
        # the padded input and up to two images' columns, not the whole
        # batch's (9.4 MB here).
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((16, 32, 16, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 32, 3, 3)), requires_grad=True)
        padded = 16 * 32 * 18 * 18 * 8
        image_cols = 32 * 9 * 16 * 16 * 8
        tracemalloc.start()
        try:
            with GradTape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = ops.conv2d(x, w, stride=1, pad=1)
                kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept <= peak < out.data.nbytes + padded + 2 * image_cols
        tape.backward(out)
        assert tape.grad(x).shape == x.shape and tape.grad(w).shape == w.shape


class TestConv2dRelu:
    @staticmethod
    def inputs(kernel, dtype, batched):
        """x and w whose plain conv outputs hold exact +0.0, -0.0 and NaN.

        x is -tiny over its top-left 5x5 corner, exactly 0 inside it and
        NaN on a 2x2 block of channel 0.  Filter 0 is tiny and positive,
        so its products over the corner underflow to signed zeros.
        """
        tiny = dtype(1e-30 if dtype == np.float32 else 1e-200)
        rng = np.random.default_rng(kernel)
        x = rng.standard_normal((2, 4, 9, 8)).astype(dtype)
        x[:, :, :5, :5] = -tiny
        x[:, :, 1:3, 1:3] = 0
        x[:, 0, 6:8, 6:8] = np.nan
        w = rng.standard_normal((5, 4, kernel, kernel)).astype(dtype)
        w[0] = np.abs(w[0]) * tiny
        return (x if batched else x[0]), w

    @pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_byte_equal_to_conv2d_then_relu(self, kernel, stride, pad, dtype, batched):
        xd, wd = self.inputs(kernel, dtype, batched)
        pre = ops.conv2d(Tensor(xd), Tensor(wd), stride=stride, pad=pad).data
        zero = pre == 0
        assert np.isnan(pre).any()
        assert (zero & ~np.signbit(pre)).any() and (zero & np.signbit(pre)).any()
        g = np.random.default_rng(0).standard_normal(pre.shape).astype(dtype)
        for need_x, need_w in [(False, False), (True, False), (False, True), (True, True)]:
            runs = []
            for fused in (False, True):
                x, w = Tensor(xd, requires_grad=need_x), Tensor(wd, requires_grad=need_w)
                with GradTape() as tape:
                    if fused:
                        out = ops.conv2d(x, w, stride=stride, pad=pad, relu=True)
                    else:
                        out = ops.relu(ops.conv2d(x, w, stride=stride, pad=pad))
                if need_x or need_w:
                    tape.backward(out, seed=g)
                runs.append((len(tape), out.data, tape.grad(x), tape.grad(w)))
            (n_ref, want, want_gx, want_gw), (n, got, gx, gw) = runs
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # One record instead of two.
            assert n == n_ref // 2 == int(need_x or need_w)
            for got_g, want_g in [(gx, want_gx), (gw, want_gw)]:
                assert (got_g is None) == (want_g is None)
                if got_g is not None:
                    assert got_g.dtype == want_g.dtype
                    assert got_g.data.tobytes() == want_g.data.tobytes()

    def test_tape_keeps_one_activation(self):
        # relu(conv2d(...)) keeps the conv output for relu's backward and
        # the relu output; the fused op keeps one output-sized map, plus one
        # image's padded copy and columns.
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((16, 32, 16, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 32, 3, 3)), requires_grad=True)
        out_bytes = 16 * 64 * 16 * 16 * 8
        kept = {}
        tracemalloc.start()
        try:
            for fused in (False, True):
                with GradTape() as tape:
                    before = tracemalloc.get_traced_memory()[0]
                    if fused:
                        out = ops.conv2d(x, w, stride=1, pad=1, relu=True)
                    else:
                        out = ops.relu(ops.conv2d(x, w, stride=1, pad=1))
                    kept[fused] = tracemalloc.get_traced_memory()[0] - before
                del tape, out
        finally:
            tracemalloc.stop()
        assert kept[True] < 2 * out_bytes <= kept[False]


# ------------------------------------------------------------------ pooling


class TestGlobalMaxPool:
    def test_constant_map_ties_to_first_index(self):
        out, argmax = ops.global_max_pool(Tensor(np.full((2, 3, 3), 4.5)))
        np.testing.assert_array_equal(out.data, [4.5, 4.5])
        assert tuple(argmax[0]) == (0, 0)
        assert tuple(argmax[1]) == (0, 0)

    def test_unique_max(self):
        x = Tensor(np.array([[[1.0, 5.0], [3.0, 2.0]]]))
        out, argmax = ops.global_max_pool(x)
        assert out.data[0] == 5.0
        assert tuple(argmax[0]) == (0, 1)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 7, 9))
        out, argmax = ops.global_max_pool(Tensor(x))
        for n in range(4):
            best, loc = -np.inf, None
            for h in range(7):
                for w in range(9):
                    if x[n, h, w] > best:
                        best, loc = x[n, h, w], (h, w)
            assert out.data[n] == best
            assert tuple(argmax[n]) == loc

    def test_backward_routes_to_argmax_only(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        with GradTape() as tape:
            vals, argmax = ops.global_max_pool(x)
            loss = ops.tsum(ops.scale(vals, 2.0))
        tape.backward(loss)
        g = tape.grad(x).data
        expected = np.zeros_like(g)
        for n in range(3):
            expected[n, argmax[n, 0], argmax[n, 1]] = 2.0
        np.testing.assert_array_equal(g, expected)


class TestBankPeaks:
    """``bank_peaks`` is ``global_max_pool(conv2d(x, w))`` for a 1x1 w, byte for byte."""

    @staticmethod
    def _assert_same_as_composition(x, w):
        vals, argmax = ops.bank_peaks(Tensor(x), Tensor(w))
        ref_vals, ref_argmax = ops.global_max_pool(ops.conv2d(Tensor(x), Tensor(w)))
        assert vals.dtype == ref_vals.dtype and vals.shape == ref_vals.shape
        assert vals.data.tobytes() == ref_vals.data.tobytes()
        assert argmax.dtype == ref_argmax.dtype and argmax.shape == ref_argmax.shape
        np.testing.assert_array_equal(argmax, ref_argmax)
        return vals, argmax

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 5, 7), (3, 6, 5, 7)])
    def test_byte_equal_to_conv2d_then_global_max_pool(self, dtype, shape):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((40, 6, 1, 1)).astype(dtype)
        vals, argmax = self._assert_same_as_composition(x, w)
        assert vals.shape == shape[:-3] + (40,)
        assert argmax.shape == shape[:-3] + (40, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_map_ties_to_first_site(self, dtype):
        x = np.full((2, 3, 4, 5), 0.5, dtype=dtype)
        w = np.random.default_rng(32).standard_normal((4, 3, 1, 1)).astype(dtype)
        _, argmax = self._assert_same_as_composition(x, w)
        assert not argmax.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_site_propagates(self, dtype):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        x[1, 2, 3, 1] = np.nan
        w = rng.standard_normal((4, 3, 1, 1)).astype(dtype)
        vals, argmax = self._assert_same_as_composition(x, w)
        assert np.isnan(vals.data[1]).all() and np.isfinite(vals.data[0]).all()
        assert (argmax[1] == (3, 1)).all()

    def test_backward_touches_peak_sites_only(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3, 1, 1)), requires_grad=True)
        g = rng.standard_normal((2, 6))
        with GradTape() as tape:
            vals, argmax = ops.bank_peaks(x, w)
        tape.backward(vals, seed=g)
        gx, gw = np.zeros(x.shape), np.zeros(w.shape)
        for n in range(2):
            for j in range(6):
                h, ww = argmax[n, j]
                gx[n, :, h, ww] += g[n, j] * w.data[j, :, 0, 0]
                gw[j, :, 0, 0] += g[n, j] * x.data[n, :, h, ww]
        np.testing.assert_allclose(tape.grad(x).data, gx, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(tape.grad(w).data, gw, rtol=1e-14, atol=1e-15)

    def test_non_1x1_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\(J, C, 1, 1\)"):
            ops.bank_peaks(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))))
        with pytest.raises(ValueError, match=r"\(J, C, 1, 1\)"):
            ops.bank_peaks(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 3))))

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"(?s)\(3, 4, 4\).*\(2, 5, 1, 1\)"):
            ops.bank_peaks(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 5, 1, 1))))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 2, 4, 4, 4)])
    def test_bad_rank_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(C,H,W\) or \(N,C,H,W\)"):
            ops.bank_peaks(Tensor(np.zeros(shape)), Tensor(np.zeros((2, 4, 1, 1))))


class TestGlobalAvgPool:
    def test_constant_map(self):
        out = ops.global_avg_pool(Tensor(np.full((2, 3, 3), 0.25)))
        np.testing.assert_allclose(out.data, [0.25, 0.25])

    def test_direct_arithmetic(self):
        out = ops.global_avg_pool(Tensor(np.array([[[1.0, 5.0], [3.0, 2.0]]])))
        assert out.data[0] == pytest.approx(2.75)

    def test_gradient_is_uniform(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.tsum(ops.global_avg_pool(x))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x).data, np.full((2, 3, 4), 1.0 / 12.0))


class TestCrossChannelAvgPool:
    def test_paper_scale_shapes(self):
        # 10 filters per class over 200 classes pools 2000 -> 200.
        out = ops.cross_channel_avg_pool(Tensor(np.ones(2000)), 10)
        assert out.shape == (200,)

    def test_all_ones(self):
        out = ops.cross_channel_avg_pool(Tensor(np.ones(12)), 3)
        np.testing.assert_array_equal(out.data, np.ones(4))

    def test_direct_arithmetic(self):
        out = ops.cross_channel_avg_pool(Tensor(np.array([1.0, 3.0, 5.0, 7.0])), 2)
        np.testing.assert_array_equal(out.data, [2.0, 6.0])

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            ops.cross_channel_avg_pool(Tensor(np.ones(7)), 2)

    def test_backward_spreads_by_k(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        with GradTape() as tape:
            out = ops.cross_channel_avg_pool(x, 3)
            loss = ops.tsum(ops.scale(out, 6.0))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x).data, np.full(6, 2.0))

    @given(st.integers(1, 6), st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_within_group_permutation_invariance(self, k, m, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        x = rng.standard_normal(k * m)
        shuffled = x.reshape(m, k).copy()
        for row in shuffled:
            rng.shuffle(row)
        a = ops.cross_channel_avg_pool(Tensor(x), k).data
        b = ops.cross_channel_avg_pool(Tensor(shuffled.reshape(-1)), k).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(st.integers(1, 6), st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_group_permutation_equivariance(self, k, m, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        x = rng.standard_normal(k * m)
        perm = rng.permutation(m)
        permuted = x.reshape(m, k)[perm].reshape(-1)
        a = ops.cross_channel_avg_pool(Tensor(x), k).data
        b = ops.cross_channel_avg_pool(Tensor(permuted), k).data
        np.testing.assert_allclose(a[perm], b, atol=1e-12)


class TestMaxPool2d:
    def test_small_window(self):
        out = ops.maxpool2d(Tensor(np.array([[[1.0, 5.0], [3.0, 2.0]]])), 2, 2)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 5.0

    @pytest.mark.parametrize("window,stride,shape", [(2, 2, (3, 6, 8)), (3, 2, (2, 7, 7)),
                                                     (2, 1, (1, 4, 5)), (3, 3, (2, 9, 6)),
                                                     (2, 2, (2, 7, 7))])
    def test_matches_window_scan(self, window, stride, shape):
        rng = np.random.default_rng(window * 100 + stride)
        x = rng.standard_normal(shape)
        out = ops.maxpool2d(Tensor(x), window, stride)
        np.testing.assert_array_equal(out.data, maxpool_reference(x, window, stride))

        # Backward, batched and unbatched, against the per-window loop.
        g = rng.standard_normal((2,) + out.shape)
        xs = np.stack([x, rng.standard_normal(shape)])
        want = np.stack([maxpool_backward_reference(xs[i], g[i], window, stride) for i in range(2)])
        for dtype, rtol in ((np.float64, 0.0), (np.float32, 1e-6)):
            for xin, gin, ref in ((xs, g, want), (xs[0], g[0], want[0])):
                t = Tensor(xin, requires_grad=True, dtype=dtype)
                with GradTape() as tape:
                    y = ops.maxpool2d(t, window, stride)
                tape.backward(y, seed=gin.astype(dtype))
                gx = tape.grad(t).data
                assert gx.dtype == dtype
                np.testing.assert_allclose(gx, ref, rtol=rtol, atol=0)

    @pytest.mark.parametrize("kind", ["rounded", "signed_zeros", "nan"])
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_argmax_contract(self, kind, window, stride, dtype):
        """Ties, -0.0/+0.0 and NaN: output bytes, with or without a tape, and
        the gradient routing follow each window's first row-major argmax."""
        rng = np.random.default_rng([window, stride, len(kind)])
        shape = (2, 3, 7, 8)
        if kind == "rounded":
            xs = np.round(rng.standard_normal(shape))  # ties, and -0.0 from small negatives
        elif kind == "signed_zeros":
            xs = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            xs[rng.random(shape) < 0.1] = -1.0
        else:
            xs = rng.standard_normal(shape)
            xs.flat[rng.choice(xs.size, 12, replace=False)] = np.nan
        xs = xs.astype(dtype)
        for x in (xs, xs[0]):
            want = maxpool_reference(x, window, stride)
            plain = ops.maxpool2d(Tensor(x), window, stride)
            t = Tensor(x, requires_grad=True)
            with GradTape() as tape:
                taped = ops.maxpool2d(t, window, stride)
            assert plain.data.dtype == dtype
            assert plain.data.tobytes() == want.tobytes()
            assert taped.data.tobytes() == want.tobytes()

            g = rng.standard_normal(want.shape).astype(dtype)
            tape.backward(taped, seed=g)
            ref = maxpool_backward_reference(x, g, window, stride).astype(dtype)
            assert tape.grad(t).data.tobytes() == ref.tobytes()

    def test_backward_matches_grad_support(self):
        # Overlapping windows: one site can be the max of several windows.
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.tsum(ops.maxpool2d(x, 3, 1))
        tape.backward(loss)
        g = tape.grad(x).data
        # Every window contributes exactly one unit of gradient.
        assert g.sum() == pytest.approx(2 * 3 * 3)
        assert (g >= 0).all()


class TestRelu:
    def test_values(self):
        out = ops.relu(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_backward_mask(self):
        x = Tensor(np.array([-1.0, 2.0, 0.0]), requires_grad=True)
        with GradTape() as tape:
            loss = ops.tsum(ops.relu(x))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x).data, [0.0, 1.0, 0.0])


# ------------------------------------------------------------------- affine


class TestFullyConnected:
    def test_identity_weight(self):
        x = np.array([1.0, -2.0, 3.0])
        out = ops.fully_connected(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_gives_bias(self):
        b = np.array([0.5, -1.5])
        out = ops.fully_connected(Tensor(np.ones(4)), Tensor(np.zeros((2, 4))), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.standard_normal(8), rng.standard_normal((3, 8)), rng.standard_normal(3)
        out = ops.fully_connected(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, fc_reference(x, w, b), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ops.fully_connected(Tensor(np.ones(4)), Tensor(np.ones((2, 5))), Tensor(np.ones(2)))


# ------------------------------------------------------------------- losses


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_equal_logits_give_log_m(self, m):
        loss = ops.softmax_cross_entropy(Tensor(np.zeros(m)), 0)
        assert loss.data == pytest.approx(np.log(m), abs=1e-12)

    def test_stabilized_no_overflow(self):
        loss = ops.softmax_cross_entropy(Tensor(np.array([1000.0, 0.0])), 0)
        assert np.isfinite(loss.data)
        assert loss.data == pytest.approx(0.0, abs=1e-12)

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal(5) * 3
        for label in range(5):
            loss = ops.softmax_cross_entropy(Tensor(logits), label)
            assert abs(loss.data - softmax_ce_reference(logits, label)) < 1e-12

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ops.softmax_cross_entropy(Tensor(np.zeros(3)), 3)
        with pytest.raises(ValueError, match="out of range"):
            ops.softmax_cross_entropy(Tensor(np.zeros(3)), -1)

    @pytest.mark.parametrize("label", [1.7, 1.0, np.array([0.0, 1.0]), True])
    def test_non_integer_labels_rejected(self, label):
        logits = Tensor(np.zeros((2, 3)) if np.ndim(label) else np.zeros(3))
        with pytest.raises(ValueError, match="integer dtype"):
            ops.softmax_cross_entropy(logits, label)

    def test_integer_label_dtypes_accepted(self):
        logits = Tensor(np.random.default_rng(14).standard_normal((2, 3)))
        ref = ops.softmax_cross_entropy(logits, np.array([2, 0])).data
        for dtype in (np.int8, np.uint16, np.int32):
            assert ops.softmax_cross_entropy(logits, np.array([2, 0], dtype=dtype)).data == ref

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.standard_normal(4), requires_grad=True)
        with GradTape() as tape:
            loss = ops.softmax_cross_entropy(logits, 2)
        tape.backward(loss)
        e = np.exp(logits.data - logits.data.max())
        p = e / e.sum()
        p[2] -= 1.0
        np.testing.assert_allclose(tape.grad(logits).data, p, atol=1e-12)

    @given(st.integers(2, 10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_gradient_sums_to_zero_over_classes(self, m, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        logits = Tensor(rng.standard_normal(m) * 5, requires_grad=True)
        with GradTape() as tape:
            loss = ops.softmax_cross_entropy(logits, int(rng.integers(m)))
        tape.backward(loss)
        assert tape.grad(logits).data.sum() == pytest.approx(0.0, abs=1e-12)

    def test_batched_is_mean_of_singles(self):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 3, 1])
        batched = ops.softmax_cross_entropy(Tensor(logits), labels)
        singles = [ops.softmax_cross_entropy(Tensor(logits[i]), labels[i]).data for i in range(3)]
        assert batched.data == pytest.approx(np.mean(singles), abs=1e-12)


# --------------------------------------------------------------------- tape


def backward_keeping_every_gradient(tape, output):
    """The tape's reverse walk over its records, keeping every gradient it computes."""
    grads = {id(output): np.ones_like(output.data)}
    for inputs, out, backward in reversed(tape._records):
        if id(out) in grads:
            for t, g in zip(inputs, backward(grads[id(out)])):
                if g is not None and t.requires_grad:
                    grads[id(t)] = grads[id(t)] + g if id(t) in grads else g
    return grads


class TestGradTape:
    def test_gradients_accumulate_across_consumers(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with GradTape() as tape:
            a = ops.scale(x, 2.0)
            b = ops.scale(x, 3.0)
            loss = ops.tsum(ops.add(a, b))
        tape.backward(loss)
        np.testing.assert_array_equal(tape.grad(x).data, [5.0, 5.0])

    def test_frees_intermediate_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.conv2d(x, w, 1, 1, relu=True)
            a = ops.scale(h, 2.0)
            loss = ops.tsum(ops.add(a, h))  # h feeds two ops
        kept = backward_keeping_every_gradient(tape, loss)
        tape.backward(loss)
        for t in (h, a, loss):
            assert id(t) in kept and tape.grad(t) is None
        for t in (x, w):
            assert tape.grad(t).data.tobytes() == kept[id(t)].tobytes()

    def test_backward_releases_each_record(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.conv2d(x, w, 1, 1)
            loss = ops.tsum(ops.scale(ops.relu(h), 2.0))
        kept = backward_keeping_every_gradient(tape, loss)
        activation = weakref.ref(h.data)
        del h
        tape.backward(loss)
        # Only the released records held the activation; the count stays.
        assert activation() is None
        assert len(tape) == 4
        for t in (x, w):
            assert tape.grad(t).data.tobytes() == kept[id(t)].tobytes()

    def test_second_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = ops.tsum(ops.scale(x, 2.0))
        tape.backward(y)
        with pytest.raises(ValueError, match="this tape's backward already ran"):
            tape.backward(y)
        np.testing.assert_array_equal(tape.grad(x).data, [2.0, 2.0, 2.0])

    def test_released_leaf_id_is_not_reused(self):
        # Only the tape referenced this leaf; its gradient entry keeps it
        # alive, so a later tensor cannot take its id and read its gradient.
        with GradTape() as tape:
            y = ops.tsum(ops.scale(Tensor(np.ones(3), requires_grad=True), 2.0))
        tape.backward(y)
        assert all(tape.grad(Tensor(np.ones(3))) is None for _ in range(100))

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = ops.scale(x, 2.0)
        assert not out.requires_grad

    def test_gradient_shape_matches_tensor(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.tsum(ops.relu(x))
        tape.backward(loss)
        assert tape.grad(x).shape == x.shape

    def test_backward_from_tensor_not_on_tape_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        outside = ops.tsum(x)
        with GradTape() as tape:
            ops.tsum(ops.scale(x, 2.0))
        with GradTape() as other:
            elsewhere = ops.tsum(x)
        for y in (outside, elsewhere, x):
            with pytest.raises(ValueError, match="not the output of an operation recorded"):
                tape.backward(y)

    def test_keeps_only_gradients_of_inputs_that_require_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        late = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2))
        with GradTape() as tape:
            tape.record((x, c, late), y, lambda g: (g, g, g))
        late.requires_grad = False
        tape.backward(y)
        np.testing.assert_array_equal(tape.grad(x).data, [1.0, 1.0])
        assert tape.grad(c) is None and tape.grad(late) is None

    def test_bad_seed_shape_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = ops.scale(x, 2.0)
        with pytest.raises(ValueError, match=r"seed gradient shape \(2,\) != output shape \(3,\)"):
            tape.backward(y, seed=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_rejected(self, bad):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = ops.scale(x, 2.0)
        with pytest.raises(ValueError, match="seed gradient has NaN or inf values"):
            tape.backward(y, seed=np.array([1.0, bad, 1.0]))

    def test_wrong_gradient_shape_from_a_record_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3))
        with GradTape() as tape:
            tape.record((x,), y, lambda g: (g[:2],))
        with pytest.raises(AssertionError, match=r"gradient shape \(2,\) != tensor shape \(3,\)"):
            tape.backward(y)

    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(RuntimeError, match="already active"):
                with GradTape():
                    pass

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((4, 6, 6)) * 100, requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4, 3, 3)), requires_grad=True)
        with GradTape() as tape:
            h = ops.relu(ops.conv2d(x, w, 1, 1))
            vals, _ = ops.global_max_pool(h)
            loss = ops.softmax_cross_entropy(vals, 1)
        tape.backward(loss)
        assert np.isfinite(loss.data)
        assert np.isfinite(tape.grad(x).data).all()
        assert np.isfinite(tape.grad(w).data).all()


class TestTensorInvariants:
    def test_extents_must_be_positive(self):
        with pytest.raises(ValueError, match="extents"):
            Tensor(np.zeros((2, 0, 3)))

    def test_tensor_of_a_tensor_shares_its_data(self):
        t = Tensor(np.arange(3.0))
        assert Tensor(t).data is t.data
        assert Tensor(t, dtype="f32").data.tolist() == [0.0, 1.0, 2.0]

    def test_integers_become_float64(self):
        for data in (np.arange(3), [0, 1, 2]):
            t = Tensor(data)
            assert t.dtype == np.float64 and t.data.tolist() == [0.0, 1.0, 2.0]

    def test_row_major_storage(self):
        t = Tensor(np.arange(6.0).reshape(2, 3).T)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_dtype_selection(self):
        assert Tensor(np.zeros(2), dtype="f32").dtype == np.float32
        assert Tensor(np.zeros(2)).dtype == np.float64
        with pytest.raises(ValueError, match="dtype"):
            Tensor(np.zeros(2), dtype="int8")

    def test_array_copy_does_not_alias(self):
        t = Tensor(np.zeros(3))
        a = np.array(t)
        a[0] = 5.0
        assert t.data[0] == 0.0
        assert np.asarray(t) is t.data

    @pytest.mark.parametrize("dtype", [None, "f32"])
    def test_complex_data_rejected(self, dtype):
        # A cast kept the real part and only warned.
        with pytest.raises(ValueError, match="tensor data must be real, got dtype complex128"):
            Tensor(np.array([1.0 + 2.0j, 3.0]), dtype=dtype)

    def test_array_no_copy_with_dtype_change_rejected(self):
        t = Tensor(np.zeros(3))
        assert np.asarray(t, dtype=np.float64, copy=False) is t.data
        with pytest.raises(ValueError, match="needs a copy"):
            np.asarray(t, dtype=np.float32, copy=False)
        assert np.asarray(t, dtype=np.float32).dtype == np.float32


# ------------------------------------------------------------ input checks

_MAP = np.ones((2, 4, 4))


@pytest.mark.parametrize("call,message", [
    (lambda: ops.add(np.ones(2), np.ones(3)), r"add shape mismatch: \(2,\) vs \(3,\)"),
    (lambda: ops.conv2d(_MAP, np.ones((1, 2, 3))), r"conv2d weight must be \(C_out, C_in, kh, kw\)"),
    (lambda: ops.conv2d(_MAP, np.ones((1, 2, 3, 3)), stride=0), "conv2d stride must be >= 1, got 0"),
    (lambda: ops.conv2d(_MAP, np.ones((1, 2, 3, 3)), pad=-1), "conv2d pad must be >= 0, got -1"),
    (lambda: ops.conv2d(_MAP, np.ones((1, 2, 3, 3)), stride=1.5),
     "conv2d stride must be an integer, got 1.5"),
    (lambda: ops.conv2d(_MAP, np.ones((1, 2, 3, 3)), pad=True),
     "conv2d pad must be an integer, got True"),
    (lambda: ops.maxpool2d(np.ones((4, 4)), 2, 2), r"maxpool2d input must be \(C,H,W\) or \(N,C,H,W\)"),
    (lambda: ops.maxpool2d(_MAP, 0, 2), "maxpool2d window must be >= 1, got 0"),
    (lambda: ops.maxpool2d(_MAP, 2, 0), "maxpool2d stride must be >= 1, got 0"),
    (lambda: ops.maxpool2d(_MAP, 5, 1), "maxpool2d window 5 does not fit input 4x4"),
    (lambda: ops.maxpool2d(_MAP, 2.5, 2), "maxpool2d window must be an integer, got 2.5"),
    (lambda: ops.maxpool2d(_MAP, 2, 1.5), "maxpool2d stride must be an integer, got 1.5"),
    (lambda: ops.global_max_pool(np.ones((4, 4))), "global_max_pool input must have >= 3 dims"),
    (lambda: ops.global_avg_pool(np.ones((4, 4))), "global_avg_pool input must have >= 3 dims"),
    (lambda: ops.cross_channel_avg_pool(np.ones(4), 0), "group size must be >= 1, got 0"),
    (lambda: ops.cross_channel_avg_pool(np.ones(6), 2.5), "group size must be an integer, got 2.5"),
    (lambda: ops.fully_connected(np.ones(3), np.ones(3), np.ones(1)),
     r"fully_connected expects weight \(O,D\) and bias \(O,\)"),
    (lambda: ops.fully_connected(np.ones(3), np.ones((2, 3)), np.ones(3)),
     r"bias shape \(3,\) does not match weight rows 2"),
    (lambda: ops.softmax_cross_entropy(np.ones((2, 3)), np.array([0, 1, 2])),
     r"labels shape \(3,\) does not match logits"),
], ids=["add-shapes", "conv2d-weight-rank", "conv2d-stride", "conv2d-pad", "conv2d-float-stride",
        "conv2d-bool-pad", "maxpool2d-rank", "maxpool2d-window", "maxpool2d-stride",
        "maxpool2d-fit", "maxpool2d-float-window", "maxpool2d-float-stride",
        "global_max_pool-rank", "global_avg_pool-rank", "cross_channel-k", "cross_channel-float-k",
        "fc-param-ranks", "fc-bias", "softmax-labels"])
def test_bad_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
