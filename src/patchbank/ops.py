"""Differentiable kernels: convolution, pooling, affine maps, and losses.

Rank contract: each kernel's docstring gives its unbatched shapes, and
every kernel also accepts one optional leading batch axis N, which its
output keeps.  ``conv2d``, ``bank_peaks``, ``fully_connected`` and
``softmax_cross_entropy`` view an unbatched input as a batch of one and
reject any other rank; the pools act on trailing axes only.  Kernels are
pure functions of their inputs; they record onto the thread's active
GradTape only when one is active and some input requires grad.  A
kernel's backward returns one gradient per input, or None where it can
skip the work for an input that does not require grad; the tape keeps
only the gradients of inputs that require grad.

``conv2d`` and ``bank_peaks`` work one image at a time, so their scratch
memory does not grow with the batch: ``conv2d`` lowers each image into one
reused im2col column buffer, and its backward rebuilds an image's
columns from x when it needs them instead of keeping the whole batch's.
``conv2d(..., relu=True)`` clamps each image's output in place and its
backward masks each image's gradient from that output, so a conv and
the ReLU after it keep one activation on the tape, not two; the
network's backbone runs every conv that a relu follows this way.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checks import check_int
from .tensor import Tensor, active_tape


def _record(inputs, out: Tensor, backward) -> Tensor:
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(inputs, out, backward)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _as_batch(a: np.ndarray, rank: int, message: str) -> np.ndarray:
    """``a`` with one leading batch axis, added if its rank is ``rank``, not ``rank + 1``."""
    if a.ndim not in (rank, rank + 1):
        raise ValueError(f"{message}, got {a.shape}")
    return a.reshape((-1,) + a.shape[a.ndim - rank :])


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward(g):
        return (g, g)

    return _record((a, b), out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply a tensor by a python scalar."""
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        return (g * c,)

    return _record((a,), out, backward)


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries, as a rank-0 tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum())

    def backward(g):
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)

    return _record((a,), out, backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), elementwise.  The backbone runs each relu fused into ``conv2d``;
    this stays public because the benchmark's op replay and the tests call it."""
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0))

    def backward(g):
        return (g * (x.data > 0),)

    return _record((x,), out, backward)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, pad: int = 0,
           relu: bool = False) -> Tensor:
    """Cross-correlate filters over a feature map, optionally followed by ReLU.

    x: (C_in, H, W), weight: (C_out, C_in, kh, kw) -> (C_out, H', W') with
    H' = floor((H + 2*pad - kh)/stride) + 1 and likewise for W'.  Each
    image is zero-padded and lowered on its own into one reused
    (C_in*kh*kw, H'*W') column buffer, which the (C_out, C_in*kh*kw)
    weight matrix multiplies, so one image's padded copy and columns are
    all that exist at a time, on the tape too.  With ``relu`` each image's
    product is clamped in place, giving the bytes of ``relu(conv2d(...))``
    with one taped activation instead of two.

    Backward rebuilds each image's columns from x: the weight gradient
    sums the per-image products in batch order, and each image's column
    gradient is scattered back over its windows.  Under ``relu`` each
    image's gradient is first masked by ``out > 0``, which equals the
    pre-activation's ``> 0`` for every value, -0.0 and NaN included, into
    one reused buffer, so no batch-wide mask or masked gradient exists.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    xd, wd = x.data, weight.data
    if wd.ndim != 4:
        raise ValueError(f"conv2d weight must be (C_out, C_in, kh, kw), got {weight.shape}")
    xb = _as_batch(xd, 3, "conv2d input must be (C,H,W) or (N,C,H,W)")
    check_int("conv2d stride", stride, 1)
    check_int("conv2d pad", pad, 0)
    co, ci, kh, kw = wd.shape
    n, c, h, w = xb.shape
    if c != ci:
        raise ValueError(
            f"conv2d channel mismatch: input shape {x.shape} has {c} channels "
            f"but weight shape {weight.shape} expects {ci}"
        )
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ValueError(
            f"conv2d window {kh}x{kw} does not fit input {h}x{w} with pad {pad}"
        )
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1

    # One zero-padded image at a time; win views its windows in column
    # order, (Ci, kh, kw, Ho, Wo).
    xpad = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
    inner = (slice(None), slice(pad, pad + h), slice(pad, pad + w))
    win = sliding_window_view(xpad, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    win = win.transpose(0, 3, 4, 1, 2)
    cols = np.empty((ci * kh * kw, ho * wo), dtype=xd.dtype)

    def lower(i):
        xpad[inner] = xb[i]
        np.copyto(cols.reshape(win.shape), win)
        return cols

    wmat = wd.reshape(co, ci * kh * kw)
    res = np.empty((n, co, ho * wo), dtype=np.result_type(xd, wd))
    for i in range(n):
        np.matmul(wmat, lower(i), out=res[i])
        if relu:
            np.maximum(res[i], 0, out=res[i])
    out = Tensor(res.reshape(xd.shape[:-3] + (co, ho, wo)))

    def backward(g):
        gmat = g.reshape(n, co, ho * wo)
        if relu:
            live = np.empty((co, ho * wo), dtype=bool)
            gmasked = np.empty((co, ho * wo), dtype=g.dtype)

        # Each pass below masks an image as it reaches it: two passes that
        # stay in cache measured faster than one pass doing both products.
        def grad(i):
            if not relu:
                return gmat[i]
            return np.multiply(gmat[i], np.greater(res[i], 0, out=live), out=gmasked)

        gw = None
        if weight.requires_grad:
            gw = np.matmul(grad(0), lower(0).T)
            for i in range(1, n):
                gw += np.matmul(grad(i), lower(i).T)
            gw = gw.reshape(wd.shape)
        if not x.requires_grad:
            return (None, gw)
        gx = np.empty_like(xb)
        dpad = np.empty_like(xpad)
        for i in range(n):
            dcols = np.matmul(wmat.T, grad(i)).reshape(ci, kh, kw, ho, wo)
            dpad.fill(0)
            for a in range(kh):
                for b in range(kw):
                    dpad[:, a : a + stride * ho : stride, b : b + stride * wo : stride] += dcols[
                        :, a, b
                    ]
            gx[i] = dpad[inner]
        return (gx.reshape(xd.shape), gw)

    return _record((x, weight), out, backward)


def bank_peaks(x: Tensor, weight: Tensor) -> tuple[Tensor, np.ndarray]:
    """Global max pooling of a 1x1 filter bank's responses, one image at a time.

    x: (C, H, W), weight: (J, C, 1, 1) -> values (J,) plus an int array
    (J, 2) of (h, w) argmax locations, as ``global_max_pool(conv2d(x,
    weight))`` returns them, byte for byte: each image runs the same
    (J, C) x (C, H*W) product that ``conv2d`` does, so only one image's
    (J, H*W) response map exists at a time.  Ties take the smallest
    row-major index and NaN propagates.  Backward touches the peak sites
    only: filter j's gradient sums g[n, j] * x[n, :, peak(n, j)], and x's
    scatters g[n, j] * weight[j] back to each peak.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    xd, wd = x.data, weight.data
    if wd.ndim != 4 or wd.shape[2:] != (1, 1):
        raise ValueError(f"bank_peaks weight must be (J, C, 1, 1), got {weight.shape}")
    xb = _as_batch(xd, 3, "bank_peaks input must be (C,H,W) or (N,C,H,W)")
    nf, ci = wd.shape[:2]
    n, c, h, w = xb.shape
    if c != ci:
        raise ValueError(
            f"bank_peaks channel mismatch: input shape {x.shape} has {c} channels "
            f"but weight shape {weight.shape} expects {ci}"
        )
    cols = xb.reshape(n, c, h * w)
    wmat = wd.reshape(nf, c)
    idx = np.empty((n, nf), dtype=np.intp)
    vals = np.empty((n, nf), dtype=np.result_type(xd, wd))
    filters = np.arange(nf)
    for i in range(n):
        resp = wmat @ cols[i]
        idx[i] = resp.argmax(axis=1)
        vals[i] = resp[filters, idx[i]]
    lead = xd.shape[:-3]
    argmax = np.stack(np.divmod(idx, w), axis=-1).reshape(lead + (nf, 2))
    out = Tensor(vals.reshape(lead + (nf,)))

    def backward(g):
        gmat = g.reshape(n, nf, 1)
        if weight.requires_grad:
            # x at each filter's peak: (N, J, C).
            at_peak = cols.transpose(0, 2, 1)[np.arange(n)[:, None], idx]
            gw = (gmat * at_peak).sum(axis=0).reshape(wd.shape)
        else:
            gw = None
        if x.requires_grad:
            sites = (np.arange(n * c).reshape(n, 1, c) * (h * w) + idx[:, :, None]).ravel()
            gx = np.bincount(sites, weights=(gmat * wmat).ravel(), minlength=xd.size)
            gx = gx.astype(xd.dtype, copy=False).reshape(xd.shape)
        else:
            gx = None
        return (gx, gw)

    return _record((x, weight), out, backward), argmax


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Max pooling over the two trailing spatial axes (no padding).

    x: (C, H, W) or (N, C, H, W) -> (..., H', W') with
    H' = floor((H - window)/stride) + 1 and likewise for W'.  The forward
    computes values only, one ``np.maximum`` per window site in row-major
    order; each output holds the bits of its window's first row-major max
    (the first of tied values, -0.0 and +0.0 included), and NaN
    propagates.  Backward re-derives that first max site from x and
    routes each window's gradient to it, summing where windows overlap.
    """
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim not in (3, 4):
        raise ValueError(f"maxpool2d input must be (C,H,W) or (N,C,H,W), got {x.shape}")
    check_int("maxpool2d window", window, 1)
    check_int("maxpool2d stride", stride, 1)
    h, w = xd.shape[-2:]
    if h < window or w < window:
        raise ValueError(f"maxpool2d window {window} does not fit input {h}x{w}")
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1

    # sites[k]: the input value at row-major offset k of every window, (..., Ho, Wo).
    sites = [xd[..., i : i + stride * (ho - 1) + 1 : stride, j : j + stride * (wo - 1) + 1 : stride]
             for i in range(window) for j in range(window)]
    vals = sites[0].copy()
    for site in sites[1:]:
        # On a tie np.maximum returns its second operand, the earlier site.
        np.maximum(site, vals, out=vals)
    out = Tensor(vals)

    def backward(g):
        # Offset of each window's first max site: the count of leading
        # sites that differ from the max.
        idx = np.zeros(vals.shape, dtype=np.min_scalar_type(len(sites) - 1))
        before = np.ones(vals.shape, dtype=bool)
        ne = np.empty(vals.shape, dtype=bool)
        for site in sites[:-1]:
            before &= np.not_equal(site, vals, out=ne)
            idx += before
        # NaN equals nothing, so a NaN window takes its first NaN site.
        if np.isnan(vals).any():
            nan = np.nonzero(np.isnan(vals))
            for k in reversed(range(len(sites))):
                idx[nan] = np.where(np.isnan(sites[k][nan]), k, idx[nan])
        # Flat index into xd of each window's max site, then one scatter-add.
        offsets = np.array([i * w + j for i in range(window) for j in range(window)])
        corner = (np.arange(xd.size // (h * w)).reshape(xd.shape[:-2] + (1, 1)) * (h * w)
                  + np.arange(ho)[:, None] * (stride * w) + np.arange(wo) * stride)
        gx = np.bincount((corner + offsets[idx]).ravel(), weights=g.ravel(), minlength=xd.size)
        return (gx.astype(xd.dtype, copy=False).reshape(xd.shape),)

    return _record((x,), out, backward)


def global_max_pool(x: Tensor) -> tuple[Tensor, np.ndarray]:
    """Spatially pool an entire feature map to one value per channel.

    x: (C, H, W) -> values (C,) plus an int array (C, 2) of (h, w) argmax
    locations; leading axes before C are kept.  Ties take the smallest
    row-major linear index.  Backward routes each channel's full gradient
    to its argmax location only.
    """
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim < 3:
        raise ValueError(f"global_max_pool input must have >= 3 dims, got {x.shape}")
    h, w = xd.shape[-2:]
    flat = xd.reshape(xd.shape[:-2] + (h * w,))
    idx = flat.argmax(axis=-1)
    vals = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    argmax = np.stack(np.divmod(idx, w), axis=-1)
    out = Tensor(vals)

    def backward(g):
        gx = np.zeros_like(flat)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx.reshape(xd.shape),)

    return _record((x,), out, backward), argmax


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (C, H, W) -> (C,), leading axes kept.

    Backward spreads each channel's gradient uniformly, 1/(H*W) per site.
    """
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim < 3:
        raise ValueError(f"global_avg_pool input must have >= 3 dims, got {x.shape}")
    h, w = xd.shape[-2:]
    out = Tensor(xd.mean(axis=(-2, -1)))

    def backward(g):
        return (np.broadcast_to((g / (h * w))[..., None, None], xd.shape) + 0.0,)

    return _record((x,), out, backward)


def cross_channel_avg_pool(x: Tensor, k: int) -> Tensor:
    """Average every group of k consecutive entries: (k*M,) -> (M,).

    Backward hands each entry of group i the gradient g_i / k, so every
    pooled entry is affected, not just the largest.
    """
    x = _as_tensor(x)
    xd = x.data
    check_int("group size", k, 1)
    d = xd.shape[-1]
    if d % k != 0:
        raise ValueError(f"input length {d} is not divisible by group size {k}")
    m = d // k
    out = Tensor(xd.reshape(xd.shape[:-1] + (m, k)).mean(axis=-1))

    def backward(g):
        return (np.repeat(g[..., None] / k, k, axis=-1).reshape(xd.shape),)

    return _record((x,), out, backward)


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (D,) x (O, D) + (O,) -> (O,)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    xd, wd, bd = x.data, weight.data, bias.data
    if wd.ndim != 2 or bd.ndim != 1:
        raise ValueError(
            f"fully_connected expects weight (O,D) and bias (O,), got {weight.shape}, {bias.shape}"
        )
    xb = _as_batch(xd, 1, "fully_connected input must be (D,) or (N,D)")
    o, d = wd.shape
    if xd.shape[-1] != d:
        raise ValueError(
            f"fully_connected dimension mismatch: input shape {x.shape} vs weight shape {weight.shape}"
        )
    if bd.shape[0] != o:
        raise ValueError(f"bias shape {bias.shape} does not match weight rows {o}")
    out = Tensor((xb @ wd.T + bd).reshape(xd.shape[:-1] + (o,)))

    def backward(g):
        gmat = g.reshape(-1, o)
        gx = (gmat @ wd).reshape(xd.shape) if x.requires_grad else None
        gw = gmat.T @ xb if weight.requires_grad else None
        gb = gmat.sum(axis=0) if bias.requires_grad else None
        return (gx, gw, gb)

    return _record((x, weight, bias), out, backward)


def softmax_cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log softmax probability of the true class, as a scalar.

    logits: (M,) with an int label, or (N, M) with an int array of labels
    (the batched form returns the mean loss); labels of any other dtype
    are rejected, not truncated.  Stabilized by subtracting
    the per-row maximum before exponentiation; the gradient is
    softmax(logits) - onehot(label), scaled by 1/N in the batched form.
    """
    logits = _as_tensor(logits)
    ld = logits.data
    lb = _as_batch(ld, 1, "logits must be (M,) or (N,M)")
    labels = np.asarray(label)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.shape != ld.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    labels = labels.reshape(-1)
    n, m = lb.shape
    if labels.min() < 0 or labels.max() >= m:
        bad = labels[(labels < 0) | (labels >= m)][0]
        raise ValueError(f"label {bad} out of range for {m} classes")

    shifted = lb - lb.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    loss = -logp[rows, labels].mean()
    out = Tensor(np.asarray(loss, dtype=ld.dtype))

    def backward(g):
        p = np.exp(logp)
        p[rows, labels] -= 1.0
        return ((p * (g / n)).reshape(ld.shape),)

    return _record((logits,), out, backward)
