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

``conv2d`` and ``bank_peaks`` work one image at a time on each worker,
so their scratch memory grows with the worker count, not the batch:
``conv2d`` lowers each image into the im2col column buffer that its
``parallel_for`` share made once and reuses, and its backward rebuilds
an image's columns from x when it needs them instead of keeping the
whole batch's.  The one exception is ``conv2d``'s weight gradient,
which keeps every image's product until all are made, so that it can
sum them in batch order.
``conv2d(..., relu=True)`` clamps each image's output in place and its
backward masks each image's gradient from that output, so a conv and
the ReLU after it keep one activation on the tape, not two; the
network's backbone runs every conv that a relu follows this way.

Importing this module sets the OpenBLAS that NumPy bundles to one
thread.  The setting is process-wide: every GEMM in the process, this
package's or not, then runs on its calling thread.  An idle OpenBLAS
worker spins on another core for about 0.1 s after each threaded GEMM,
so Python threads only gain once BLAS keeps to one.  ``parallel_for``
then spreads independent images over ``WORKERS`` threads, each held to
its own core for the call: ``conv2d`` runs its images this way, forward
and backward, taped or not, as does ``bank_peaks``, and the network its
untaped backbone chunks.  A ``parallel_for`` called inside another's
work runs serially on its calling thread, so the convs inside an
untaped chunk start no threads of their own.  One thread computes each
image with one-threaded GEMMs, and ``conv2d``'s weight gradient sums
the per-image products in batch order after they are all made, so every
byte depends neither on how the batch is split nor on the core count.
Where no setter is found, ``WORKERS`` is 1 and every pass runs serially
on the calling thread.
"""

from __future__ import annotations

import ctypes
import os
import threading
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checks import check_int
from .tensor import Tensor, active_tape


def _pin_blas(libs: Path) -> int:
    """Set the first OpenBLAS under ``libs`` to one thread and return the
    worker count: the cores this process may run on, or 1 if no setter
    is found, since Python threads then compete with BLAS's own.  Where
    the process's cores cannot be read, BLAS is left as it is."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return len(os.sched_getaffinity(0))
    return 1


WORKERS = _pin_blas(Path(np.__file__).resolve().parent.parent / "numpy.libs")


_inside = threading.local()  # .work is True on a thread while it runs a parallel_for's work


def parallel_for(count: int, work, make=tuple) -> None:
    """Call ``work(i, *buffers)`` for each i in ``range(count)``, spread over ``WORKERS`` threads.

    The calling thread and one plain thread per further share each claim
    the lowest i not yet claimed until none is left, so a thread that the
    machine slows down takes fewer; a single share starts no thread.
    Where the calling thread may run on at least as many cores as there
    are shares, each share's thread is held to its own core for the call
    and the caller's cores are restored after it: left free, the
    scheduler at times stacks two threads that wake each other (here
    through the GIL) on one core, and the call then runs serially.  Each
    ``work`` call must touch only its own part of any shared output.
    Every thread is joined before this returns, and the first exception a
    helper thread raised is re-raised here.  Each share calls ``make()``
    once, after its thread is held to its core, and hands the tuple to
    each of its ``work`` calls, so a kernel's scratch is made per share
    and reused over its images; the default passes none.

    A call made inside another call's ``work`` runs as one share: every
    index in order on its calling thread, with no thread started and that
    thread's cores left as they are, since the outer call already keeps
    every worker busy.  So a ``conv2d`` inside an untaped backbone chunk
    runs its images serially, while a taped ``conv2d``, called from no
    worker, spreads them.
    """
    nested = getattr(_inside, "work", False)
    shares = 1 if nested else min(WORKERS, count)
    cores = []
    if shares > 1 and hasattr(os, "sched_getaffinity"):
        cores = sorted(os.sched_getaffinity(0))
    pinned = len(cores) >= shares > 1
    indices = iter(range(count))
    claim = threading.Lock()
    errors: list[BaseException] = []

    def run(s):
        _inside.work = True
        if pinned:
            os.sched_setaffinity(0, {cores[s]})  # 0 is the calling thread
        buffers = make()
        while True:
            with claim:
                i = next(indices, None)
            if i is None:
                return
            work(i, *buffers)

    def run_helper(s):
        try:
            run(s)
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    helpers = [threading.Thread(target=run_helper, args=(s,)) for s in range(1, shares)]
    for t in helpers:
        t.start()
    try:
        run(0)
    finally:
        _inside.work = nested
        for t in helpers:
            t.join()
        if pinned:
            os.sched_setaffinity(0, cores)
    if errors:
        raise errors[0]


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
    H' = floor((H + 2*pad - kh)/stride) + 1 and likewise for W'.  The
    images are spread over ``parallel_for``'s shares.  Each image is
    zero-padded and lowered on its own into its share's reused
    (C_in*kh*kw, H'*W') column buffer, which the (C_out, C_in*kh*kw)
    weight matrix multiplies, so one padded copy and one column buffer
    per share, at most min(``WORKERS``, N) of each, are all that exist
    at a time, and the tape keeps none.  With ``relu`` each image's
    product is clamped in place, giving the bytes of ``relu(conv2d(...))``
    with one taped activation instead of two.

    Backward rebuilds each image's columns from x and spreads the images
    the same way: each image's weight-gradient product goes to its own
    row of an (N, C_out, C_in*kh*kw) buffer, whose rows are then summed
    in batch order, and each image's column gradient is scattered back
    over its windows.  Under ``relu`` each image's gradient is first
    masked by ``out > 0``, which equals the pre-activation's ``> 0`` for
    every value, -0.0 and NaN included, into its share's reused buffer,
    so no batch-wide mask or masked gradient exists.
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

    padded = (c, h + 2 * pad, w + 2 * pad)
    inner = (slice(None), slice(pad, pad + h), slice(pad, pad + w))

    def lowering():
        # A zero-padded image and a column buffer; win views the padded
        # image's windows in column order, (Ci, kh, kw, Ho, Wo).
        xpad = np.zeros(padded, dtype=xd.dtype)
        win = sliding_window_view(xpad, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        return xpad, win.transpose(0, 3, 4, 1, 2), np.empty((ci * kh * kw, ho * wo), dtype=xd.dtype)

    def lower(i, xpad, win, cols):
        """Image i's columns, in one share's ``lowering()`` buffers."""
        xpad[inner] = xb[i]
        np.copyto(cols.reshape(win.shape), win)
        return cols

    wmat = wd.reshape(co, ci * kh * kw)
    res = np.empty((n, co, ho * wo), dtype=np.result_type(xd, wd))

    def image(i, *lowered):
        np.matmul(wmat, lower(i, *lowered), out=res[i])
        if relu:
            np.maximum(res[i], 0, out=res[i])

    parallel_for(n, image, lowering)
    out = Tensor(res.reshape(xd.shape[:-3] + (co, ho, wo)))

    def backward(g):
        gmat = g.reshape(n, co, ho * wo)

        def masking():
            if not relu:
                return ()
            return np.empty((co, ho * wo), dtype=bool), np.empty((co, ho * wo), dtype=g.dtype)

        # Each pass below masks an image as it reaches it: two passes that
        # stay in cache measured faster than one pass doing both products.
        def grad(i, *masks):
            """Image i's output gradient, masked under ``relu`` into ``masking()``'s buffers."""
            if not relu:
                return gmat[i]
            live, gmasked = masks
            return np.multiply(gmat[i], np.greater(res[i], 0, out=live), out=gmasked)

        gw = None
        if weight.requires_grad:
            # Each image's product in its own row, then summed in batch order: NumPy
            # adds the rows one after another, except for a one-element weight,
            # whose column it sums pairwise.
            prods = np.empty((n,) + wmat.shape, dtype=np.result_type(g, xd))

            def image_wgrad(i, xpad, win, cols, *masks):
                np.matmul(grad(i, *masks), lower(i, xpad, win, cols).T, out=prods[i])

            parallel_for(n, image_wgrad, lambda: lowering() + masking())
            gw = prods.sum(axis=0).reshape(wd.shape)
        if not x.requires_grad:
            return (None, gw)
        gx = np.empty_like(xb)

        def image_grad(i, dpad, *masks):
            dcols = np.matmul(wmat.T, grad(i, *masks)).reshape(ci, kh, kw, ho, wo)
            dpad.fill(0)
            for a in range(kh):
                for b in range(kw):
                    dpad[:, a : a + stride * ho : stride, b : b + stride * wo : stride] += dcols[
                        :, a, b
                    ]
            gx[i] = dpad[inner]

        parallel_for(n, image_grad, lambda: (np.empty(padded, dtype=xd.dtype),) + masking())
        return (gx.reshape(xd.shape), gw)

    return _record((x, weight), out, backward)


def bank_peaks(x: Tensor, weight: Tensor) -> tuple[Tensor, np.ndarray]:
    """Global max pooling of a 1x1 filter bank's responses, one image at a time.

    x: (C, H, W), weight: (J, C, 1, 1) -> values (J,) plus an int array
    (J, 2) of (h, w) argmax locations, as ``global_max_pool(conv2d(x,
    weight))`` returns them, byte for byte: each image runs the same
    (J, C) x (C, H*W) product that ``conv2d`` does, so only one image's
    (J, H*W) response map per ``parallel_for`` worker exists at a time,
    with the images spread over the workers.  Ties take the smallest
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

    def peaks(i):
        resp = wmat @ cols[i]
        idx[i] = resp.argmax(axis=1)
        vals[i] = resp[filters, idx[i]]

    parallel_for(n, peaks)
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
    if xd.ndim < 1:
        raise ValueError(f"cross_channel_avg_pool input must have >= 1 dim, got {x.shape}")
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
