"""The benchmark's three workloads, each with the reason it is in the set.

Every workload is a closed loop: one process issues operation i+1 when
operation i has returned.  Its inputs come only from the workload seed.
A workload drives ``patchbank`` through the public functions of its
modules and opens a span (see ``spans``) around each call.

Interface, used by ``run.py``:

- ``setup(tracer)``: make the inputs and build the model.  Repeatable.
- ``prepare(i, tracer)`` then ``op(i, inputs, tracer)``: the two parts of
  operation i, timed together and apart.  ``prepare`` picks a batch, or
  for ``bank_init`` generates the data.
- ``check(i, inputs, out)``: False if the output is wrong.  Untimed.
- ``final_check(n_ops)``: indices of the operations that fail the checks
  made once per run, after the timed loop.
- ``replay(i, inputs)``: the op replay of operation i, and whether its
  outputs equal the package's bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from patchbank import boxes, cluster, data, network
from patchbank.gradcheck import finite_difference_check
from patchbank.tensor import GradTape, Tensor

from replay import OpReplay, replay_backbone, replay_forward, three_stream_loss

# The tolerance of tests/test_gradcheck.py, with a smaller step.  Over a
# whole network a step can cross a ReLU or max-pool kink, which breaks the
# finite difference while the gradient is right: the suite's 1e-4 did at
# seed 0, and 1e-5 at one of the seeds 0-20.  The chance falls with the
# step.  At f64 the rounding error of a 1e-7 central difference of a loss
# near 1 is about 1e-8, far under the tolerance.
GRADCHECK_EPS = 1e-7
GRADCHECK_TOL = 1e-5
GRADCHECK_COORDS = 6      # sampled coordinates per checked weight
GRADCHECK_IMAGES = 4


class Workload:
    name: str
    why: str
    images_per_op: int
    images_generated: int   # images made by one data.generate call

    def __init__(self, seed: int):
        self.seed = seed
        self.notes: dict[str, object] = {}   # check results for the report
        self.counts: dict[str, float] = {}   # per-layer counts, fixed per seed

    def final_check(self, n_ops: int) -> set[int]:
        return set()


def _generate_train(classes: int, per_class: int, seed: int) -> list:
    train, _ = data.generate(data.SynthSpec(classes=classes, per_class_train=per_class,
                                            per_class_test=0, seed=seed))
    return train


def _shuffled_arrays(samples: list, seed: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    order = np.random.default_rng(seed).permutation(len(samples))
    images = np.stack([samples[j].image for j in order]).astype(dtype)
    labels = np.array([samples[j].label for j in order], dtype=np.int64)
    return images, labels


# --------------------------------------------------------------- train_tiny8


@dataclass
class StepOutput:
    loss: float
    grads: dict[str, Tensor | None]
    tape_records: int


class TrainTiny8(Workload):
    """One f64 training step of the ROADMAP baseline tinynet."""

    name = "train_tiny8"
    why = ("ROADMAP baseline f64 train step, batch 32: conv2d/maxpool2d backward and the tape "
           "dominate, P-stream heads are under 2%; moves with backward and tape changes")
    images_per_op = 32
    classes, per_class, batch = 8, 40, 32
    images_generated = classes * per_class

    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            train = _generate_train(self.classes, self.per_class, self.seed)
        images, labels = _shuffled_arrays(train, self.seed, np.float64)
        self.batches = [(images[b : b + self.batch], labels[b : b + self.batch])
                        for b in range(0, len(labels) - self.batch + 1, self.batch)]
        with tracer.span("network.build_model"):
            self.model = network.build_model(network.tinynet_spec(self.classes, 4, 64),
                                             seed=self.seed, dtype="f64")
        self.first_loss: dict[int, float] = {}

    def prepare(self, i, tracer):
        return self.batches[i % len(self.batches)]

    def op(self, i, batch, tracer) -> StepOutput:
        x, y = batch
        # No optimizer exists in the package yet, so the step leaves the
        # parameters as they are.
        with GradTape() as tape:
            with tracer.span("network.forward"):
                out = network.forward(self.model, x)
            with tracer.span("ops.loss"):
                loss = three_stream_loss(self.model.spec, out.g_logits, out.p_logits,
                                         out.side_logits, y)
        with tracer.span("tensor.backward"):
            tape.backward(loss)
        with tracer.span("tensor.grad"):
            grads = {name: tape.grad(p) for name, p in self.model.params.items()}
        return StepOutput(loss.item(), grads, len(tape))

    def check(self, i, batch, out: StepOutput) -> bool:
        self.counts["tensor.tape_records"] = out.tape_records
        ok = bool(np.isfinite(out.loss))
        for name, p in self.model.params.items():
            g = out.grads[name]
            ok = ok and g is not None and g.shape == p.shape and bool(np.isfinite(g.data).all())
        # The parameters never change, so a batch must give the same loss every time.
        first = self.first_loss.setdefault(i % len(self.batches), out.loss)
        return ok and out.loss == first

    def final_check(self, n_ops: int) -> set[int]:
        """Finite differences on sampled weights; a wrong gradient fails every step."""
        x, y = (a[:GRADCHECK_IMAGES] for a in self.batches[0])
        spec = self.model.spec
        worst = 0.0
        for name in ("backbone.0.weight", "module0.conv6.weight"):
            def loss_at(w, name=name):
                model = network.Model(spec, {**self.model.params, name: w})
                out = network.forward(model, x)
                return three_stream_loss(spec, out.g_logits, out.p_logits, out.side_logits, y)

            worst = max(worst, finite_difference_check(
                loss_at, self.model.params[name], eps=GRADCHECK_EPS,
                max_coords=GRADCHECK_COORDS, rng=self.seed))
        self.notes["gradcheck_max_rel_err"] = worst
        return set(range(n_ops)) if not worst < GRADCHECK_TOL else set()

    def replay(self, i, batch):
        x, y = batch
        r = OpReplay(backward=True)
        g, p, side = replay_forward(r, self.model, Tensor(x))
        r.run_backward(three_stream_loss(self.model.spec, g, p, side, y, call=r.call))
        real = network.logit_streams(network.forward(self.model, x))
        return r, _all_equal(real, [g, *p, *side])


def _all_equal(a: list[Tensor], b: list[Tensor]) -> bool:
    return len(a) == len(b) and all(
        u.dtype == v.dtype and u.data.tobytes() == v.data.tobytes() for u, v in zip(a, b))


# ------------------------------------------------------------- infer_bank200

# Fused logits of the f32 model against an f64 forward of the same weights:
# |f32 - f64| <= INFER_ATOL + INFER_RTOL * |f64|, elementwise.
INFER_RTOL, INFER_ATOL = 1e-4, 1e-5
REFERENCE_CHUNK = 16      # images per f64 reference forward, to bound its memory
UNBATCHED_PER_BATCH = 2   # images per batch also run one at a time


def _share_of_tolerance(values: np.ndarray, ref: np.ndarray) -> float:
    """Largest |values - ref| as a share of its tolerance; above 1 fails."""
    return float((np.abs(values - ref) / (INFER_ATOL + INFER_RTOL * np.abs(ref))).max())


class InferBank200(Workload):
    """Inference of one batch with a paper-scale filter bank."""

    name = "infer_bank200"
    why = ("paper-scale bank, 200 classes x k=10 = 2,000 conv6 filters, f32 batch 64 with no "
           "tape; conv6, GMP and P-head are ~40% of the pass and backward is bypassed")
    images_per_op = 64
    classes, filters_per_class, batch = 200, 10, 64
    images_generated = classes

    def setup(self, tracer) -> None:
        with tracer.span("data.generate"):
            samples = _generate_train(self.classes, 1, self.seed)
        images, _ = _shuffled_arrays(samples, self.seed, np.float32)
        self.batches = [images[b : b + self.batch]
                        for b in range(0, len(images) - self.batch + 1, self.batch)]
        with tracer.span("network.build_model"):
            self.model = network.build_model(
                network.tinynet_spec(self.classes, self.filters_per_class, 64),
                seed=self.seed, dtype="f32")
        self.weights = self.model.spec.default_fusion_weights()
        self.first: dict[int, np.ndarray] = {}

    def prepare(self, i, tracer):
        return self.batches[i % len(self.batches)]

    def op(self, i, x, tracer):
        with tracer.span("network.forward"):
            out = network.forward(self.model, x)
        with tracer.span("network.fuse_predictions"):
            fused, cls = network.fuse_predictions(out, self.weights)
        return fused.data, cls

    def check(self, i, x, out) -> bool:
        fused, cls = out
        ok = (fused.shape == (len(x), self.classes) and bool(np.isfinite(fused).all())
              and np.array_equal(cls, fused.argmax(axis=1)))
        first = self.first.setdefault(i % len(self.batches), fused)
        return ok and np.array_equal(first, fused)

    def final_check(self, n_ops: int) -> set[int]:
        """Each batch seen: f32 against f64, and batched against unbatched."""
        wide = network.Model(self.model.spec, {k: Tensor(v.data.astype(np.float64))
                                               for k, v in self.model.params.items()})
        bad_batches, worst_ref, worst_unbatched = set(), 0.0, 0.0
        for b, fused in self.first.items():
            x = self.batches[b]
            ref = np.concatenate([
                network.fuse_predictions(network.forward(wide, x[c : c + REFERENCE_CHUNK]),
                                         self.weights)[0].data
                for c in range(0, len(x), REFERENCE_CHUNK)])
            single = np.stack([
                network.fuse_predictions(network.forward(self.model, x[j]), self.weights)[0].data
                for j in range(UNBATCHED_PER_BATCH)])
            to_ref = _share_of_tolerance(fused, ref)
            # Unbatched runs the same f32 kernels on one image; the batched
            # row is its reference, under the same tolerance.
            to_batched = _share_of_tolerance(single, fused[:UNBATCHED_PER_BATCH])
            worst_ref, worst_unbatched = max(worst_ref, to_ref), max(worst_unbatched, to_batched)
            if to_ref > 1 or to_batched > 1:
                bad_batches.add(b)
        self.notes["f32_vs_f64_share_of_tolerance"] = worst_ref
        self.notes["unbatched_vs_batched_share_of_tolerance"] = worst_unbatched
        return {i for i in range(n_ops) if i % len(self.batches) in bad_batches}

    def replay(self, i, x):
        r = OpReplay(backward=False)
        g, p, side = replay_forward(r, self.model, Tensor(x))
        real = network.logit_streams(network.forward(self.model, x))
        return r, _all_equal(real, [g, *p, *side])


# ----------------------------------------------------------------- bank_init

TAP = "block3"
TAP_BATCH = 64
TOP_SITES = 16        # candidates per image: the highest-energy sites only
NMS_IOU = 0.3
NMS_KEEP = 4          # kept candidates per image
BANK_K = 4            # conv6 filters per class


@dataclass(frozen=True)
class Candidate:
    """A feature-map site proposed as a patch; the type ``nms_select`` reads."""

    energy: float
    image_id: int
    location: tuple[int, int]
    box: boxes.Box


@dataclass
class BankOutput:
    weight: np.ndarray                        # (classes*k, C, 1, 1) k-means centers
    built: network.Model
    kept: list[list[Candidate]]               # per image
    kmeans: list[cluster.KMeansResult]        # per class
    candidates: int


class BankInit(Workload):
    """The paper's non-random conv6 initialization on freshly generated data."""

    name = "bank_init"
    why = ("paper's non-random conv6 init on fresh 8x40 data per op: block3 taps, energy, NMS, "
           "k-means, FilterBank; the only workload using data, boxes and cluster")
    classes, per_class = 8, 40
    images_per_op = images_generated = classes * per_class

    def setup(self, tracer) -> None:
        with tracer.span("network.build_model"):
            self.model = network.build_model(network.tinynet_spec(self.classes, BANK_K, 64),
                                             seed=self.seed, dtype="f64")
        self.spec = self.model.spec
        self.rf = network.receptive_field(self.spec.backbone, TAP)
        self.hashes: dict[int, str] = {}

    def prepare(self, i, tracer):
        with tracer.span("data.generate"):
            return _generate_train(self.classes, self.per_class, self.seed + i)

    def _site_box(self, h: int, w: int) -> boxes.Box:
        half = self.rf.size / 2.0
        cy, cx = self.rf.offset + self.rf.stride * h, self.rf.offset + self.rf.stride * w
        size = self.spec.input_size
        return boxes.Box(cy - half, cx - half, cy + half, cx + half).clipped(size, size)

    def op(self, i, samples, tracer) -> BankOutput:
        images = np.stack([s.image for s in samples])
        labels = np.array([s.label for s in samples])
        feats = []
        for b in range(0, len(images), TAP_BATCH):
            with tracer.span("network.tap_features"):
                feats.append(network.tap_features(self.model, images[b : b + TAP_BATCH], TAP).data)
        f = np.concatenate(feats)                         # (N, C, H, W)
        n, _, _, w = f.shape
        energy = np.sqrt(np.einsum("nchw,nchw->nhw", f, f)).reshape(n, -1)
        top = np.argpartition(-energy, TOP_SITES - 1, axis=1)[:, :TOP_SITES]

        kept = []
        for img in range(n):
            cands = []
            for site in top[img].tolist():
                loc = divmod(site, w)
                cands.append(Candidate(float(energy[img, site]), img, loc, self._site_box(*loc)))
            with tracer.span("boxes.nms_select"):
                kept.append(boxes.nms_select(cands, NMS_IOU, NMS_KEEP))

        results = []
        for c in range(self.classes):
            vectors = np.stack([f[k.image_id, :, k.location[0], k.location[1]]
                                for img in np.flatnonzero(labels == c) for k in kept[img]])
            with tracer.span("cluster.kmeans"):
                results.append(cluster.kmeans(vectors, BANK_K, seed=(self.seed, i, c)))
        weight = np.concatenate([r.centers for r in results])[:, :, None, None]
        bank = network.FilterBank(Tensor(weight), self.classes, BANK_K)
        with tracer.span("network.build_model"):
            built = network.build_model(self.spec, bank_init=[bank], seed=self.seed)
        return BankOutput(weight, built, kept, results, n * TOP_SITES)

    def check(self, i, samples, out: BankOutput) -> bool:
        self.hashes[i] = _samples_digest(samples)
        if i == 0:
            self.counts["boxes.nms_keep_ratio"] = sum(map(len, out.kept)) / out.candidates
            self.counts["cluster.kmeans_iters"] = sum(r.n_iter for r in out.kmeans)
        conv6 = out.built.params["module0.conv6.weight"].data
        ok = conv6.dtype == out.weight.dtype and conv6.tobytes() == out.weight.tobytes()
        ok = ok and all(a.box.iou(b.box) <= NMS_IOU
                        for kept in out.kept for j, a in enumerate(kept) for b in kept[j + 1 :])
        return ok and all(later <= earlier for r in out.kmeans
                          for earlier, later in zip(r.objective_history, r.objective_history[1:]))

    def final_check(self, n_ops: int) -> set[int]:
        """``generate`` repeated with an operation's seed gives the same bytes."""
        redo = sorted({0, n_ops - 1} & self.hashes.keys())
        bad = {i for i in redo
               if _samples_digest(_generate_train(self.classes, self.per_class,
                                                  self.seed + i)) != self.hashes[i]}
        self.notes["generate_repeat_checked_ops"] = redo
        return bad

    def replay(self, i, samples):
        images = np.stack([s.image for s in samples])
        tap = self.spec.backbone.taps[TAP]
        r = OpReplay(backward=False)
        same = True
        for b in range(0, len(images), TAP_BATCH):
            x = images[b : b + TAP_BATCH]
            out, _ = replay_backbone(r, self.model, Tensor(x), upto=tap)
            same = same and _all_equal([network.tap_features(self.model, x, TAP)], [out])
        return r, same


def _samples_digest(samples) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(s.image.tobytes())
        b = s.truth_box
        h.update(np.array([s.label, b.top, b.left, b.bottom, b.right]).tobytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (TrainTiny8, InferBank200, BankInit)}
