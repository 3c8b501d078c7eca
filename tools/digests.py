"""Digests of the package's outputs over a fixed grid, one ``name sha256`` line each.

    python3 tools/digests.py [--src DIR]

Imports ``patchbank`` from DIR (default: the ``src/`` beside this script).
The grid is tinynet (4 classes, k=2, 32 px) under GMP and GAP readout, with
one patch module at block3 (``m1``) and with a second one at block4 (``m2``),
at f32 and f64, on batches of 1, 4, 5 and 17 images.  For each point it
digests the ``build_model`` params, every output of ``forward``,
``fuse_predictions`` at the spec's default weights, ``tap_features`` at
block3 and block4, and one taped pass: the summed cross-entropy of every
stream, every gradient (the input's included) and the tape's record count.
It also digests the images, labels and truth boxes of each split that
``data.generate`` makes for ``SynthSpec()`` and for the small specs in
``SYNTH_SPECS``, which together reach every branch of the generator.

Two source trees that print the same lines give bit-identical outputs on
this grid, which is the check a simplification owes ROADMAP aim 2:

    diff <(python3 tools/digests.py --src A/src) <(python3 tools/digests.py --src B/src)
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

POOLINGS = ("gmp", "gap")
MODULES = (1, 2)
DTYPES = ("f32", "f64")
BATCHES = (1, 4, 5, 17)

# Neutral patch never and always, tint always wrong and always right, odd
# sizes, a one-pixel patch and one class; "default" is SynthSpec() itself.
SMALL = dict(classes=3, per_class_train=4, per_class_test=2, image_size=24, patch_size=8)
SYNTH_SPECS = {
    "default": {},
    "neutral_wrong_tint": dict(SMALL, neutral_patch_rate=1.0, cue_reliability=0.0,
                               patch_contrast=0.5),
    "true_tint": dict(SMALL, neutral_patch_rate=0.0, cue_reliability=1.0, patch_contrast=0.5),
    "odd_sizes": dict(SMALL, image_size=31, patch_size=9, seed=3),
    "patch_1": dict(SMALL, image_size=17, patch_size=1),
    "one_class": dict(SMALL, classes=1, per_class_train=5, cue_reliability=0.0),
}


def _sha(*values) -> str:
    """sha256 of each array's dtype, shape and bytes in turn, so a dtype or shape
    change shows too; one array gives the digest of its own header and bytes."""
    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


def _spec(network, pooling: str, modules: int):
    spec = network.tinynet_spec(4, 2, 32, pooling=pooling)
    extra = (network.DFLModuleSpec(tap="block4", filters_per_class=2),) * (modules - 1)
    return network.ModelSpec(backbone=spec.backbone, modules=spec.modules + extra,
                             input_size=spec.input_size, classes=spec.classes,
                             pooling=pooling)


def _outputs(model, batch: int):
    """(name, digest) of every output of ``model`` on one seeded batch."""
    from patchbank import network, ops
    from patchbank.tensor import GradTape, Tensor

    n = len(model.spec.modules)
    stream_names = ["g"] + [f"p{i}" for i in range(n)] + [f"side{i}" for i in range(n)]
    x = np.random.default_rng(batch).random((batch, 3, 32, 32)).astype(model.dtype)
    out = network.forward(model, x)
    streams = network.logit_streams(out)
    yield from ((f"{name}_logits", _sha(s.data)) for name, s in zip(stream_names, streams))
    for i in range(n):
        yield f"peaks{i}", _sha(out.peak_values[i].data)
        yield f"argmax{i}", _sha(out.peak_argmax[i])
    fused, cls = network.fuse_predictions(out, model.spec.default_fusion_weights())
    yield "fused_logits", _sha(fused.data)
    yield "fused_class", _sha(cls)
    for tap in ("block3", "block4"):
        yield f"tap_{tap}", _sha(network.tap_features(model, x, tap).data)

    image = Tensor(x, requires_grad=True)
    labels = np.arange(batch) % model.spec.classes
    with GradTape() as tape:
        streams = network.logit_streams(network.forward(model, image))
        loss = ops.softmax_cross_entropy(streams[0], labels)
        for s in streams[1:]:
            loss = ops.add(loss, ops.softmax_cross_entropy(s, labels))
    tape.backward(loss)
    yield "loss", _sha(loss.data)
    for name, t in [("input", image), *model.params.items()]:
        yield f"grad.{name}", _sha(tape.grad(t).data)
    yield "tape_records", _sha(len(tape))


def _generated(overrides: dict):
    """(name, digest) of the images, labels and boxes of each split ``generate`` makes."""
    from patchbank import data

    train, test = data.generate(data.SynthSpec(**overrides))
    for split, samples in (("train", train), ("test", test)):
        yield f"{split}.images", _sha(*(s.image for s in samples))
        yield f"{split}.labels", _sha([s.label for s in samples])
        yield f"{split}.boxes", _sha([dataclasses.astuple(s.truth_box) for s in samples])


def digests(poolings=POOLINGS, modules=MODULES, dtypes=DTYPES, batches=BATCHES) -> list[str]:
    """One ``name sha256`` line per output over the grid and per generated
    dataset; every name is unique."""
    from patchbank import network

    lines = []
    for pooling in poolings:
        for m in modules:
            for dtype in dtypes:
                model = network.build_model(_spec(network, pooling, m), seed=0, dtype=dtype)
                point = f"{pooling}.m{m}.{dtype}"
                lines += [f"{point}.param.{name} {_sha(p.data)}"
                          for name, p in model.params.items()]
                for batch in batches:
                    lines += [f"{point}.b{batch}.{name} {digest}"
                              for name, digest in _outputs(model, batch)]
    for spec_name, overrides in SYNTH_SPECS.items():
        lines += [f"data.{spec_name}.{name} {digest}"
                  for name, digest in _generated(overrides)]
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory that holds the patchbank package (default: %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from patchbank import network

    found = Path(network.__file__).resolve().parent
    if found != (args.src / "patchbank").resolve():
        sys.exit(f"patchbank was imported from {found}, not from {args.src}")
    print("\n".join(digests()))


if __name__ == "__main__":
    main()
