"""Op replay: run a model's op sequence one op at a time and time each op.

The replay walks the op sequence of ``network.forward`` from the model's
spec, on the real activations, dtype and shapes of a batch.  When backward
is timed, each op runs under a ``GradTape`` of its own, and after the
forward walk each op's backward runs alone through
``tape.backward(out, seed=g)``, where g is the gradient that reached its
output from the ops after it.  The caller compares the replay's outputs
bit for bit with ``network.forward`` or ``network.tap_features``: equal
outputs show that the walk ran the same ops, in the same order, on the
same inputs as the package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from patchbank import ops
from patchbank.tensor import GradTape, Tensor

# "conv2d" is the 3x3 backbone; "conv6" is the 1x1 filter bank.  "heads"
# covers GAP, cross-channel pooling, FC, the loss and add/scale.
CATEGORIES = ("conv2d", "conv6", "maxpool2d", "relu", "global_max_pool", "heads")


def direct_call(category: str, fn, *args):
    """Call an op without timing it; the ``call`` used outside a replay."""
    return fn(*args)


def three_stream_loss(spec, g_logits, p_logits, side_logits, labels, call=direct_call):
    """L_G + L_P + 0.1 L_side, each stream weighted by its ``ModelSpec.fusion_*``."""
    terms = ([(spec.fusion_g, g_logits)]
             + [(spec.fusion_p, p) for p in p_logits]
             + [(spec.fusion_side, s) for s in side_logits])
    loss = None
    for weight, logits in terms:
        term = call("heads", ops.scale, call("heads", ops.softmax_cross_entropy, logits, labels),
                    weight)
        loss = term if loss is None else call("heads", ops.add, loss, term)
    return loss


@dataclass
class _Node:
    category: str
    tape: GradTape | None
    out: Tensor
    leaves: list[tuple[Tensor, Tensor]]  # (this op's input leaf, the output it copies)


class OpReplay:
    """Times ops one by one; ``call`` has the signature of ``direct_call``."""

    def __init__(self, backward: bool):
        self.backward = backward
        self.fwd_s = dict.fromkeys(CATEGORIES, 0.0)
        self.bwd_s = dict.fromkeys(CATEGORIES, 0.0)
        self.conv2d_flop = 0
        self._nodes: list[_Node] = []
        self._produced: set[int] = set()

    def call(self, category: str, fn, *args):
        leaves = []
        tape = None
        if self.backward:
            # Feed each activation in as a fresh leaf so this op's tape holds
            # only this op, and its input gradient can be read back.
            args = list(args)
            for j, a in enumerate(args):
                if isinstance(a, Tensor) and id(a) in self._produced:
                    args[j] = Tensor(a.data, requires_grad=True)
                    leaves.append((args[j], a))
            tape = GradTape()
            with tape:
                t0 = time.perf_counter()
                result = fn(*args)
                t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        self.fwd_s[category] += t1 - t0
        out = result[0] if isinstance(result, tuple) else result
        if self.backward:
            self._produced.add(id(out))
            self._nodes.append(_Node(category, tape, out, leaves))
        if category == "conv2d":
            n, co, ho, wo = out.shape
            _, ci, kh, kw = args[1].shape
            self.conv2d_flop += 2 * n * co * ho * wo * ci * kh * kw
        return result

    def run_backward(self, loss: Tensor) -> None:
        """Backward of every op in reverse order, each through its own tape.

        The tapes and activations are dropped afterwards, so a kept replay
        holds only its timings.
        """
        grads = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            t0 = time.perf_counter()
            node.tape.backward(node.out, seed=g)
            self.bwd_s[node.category] += time.perf_counter() - t0
            for leaf, source in node.leaves:
                gl = node.tape.grad(leaf)
                if gl is not None:
                    cur = grads.get(id(source))
                    grads[id(source)] = gl.data if cur is None else cur + gl.data
        self._nodes.clear()
        self._produced.clear()


def replay_backbone(r: OpReplay, model, x: Tensor, upto: int | None = None,
                    keep: set[int] = frozenset()) -> tuple[Tensor, dict[int, Tensor]]:
    """The backbone layers through index ``upto`` (all by default)."""
    layers = model.spec.backbone.layers
    last = len(layers) - 1 if upto is None else upto
    cur, taps = x, {}
    for i, layer in enumerate(layers[: last + 1]):
        if layer.kind == "conv":
            cur = r.call("conv2d", ops.conv2d, cur, model.params[f"backbone.{i}.weight"],
                         layer.stride, layer.pad)
        elif layer.kind == "pool":
            cur = r.call("maxpool2d", ops.maxpool2d, cur, layer.kernel, layer.stride)
        else:
            cur = r.call("relu", ops.relu, cur)
        if i in keep:
            taps[i] = cur
    return cur, taps


def replay_forward(r: OpReplay, model, x: Tensor):
    """Every stream, as ``network.forward`` runs it: (g, [p per module], [side per module])."""
    spec, params = model.spec, model.params
    final, taps = replay_backbone(r, model, x,
                                  keep={spec.backbone.taps[m.tap] for m in spec.modules})
    pooled = r.call("heads", ops.global_avg_pool, final)
    if spec.g_hidden > 0:
        hidden = r.call("heads", ops.relu,
                        r.call("heads", ops.fully_connected, pooled,
                               params["ghead.fc1.weight"], params["ghead.fc1.bias"]))
        g_logits = r.call("heads", ops.fully_connected, hidden,
                          params["ghead.fc2.weight"], params["ghead.fc2.bias"])
    else:
        g_logits = r.call("heads", ops.fully_connected, pooled,
                          params["ghead.weight"], params["ghead.bias"])
    p_logits, side_logits = [], []
    for mi, mod in enumerate(spec.modules):
        conv6 = r.call("conv6", ops.conv2d, taps[spec.backbone.taps[mod.tap]],
                       params[f"module{mi}.conv6.weight"])
        peak, _ = r.call("global_max_pool", ops.global_max_pool, conv6)
        vec = peak if spec.pooling == "gmp" else r.call("heads", ops.global_avg_pool, conv6)
        p_logits.append(r.call("heads", ops.fully_connected, vec,
                               params[f"module{mi}.phead.weight"],
                               params[f"module{mi}.phead.bias"]))
        if mod.with_side_branch:
            side_logits.append(r.call("heads", ops.cross_channel_avg_pool, vec,
                                      mod.filters_per_class))
    return g_logits, p_logits, side_logits
