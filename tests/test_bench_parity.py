"""The benchmark's op replay runs the ops that ``network.forward`` runs.

``bench/replay.py`` walks the forward pass one op at a time to time each
op, and its per-op numbers describe the package only while its logits
equal ``network.forward``'s bit for bit.  The benchmark checks that in
its traced runs; this checks it in the test suite.  The replay is loaded
from its file and is not modified.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from patchbank import network
from patchbank.tensor import Tensor

REPLAY_PATH = Path(__file__).resolve().parent.parent / "bench" / "replay.py"


def _load_replay():
    spec = importlib.util.spec_from_file_location("bench_replay", REPLAY_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


replay = _load_replay()


def _assert_replay_matches_forward(dtype, pooling, batch):
    model = network.build_model(network.tinynet_spec(8, 4, 64, pooling=pooling),
                                seed=5, dtype=dtype)
    x = np.random.default_rng(6).random((batch, 3, 64, 64)).astype(model.dtype)
    g, p, side = replay.replay_forward(replay.OpReplay(backward=False), model, Tensor(x))
    real = network.logit_streams(network.forward(model, x))
    assert len(real) == 1 + len(p) + len(side) == 3
    for got, want in zip([g, *p, *side], real):
        assert got.dtype == want.dtype and got.shape == want.shape == (batch, 8)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("pooling", ["gmp", "gap"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_replay_forward_logits_byte_equal_to_forward(dtype, pooling):
    _assert_replay_matches_forward(dtype, pooling, 4)


@pytest.mark.parametrize("pooling", ["gmp", "gap"])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_replay_forward_logits_byte_equal_to_chunked_forward(dtype, pooling):
    # The replay runs the backbone on the whole batch; an untaped forward
    # of more than BACKBONE_CHUNK images runs it in chunks.
    batch = 2 * network.BACKBONE_CHUNK + 1
    _assert_replay_matches_forward(dtype, pooling, batch)
