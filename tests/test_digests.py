"""``tools/digests.py``, the bit-identity check over outputs, is itself deterministic.

The script is loaded from its file, as ``tests/test_bench_parity.py`` loads
the replay.
"""

import importlib.util
import re
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _load_digests():
    spec = importlib.util.spec_from_file_location("tools_digests", DIGESTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_lines_with_unique_names():
    digests = _load_digests()
    grid = dict(poolings=("gmp", "gap"), modules=(1, 2), dtypes=("f32",), batches=(1, 5))
    first, second = digests.digests(**grid), digests.digests(**grid)
    assert first == second
    names = [line.split(" ")[0] for line in first]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[\w.]+ [0-9a-f]{64}", line) for line in first)
    # Two modules add conv6 and P-head params, their streams and their grads.
    assert "gap.m2.f32.b5.side1_logits" in names
    assert "gmp.m2.f32.b5.grad.module1.conv6.weight" in names
    assert "gmp.m1.f32.b1.grad.input" in names and "gmp.m1.f32.b1.tape_records" in names
