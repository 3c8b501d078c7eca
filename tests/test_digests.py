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
    # The gradcheck point is fixed, so it is digested whatever the grid.
    assert "gradcheck.gmp.m1.f64.b4.backbone.0.weight" in names
    # So is the point whose f64 input forward casts to its f32 model, in either byte order.
    cast = dict(line.split(" ") for line in first if line.startswith("cast."))
    assert set(cast) == {"cast.gmp.m1.f32.b4.f64.logits", "cast.gmp.m1.f32.b4.f64_swapped.logits"}
    assert len(set(cast.values())) == 1
    # Each generated dataset's splits: SynthSpec() and the small specs.
    for spec in ("default", "neutral_wrong_tint", "true_tint", "odd_sizes", "patch_1",
                 "one_class"):
        for split in ("train", "test"):
            for part in ("images", "labels", "boxes"):
                assert f"data.{spec}.{split}.{part}" in names
    # The files save_dataset writes for the small spec, and each split load_folder reads back.
    folder = {name for name in names if name.startswith("folder.")}
    assert folder == {"folder.small.files", "folder.small.train.loaded", "folder.small.test.loaded"}
