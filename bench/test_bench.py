"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

They run every workload for a moment, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

from patchbank.tensor import Tensor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECOND_SEED = 1


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(run.ROOT, "--workload", workload, "--seed", str(SECOND_SEED),
                  "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if trace:
        assert result["metrics"]["ops.replay_bit_exact"]["value"] == 1
    else:
        assert all(v > 0 for v in values)


def _nan_gradient(out):
    name = next(iter(out.grads))
    out.grads[name] = Tensor(np.full(out.grads[name].shape, np.nan))
    return out


def _scaled_logits(out):
    fused, cls = out
    return fused * 1.01, cls


def _conv6_off_by_one_ulp(out):
    w6 = out.built.params["module0.conv6.weight"]
    w6.data = np.nextafter(w6.data, np.inf)
    return out


def _duplicate_kept_candidate(out):
    out.kept[0] = out.kept[0] + out.kept[0][:1]
    return out


@pytest.mark.parametrize("workload, corrupt", [
    ("train_tiny8", _nan_gradient),
    ("infer_bank200", _scaled_logits),
    ("bank_init", _conv6_off_by_one_ulp),
    ("bank_init", _duplicate_kept_candidate),
])
def test_corrupted_output_raises_error_rate(workload, corrupt):
    w = WORKLOADS[workload](seed=0)
    op = w.op
    w.op = lambda i, inputs, tracer: corrupt(op(i, inputs, tracer))
    measured = run.measure(w, seconds=0.1, trace=False)
    assert measured.attempted >= 2
    assert measured.failures == measured.attempted


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    p, value = run.tail_latency([float(v) for v in range(1000)])
    assert p == 99.0 and sum(v > value for v in range(1000)) == 10
    p, value = run.tail_latency([float(v) for v in range(59)])
    assert 83 < p < 84 and sum(v > value for v in range(59)) == 10
    assert run.tail_latency([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "train_tiny8", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout
