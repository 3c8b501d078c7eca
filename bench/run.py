"""Benchmark of the ``patchbank`` package.

    python3 bench/run.py --workload NAME [--seed 0] [--seconds 30] [--trace 0]

Run from the root of the repository: the package is imported from
``src/``.  NAME is one of ``train_tiny8``, ``infer_bank200`` and
``bank_init`` (see ``workloads.py`` for what each runs and why).  The
inputs are made from ``--seed`` (default 0).  One process runs one
workload as a closed loop for ``--seconds`` and checks every output.

With ``--trace 0`` the operations run untraced and the end-to-end metrics
are reported.  With ``--trace 1`` every second operation is traced with
spans around each call into the package, three operations are replayed op
by op (``replay.py``), and the per-layer metrics are reported.  A readable
report comes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Tests of the benchmark itself: ``python3 -m pytest -q bench/test_bench.py``.
"""

import time

START = time.perf_counter()  # start of the workload: setup_s counts from here

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11      # set-ups per run; setup_s is the import time plus their median
REPLAYS = 3             # timed op replays per traced run, after one to warm up;
                        # per-op metrics are their medians
TAIL_BEYOND = 10        # samples the tail percentile must have above it

END_TO_END = {
    "images_per_s": "img/s",   # images per operation / median operation time
    "op_ms_tail": "ms",        # see tail_latency
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
OP_CATEGORIES = ("conv2d", "conv6", "maxpool2d", "relu", "global_max_pool", "heads")
PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.tape_records": "count",
    "network.forward_ms": "ms",
    "network.fuse_predictions_ms": "ms",
    "network.tap_features_ms": "ms",
    "network.build_model_ms": "ms",
    **{f"ops.{c}.{d}_ms": "ms" for c in OP_CATEGORIES for d in ("fwd", "bwd")},
    "ops.conv2d.gflop": "count",
    "ops.conv2d.fwd_gflops": "GFLOP/s",
    "ops.replay_coverage": "ratio",
    "ops.replay_bit_exact": "count",
    "data.generate_ms_per_image": "ms",
    "boxes.nms_select_ms": "ms",
    "boxes.nms_keep_ratio": "ratio",
    "cluster.kmeans_ms": "ms",
    "cluster.kmeans_iters": "count",
    "bench.glue_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# The names the end-to-end metrics go by on each workload, for the report.
REPORT_NAMES = {
    "train_tiny8": {"images_per_s": "train_images_per_s", "op_ms_tail": "train_step_ms_tail"},
    "infer_bank200": {"images_per_s": "infer_images_per_s", "op_ms_tail": "infer_batch_ms_tail"},
}


@dataclass
class Run:
    """What one run measured: seconds, spans by name, and failures."""

    setup_s: list[float] = field(default_factory=list)
    setup_spans: list[dict[str, float]] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)     # untraced operations
    prepare_s: list[float] = field(default_factory=list)     # their first part
    traced_latency_s: list[float] = field(default_factory=list)
    traced_spans: list[dict[str, float]] = field(default_factory=list)  # per traced op
    replays: list = field(default_factory=list)               # (OpReplay, bit-exact)
    ops: int = 0
    failed: set[int] = field(default_factory=set)
    replay_failures: int = 0
    peak_rss_mib: float = 0.0

    @property
    def attempted(self) -> int:
        return self.ops + len(self.replays) + self.replay_failures

    @property
    def failures(self) -> int:
        return len(self.failed) + self.replay_failures + sum(not ok for _, ok in self.replays)


def measure(w, seconds: float, trace: bool) -> Run:
    from spans import NullTracer, Tracer, seconds_by_name, top_level_seconds

    run = Run()
    setup_tracer = Tracer()

    def set_up(target) -> None:
        t0 = time.perf_counter()
        target.setup(setup_tracer)
        run.setup_s.append(time.perf_counter() - t0)
        run.setup_spans.append(seconds_by_name(setup_tracer.take()))

    set_up(w)
    null = NullTracer()

    def attempt(i: int, tracer):
        """Operation i and its check; its three clock readings, or None if it raised."""
        try:
            t0 = time.perf_counter()
            inputs = w.prepare(i, tracer)
            t1 = time.perf_counter()
            out = w.op(i, inputs, tracer)
            t2 = time.perf_counter()
            if not w.check(i, inputs, out):
                run.failed.add(i)
            return t0, t1, t2
        except Exception:
            traceback.print_exc()
            run.failed.add(i)
            return None
        finally:
            run.ops += 1

    attempt(0, null)  # warm-up, not timed
    tracer = Tracer() if trace else null
    start = time.perf_counter()
    i = 1
    while True:
        traced = trace and i % 2 == 0
        clock = attempt(i, tracer if traced else null)
        spans = tracer.take() if traced else []
        if clock is not None:
            t0, t1, t2 = clock
            if traced:
                by_name = seconds_by_name(spans)
                by_name["bench.glue"] = (t2 - t0) - top_level_seconds(spans)
                run.traced_spans.append(by_name)
                run.traced_latency_s.append(t2 - t0)
            else:
                run.prepare_s.append(t1 - t0)
                run.latency_s.append(t2 - t0)
        i += 1
        now = time.perf_counter()
        # The other set-ups run on throwaway instances spread over the run,
        # so that their median sees the machine the operations saw.
        if len(run.setup_s) < SETUP_REPEATS and now >= start + seconds * len(
                run.setup_s) / SETUP_REPEATS:
            set_up(type(w)(w.seed))
        # A traced run needs one traced and one untraced operation at least.
        if now >= start + seconds and i > 1 + trace:
            break
    while len(run.setup_s) < SETUP_REPEATS:
        set_up(type(w)(w.seed))
    # ru_maxrss is in KiB on Linux; read before the once-per-run checks.
    run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        for j in range(REPLAYS + 1):
            try:
                run.replays.append(w.replay(j, w.prepare(j, null)))
            except Exception:
                traceback.print_exc()
                run.replay_failures += 1
    try:
        run.failed |= w.final_check(run.ops)
    except Exception:
        traceback.print_exc()
        run.failed |= set(range(run.ops))
    return run


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that value.

    The percentile moves smoothly with the sample count, so runs of a
    slightly different length report nearly the same percentile.  It is
    never below the median: a run of under 2 * TAIL_BEYOND operations
    reports its median.
    """
    import numpy as np

    p = max(50.0, 100.0 * (len(samples) - TAIL_BEYOND) / len(samples))
    return p, float(np.percentile(samples, p))


def end_to_end(w, run: Run, import_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """The metrics, then the report-only ones, and a note on how each was taken."""
    n = len(run.latency_s)
    tail_p, tail_s = tail_latency(run.latency_s)
    metrics = {
        "images_per_s": w.images_per_op / statistics.median(run.latency_s),
        "op_ms_tail": 1000 * tail_s,
        "setup_s": import_s + statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mib,
    }
    notes = {
        "images_per_s": f"{w.images_per_op} images / median of {n} operations",
        "op_ms_tail": f"p{tail_p:.1f} of {n} operations",
        "setup_s": f"imports {import_s:.3f} s + median of {len(run.setup_s)} set-ups",
    }
    # Generation runs in set-up, or as the first part of each operation.
    generate = [s["data.generate"] for s in run.setup_spans if "data.generate" in s]
    if not generate:
        generate = run.prepare_s
        metrics["bank_init_s"] = statistics.median(
            total - first for total, first in zip(run.latency_s, run.prepare_s))
        notes["bank_init_s"] = f"median of {n} operations, generation excluded"
    metrics["generate_s"] = statistics.median(generate)
    notes["generate_s"] = f"median of {len(generate)} calls"
    return metrics, notes


def _layer_ms(run: Run, name: str) -> float:
    """Median per-operation milliseconds in spans called ``name``.

    Taken from the traced operations when they call it, else from setup;
    0 when the workload never calls it.
    """
    if any(name in s for s in run.traced_spans):
        return 1000 * statistics.median(s.get(name, 0.0) for s in run.traced_spans)
    in_setup = [s[name] for s in run.setup_spans if name in s]
    return 1000 * statistics.median(in_setup) if in_setup else 0.0


def per_layer(w, run: Run) -> tuple[dict[str, float], dict[str, str]]:
    m = {name: _layer_ms(run, name[: -len("_ms")]) for name in (
        "tensor.backward_ms", "network.forward_ms", "network.fuse_predictions_ms",
        "network.tap_features_ms", "network.build_model_ms", "boxes.nms_select_ms",
        "cluster.kmeans_ms", "bench.glue_ms")}
    m["data.generate_ms_per_image"] = _layer_ms(run, "data.generate") / w.images_generated
    for name in ("tensor.tape_records", "boxes.nms_keep_ratio", "cluster.kmeans_iters"):
        m[name] = w.counts.get(name, 0)

    replays = [r for r, _ in run.replays[1:]]  # the first one warms up
    for c in OP_CATEGORIES:
        m[f"ops.{c}.fwd_ms"] = 1000 * statistics.median(r.fwd_s[c] for r in replays)
        m[f"ops.{c}.bwd_ms"] = 1000 * statistics.median(r.bwd_s[c] for r in replays)
    m["ops.conv2d.gflop"] = replays[0].conv2d_flop / 1e9
    m["ops.conv2d.fwd_gflops"] = m["ops.conv2d.gflop"] / (m["ops.conv2d.fwd_ms"] / 1000)
    whole = m["network.forward_ms"] + m["tensor.backward_ms"] + m["network.tap_features_ms"]
    m["ops.replay_coverage"] = statistics.median(
        1000 * (sum(r.fwd_s.values()) + sum(r.bwd_s.values())) for r in replays) / whole
    m["ops.replay_bit_exact"] = int(bool(run.replays) and all(ok for _, ok in run.replays))
    m["trace.overhead_ratio"] = (statistics.median(run.traced_latency_s)
                                 / statistics.median(run.latency_s))
    notes = {"tensor.backward_ms": f"median of {len(run.traced_spans)} traced operations",
             "ops.conv2d.fwd_ms": f"median of {len(replays)} replays"}
    return m, notes


def machine_facts() -> dict[str, object]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(np),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _openblas_threads(np):
    """OpenBLAS's own thread count, from the copy NumPy loaded; None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(w, args, facts, run: Run, metrics, notes, units) -> None:
    print(f"# workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# why: {w.why}")
    print("# machine: " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    names = REPORT_NAMES.get(w.name, {})
    for name, value in metrics.items():
        print(f"{names.get(name, name):30s} {_fmt(value):>12s} {units.get(name, 's'):8s} "
              f"{notes.get(name, '')}")
    print(f"{'error_rate':30s} {_fmt(run.failures / run.attempted):>12s} {'':8s} "
          f"{run.failures} of {run.attempted} operations failed")
    if args.trace:
        rank = sorted(OP_CATEGORIES, key=lambda c: -(metrics[f"ops.{c}.fwd_ms"]
                                                     + metrics[f"ops.{c}.bwd_ms"]))
        print("# ops ranked by fwd+bwd time: " + " > ".join(rank))
        print(f"# replay outputs equal the package's bit for bit: "
              f"{all(ok for _, ok in run.replays)}")
    for key, value in w.notes.items():
        print(f"# {key}: {_fmt(value)}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed loop (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = time.perf_counter() - START
    w = WORKLOADS[args.workload](args.seed)
    run = measure(w, args.seconds, bool(args.trace))
    if args.trace:
        (metrics, notes), units = per_layer(w, run), PER_LAYER
    else:
        (metrics, notes), units = end_to_end(w, run, import_s), END_TO_END
    report(w, args, machine_facts(), run, metrics, notes, units)
    print(json.dumps({
        "correct": run.failures == 0,
        "attempted": run.attempted,
        "failed": run.failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "patchbank" / "network.py").is_file():
        sys.exit(f"error: no patchbank package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
