"""Benchmark of the fockbench simulator: time, check and trace one workload.

    python3 perfbench/run.py --workload paper-headline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, each in a fresh process

Runs from the root of a checkout and imports the package from ``src/``.
A run builds the workload's inputs from ``--seed``, runs one untimed
warm-up operation, then whole rounds of unit operations until ``--seconds``
of operation time is measured, and checks every round's outputs.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics of a traced run with ``--trace 1``.  Results and
span traces are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one process generates the load; numpy's BLAS gets a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("paper-headline", "race-scan", "shot-log")
SETUP_PROBES = 9

#: a fresh interpreter's set-up: import the package, build the workload inputs
PROBE = """import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), None)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"trials_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
#: per-layer metrics: (metric, layer, what) with what in calls/self_ms
LAYER_METRICS = [
    ("protocol.run_sweep.self_ms", "protocol.run_sweep", "self_ms"),
    ("protocol.run_trial.self_ms", "protocol.run_trial", "self_ms"),
    ("protocol.csv.self_ms", "protocol.csv", "self_ms"),
    *((f"{layer}.{what}", layer, what)
      for layer in ("fock", "elements", "bench", "noise", "timing", "analysis")
      for what in ("calls", "self_ms")),
    ("cli.self_ms", "cli", "self_ms"),
]
LAYER_UNITS = {"calls": "count", "self_ms": "ms"}


def setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(HERE), str(SRC), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs a workload's rounds, timing each op and checking each round."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.rounds: list[list[float]] = []  # op seconds of each complete round
        self.attempted = self.failed = 0
        self.correct = True

    def _check(self, fn, *args) -> None:
        import checks

        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)

    def round(self, r: int) -> float:
        """Run and check round r; returns its measured seconds, 0 if an op failed."""
        ops = self.workload.round_ops(r)
        outputs, times = [], []
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op() if self.tracer is None else self.tracer.call("op", op)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        if len(times) < len(ops):
            return 0.0
        self._check(self.workload.check, r, outputs)
        self.rounds.append(times)
        return sum(times)

    def measure(self, seconds: float) -> int:
        """Rounds 1, 2, ... until ``seconds`` of op time; returns the next round."""
        r, measured = 1, 0.0
        while measured < seconds:
            measured += self.round(r)
            r += 1
            if not self.rounds:  # the first round failed
                break
        self._check(self.workload.finish)
        return r


def run_one(args) -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        runner = Runner(wl, tracer)
        runner.workload.round_ops(0)[0]()  # untimed warm-up
        if tracer is not None:
            tracer.reset()
        next_round = runner.measure(args.seconds)
        if tracer is not None:
            totals = tracer.totals()
            csv_bytes = tracer.csv_bytes
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
            tracer.alloc_peaks = []  # one more op, with tracemalloc in run_sweep
            runner.workload.round_ops(next_round)[0]()
            peaks = tracer.alloc_peaks
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    op_s = [t for times in runner.rounds for t in times]
    if not op_s:
        print("error: no round completed", file=sys.stderr)
        return 1
    n_ops = len(op_s)
    info = {"rounds": len(runner.rounds), "ops": n_ops,
            "op_ms_p50": statistics.median(op_s) * 1e3}
    if n_ops >= 1000:  # ten ops or more beyond the 99th percentile
        info["op_ms_p99"] = statistics.quantiles(op_s, n=100)[98] * 1e3
    if tracer is None:
        # a round's time from the median of each of its op positions
        round_s = sum(statistics.median(pos) for pos in zip(*runner.rounds))
        values = {
            "trials_per_s": wl.trials_per_round / round_s,
            "op_ms_p50": info["op_ms_p50"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        metrics = {}
        for metric, layer, what in LAYER_METRICS:
            calls, self_ns = totals.get(layer, (0, 0))
            value = calls / n_ops if what == "calls" else self_ns / n_ops / 1e6
            metrics[metric] = {"value": value, "unit": LAYER_UNITS[what]}
        metrics["protocol.csv_bytes"] = {"value": csv_bytes / n_ops, "unit": "B"}
        metrics["protocol.run_sweep.peak_alloc_mb"] = {
            "value": max(peaks, default=0) / 2**20, "unit": "MiB"}

    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    codes = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; default: each in turn, in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockbench" / "__init__.py").is_file():
        print(f"error: no fockbench sources under {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
