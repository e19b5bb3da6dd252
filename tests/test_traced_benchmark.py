"""The traced benchmark still runs on the package.

``perfbench/spans.py``'s ``Tracer.install`` looks up every module named in
its ``LAYER_MODULES`` and wraps the public callables it finds there, so a
package module renamed or dropped, or a callable the workloads reach that
breaks once wrapped, fails every traced benchmark run.  This test runs the
benchmark's own files, unedited, in a fresh interpreter: it installs the
tracer, then runs one round of each workload's operations and its check.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from pathlib import Path

perfbench, src, scratch = sys.argv[1:4]
sys.path[:0] = [perfbench, src]
import spans
import workloads

loads = {}
for name, cls in workloads.WORKLOADS.items():
    (Path(scratch) / name).mkdir()
    loads[name] = cls(1, Path(scratch) / name)
tracer = spans.Tracer()
tracer.install()
for name, wl in loads.items():
    wl.check(1, [tracer.call("op", op) for op in wl.round_ops(1)])
print(" ".join(sorted(layer for layer, (calls, _) in tracer.totals().items() if calls)))
"""


def test_one_traced_round_of_every_workload(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    layers = done.stdout.split()
    # the wrappers ran: each workload's entry point opened its own span
    assert {"protocol.run_sweep", "protocol.run_trial", "cli"} <= set(layers)
