"""Shot-by-shot teleportation trials, then full fringe sweeps in all
three operating modes.

Each trial: draw Alice's click pattern from the exact click tables, read
the Bell outcome it heralds, race the feed-forward electronics against the
delay line after a lone D2 click, conditionally flip the sign, then draw
Bob's pattern given Alice's.  The sweep draws 100 000 such trials per phase
point at once, from their exact outcome distribution, and the fits show the
sigma_z story: the inhibited D2 fringe sits pi out of phase with the
passive D1 fringe, and arming the cell snaps it back.
"""

import numpy as np

from fockbench import RunConfig, RunMode, builtin_figure1, paper_runs, run_trial
from fockbench.analysis import fit_fringes, wrap_phase
from fockbench.cli import sparkline

bench = builtin_figure1()
rng = np.random.default_rng(7)

# 1: a handful of individual shots
print("ten shots at phi = 0 (active mode):")
cfg_one = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1)
for _ in range(10):
    rec = run_trial(bench, 0.0, cfg_one, rng)
    a = ",".join(rec.alice_clicks.clicked()) or "-"
    b = ",".join(rec.bob_clicks.clicked()) or "-"
    tag = "discarded" if rec.discarded else ("corrected" if rec.corrected else "kept")
    print(f"  {rec.bell.name:9s} alice[{a:2s}] bob[{b:3s}] {tag}")

# 2: the paper's three fringe sweeps, noiseless, 1e5 trials per point
_, runs = paper_runs(bench, 100_000, 25, 1, 1.0, 1.0)

print("\ncoincidence fringes (1e5 trials/point):")
for name, pair, data in runs:
    print(f"  {name:9s} {pair} {sparkline(data.counts[pair])}")

fit_passive, fit_inhib, fit_active = fit_fringes(
    runs[0][2].phi_grid, [data.counts[pair] for _, pair, data in runs])

print(f"\npassive D1 fringe:   V={fit_passive.visibility:.4f}  phi0={fit_passive.phi0:+.4f}")
print(f"inhibited D2 fringe: V={fit_inhib.visibility:.4f}  phi0={fit_inhib.phi0:+.4f}"
      f"  (shift vs passive {wrap_phase(fit_inhib.phi0 - fit_passive.phi0):+.4f})")
print(f"active D2 fringe:    V={fit_active.visibility:.4f}  phi0={fit_active.phi0:+.4f}"
      f"  (shift vs passive {wrap_phase(fit_active.phi0 - fit_passive.phi0):+.4f})")
print("\nthe sigma_z flip is a pi fringe shift; the feed-forward correction removes it")
