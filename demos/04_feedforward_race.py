"""The classical race: detector click -> kV pulse vs photon -> delay line.

The high-voltage chain needs 22 ns from a D2 click to arm the cell, so the
teleported photon must be delayed at least that long.  The bench's 8 m line
buys 24 ns at its 3.0 ns/m calibration.  Shortening the line below ~7.3 m
loses the race; electronics jitter turns the hard threshold into a Gaussian
miss probability.
"""

import math

import numpy as np

from fockbench import TimingModel, race
from fockbench.cli import sparkline

# 1: the stock bench makes the deadline with 2 ns to spare
rr = race(TimingModel(), 8.0)
print("stock bench event log:")
for e in rr.log.events:
    print(f"  {e.t_ns:7.2f} ns  {e.kind:13s} {e.detail}")
print(f"armed in time: {rr.armed_in_time}\n")

# 2: sweep the delay-line length across the threshold
lengths = np.linspace(5.0, 10.0, 26)
armed = [race(TimingModel(), L).armed_in_time for L in lengths]
marks = "".join("#" if a else "." for a in armed)
print(f"delay 5 m .. 10 m, armed (#) vs missed (.): {marks}")
threshold = lengths[armed.index(True)]
print(f"first length that wins the race: {threshold:.1f} m "
      f"(= risetime / calibration = {22.0 / 3.0:.2f} m)\n")

# 3: jitter smears the threshold into a Gaussian miss curve
rng = np.random.default_rng(0)
sigmas = [0.5, 1.0, 2.0, 3.0, 5.0]
n = 20_000
rates = []
for s in sigmas:
    t = TimingModel(jitter_sigma_ns=s)
    misses = sum(not race(t, 8.0, rng).armed_in_time for _ in range(n))
    z = (24.0 - 22.0) / s
    expect = 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    rates.append(misses / n)
    print(f"  jitter {s:3.1f} ns: miss rate {misses / n:.4f} (Gaussian tail {expect:.4f})")
print(f"\nmiss rate vs jitter: {sparkline(rates)}")
