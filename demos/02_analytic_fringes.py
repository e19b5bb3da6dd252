"""Closed-form coincidence fringes of the built-in bench, no sampling.

Reads each (Alice, Bob) detector pair's lone-click cell off the bench's
exact two-photon count tables, the same tables every sweep and shot samples,
with the Pockels cell disarmed and no noise.  The post-selected
probabilities follow cos^2(phi/2)/2 and sin^2(phi/2)/2 and always sum to 1;
half of all shots are idle, which is the 50% ceiling of this linear-optics
Bell measurement.
"""

import math

import numpy as np

from fockbench import analytic_coincidences, builtin_figure1, phase_from_position, position_from_phase
from fockbench.cli import sparkline
from fockbench.protocol import PAIR_NAMES

bench = builtin_figure1()
grid = np.linspace(0.0, 2.0 * math.pi, 41)

tables = {pair: [] for pair in PAIR_NAMES}
for phi in grid:
    ac = analytic_coincidences(bench, phi)
    for pair in PAIR_NAMES:
        tables[pair].append(ac.pairs[pair])

print("post-selected coincidence probability vs phase (0 .. 2 pi):")
for pair in PAIR_NAMES:
    print(f"  {pair:7s} {sparkline(tables[pair])}")

print()
for phi in (0.0, math.pi / 3, math.pi):
    ac = analytic_coincidences(bench, phi)
    row = ", ".join(f"{pair}={ac.pairs[pair]:.4f}" for pair in PAIR_NAMES)
    print(f"phi={phi:6.4f}: {row}")
    print(f"          sum={sum(ac.pairs.values()):.12f}, "
          f"coincidence yield={ac.p_coincidence:.12f}")

# the swept phase is realized by a piezo mirror; with the 727.6 nm photons
# of the bench, one full fringe is a quarter-micron of travel
lam = 727.6e-9
x_pi = position_from_phase(math.pi, lam)
print(f"\nmirror travel for a pi phase shift at {lam * 1e9:.1f} nm: {x_pi * 1e9:.2f} nm")
print(f"phase recovered from that position: {phase_from_position(x_pi, lam):.6f} rad")
