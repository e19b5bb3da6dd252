"""The basic states on three small benches: one photon shared by two modes,
the Hong-Ou-Mandel dip, and the sign-flipping Pockels cell.

A qubit here is not a photon but a *mode*: the logical space is spanned by
the mode's vacuum |0> and one-photon |1> Fock states.  Delocalizing a single
photon over two modes with a 50:50 splitter therefore creates a maximally
entangled state of two such qubits, 2**-0.5 (|1,0> - |0,1>).

Each bench is parsed from text and read through the same exact two-photon
count tables (``count_tables``) that every sweep and shot samples: entry
[cell][phase][a][b] is the probability of a photons at Alice's detectors
(a = n(D1) + 3 n(D2)) and b at Bob's (b = n(D1*) + 3 n(D2*)), with the
Pockels cell disarmed (cell 0) or fired (cell 1).  Each is a protocol bench:
detectors D1, D2, D1* and D2*, two photon sources and one phase knob before
one Pockels cell, and each detector on a mode that a source or element
feeds.  A bench that needs no knob or cell puts them where they change
nothing, and a detector it does not read sits behind a splitter that sends
it no photon.
"""

import math

import numpy as np

from fockbench.bench import parse
from fockbench.tables import count_tables

PI_4 = math.pi / 4
PATHS = "path a\npath b\npath c\npath d\n"
PHIS = (0.0, math.pi / 2, math.pi)

# 1: one photon over two modes is coherent.  Split on a 50:50 splitter,
# phase-shifted on one arm and recombined, it clicks D1 or D2 with
# probability sin^2(phi/2) or cos^2(phi/2); the second photon goes straight
# to D1*.
shared = parse(PATHS + f"""
source photon a V
source photon c V
bs a b theta={PI_4!r}
phase a knob
bs a b theta={PI_4!r}
eop d
detector D1 a V
detector D2 b V
detector D1* c V
detector D2* d V
""")
print("one photon shared by two modes, recombined through the phase knob:")
for phi, t in zip(PHIS, count_tables(shared, PHIS)[0]):
    print(f"  phi={phi:6.4f}: P(D1)={t[1, 1]:.4f} (sin^2(phi/2)={math.sin(phi / 2) ** 2:.4f})"
          f"  P(D2)={t[3, 1]:.4f} (cos^2(phi/2)={math.cos(phi / 2) ** 2:.4f})")
print("  -> the |1,0> and |0,1> branches interfere: the photon is in both modes\n")

# 2: two photons, one per port of a 50:50 splitter, bunch (Hong-Ou-Mandel)
hom = parse(PATHS + f"""
source photon a V
source photon b V
phase a knob
bs a b theta={PI_4!r}
eop c
bs c d theta={PI_4!r}
detector D1 a V
detector D2 b V
detector D1* c V
detector D2* d V
""")
t = count_tables(hom, (0.0,))[0, 0]
# Bob's detectors see no photon: column 0
print("photon in each port of a 50:50 splitter:")
print(f"  P(1 at D1, 1 at D2) = {t[4, 0]:.4f}")
print(f"  P(2 at D1)          = {t[2, 0]:.4f}")
print(f"  P(2 at D2)          = {t[6, 0]:.4f}")
print("  -> the |1,1> amplitude cancels; only |2,0> and |0,2> survive\n")

# 3: the Pockels cell is sigma_z on the vacuum/one-photon qubit of its mode.
# The cell sits on one arm of the interferometer of 1, so firing it flips
# the sign of that arm's one-photon branch and swaps Bob's two fringes.
cell = parse(PATHS + f"""
source photon a V
source photon c V
bs c d theta=0.0
bs a b theta={PI_4!r}
phase a knob
eop a
bs a b theta={PI_4!r}
detector D1 c V
detector D2 d V
detector D1* a V
detector D2* b V
""")
disarmed, fired = count_tables(cell, PHIS)
print("the same interferometer with the Pockels cell on one arm (D1 trigger):")
for phi, d, f in zip(PHIS, disarmed, fired):
    print(f"  phi={phi:6.4f}: disarmed P(D1*)={d[1, 1]:.4f} P(D2*)={d[1, 3]:.4f}"
          f"   fired P(D1*)={f[1, 1]:.4f} P(D2*)={f[1, 3]:.4f}")
# the cell's channel phase theta: firing is a pi added to it, and firing
# twice adds 2 pi, which is no change
grid = np.linspace(0.0, 2.0 * math.pi, 25)
theta = 0.7
flip = np.abs(count_tables(cell, grid, theta=theta)[1]
              - count_tables(cell, grid, theta=theta + math.pi)[0]).max()
twice = np.abs(count_tables(cell, grid, theta=math.pi)[1] - count_tables(cell, grid)[0]).max()
print(f"  fired at channel phase {theta} = disarmed at {theta} + pi: {flip < 1e-15}")
print(f"  fired at channel phase pi = disarmed at 0: {twice < 1e-15}")
print("  -> sigma_z^2 = 1, which is why one cell suffices to undo the flip")
