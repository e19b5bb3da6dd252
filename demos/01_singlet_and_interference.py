"""Build the basic states by hand: one photon split into a singlet, the
Hong-Ou-Mandel dip, and the sign-flipping Pockels cell.

A qubit here is not a photon but a *mode*: the logical space is spanned by
the mode's vacuum |0> and one-photon |1> Fock states.  Delocalizing a single
photon over two modes with a 50:50 splitter therefore creates a maximally
entangled state of two such qubits.
"""

import math

from fockbench import (
    ModeId,
    Polarization,
    apply_eop,
    apply_two_mode_unitary,
    create_photon,
    make_vacuum,
)

V = Polarization.V
ka, kb = ModeId(0, V), ModeId(1, V)
BS50 = [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
        [math.sin(math.pi / 4), math.cos(math.pi / 4)]]


def show(label, state):
    terms = "  ".join(
        f"|{','.join(map(str, occ))}>: {amp.real:+.4f}{amp.imag:+.4f}j"
        for occ, amp in sorted(state.amplitudes.items())
    )
    print(f"{label:28s} {terms}")


# 1: one photon into port A of a symmetric splitter -> the singlet
state = create_photon(make_vacuum([ka, kb]), ka)
show("photon in mode A", state)
singlet = apply_two_mode_unitary(state, ka, kb, BS50)
show("after 50:50 splitter", singlet)
print("  -> 2**-0.5 (|1,0> - |0,1>): one photon shared by two modes\n")

# 2: two photons, one per port -> they bunch (Hong-Ou-Mandel)
pair = create_photon(create_photon(make_vacuum([ka, kb]), ka), kb)
show("photon in each port", pair)
bunched = apply_two_mode_unitary(pair, ka, kb, BS50)
show("after 50:50 splitter", bunched)
print("  -> the |1,1> amplitude cancels; only |2,0> and |0,2> survive\n")

# 3: the Pockels cell is sigma_z on the vacuum/one-photon qubit
qubit = make_vacuum([ka])._replace({(0,): 0.6, (1,): 0.8})
show("qubit 0.6|0> + 0.8|1>", qubit)
flipped = apply_eop(qubit, ka)
show("armed cell (sigma_z)", flipped)
back = apply_eop(flipped, ka)
show("armed twice", back)
print("  -> sigma_z^2 = 1, which is why one cell suffices to undo the flip")
