"""Optical modes: the (path, polarization) pairs a bench's photons occupy.

Paths are small integers assigned by the bench compiler; polarization orders
H before V, so a bench's canonical mode order (``Bench.modes``) is fixed.  A
vacuum/one-photon qubit is one such mode's {|0>, |1>} Fock subspace.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple


class Polarization(IntEnum):
    H = 0
    V = 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class ModeId(NamedTuple):
    """One optical mode: spatial path index plus polarization."""

    path: int
    pol: Polarization

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.path}{self.pol.name}"
