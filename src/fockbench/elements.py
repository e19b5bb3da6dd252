"""Optical bench components compiled to one primitive action.

Every lossless linear-optics element is a product of 2x2 unitaries on mode
pairs (Reck, Zeilinger, Bernstein & Bertani, PRL 73, 58 (1994)), so each
element here compiles to a short list of them: a splitter's rotation, a
path phase as diag(e^{i phi}, e^{i phi}) on the path's (H, V) pair, a
polarizing splitter's four mode swaps, a wave plate's Jones matrix.
``_carry_rows`` carries single-photon amplitude rows through them, touching
only the two modes of each action; those rows are the protocol's two
photons (``Bench.photon_rows``) behind its count tables.  A Pockels cell
has no actions: whether it fires is decided per trial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParam, FockbenchError
from .fock import ModeId, Polarization

H, V = Polarization.H, Polarization.V


class ElementKind(Enum):
    BEAM_SPLITTER = "bs"
    PHASE_SHIFTER = "phase"
    POCKELS_CELL = "eop"
    POLARIZING_BS = "pbs"
    QUARTER_WAVE_PLATE = "qwp"
    DELAY_LINE = "delay"


@dataclass(frozen=True)
class Action:
    """The one primitive: the 2x2 unitary ``matrix`` (row-major, complex) on
    the distinct mode pair ``modes``; it sends a photon in ``modes[k]`` to
    ``matrix[k][0]`` of ``modes[0]`` plus ``matrix[k][1]`` of ``modes[1]``."""

    modes: tuple[ModeId, ModeId]
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class Element:
    kind: ElementKind
    paths: tuple[int, ...]
    params: tuple = ()
    is_knob: bool = False
    actions: tuple[Action, ...] = ()


def _u2(m1: ModeId, m2: ModeId, u: np.ndarray) -> Action:
    return Action((m1, m2), tuple(tuple(complex(x) for x in row) for row in u))


def _rot(x: float) -> np.ndarray:
    c, s = math.cos(x), math.sin(x)
    return np.array([[c, -s], [s, c]], dtype=complex)


def beam_splitter(path_a: int, path_b: int, theta: float) -> Element:
    """Non-polarizing splitter: the same rotation on the H pair and V pair.

    ``u = [[cos t, -sin t], [sin t, cos t]]``; a photon entering path_a of a
    45-degree splitter exits as ``2**-0.5 (|1,0> - |0,1>)``.
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise BadParam(f"beam splitter theta {theta} outside [0, pi/2]")
    if path_a == path_b:
        raise FockbenchError("beam splitter needs two distinct paths")
    u = _rot(theta)
    acts = tuple(_u2(ModeId(path_a, pol), ModeId(path_b, pol), u) for pol in (H, V))
    return Element(ElementKind.BEAM_SPLITTER, (path_a, path_b), (theta,), actions=acts)


def phase_shifter(path: int, phi: float = 0.0, knob: bool = False) -> Element:
    """Path-length phase: both polarizations of the path get exp(i phi n)."""
    z = cmath.exp(1j * phi)
    act = Action((ModeId(path, H), ModeId(path, V)), ((z, 0j), (0j, z)))
    return Element(ElementKind.PHASE_SHIFTER, (path,), (phi,), knob, (act,))


def polarizing_bs(path_in_1: int, path_in_2: int, path_out_1: int, path_out_2: int) -> Element:
    """H transmits (in1->out1, in2->out2), V reflects (in1->out2, in2->out1)."""
    paths = (path_in_1, path_in_2, path_out_1, path_out_2)
    if len(set(paths)) != 4:
        raise FockbenchError(f"polarizing splitter paths collide: {paths}")
    swap = ((0j, 1 + 0j), (1 + 0j, 0j))
    pairs = ((path_in_1, path_out_1, H), (path_in_2, path_out_2, H),
             (path_in_1, path_out_2, V), (path_in_2, path_out_1, V))
    acts = tuple(Action((ModeId(a, pol), ModeId(b, pol)), swap) for a, b, pol in pairs)
    return Element(ElementKind.POLARIZING_BS, paths, actions=acts)


def quarter_wave_plate(path: int, angle: float) -> Element:
    """Standard quarter-wave Jones unitary, fast axis at ``angle`` to H.

    ``Q(a) = R(a) diag(1, i) R(-a)``; at angle 0 this is diag(1, i).
    """
    q = _rot(angle) @ np.diag([1.0, 1j]) @ _rot(-angle)
    act = _u2(ModeId(path, H), ModeId(path, V), q)
    return Element(ElementKind.QUARTER_WAVE_PLATE, (path,), (angle,), actions=(act,))


def pockels_cell(path: int) -> Element:
    """V-only half-wave switch; the armed/disarmed decision is made per trial."""
    return Element(ElementKind.POCKELS_CELL, (path,))


def delay_line(path: int, length_m: float) -> Element:
    """No amplitude change; contributes length * ns_per_m to the timing race."""
    if not math.isfinite(length_m):
        raise BadParam(f"delay length {length_m} m must be finite")
    if length_m <= 0:
        raise BadParam(f"delay length {length_m} m must be positive")
    return Element(ElementKind.DELAY_LINE, (path,), (length_m,))


def _carry_rows(rows: list[list[complex]], elements, idx: dict[ModeId, int]) -> None:
    """Carry single-photon amplitude rows through a run of elements, in place.

    Each row holds one photon's amplitude in every mode (``idx`` maps a mode
    to its position), and each action updates only the entries of its two
    modes.  A Pockels cell has no actions, so it leaves the rows unchanged:
    its sigma_z is decided per trial.
    """
    for e in elements:
        for act in e.actions:
            i1, i2 = idx[act.modes[0]], idx[act.modes[1]]
            (a, b), (c, d) = act.matrix
            for r in rows:
                x1, x2 = r[i1], r[i2]
                r[i1], r[i2] = a * x1 + c * x2, b * x1 + d * x2
