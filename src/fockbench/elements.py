"""Optical bench components reducible to primitive actions.

Every element compiles to a short list of primitive actions: a 2x2 unitary
on a mode pair, a per-mode phase, or a mode permutation.  ``_carry_rows``
carries single-photon amplitude rows through them, touching only the modes
each action acts on; those rows are the protocol's two photons
(``Bench.photon_rows``) behind its count tables.  A Pockels cell has no
actions: whether it fires is decided per trial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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
    """One primitive: kind is 'u2', 'phase' or 'perm'."""

    kind: str
    modes: tuple[ModeId, ...]
    matrix: tuple = ()  # row-major 2x2 for 'u2', (phi,) for 'phase'
    mapping: tuple = ()  # ((src, dst), ...) for 'perm'


@dataclass(frozen=True)
class Element:
    kind: ElementKind
    paths: tuple[int, ...]
    params: tuple = ()
    is_knob: bool = False
    actions: tuple[Action, ...] = field(default=(), compare=True)


def _u2(m1: ModeId, m2: ModeId, u: np.ndarray) -> Action:
    rows = tuple(tuple(complex(x) for x in row) for row in u)
    return Action("u2", (m1, m2), matrix=rows)


def beam_splitter(path_a: int, path_b: int, theta: float) -> Element:
    """Non-polarizing splitter: the same rotation on the H pair and V pair.

    ``u = [[cos t, -sin t], [sin t, cos t]]``; a photon entering path_a of a
    45-degree splitter exits as ``2**-0.5 (|1,0> - |0,1>)``.
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise BadParam(f"beam splitter theta {theta} outside [0, pi/2]")
    if path_a == path_b:
        raise FockbenchError("beam splitter needs two distinct paths")
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    acts = (
        _u2(ModeId(path_a, H), ModeId(path_b, H), u),
        _u2(ModeId(path_a, V), ModeId(path_b, V), u),
    )
    return Element(ElementKind.BEAM_SPLITTER, (path_a, path_b), (theta,), actions=acts)


def phase_shifter(path: int, phi: float = 0.0, knob: bool = False) -> Element:
    """Path-length phase: both polarizations of the path get exp(i phi n)."""
    acts = (
        Action("phase", (ModeId(path, H),), matrix=(phi,)),
        Action("phase", (ModeId(path, V),), matrix=(phi,)),
    )
    return Element(ElementKind.PHASE_SHIFTER, (path,), (phi,), knob, acts)


def polarizing_bs(path_in_1: int, path_in_2: int, path_out_1: int, path_out_2: int) -> Element:
    """H transmits (in1->out1, in2->out2), V reflects (in1->out2, in2->out1)."""
    paths = (path_in_1, path_in_2, path_out_1, path_out_2)
    if len(set(paths)) != 4:
        raise FockbenchError(f"polarizing splitter paths collide: {paths}")
    mapping = (
        (ModeId(path_in_1, H), ModeId(path_out_1, H)),
        (ModeId(path_out_1, H), ModeId(path_in_1, H)),
        (ModeId(path_in_2, H), ModeId(path_out_2, H)),
        (ModeId(path_out_2, H), ModeId(path_in_2, H)),
        (ModeId(path_in_1, V), ModeId(path_out_2, V)),
        (ModeId(path_out_2, V), ModeId(path_in_1, V)),
        (ModeId(path_in_2, V), ModeId(path_out_1, V)),
        (ModeId(path_out_1, V), ModeId(path_in_2, V)),
    )
    act = Action("perm", tuple(m for m, _ in mapping), mapping=mapping)
    return Element(ElementKind.POLARIZING_BS, paths, actions=(act,))


def _rot(x: float) -> np.ndarray:
    c, s = math.cos(x), math.sin(x)
    return np.array([[c, -s], [s, c]], dtype=complex)


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
    to its position), and each action updates only the entries of the modes
    it touches.  A Pockels cell has no actions, so it leaves the rows
    unchanged: its sigma_z is decided per trial.
    """
    for e in elements:
        for act in e.actions:
            if act.kind == "u2":
                i1, i2 = idx[act.modes[0]], idx[act.modes[1]]
                (a, b), (c, d) = act.matrix
                for r in rows:
                    x1, x2 = r[i1], r[i2]
                    r[i1], r[i2] = a * x1 + c * x2, b * x1 + d * x2
            elif act.kind == "phase":
                i, z = idx[act.modes[0]], cmath.exp(1j * act.matrix[0])
                for r in rows:
                    r[i] *= z
            elif act.kind == "perm":
                src = [idx[m] for m, _ in act.mapping]
                dst = [idx[m] for _, m in act.mapping]
                for r in rows:
                    for j, x in zip(dst, [r[i] for i in src]):
                        r[j] = x
