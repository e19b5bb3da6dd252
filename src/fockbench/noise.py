"""Detector and channel noise: the model's knobs and the detector rule.

Nothing here draws random numbers.  ``click_table`` gives the exact click
probabilities of a detector pair for every photon count, and each
``NoiseModel`` builds it once (``NoiseModel.clicks``); the sweep averages it
into each phase point's outcome table, and ``run_trial`` samples the same
tables one shot at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCalibration, BadParam


@dataclass(frozen=True)
class NoiseModel:
    """Detector and channel noise knobs.

    qe: per-photon detection probability (the bench detectors are ~0.45).
    dephasing_sigma: std-dev in radians of the Gaussian phase kicked onto
        the nonlocal channel's delay-line branch each trial.
    dark_count_prob: per-detector per-trial false-click probability.
    """

    qe: float = 1.0
    dephasing_sigma: float = 0.0
    dark_count_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.qe <= 1.0:
            raise BadParam(f"qe {self.qe} outside [0, 1]")
        if not 0.0 <= self.dephasing_sigma < math.inf:
            raise BadParam(f"dephasing sigma {self.dephasing_sigma} must be finite and >= 0")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise BadParam(f"dark count prob {self.dark_count_prob} outside [0, 1)")

    @functools.cached_property
    def clicks(self) -> np.ndarray:
        """``click_table`` of this model, built on first use and read-only,
        since every sweep and shot with the model reads the same array."""
        table = click_table(self)
        table.flags.writeable = False
        return table


@dataclass
class ClickPattern:
    """Which detectors clicked, and when (ns); timestamps iff clicked."""

    clicks: dict[str, bool] = field(default_factory=dict)
    timestamps_ns: dict[str, float] = field(default_factory=dict)

    def clicked(self) -> list[str]:
        return [name for name, hit in self.clicks.items() if hit]


def click_table(noise: NoiseModel) -> np.ndarray:
    """(9, 4) click-pattern probabilities of a detector pair per photon count.

    Rows index the photons at the pair as n1 + 3 * n2 (0-2 each), columns
    the pattern click1 + 2 * click2.  A non-number-resolving detector fires
    when at least one of its n photons registers, each with probability qe,
    or a dark count fires; the two detectors fire independently.
    """
    registers = 1.0 - (1.0 - noise.qe) ** np.arange(3)
    fires = 1.0 - (1.0 - registers) * (1.0 - noise.dark_count_prob)
    one = np.stack([1.0 - fires, fires], axis=-1)  # (photons, click) per detector
    return (one[:, None, :, None] * one[None, :, None, :]).reshape(9, 4)


def calibrate_sigma(v_in: float, v_out: float) -> float:
    """Dephasing sigma that degrades visibility v_in to v_out.

    From E[exp(i theta)] = exp(-sigma^2/2): sigma = sqrt(2 ln(v_in/v_out)).
    """
    if not (0.0 < v_out <= v_in <= 1.0):
        raise BadCalibration(f"need 0 < v_out <= v_in <= 1, got {v_in}, {v_out}")
    return math.sqrt(2.0 * math.log(v_in / v_out))
