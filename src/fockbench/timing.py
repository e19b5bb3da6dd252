"""Discrete-event model of the classical feed-forward chain.

A detector click launches the amplifier/avalanche chain; the high voltage is
ready one risetime (plus jitter) later.  Meanwhile the photon flies down the
delay line.  The correction lands only if the voltage is ready before the
photon reaches the cell.  The stock bench: 22 ns risetime against an 8 m
line at 3.0 ns/m, i.e. 24 ns of grace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam

PHOTON_EMITTED = "PhotonEmitted"
ALICE_CLICK = "AliceClick"
HV_READY = "HvReady"
PHOTON_AT_EOP = "PhotonAtEop"
EOP_APPLIED = "EopApplied"
EOP_MISSED = "EopMissed"


@dataclass(frozen=True)
class TimingModel:
    risetime_ns: float = 22.0
    delay_ns_per_m: float = 3.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        for name in ("risetime_ns", "delay_ns_per_m", "jitter_sigma_ns"):
            if not 0 <= getattr(self, name) < math.inf:
                raise BadParam(f"{name} must be finite and >= 0")

    def arming_probability(self, delay_m: float) -> float:
        """Chance that ``race`` arms the cell for a photon emitted at the click.

        The cell is armed iff risetime + jitter <= delay_m * ns_per_m:
        Phi(slack / sigma_j) with jitter, and without it a step that arms at
        zero slack.
        """
        deadline = delay_m * self.delay_ns_per_m
        if self.jitter_sigma_ns == 0:
            return float(self.risetime_ns <= deadline)
        z = (deadline - self.risetime_ns) / self.jitter_sigma_ns
        return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class Event:
    t_ns: float
    kind: str
    detail: str = ""


@dataclass
class EventLog:
    events: list[Event] = field(default_factory=list)

    def add(self, t_ns: float, kind: str, detail: str = "") -> None:
        self.events.append(Event(t_ns, kind, detail))

    def sorted(self) -> "EventLog":
        return EventLog(sorted(self.events, key=lambda e: e.t_ns))

    def to_csv(self) -> str:
        lines = ["timestamp_ns,event,detail"]
        for e in self.events:
            lines.append(f"{e.t_ns:.6f},{e.kind},{e.detail}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RaceResult:
    armed_in_time: bool
    hv_ready_ns: float
    photon_at_eop_ns: float
    jitter_ns: float

    @property
    def log(self) -> EventLog:
        hv_ready, photon_at_eop = self.hv_ready_ns, self.photon_at_eop_ns
        log = EventLog()
        log.add(0.0, PHOTON_EMITTED)
        log.add(0.0, ALICE_CLICK)
        log.add(hv_ready, HV_READY, f"jitter={self.jitter_ns:.3f}")
        log.add(photon_at_eop, PHOTON_AT_EOP)
        if self.armed_in_time:
            log.add(photon_at_eop, EOP_APPLIED)
        else:
            log.add(hv_ready, EOP_MISSED, f"late by {hv_ready - photon_at_eop:.3f} ns")
        return log.sorted()


def race(
    timing: TimingModel, delay_length_m: float, rng: np.random.Generator | None = None
) -> RaceResult:
    """Race the HV chain against the photon's flight down the delay line.

    The photon is emitted, and Alice's detector clicks, at t = 0.
    armed_in_time iff risetime + jitter <= length * ns_per_m.  The result's
    log, built when it is read, records every event in time order.
    """
    jitter = 0.0
    if timing.jitter_sigma_ns > 0:
        if rng is None:
            raise BadParam("jittered race needs an rng")
        jitter = float(rng.normal(0.0, timing.jitter_sigma_ns))
    hv_ready = timing.risetime_ns + jitter
    photon_at_eop = delay_length_m * timing.delay_ns_per_m
    return RaceResult(hv_ready <= photon_at_eop, hv_ready, photon_at_eop, jitter)
