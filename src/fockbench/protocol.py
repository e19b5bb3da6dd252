"""Complete teleportation trials: passive, active and EOP-inhibited runs.

A trial samples Alice's Bell-measurement clicks, races the feed-forward
chain against the delay line, conditionally applies sigma_z, and finally
samples Bob's verification detectors.  Idle outcomes (no Alice click, or an
Alice click with no Bob click) are discarded the way the bench's coincidence
circuit discards them.

The bench upstream of the detectors is linear optics on two photons, so one
engine composes its single-photon transfer matrices once, and every
two-photon amplitude is a 2x2 permanent of them.  ``click_tables`` turns
these into the exact (Alice, Bob) click-pattern tables of every phase of a
grid, with the cell disarmed and fired, averaging the dephasing phase and
the detectors (``noise.click_table``) in closed form.  ``run_sweep`` mixes
the two tables by the race's arming probability (``timing``) in
``outcome_distribution`` and makes one multinomial draw per phase point: the
cost of a sweep does not grow with the trial count.  ``run_trial`` samples
the same tables one shot at a time, Alice's pattern and then Bob's given
hers, and draws only the race, whose jitter and timestamps its event log
records.  ``analytic_coincidences`` derives the noiseless fringe
independently, by Fock-state projection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .bench import Bench
from .elements import ElementKind, apply_element, phase_shifter, single_photon_matrix
from .errors import BadParam, MalformedInput, ProtocolError
from .fock import FockState, ModeId, Polarization
from .noise import ClickPattern, NoiseModel, click_table
from .timing import EventLog, RaceResult, TimingModel, effective_correction, race

ALICE_DETECTORS = ("D1", "D2")
BOB_DETECTORS = ("D1*", "D2*")
PAIR_NAMES = ("D1-D1*", "D1-D2*", "D2-D1*", "D2-D2*")
CSV_HEADER = "phi_rad,pair,coincidences,trials_kept,trials_total"


class RunMode(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"
    ACTIVE_INHIBITED = "active_eop_inhibited"

    @classmethod
    def parse(cls, text: str) -> "RunMode":
        norm = text.replace("-", "_").lower()
        for m in cls:
            if norm in (m.value, m.name.lower(), m.value.replace("_eop", "")):
                return m
        raise BadParam(f"unknown run mode {text!r}")


class BellOutcome(Enum):
    PSI1_IDLE = "psi1_idle"
    PSI2_IDLE = "psi2_idle"
    PSI3 = "psi3"
    PSI4 = "psi4"

    @property
    def idle(self) -> bool:
        return self in (BellOutcome.PSI1_IDLE, BellOutcome.PSI2_IDLE)


def classify(alice: ClickPattern) -> BellOutcome:
    """Bell outcome from Alice's click pattern alone.

    Exactly one click identifies the one-photon Bell states (D1 -> Psi3,
    D2 -> Psi4); anything else is an unidentifiable idle outcome.
    """
    d1 = alice.clicks.get("D1", False)
    d2 = alice.clicks.get("D2", False)
    if d1 and not d2:
        return BellOutcome.PSI3
    if d2 and not d1:
        return BellOutcome.PSI4
    if d1 and d2:
        return BellOutcome.PSI2_IDLE
    return BellOutcome.PSI1_IDLE


def default_phi_grid(steps: int = 25) -> tuple[float, ...]:
    """``steps`` evenly spaced phases over [0, 2 pi]; a fringe fit needs >= 4."""
    if steps < 4:
        raise BadParam(f"a fringe needs at least 4 phase steps, got {steps}")
    return tuple(np.linspace(0.0, 2.0 * math.pi, steps))


@dataclass(frozen=True)
class RunConfig:
    mode: RunMode = RunMode.PASSIVE
    trials_per_phi: int = 1000
    phi_grid: tuple[float, ...] = default_phi_grid()
    input_theta: float | None = None
    noise: NoiseModel = NoiseModel()
    timing: TimingModel = TimingModel()

    def __post_init__(self):
        if self.trials_per_phi < 1:
            raise BadParam("trials_per_phi must be >= 1")
        if len(self.phi_grid) == 0:
            raise BadParam("phi_grid is empty")
        object.__setattr__(self, "phi_grid", tuple(float(p) for p in self.phi_grid))


@dataclass
class TrialRecord:
    phi: float
    bell: BellOutcome
    alice_clicks: ClickPattern
    bob_clicks: ClickPattern
    corrected: bool
    discarded: bool
    log: EventLog


@dataclass
class FringeData:
    """Per-phase coincidence counts for the four detector pairs."""

    phi_grid: tuple[float, ...]
    counts: dict[str, np.ndarray]
    trials_kept: np.ndarray
    trials_total: np.ndarray

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for i, phi in enumerate(self.phi_grid):
            for pair in PAIR_NAMES:
                lines.append(
                    f"{phi:.17g},{pair},{int(self.counts[pair][i])},"
                    f"{int(self.trials_kept[i])},{int(self.trials_total[i])}"
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "FringeData":
        """Parse ``to_csv`` output; a malformed file raises ``MalformedInput``."""
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != CSV_HEADER:
            raise MalformedInput(f"fringe CSV header is not {CSV_HEADER!r}")
        points: list[tuple[float, dict[str, int], int, int]] = []
        for n, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != 5:
                raise MalformedInput(f"fringe CSV line {n}: want 5 fields, got {len(fields)}")
            phi_s, pair, c, k, t = fields
            if pair not in PAIR_NAMES:
                raise MalformedInput(f"fringe CSV line {n}: unknown pair {pair!r}")
            try:
                phi, c, k, t = float(phi_s), int(c), int(k), int(t)
            except ValueError as exc:
                raise MalformedInput(f"fringe CSV line {n}: {exc}") from None
            if not points or phi != points[-1][0]:
                points.append((phi, {}, k, t))
            _, counts, kept, total = points[-1]
            if pair in counts:
                raise MalformedInput(f"fringe CSV line {n}: {pair} repeated at phi={phi!r}")
            if (k, t) != (kept, total):
                raise MalformedInput(f"fringe CSV line {n}: trials_kept/trials_total "
                                     f"disagree with the other rows at phi={phi!r}")
            counts[pair] = c
        for phi, counts, _, _ in points:
            if len(counts) != len(PAIR_NAMES):
                missing = sorted(set(PAIR_NAMES) - set(counts))
                raise MalformedInput(f"fringe CSV: phi={phi!r} lacks pairs {missing}")
        return cls(
            tuple(p[0] for p in points),
            {pair: np.array([p[1][pair] for p in points], dtype=np.int64)
             for pair in PAIR_NAMES},
            np.array([p[2] for p in points], dtype=np.int64),
            np.array([p[3] for p in points], dtype=np.int64),
        )


@dataclass(frozen=True)
class AnalyticCoincidences:
    """Exact post-selected pair probabilities and the coincidence yield."""

    pairs: dict[str, float]
    p_coincidence: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Order (D1-D2*, D1-D1*, D2-D2*, D2-D1*)."""
        p = self.pairs
        return (p["D1-D2*"], p["D1-D1*"], p["D2-D2*"], p["D2-D1*"])


def phase_from_position(x_meters: float, lambda_meters: float) -> float:
    """Mirror position to interference phase: phi = pi * x * 2**1.5 / lambda."""
    if lambda_meters <= 0:
        raise BadParam("wavelength must be positive")
    return math.pi * x_meters * 2.0**1.5 / lambda_meters


def position_from_phase(phi: float, lambda_meters: float) -> float:
    if lambda_meters <= 0:
        raise BadParam("wavelength must be positive")
    return phi * lambda_meters / (math.pi * 2.0**1.5)


@dataclass(frozen=True)
class QubitSpec:
    """Input qubit alpha|0> + beta|1> on the teleported mode."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n - 1.0) > 1e-12:
            raise BadParam(f"|alpha|^2 + |beta|^2 = {n}, want 1")

    def bench_settings(self) -> tuple[float, float]:
        """(splitter theta, knob phase offset) preparing this qubit.

        The preparation splitter leaves cos(theta) amplitude on the
        one-photon branch and sin(theta) on the vacuum (ancilla) branch, so
        theta = atan2(|alpha|, |beta|); the knob adds the relative phase
        arg(beta) - arg(alpha) onto the photon branch.
        """
        theta = math.atan2(abs(self.alpha), abs(self.beta))
        phase = cmath.phase(self.beta) - cmath.phase(self.alpha) if self.alpha else 0.0
        return theta, phase


# ----------------------------------------------------------------------
# engine


def _prepared_state(bench: Bench) -> FockState:
    st = fock.make_vacuum(bench.modes)
    for m in bench.sources:
        st = fock.create_photon(st, m)
    return st


def _require_protocol_bench(bench: Bench) -> int:
    names = set(bench.detectors)
    missing = [d for d in ALICE_DETECTORS + BOB_DETECTORS if d not in names]
    if missing:
        raise ProtocolError(f"protocol needs detectors D1, D2, D1*, D2*; missing {missing}")
    eop = [i for i, e in enumerate(bench.pipeline) if e.kind is ElementKind.POCKELS_CELL]
    if len(eop) != 1:
        raise ProtocolError(f"protocol needs exactly one Pockels cell, got {len(eop)}")
    cell = eop[0]
    if not 0 <= bench.knob_index < cell:
        raise ProtocolError("protocol needs exactly one phase knob, before the Pockels cell")
    alice_modes = {bench.detectors[d] for d in ALICE_DETECTORS}
    for e in bench.pipeline[cell + 1 :]:
        for act in e.actions:
            if alice_modes & set(act.modes):
                raise ProtocolError(
                    "an element after the Pockels cell touches Alice's detectors"
                )
    return cell


class _TransferEngine:
    """The bench as composed single-photon transfer matrices, for any phase.

    Everything upstream of the detectors is linear optics on the two source
    photons, so every output amplitude is a 2x2 permanent of the composed
    single-photon matrix (rows: input modes, columns: output modes; see S.
    Scheel, quant-ph/0406127).  The knob phase is the only part of that
    matrix that varies across a sweep, so the matrices before the knob,
    from the knob to the Pockels cell and after the cell are composed once.
    """

    def __init__(self, bench: Bench):
        self.bench = bench
        eop = _require_protocol_bench(bench)
        knob = bench.knob_index
        modes = bench.modes
        idx = {m: i for i, m in enumerate(modes)}
        sources = [idx[m] for m in bench.sources]
        if len(sources) != 2 or sources[0] == sources[1]:
            raise ProtocolError("protocol needs two photon sources on distinct modes")

        def compose(elements) -> np.ndarray:
            mat = np.eye(len(modes), dtype=complex)
            for e in elements:
                mat = mat @ single_photon_matrix(e, modes)
            return mat

        self.before_knob = compose(bench.pipeline[:knob])[sources]  # (2, n)
        knob_path = bench.pipeline[knob].paths[0]
        self.knob_modes = np.array([float(m.path == knob_path) for m in modes])
        self.to_cell = compose(bench.pipeline[knob + 1 : eop])
        self.after_cell = compose(bench.pipeline[eop + 1 :])
        self.channel = idx[ModeId(bench.pipeline[eop].paths[0], Polarization.V)]

        # one photon in mode j and one in k land in cell c[j] + c[k] of the
        # flattened (Alice counts) x (Bob counts) table, both indexed as
        # n1 + 3 * n2 over (D1, D2) and (D1*, D2*)
        det = {d: np.array([m == bench.detectors[d] for m in modes], dtype=np.int64)
               for d in ALICE_DETECTORS + BOB_DETECTORS}
        c = 9 * (det["D1"] + 3 * det["D2"]) + det["D1*"] + 3 * det["D2*"]
        self.to_counts = np.eye(81)[np.add.outer(c, c).ravel()]  # (n * n, 81)

    def at_cell(self, phis) -> np.ndarray:
        """(P, 2, n): each source photon's amplitudes just before the cell."""
        knob = np.exp(1j * np.multiply.outer(np.asarray(phis, dtype=float), self.knob_modes))
        return (self.before_knob * knob[:, None, :]) @ self.to_cell

    def count_tables(self, phis, sigma: float = 0.0, theta: float = 0.0) -> np.ndarray:
        """(2, P, 9, 9) joint photon counts, cell disarmed ([0]) and fired ([1]).

        Rows index Alice's counts n(D1) + 3 n(D2), columns Bob's n(D1*) +
        3 n(D2*).  The channel phase is theta; ``sigma`` > 0 averages a
        further t ~ N(0, sigma^2) exactly.  Split at the cell's V mode, the
        two-photon amplitude is S0 + e^{it} S1 + e^{2it} S2 (S1 changes sign
        when the cell fires), so E[e^{it}] = exp(-sigma^2 / 2) damps the
        S1 cross terms and E[e^{2it}] = exp(-2 sigma^2) the S0-S2 one.
        """
        u = self.at_cell(phis)
        ch = self.channel
        rest = u.copy()
        rest[..., ch] = 0.0
        m0 = rest @ self.after_cell  # every path but the one through the channel mode
        mc = (u[..., ch, None] * np.exp(1j * theta)) * self.after_cell[ch]

        def outer(x, y):  # photon 1 to j, photon 2 to k; plus its transpose: the permanent
            return x[:, 0, :, None] * y[:, 1, None, :]

        s0, s1, s2 = (r + r.swapaxes(-1, -2) for r in
                      (outer(m0, m0), outer(m0, mc) + outer(mc, m0), outer(mc, mc)))
        even = (abs(s0) ** 2 + abs(s1) ** 2 + abs(s2) ** 2
                + 2.0 * math.exp(-2.0 * sigma**2) * (s0 * s2.conj()).real)
        odd = 2.0 * math.exp(-0.5 * sigma**2) * ((s0 + s2) * s1.conj()).real
        # an ordered output pair (j, k) carries |S[j, k]|^2 / 2
        pairs = 0.5 * np.stack([even + odd, even - odd])
        return (pairs.reshape(2, len(u), -1) @ self.to_counts).reshape(2, len(u), 9, 9)


def click_tables(eng: _TransferEngine, phis, noise: NoiseModel) -> np.ndarray:
    """(2, P, 4, 4) exact (Alice, Bob) click-pattern probabilities at each
    phase, cell disarmed ([0]) and fired ([1]).

    Rows index Alice's pattern and columns Bob's, both as click1 + 2 * click2
    over (D1, D2) and (D1*, D2*); each table sums to 1.  The dephasing phase
    and the detectors are averaged out in closed form.  Firing the cell acts
    on Bob's side only, so both tables have the same row sums.
    """
    clicks = click_table(noise)
    return clicks.T @ eng.count_tables(phis, noise.dephasing_sigma) @ clicks


def outcome_distribution(eng: _TransferEngine, cfg: RunConfig) -> np.ndarray:
    """Exact (P, 4, 4) probability of every (Alice, Bob) click pattern at
    each phase of ``cfg.phi_grid``, indexed as in ``click_tables``.

    The jittered race is averaged out too.  The coincidence circuit keeps
    rows 1-2 (exactly one Alice click: the D1 or D2 trigger) and columns 1-3
    (any Bob click).
    """
    p_arm = 0.0
    if cfg.mode is RunMode.ACTIVE:
        p_arm = cfg.timing.arming_probability(eng.bench.delay_m)
    unfired, fired = click_tables(eng, cfg.phi_grid, cfg.noise)
    # only a lone D2 trigger (row 2) fires the cell
    unfired[:, 2] += p_arm * (fired[:, 2] - unfired[:, 2])
    return unfired


def _draw(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)


def _clicks(names: tuple[str, str], pattern: int, t_ns: float) -> ClickPattern:
    """The click pattern with index click1 + 2 * click2 over ``names``."""
    hits = {name: bool(pattern >> i & 1) for i, name in enumerate(names)}
    return ClickPattern(hits, {name: t_ns for name, hit in hits.items() if hit})


def run_trial(
    bench: Bench, phi: float, cfg: RunConfig, rng: np.random.Generator,
    engine: _TransferEngine | None = None,
) -> TrialRecord:
    """One complete shot through the protocol, with the full event log."""
    if cfg.input_theta is not None:
        bench = bench.with_input_theta(cfg.input_theta)
    eng = engine if engine is not None else _TransferEngine(bench)
    unfired, fired_table = click_tables(eng, (phi,), cfg.noise)[:, 0]

    # Alice's Bell measurement
    alice = _draw(np.cumsum(unfired.sum(axis=1)), rng.random())
    alice_clicks = _clicks(ALICE_DETECTORS, alice, 0.0)
    bell = classify(alice_clicks)
    trigger = alice_clicks.exactly_one()

    # feed-forward race, only meaningful when the chain can fire
    log = EventLog()
    log.add(0.0, "PhotonEmitted")
    for name, t in sorted(alice_clicks.timestamps_ns.items()):
        log.add(t, "AliceClick", name)
    armed = False
    fired = False
    if cfg.mode is RunMode.ACTIVE and trigger == "D2":
        rr: RaceResult = race(0.0, cfg.timing, bench.delay_m, rng)
        for event in rr.log.events:
            if event.kind not in ("PhotonEmitted", "AliceClick"):
                log.add(event.t_ns, event.kind, event.detail)
        log = log.sorted()
        armed = rr.armed_in_time
        fired = effective_correction(trigger, armed)

    # Bob's side given Alice's pattern, after the conditional sigma_z
    bob = _draw(np.cumsum((fired_table if fired else unfired)[alice]), rng.random())
    bob_clicks = _clicks(BOB_DETECTORS, bob, bench.delay_m * cfg.timing.delay_ns_per_m)

    # the coincidence circuit also discards Alice clicks without a Bob click
    if not bell.idle and not any(bob_clicks.clicks.values()):
        bell = BellOutcome.PSI2_IDLE
        fired = False
    corrected = fired and bell is BellOutcome.PSI4
    return TrialRecord(phi, bell, alice_clicks, bob_clicks, corrected,
                       bell.idle, log)


def run_sweep(
    bench: Bench, cfg: RunConfig, seed: int = 0, workers: int = 1
) -> FringeData:
    """Accumulate coincidence counts over the phase grid.

    The exact outcome tables of the whole grid come from one batched pass;
    each phase point's trials are then one multinomial draw from its own
    child stream of ``seed``.  ``workers`` must be >= 1 and has no effect:
    there is no per-point work left to spread over processes.
    """
    if workers < 1:
        raise BadParam(f"workers must be >= 1, got {workers}")
    if cfg.input_theta is not None:
        bench = bench.with_input_theta(cfg.input_theta)
    grid = cfg.phi_grid
    tables = outcome_distribution(_TransferEngine(bench), cfg)
    # (D1, D2 trigger) x (Bob D1* only, D2* only, both)
    cells = np.maximum(tables[:, 1:3, 1:], 0.0).reshape(len(grid), 6)
    draws = np.zeros((len(grid), 2, 3), dtype=np.int64)
    for i, s in enumerate(np.random.SeedSequence(seed).spawn(len(grid))):
        p = np.append(cells[i], 1.0 - cells[i].sum())  # last: discarded
        rng = np.random.Generator(np.random.PCG64(s))
        draws[i] = rng.multinomial(cfg.trials_per_phi, p)[:-1].reshape(2, 3)
    # a both-clicks trial counts toward both of its trigger's pairs
    pairs = (draws[:, :, :2] + draws[:, :, 2:]).reshape(len(grid), 4)
    counts = {pair: pairs[:, j] for j, pair in enumerate(PAIR_NAMES)}
    kept = draws.sum(axis=(1, 2))
    total = np.full(len(grid), cfg.trials_per_phi, dtype=np.int64)
    return FringeData(tuple(grid), counts, kept, total)


def analytic_coincidences(bench: Bench, phi: float) -> AnalyticCoincidences:
    """Exact post-selected pair probabilities via Fock projection, no sampling.

    The Pockels cell stays disarmed, matching the bench's closed-form
    description of the uncorrected coincidence fringes.
    """
    st = _prepared_state(bench)
    for e in bench.pipeline:
        if e.is_knob:
            e = phase_shifter(e.paths[0], phi, knob=True)
        st = apply_element(st, e)
    det = bench.detectors
    raw: dict[str, float] = {}
    for ai in ALICE_DETECTORS:
        for bj in BOB_DETECTORS:
            pattern = {det[d]: 0 for d in ALICE_DETECTORS + BOB_DETECTORS}
            pattern[det[ai]] = 1
            pattern[det[bj]] = 1
            raw[f"{ai}-{bj}"] = fock.partial_probability(st, pattern)
    total = sum(raw.values())
    if total <= 0:
        raise ProtocolError("no coincidence amplitude at this phase")
    return AnalyticCoincidences({k: v / total for k, v in raw.items()}, total)
