"""Complete teleportation trials: passive, active and EOP-inhibited runs.

A trial propagates the two-photon state through the bench up to the Pockels
cell, samples Alice's Bell-measurement clicks, races the feed-forward chain
against the delay line, conditionally applies sigma_z, and finally samples
Bob's verification detectors.  Idle outcomes (no Alice click, or an Alice
click with no Bob click) are discarded the way the bench's coincidence
circuit discards them.

``run_sweep`` accumulates coincidence counts over a phase grid.  It
propagates the Fock state once per phase point, collapses it onto each
possible Alice outcome, and caches the exact linear response of Bob's
remaining optics.  Every noise source then has a closed-form average, so
``outcome_distribution`` gives the exact probability of each click pattern
and a phase point's trials are one multinomial draw: the cost of a sweep
does not grow with the trial count.  ``run_trial`` walks the same physics
one shot at a time, sampling each noise source, and returns a full record
with the event log.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .bench import Bench
from .elements import ElementKind, apply_element, phase_shifter
from .errors import BadParam, ProtocolError
from .fock import FockState, ModeId, Polarization
from .noise import ClickPattern, NoiseModel, click_probability, thin_by_efficiency
from .timing import EventLog, RaceResult, TimingModel, effective_correction, race

ALICE_DETECTORS = ("D1", "D2")
BOB_DETECTORS = ("D1*", "D2*")
PAIR_NAMES = ("D1-D1*", "D1-D2*", "D2-D1*", "D2-D2*")


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


@dataclass(frozen=True)
class RunConfig:
    mode: RunMode = RunMode.PASSIVE
    trials_per_phi: int = 1000
    phi_grid: tuple[float, ...] = ()
    input_theta: float | None = None
    noise: NoiseModel = NoiseModel()
    timing: TimingModel = TimingModel()

    def __post_init__(self):
        if self.trials_per_phi < 1:
            raise BadParam("trials_per_phi must be >= 1")
        grid = self.phi_grid or default_phi_grid()
        object.__setattr__(self, "phi_grid", tuple(float(p) for p in grid))


def default_phi_grid(steps: int = 25) -> tuple[float, ...]:
    return tuple(np.linspace(0.0, 2.0 * math.pi, steps))


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
        lines = ["phi_rad,pair,coincidences,trials_kept,trials_total"]
        for i, phi in enumerate(self.phi_grid):
            for pair in PAIR_NAMES:
                lines.append(
                    f"{phi:.17g},{pair},{int(self.counts[pair][i])},"
                    f"{int(self.trials_kept[i])},{int(self.trials_total[i])}"
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "FringeData":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        grid: list[float] = []
        counts: dict[str, list[int]] = {p: [] for p in PAIR_NAMES}
        kept: list[int] = []
        total: list[int] = []
        for phi_s, pair, c, k, t in rows:
            phi = float(phi_s)
            if not grid or phi != grid[-1]:
                grid.append(phi)
                kept.append(int(k))
                total.append(int(t))
            counts[pair].append(int(c))
        return cls(
            tuple(grid),
            {p: np.array(v, dtype=np.int64) for p, v in counts.items()},
            np.array(kept, dtype=np.int64),
            np.array(total, dtype=np.int64),
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
    if not eop:
        raise ProtocolError("protocol needs a Pockels cell in the pipeline")
    if bench.knob_index < 0:
        raise ProtocolError("protocol needs exactly one phase knob")
    first = eop[0]
    alice_modes = {bench.detectors[d] for d in ALICE_DETECTORS}
    for e in bench.pipeline[first:]:
        if e.kind is ElementKind.POCKELS_CELL:
            continue
        for act in e.actions:
            if alice_modes & set(act.modes):
                raise ProtocolError(
                    "an element after the Pockels cell touches Alice's detectors"
                )
    return first


@dataclass
class _AliceBranch:
    """One possible Alice outcome and Bob's exact linear response to it."""

    pattern: tuple[int, int]  # photons at (D1, D2)
    prob: float
    collapsed: FockState
    in_basis: list[tuple[int, ...]]
    c_in: np.ndarray  # (k,) collapsed amplitudes
    n_channel: np.ndarray  # (k,) occupation of the cell's V mode per entry
    response: np.ndarray  # (m, k) propagation of unit entries past the cell
    out_patterns: list[tuple[int, int]]  # photons at (D1*, D2*) per out row group
    group_of_row: np.ndarray  # (m,) out row -> pattern group index


class _PhiEngine:
    """Exact propagation at one knob setting, cached for reuse across trials."""

    def __init__(self, bench: Bench, phi: float):
        self.bench = bench
        self.phi = float(phi)
        self.eop_index = _require_protocol_bench(bench)
        eop_path = bench.pipeline[self.eop_index].paths[0]
        self.channel_mode = ModeId(eop_path, Polarization.V)
        self.alice_modes = [bench.detectors[d] for d in ALICE_DETECTORS]
        self.bob_modes = [bench.detectors[d] for d in BOB_DETECTORS]

        st = _prepared_state(bench)
        for e in bench.pipeline[: self.eop_index]:
            if e.is_knob:
                e = phase_shifter(e.paths[0], self.phi, knob=True)
            st = apply_element(st, e)
        self.paused = st
        self.branches = [
            self._make_branch(pattern, prob)
            for pattern, prob in self._alice_marginal().items()
        ]
        self.alice_probs = np.array([b.prob for b in self.branches])

    def _alice_marginal(self) -> dict[tuple[int, int], float]:
        i1 = self.paused.index_of(self.alice_modes[0])
        i2 = self.paused.index_of(self.alice_modes[1])
        out: dict[tuple[int, int], float] = {}
        for occ, amp in self.paused.amplitudes.items():
            key = (occ[i1], occ[i2])
            out[key] = out.get(key, 0.0) + abs(amp) ** 2
        return dict(sorted(out.items()))

    def _make_branch(self, pattern: tuple[int, int], prob: float) -> _AliceBranch:
        collapsed, _ = fock.project(
            self.paused,
            {self.alice_modes[0]: pattern[0], self.alice_modes[1]: pattern[1]},
        )
        in_basis = sorted(collapsed.amplitudes)
        c_in = np.array([collapsed.amplitudes[occ] for occ in in_basis])
        ch = collapsed.index_of(self.channel_mode)
        n_channel = np.array([occ[ch] for occ in in_basis], dtype=np.int64)

        tail = self.bench.pipeline[self.eop_index + 1 :]
        out_basis: list[tuple[int, ...]] = []
        out_index: dict[tuple[int, ...], int] = {}
        columns: list[dict[int, complex]] = []
        for occ in in_basis:
            unit = FockState(collapsed.modes, {occ: 1.0 + 0j},
                             collapsed.max_per_mode, collapsed.max_total)
            for e in tail:
                unit = apply_element(unit, e)
            col: dict[int, complex] = {}
            for o, a in unit.amplitudes.items():
                if o not in out_index:
                    out_index[o] = len(out_basis)
                    out_basis.append(o)
                col[out_index[o]] = a
            columns.append(col)
        response = np.zeros((len(out_basis), len(in_basis)), dtype=complex)
        for j, col in enumerate(columns):
            for i, a in col.items():
                response[i, j] = a

        j1 = collapsed.index_of(self.bob_modes[0])
        j2 = collapsed.index_of(self.bob_modes[1])
        groups: dict[tuple[int, int], int] = {}
        group_of_row = np.zeros(len(out_basis), dtype=np.int64)
        out_patterns: list[tuple[int, int]] = []
        for i, occ in enumerate(out_basis):
            key = (occ[j1], occ[j2])
            if key not in groups:
                groups[key] = len(out_patterns)
                out_patterns.append(key)
            group_of_row[i] = groups[key]
        return _AliceBranch(pattern, prob, collapsed, in_basis, c_in, n_channel,
                            response, out_patterns, group_of_row)

    def bob_pattern_probs(
        self, branch: _AliceBranch, theta: float, fire: bool, sigma: float = 0.0
    ) -> np.ndarray:
        """Exact Bob-side outcome distribution for one trial's settings.

        ``sigma`` > 0 averages out a further channel phase t ~ N(0, sigma^2)
        exactly: E[exp(i t (n_j - n_k))] = exp(-sigma^2 (n_j - n_k)^2 / 2)
        damps each coherence c_j c_k* of the collapsed state.
        """
        c = branch.c_in.copy()
        if theta:
            c = c * np.exp(1j * theta * branch.n_channel)
        if fire:
            c = c * np.where(branch.n_channel % 2, -1.0, 1.0)
        if sigma:
            dn = np.subtract.outer(branch.n_channel, branch.n_channel)
            rho = np.outer(c, c.conj()) * np.exp(-0.5 * sigma**2 * dn**2)
            probs = np.einsum("rj,jk,rk->r", branch.response, rho,
                              branch.response.conj()).real
        else:
            probs = np.abs(branch.response @ c) ** 2
        out = np.zeros(len(branch.out_patterns))
        np.add.at(out, branch.group_of_row, probs)
        return out


def _click_table(photons: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """(..., 2) photons at a detector pair -> (..., 4) click-pattern probabilities.

    Pattern index is click1 + 2 * click2; each detector fires independently
    on one of its photons or on a dark count.
    """
    q = 1.0 - (1.0 - click_probability(photons, noise.qe)) * (1.0 - noise.dark_count_prob)
    q1, q2 = q[..., 0], q[..., 1]
    return np.stack([(1 - q1) * (1 - q2), q1 * (1 - q2), (1 - q1) * q2, q1 * q2], axis=-1)


def outcome_distribution(eng: _PhiEngine, cfg: RunConfig) -> np.ndarray:
    """Exact (4, 4) probability of every (Alice, Bob) click pattern at one phase.

    Rows index Alice's pattern and columns Bob's, both as click1 + 2 * click2
    over (D1, D2) and (D1*, D2*); the table sums to 1.  Detector efficiency,
    dark counts, the dephasing phase and the jittered race are averaged out
    in closed form.  The coincidence circuit keeps rows 1-2 (exactly one
    Alice click: the D1 or D2 trigger) and columns 1-3 (any Bob click).
    """
    noise, timing = cfg.noise, cfg.timing
    sigma = noise.dephasing_sigma
    p_arm = 0.0
    if cfg.mode is RunMode.ACTIVE:
        deadline = eng.bench.delay_m * timing.delay_ns_per_m
        base = timing.detector_latency_ns + timing.risetime_ns
        if timing.jitter_sigma_ns > 0:  # Phi((deadline - base) / sigma_j)
            z = (deadline - base) / timing.jitter_sigma_ns
            p_arm = 0.5 * math.erfc(-z / math.sqrt(2.0))
        else:
            p_arm = float(base <= deadline)

    table = np.zeros((4, 4))
    for branch in eng.branches:
        alice = branch.prob * _click_table(np.array(branch.pattern), noise)
        bob_clicks = _click_table(np.array(branch.out_patterns), noise)
        unfired = eng.bob_pattern_probs(branch, 0.0, False, sigma) @ bob_clicks
        table += np.outer(alice, unfired)
        if p_arm:
            # only a lone D2 trigger (row 2) fires the cell
            fired = eng.bob_pattern_probs(branch, 0.0, True, sigma) @ bob_clicks
            table[2] += alice[2] * p_arm * (fired - unfired)
    return table


def _draw(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)


def run_trial(
    bench: Bench, phi: float, cfg: RunConfig, rng: np.random.Generator,
    engine: _PhiEngine | None = None,
) -> TrialRecord:
    """One complete shot through the protocol, with the full event log."""
    if cfg.input_theta is not None:
        bench = bench.with_input_theta(cfg.input_theta)
    eng = engine if engine is not None else _PhiEngine(bench, phi)
    noise, timing = cfg.noise, cfg.timing

    # Alice's Bell measurement: Born-rule outcome, then detector imperfections
    cdf = np.cumsum(eng.alice_probs)
    branch = eng.branches[_draw(cdf, rng.random())]
    theta = rng.normal(0.0, noise.dephasing_sigma) if noise.dephasing_sigma else 0.0
    alice_counts = dict(zip(ALICE_DETECTORS, branch.pattern))
    alice_clicks = thin_by_efficiency(alice_counts, noise.qe, rng,
                                      noise.dark_count_prob, at_time_ns=0.0)
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
        rr: RaceResult = race(0.0, timing, bench.delay_m, rng)
        for event in rr.log.events:
            if event.kind not in ("PhotonEmitted", "AliceClick"):
                log.add(event.t_ns, event.kind, event.detail)
        log = log.sorted()
        armed = rr.armed_in_time
        fired = effective_correction(trigger, armed)

    # Bob's side: dephasing + conditional sigma_z + verification optics
    pat_probs = eng.bob_pattern_probs(branch, theta, fired)
    bob_idx = _draw(np.cumsum(pat_probs), rng.random())
    bob_pattern = branch.out_patterns[bob_idx]
    arrival = bench.delay_m * timing.delay_ns_per_m
    bob_counts = dict(zip(BOB_DETECTORS, bob_pattern))
    bob_clicks = thin_by_efficiency(bob_counts, noise.qe, rng,
                                    noise.dark_count_prob, at_time_ns=arrival)

    # the coincidence circuit also discards Alice clicks without a Bob click
    if not bell.idle and not any(bob_clicks.clicks.values()):
        bell = BellOutcome.PSI2_IDLE
        fired = False
    corrected = fired and bell is BellOutcome.PSI4
    return TrialRecord(phi, bell, alice_clicks, bob_clicks, corrected,
                       bell.idle, log)


def _sweep_point(
    bench: Bench, cfg: RunConfig, phi: float, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """All trials at one phase point as one multinomial draw over the exact
    kept cells; returns (pair counts, kept)."""
    # (D1, D2 trigger) x (Bob D1* only, D2* only, both)
    cells = np.maximum(outcome_distribution(_PhiEngine(bench, phi), cfg)[1:3, 1:], 0.0)
    p = np.append(cells.ravel(), 1.0 - cells.sum())  # last: discarded
    draw = rng.multinomial(cfg.trials_per_phi, p)[:-1].reshape(2, 3)
    # a both-clicks trial counts toward both of its trigger's pairs
    counts = (draw[:, :2] + draw[:, 2:]).ravel()
    return counts, int(draw.sum())


def _sweep_task(args):
    bench, cfg, phi, seed_seq = args
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    counts, kept = _sweep_point(bench, cfg, phi, rng)
    return counts, kept


def run_sweep(
    bench: Bench, cfg: RunConfig, seed: int = 0, workers: int = 1
) -> FringeData:
    """Accumulate coincidence counts over the phase grid.

    Each phase point owns an independent child stream of ``seed``, so the
    result is identical for any worker count; workers parallelize over
    phase points.
    """
    if cfg.input_theta is not None:
        bench = bench.with_input_theta(cfg.input_theta)
    _require_protocol_bench(bench)
    grid = cfg.phi_grid
    seeds = np.random.SeedSequence(seed).spawn(len(grid))
    tasks = [(bench, cfg, phi, s) for phi, s in zip(grid, seeds)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_task, tasks)
    else:
        results = [_sweep_task(t) for t in tasks]

    counts = {p: np.zeros(len(grid), dtype=np.int64) for p in PAIR_NAMES}
    kept = np.zeros(len(grid), dtype=np.int64)
    for i, (c, k) in enumerate(results):
        for j, pair in enumerate(PAIR_NAMES):
            counts[pair][i] = c[j]
        kept[i] = k
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
