"""Complete teleportation trials: passive, active and EOP-inhibited runs.

A trial samples Alice's Bell-measurement clicks, races the feed-forward
chain against the delay line, conditionally applies sigma_z, and finally
samples Bob's verification detectors.  Idle outcomes (no Alice click, or an
Alice click with no Bob click) are discarded the way the bench's coincidence
circuit discards them.

``run_sweep`` mixes the exact click tables of ``tables``, cell disarmed and
fired, by the race's arming probability (``timing``) in
``outcome_distribution`` and draws the whole grid in one multinomial call
on one stream: the cost of a sweep does not grow with the trial count.
Those tables depend on the bench's photon pass, the phase grid and the
noise, not on the mode or the race, so the module keeps one slot with the
last sweep's tables.  A sweep on the same pass (compared by identity, so a
``with_delay_m`` bench shares it), an equal grid and an equal
``NoiseModel`` reads them: a scan over delay lengths, or an active run after
an inhibited one, builds its tables once.  One entry needs no eviction
policy, and the shots, which each read one phase, never touch it.
``run_trial`` samples the same tables one shot at a time, Alice's pattern
and then Bob's given hers, and draws only the race; ``timing.shot_log``
builds its event log from Alice's clicks and the race.  Both run the bench
exactly as given (``Bench.with_input_theta`` and ``Bench.with_delay_m``
retune it).
``analytic_coincidences`` reads the noiseless fringe off the count tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bench import ALICE_DETECTORS, BOB_DETECTORS, Bench
from .errors import BadParam, MalformedInput, ProtocolError
from .noise import ClickPattern, NoiseModel, calibrate_sigma
from .tables import click_tables, count_tables
from .timing import EventLog, TimingModel, race, shot_log

PAIR_NAMES = ("D1-D1*", "D1-D2*", "D2-D1*", "D2-D2*")
#: the largest count in int64, in which the sweep's multinomial draw and a
#: fringe's arrays count
_INT64_MAX = 2**63 - 1
CSV_HEADER = "phi_rad,pair,coincidences,trials_kept,trials_total"
#: ``outcome_distribution``'s slot: the last sweep's photon pass, phase grid,
#: noise model and read-only (2, P, 4, 4) click tables, or None
_last_sweep: tuple | None = None


class RunMode(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"
    ACTIVE_INHIBITED = "active_eop_inhibited"

    @classmethod
    def parse(cls, text: str) -> "RunMode":
        norm = text.replace("-", "_").lower()
        for m in cls:
            if norm in (m.value, m.name.lower()):
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


#: Alice's click pattern click(D1) + 2 click(D2) -> the Bell outcome it
#: heralds: a lone D1 click is Psi3, a lone D2 click Psi4, and no click or
#: two clicks cannot tell the one-photon Bell states apart
ALICE_PATTERNS = (BellOutcome.PSI1_IDLE, BellOutcome.PSI3, BellOutcome.PSI4,
                  BellOutcome.PSI2_IDLE)
#: the patterns the coincidence circuit keeps: exactly one Alice click
KEPT_PATTERNS = tuple(p for p, bell in enumerate(ALICE_PATTERNS) if not bell.idle)
#: only a lone D2 click (Psi4) fires the Pockels cell
FIRING_PATTERN = ALICE_PATTERNS.index(BellOutcome.PSI4)


def default_phi_grid(steps: int = 25) -> tuple[float, ...]:
    """``steps`` (>= 4) evenly spaced phases over [0, 2 pi]; the ends are one
    setting modulo 2 pi, so a fringe fit needs ``steps`` >= 5."""
    if steps < 4:
        raise BadParam(f"a fringe needs at least 4 phase steps, got {steps}")
    return tuple(np.linspace(0.0, 2.0 * math.pi, steps))


def _require_finite_phase(phi: float) -> None:
    if not math.isfinite(phi):
        raise BadParam(f"phase {phi!r} is not finite")


@dataclass(frozen=True)
class RunConfig:
    mode: RunMode = RunMode.PASSIVE
    trials_per_phi: int = 1000
    phi_grid: tuple[float, ...] = default_phi_grid()
    noise: NoiseModel = NoiseModel()
    timing: TimingModel = TimingModel()

    def __post_init__(self):
        if not 1 <= self.trials_per_phi <= _INT64_MAX:
            raise BadParam(f"trials_per_phi must be in [1, 2**63 - 1], "
                           f"got {self.trials_per_phi}")
        if len(self.phi_grid) == 0:
            raise BadParam("phi_grid is empty")
        grid = tuple(float(p) for p in self.phi_grid)
        for phi in grid:
            _require_finite_phase(phi)
        object.__setattr__(self, "phi_grid", grid)


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
        p0, p1, p2, p3 = PAIR_NAMES
        counts = zip(*(self.counts[pair].tolist() for pair in PAIR_NAMES))
        out = [CSV_HEADER + "\n"]
        for phi, (c0, c1, c2, c3), kept, total in zip(
                self.phi_grid, counts, self.trials_kept.tolist(), self.trials_total.tolist()):
            # a phase point's four rows in one string
            head, tail = f"{phi:.17g},", f",{kept},{total}\n"
            out.append(f"{head}{p0},{c0}{tail}{head}{p1},{c1}{tail}"
                       f"{head}{p2},{c2}{tail}{head}{p3},{c3}{tail}")
        return "".join(out)

    @classmethod
    def from_csv(cls, text: str) -> "FringeData":
        """Parse ``to_csv`` output; a malformed file raises ``MalformedInput``.

        Each phase point is a run of consecutive rows with one phase, one row
        per pair in any order; every count must fit the int64 arrays.
        """
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != CSV_HEADER:
            raise MalformedInput(f"fringe CSV header is not {CSV_HEADER!r}")
        column = {pair: j for j, pair in enumerate(PAIR_NAMES)}
        phis: list[float] = []
        rows: list[list[int | None]] = []  # a phase point's counts, in PAIR_NAMES order
        kept: list[int] = []
        total: list[int] = []
        # the last row's phase and totals as text: a row that repeats them,
        # as every row of a phase point does, need not parse them again
        phi_s = k_s = t_s = None
        for n, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != 5:
                raise MalformedInput(f"fringe CSV line {n}: want 5 fields, got {len(fields)}")
            last = phi_s, k_s, t_s
            phi_s, pair, c, k_s, t_s = fields
            j = column.get(pair)
            if j is None:
                raise MalformedInput(f"fringe CSV line {n}: unknown pair {pair!r}")
            try:
                if phi_s != last[0]:
                    phi = float(phi_s)
                c = int(c)
                if k_s != last[1] or t_s != last[2]:
                    k, t = int(k_s), int(t_s)
            except ValueError as exc:
                raise MalformedInput(f"fringe CSV line {n}: {exc}") from None
            new_point = not phis or phi != phis[-1]
            # a phase equal to the point's is finite, as the point's was
            if new_point and not math.isfinite(phi):
                raise MalformedInput(f"fringe CSV line {n}: phase {phi_s!r} is not finite")
            if not 0 <= c <= k <= t:
                raise MalformedInput(f"fringe CSV line {n}: want 0 <= coincidences <= "
                                     f"trials_kept <= trials_total, got {c}, {k}, {t}")
            if new_point:
                row = [None] * len(PAIR_NAMES)
                phis.append(phi)
                rows.append(row)
                kept.append(k)
                total.append(t)
            elif row[j] is not None:
                raise MalformedInput(f"fringe CSV line {n}: {pair} repeated at phi={phi!r}")
            elif k != kept[-1] or t != total[-1]:
                raise MalformedInput(f"fringe CSV line {n}: trials_kept/trials_total "
                                     f"disagree with the other rows at phi={phi!r}")
            if t > _INT64_MAX:
                raise MalformedInput(f"fringe CSV line {n}: trials_total {t} is past "
                                     f"2**63 - 1")
            row[j] = c
        for phi, row in zip(phis, rows):
            if None in row:
                missing = sorted(pair for pair, c in zip(PAIR_NAMES, row) if c is None)
                raise MalformedInput(f"fringe CSV: phi={phi!r} lacks pairs {missing}")
        counts = np.array(rows, dtype=np.int64).reshape(-1, len(PAIR_NAMES)).T.copy()
        return cls(tuple(phis), dict(zip(PAIR_NAMES, counts)),
                   np.array(kept, dtype=np.int64), np.array(total, dtype=np.int64))


@dataclass(frozen=True)
class AnalyticCoincidences:
    """Exact post-selected pair probabilities and the coincidence yield."""

    pairs: dict[str, float]
    p_coincidence: float


def phase_from_position(x_meters: float, lambda_meters: float) -> float:
    """Mirror position to interference phase: phi = pi * x * 2**1.5 / lambda."""
    if lambda_meters <= 0:
        raise BadParam("wavelength must be positive")
    return math.pi * x_meters * 2.0**1.5 / lambda_meters


def position_from_phase(phi: float, lambda_meters: float) -> float:
    if lambda_meters <= 0:
        raise BadParam("wavelength must be positive")
    return phi * lambda_meters / (math.pi * 2.0**1.5)


def outcome_distribution(bench: Bench, cfg: RunConfig) -> np.ndarray:
    """Exact (P, 4, 4) probability of every (Alice, Bob) click pattern
    through ``bench`` at each phase of ``cfg.phi_grid``, indexed as in
    ``click_tables``.

    The jittered race over the bench's delay line is averaged out too.  The
    coincidence circuit keeps the rows ``KEPT_PATTERNS`` (exactly one Alice
    click: the D1 or D2 trigger) and columns 1-3 (any Bob click).

    The click tables come from the module's one slot when the last call had
    the same photon pass (``Bench.photon_rows``, by identity), an equal
    phase grid and an equal ``NoiseModel``; otherwise they are built and
    fill the slot.  Only the arming probability, mixed in here, differs
    between such sweeps, so each call mixes it into a fresh array, which
    the caller owns.  One entry is all a scan needs, and unlike a memo it
    cannot grow; ``run_trial`` reads one phase per shot and keeps out of it.
    """
    global _last_sweep
    p_arm = 0.0
    if cfg.mode is RunMode.ACTIVE:
        p_arm = cfg.timing.arming_probability(bench.delay_m)
    photons, grid, noise = bench.photon_rows, cfg.phi_grid, cfg.noise
    slot = _last_sweep
    if slot is not None and slot[0] is photons and slot[1] == grid and slot[2] == noise:
        tables = slot[3]
    else:
        tables = click_tables(bench, grid, noise)
        tables.flags.writeable = False
        _last_sweep = (photons, grid, noise, tables)
    unfired, fired = tables
    mixed = unfired.copy()
    row = FIRING_PATTERN
    mixed[:, row] += p_arm * (fired[:, row] - unfired[:, row])
    return mixed


def _draw(cdf: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)


def _clicks(names: tuple[str, str], pattern: int, t_ns: float) -> ClickPattern:
    """The click pattern with index click1 + 2 * click2 over ``names``."""
    hits = {name: bool(pattern >> i & 1) for i, name in enumerate(names)}
    return ClickPattern(hits, {name: t_ns for name, hit in hits.items() if hit})


def run_trial(
    bench: Bench, phi: float, cfg: RunConfig, rng: np.random.Generator
) -> TrialRecord:
    """One complete shot through ``bench`` at ``phi``, with the full event log."""
    _require_finite_phase(phi)
    unfired, fired_table = click_tables(bench, (phi,), cfg.noise)[:, 0]

    # Alice's Bell measurement
    alice = _draw(np.cumsum(unfired.sum(axis=1)), rng.random())
    bell = ALICE_PATTERNS[alice]
    alice_clicks = _clicks(ALICE_DETECTORS, alice, 0.0)

    # feed-forward race, only run when the chain can fire
    rr = None
    if cfg.mode is RunMode.ACTIVE and alice == FIRING_PATTERN:
        rr = race(cfg.timing, bench.delay_m, rng)
    fired = rr is not None and rr.armed_in_time

    # Bob's side given Alice's pattern, after the conditional sigma_z
    bob = _draw(np.cumsum((fired_table if fired else unfired)[alice]), rng.random())
    bob_clicks = _clicks(BOB_DETECTORS, bob, bench.delay_m * cfg.timing.delay_ns_per_m)

    # the coincidence circuit also discards Alice clicks without a Bob click
    if not bell.idle and bob == 0:
        bell = BellOutcome.PSI2_IDLE
        fired = False
    return TrialRecord(phi, bell, alice_clicks, bob_clicks, fired, bell.idle,
                       shot_log(alice_clicks.clicked(), rr))


def run_sweep(
    bench: Bench, cfg: RunConfig, seed: int = 0, workers: int = 1
) -> FringeData:
    """Accumulate coincidence counts over the phase grid.

    The exact outcome tables of the whole grid come from one batched pass,
    and all of the grid's trials from one multinomial draw on one stream of
    ``seed`` (>= 0), a row per phase point.  ``workers`` must be >= 1 and
    has no effect: there is no per-point work left to spread over processes.
    """
    if seed < 0:
        raise BadParam(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise BadParam(f"workers must be >= 1, got {workers}")
    grid = cfg.phi_grid
    tables = outcome_distribution(bench, cfg)
    # (D1, D2 trigger) x (Bob D1* only, D2* only, both), then discarded
    cells = tables[:, KEPT_PATTERNS, 1:].reshape(len(grid), 6)
    ps = np.concatenate([cells, 1.0 - cells.sum(axis=1, keepdims=True)], axis=1)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.multinomial(cfg.trials_per_phi, ps)[:, :-1].reshape(len(grid), 2, 3)
    # a both-clicks trial counts toward both of its trigger's pairs
    pairs = (draws[:, :, :2] + draws[:, :, 2:]).reshape(len(grid), 4)
    counts = {pair: pairs[:, j] for j, pair in enumerate(PAIR_NAMES)}
    kept = draws.sum(axis=(1, 2))
    total = np.full(len(grid), cfg.trials_per_phi, dtype=np.int64)
    return FringeData(tuple(grid), counts, kept, total)


#: the paper's runs, seeded seed + index: (name, mode, fitted pair).
#: Passive exact teleportation shows on (D1, D2*); the D2-triggered state
#: shows on (D2, D2*): sigma_z-flipped when inhibited, restored when active
PAPER_RUNS = (
    ("passive", RunMode.PASSIVE, "D1-D2*"),
    ("inhibited", RunMode.ACTIVE_INHIBITED, "D2-D2*"),
    ("active", RunMode.ACTIVE, "D2-D2*"),
)
#: the paper's passive and active fringe visibilities
PAPER_VISIBILITIES = (0.906, 0.80)


def paper_runs(bench: Bench, trials: int, phi_steps: int, seed: int,
               v_passive: float, v_active: float):
    """Sweep the paper's runs (``PAPER_RUNS``) at seeds seed, seed + 1, ...

    The passive run's dephasing takes a perfect fringe to ``v_passive``; the
    others add in quadrature the delay line's, which takes ``v_passive`` to
    ``v_active``.  Returns (sigma_passive, sigma_added, sigma_total) and a
    (name, fitted pair, ``FringeData``) per run.  Every run's fringe is fitted,
    so fewer than 5 phase steps raise ``BadParam`` before any sweep.
    """
    if phi_steps < 5:
        raise BadParam(f"the paper's fringe fits need at least 5 phase steps, got {phi_steps}")
    sigma_passive = calibrate_sigma(1.0, v_passive)
    sigma_added = calibrate_sigma(v_passive, v_active)
    sigma_total = math.hypot(sigma_passive, sigma_added)
    grid = default_phi_grid(phi_steps)
    runs = []
    for k, (name, mode, pair) in enumerate(PAPER_RUNS):
        sigma = sigma_passive if mode is RunMode.PASSIVE else sigma_total
        cfg = RunConfig(mode=mode, trials_per_phi=trials, phi_grid=grid,
                        noise=NoiseModel(dephasing_sigma=sigma))
        runs.append((name, pair, run_sweep(bench, cfg, seed=seed + k)))
    return (sigma_passive, sigma_added, sigma_total), runs


def analytic_coincidences(bench: Bench, phi: float) -> AnalyticCoincidences:
    """Exact post-selected pair probabilities at ``phi``, no sampling.

    They are the lone-click cells of the noiseless ``count_tables`` with the
    Pockels cell disarmed, matching the bench's closed-form description of
    the uncorrected coincidence fringes.
    """
    _require_finite_phase(phi)
    # a lone D1 or D2 photon is row 1 or 3, a lone D1* or D2* column 1 or 3
    cells = count_tables(bench, (phi,))[0, 0][np.ix_((1, 3), (1, 3))].ravel().tolist()
    total = sum(cells)
    if total <= 0:
        raise ProtocolError("no coincidence amplitude at this phase")
    return AnalyticCoincidences({p: c / total for p, c in zip(PAIR_NAMES, cells)}, total)
