"""Complete teleportation trials: passive, active and EOP-inhibited runs.

A trial samples Alice's Bell-measurement clicks, races the feed-forward
chain against the delay line, conditionally applies sigma_z, and finally
samples Bob's verification detectors.  Idle outcomes (no Alice click, or an
Alice click with no Bob click) are discarded the way the bench's coincidence
circuit discards them.

The bench upstream of the detectors is linear optics on two photons, so
every two-photon amplitude is a 2x2 permanent of the two source photons'
single-photon amplitude rows.  Those rows depend on the bench alone, so
each bench carries them through its pipeline once, on first use, and keeps
them (``Bench.photon_rows``); every ``count_tables`` call on that bench, in
a sweep or a shot, reads them.  Summed over the modes of each detector
class, the permanents' squares reduce to products of small per-class Gram
matrices of the photons' amplitudes.  The knob makes every table a
trigonometric polynomial of degree at most 2 in the phase, so the Grams are
contracted at five phase nodes only and the tables of any grid are
interpolated from them exactly.  ``click_tables`` turns these into the exact
(Alice, Bob) click-pattern tables of every phase of a grid, with the cell
disarmed and fired, averaging the dephasing phase and the detectors
(``NoiseModel.clicks``) in closed form.  ``run_sweep`` mixes the two tables
by the race's arming probability (``timing``) in ``outcome_distribution``
and draws the whole grid in one multinomial call on one stream: the cost of
a sweep does not grow with the trial count.  ``run_trial`` samples the same
tables one shot at a time, Alice's pattern and then Bob's given hers, and
draws only the race; ``timing.shot_log`` builds its event log from Alice's
clicks and the race.  Both run the bench exactly as given
(``Bench.with_input_theta`` and ``Bench.with_delay_m`` retune it).
``analytic_coincidences`` derives the noiseless fringe independently, by
Fock-state projection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .bench import ALICE_DETECTORS, BOB_DETECTORS, Bench
from .elements import apply_element, phase_shifter
from .errors import BadParam, MalformedInput, ProtocolError
from .noise import ClickPattern, NoiseModel
from .timing import EventLog, TimingModel, race, shot_log

PAIR_NAMES = ("D1-D1*", "D1-D2*", "D2-D1*", "D2-D2*")
#: the largest count in int64, in which the sweep's multinomial draw and a
#: fringe's arrays count
_INT64_MAX = 2**63 - 1
CSV_HEADER = "phi_rad,pair,coincidences,trials_kept,trials_total"


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
    """``steps`` evenly spaced phases over [0, 2 pi]; a fringe fit needs >= 4."""
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


# ----------------------------------------------------------------------
# exact click tables


# Detector classes of an output mode: no protocol detector, D1, D2, D1*, D2*.
# A photon in each class adds this to the flattened (Alice counts) x (Bob
# counts) index 9 n(D1) + 27 n(D2) + n(D1*) + 3 n(D2*).
_CLASS_COUNTS = np.array([0, 9, 27, 1, 3])
#: (25, 81): one photon in class A and one in class B land in the cell of A + B
_CLASS_PAIR_TO_COUNTS = np.eye(81)[np.add.outer(_CLASS_COUNTS, _CLASS_COUNTS).ravel()]


def _gram_coefficients() -> np.ndarray:
    """(3, 16, 16): the class-pair probability as bilinear forms of Grams.

    Photon i reaches mode j with amplitude a_ij = p_ij + e^{it} q_ij, q
    being its path through the cell's V mode.  Over output classes A and B,
    sum_{j in A, k in B} |a1j a2k + a1k a2j|^2 / 2 is (A11 B22 + A22 B11 +
    A12 B21 + A21 B12) / 2 with A_il = sum_{j in A} a_ij a_lj^*.  Expanding
    a_i in p_i and q_i writes that as G_A^T W G_B over the 16 entries of the
    Gram G[x, y] = sum_j v_xj v_yj^* of v = (p1, p2, q1, q2).  Its terms
    carry e^{ikt} for k = 0, +-1, +-2; W[|k|] collects them.
    """
    w = np.zeros((3, 16, 16))
    for i, l, m, n in ((0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)):
        for s, s2, r, r2 in np.ndindex(2, 2, 2, 2):  # 0: p, 1: q
            x = 4 * (2 * s + i) + 2 * s2 + l
            y = 4 * (2 * r + m) + 2 * r2 + n
            w[abs(s - s2 + r - r2), x, y] += 0.5
    return w


_W_K0, _W_K1, _W_K2 = _gram_coefficients()

#: the five phase nodes 2 pi j / 5 that fix a trigonometric polynomial of
#: degree 2, and e^{i phi_j} at each
_NODES = np.exp(2j * np.pi * np.arange(5) / 5)


def count_tables(bench: Bench, phis, sigma: float = 0.0, theta: float = 0.0) -> np.ndarray:
    """(2, P, 9, 9) joint photon counts through ``bench`` at each phase of
    ``phis``, cell disarmed ([0]) and fired ([1]).

    Rows index Alice's counts n(D1) + 3 n(D2), columns Bob's n(D1*) +
    3 n(D2*).  Everything upstream of the detectors is linear optics on the
    two source photons, so every output amplitude is a 2x2 permanent of the
    photons' single-photon amplitude rows (see S. Scheel, quant-ph/0406127).
    One pass over the pipeline carries only those two rows, once per bench
    (``Bench.photon_rows``, computed on the bench's first call and reused
    by every later one); each call does only the work that depends on
    ``phis``, ``sigma`` and ``theta``.  At the knob each row splits into the
    part that skips the knob path and the part that takes it, so a photon's
    amplitude is w0 + e^{i phi} w1 at every phase.

    The channel phase is theta; ``sigma`` > 0 averages a further
    t ~ N(0, sigma^2) exactly.  Each photon's amplitude splits at the cell's
    V mode into p + e^{it} q (q changes sign when the cell fires), so the
    count tables are bilinear in the per-class Grams of (p1, p2, q1, q2)
    (see ``_gram_coefficients``): E[e^{it}] = exp(-sigma^2 / 2) damps their
    terms odd in q and E[e^{2it}] = exp(-2 sigma^2) the q-squared cross
    terms.

    Amplitudes affine in e^{i phi} make every table a trigonometric
    polynomial of degree at most 2 in phi.  The Grams are contracted only at
    the five nodes phi_j = 2 pi j / 5, and the degree-2 Dirichlet kernel
    (1 + 2 cos d + 2 cos 2d) / 5 carries the node tables exactly to
    ``phis``; the rounding-level negatives this leaves are clipped to 0.
    """
    photons = bench.photon_rows
    w, n = photons.rows, len(bench.modes)
    c = photons.at_channel * cmath.exp(1j * theta)
    # (5, 4, n): (p1, p2, q1, q2) at each node
    p = w[:2] + _NODES[:, None, None] * w[2:4]
    q = (c[:2] + _NODES[:, None] * c[2:])[..., None] * w[4]
    v = np.concatenate([p, q], axis=1)
    outer = (v[:, :, None, :] * v.conj()[:, None, :, :]).reshape(5, 16, n)
    gram = (outer @ photons.classes).swapaxes(-1, -2)  # (5, 5, 16)
    # not sigma**2, which raises OverflowError for a huge sigma: the product
    # overflows to inf instead, and exp(-inf) = 0 dephases fully
    var = sigma * sigma
    odd = math.exp(-0.5 * var) * _W_K1
    even = _W_K0 + math.exp(-2.0 * var) * _W_K2
    coef = np.stack([even + odd, even - odd])  # (2, 16, 16)
    nodes = ((gram.reshape(-1, 16) @ coef).reshape(2, 5, 5, 16)
             @ gram.swapaxes(-1, -2)).real.reshape(2, 5, 25) @ _CLASS_PAIR_TO_COUNTS
    # e^{i (phi - phi_j)} for every phase and node
    u = np.multiply.outer(np.exp(1j * np.asarray(phis, dtype=float)), _NODES.conj())
    kernel = (1.0 + 2.0 * (u + u * u).real) / 5.0  # (P, 5)
    return np.maximum(kernel @ nodes, 0.0).reshape(2, len(kernel), 9, 9)


def click_tables(bench: Bench, phis, noise: NoiseModel) -> np.ndarray:
    """(2, P, 4, 4) exact (Alice, Bob) click-pattern probabilities through
    ``bench`` at each phase, cell disarmed ([0]) and fired ([1]).

    Rows index Alice's pattern and columns Bob's, both as click1 + 2 * click2
    over (D1, D2) and (D1*, D2*); each table sums to 1.  The dephasing phase
    (``count_tables``) and the detectors (``NoiseModel.clicks``) are averaged
    out in closed form.  Firing the cell acts on Bob's side only, so both
    tables have the same row sums.
    """
    clicks = noise.clicks
    return clicks.T @ count_tables(bench, phis, noise.dephasing_sigma) @ clicks


def outcome_distribution(bench: Bench, cfg: RunConfig) -> np.ndarray:
    """Exact (P, 4, 4) probability of every (Alice, Bob) click pattern
    through ``bench`` at each phase of ``cfg.phi_grid``, indexed as in
    ``click_tables``.

    The jittered race over the bench's delay line is averaged out too.  The
    coincidence circuit keeps the rows ``KEPT_PATTERNS`` (exactly one Alice
    click: the D1 or D2 trigger) and columns 1-3 (any Bob click).
    """
    p_arm = 0.0
    if cfg.mode is RunMode.ACTIVE:
        p_arm = cfg.timing.arming_probability(bench.delay_m)
    unfired, fired = click_tables(bench, cfg.phi_grid, cfg.noise)
    row = FIRING_PATTERN
    unfired[:, row] += p_arm * (fired[:, row] - unfired[:, row])
    return unfired


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


def analytic_coincidences(bench: Bench, phi: float) -> AnalyticCoincidences:
    """Exact post-selected pair probabilities via Fock projection, no sampling.

    The Pockels cell stays disarmed, matching the bench's closed-form
    description of the uncorrected coincidence fringes.
    """
    st = fock.make_vacuum(bench.modes)
    for m in bench.sources:
        st = fock.create_photon(st, m)
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
