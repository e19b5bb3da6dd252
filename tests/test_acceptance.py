"""Acceptance suite: every headline requirement at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from fockbench.analysis import error_propagation, fidelity_from_visibility, fit_fringes, wrap_phase
from fockbench.bench import builtin_figure1
from fockbench.fock import ModeId, Polarization
from fockbench.noise import NoiseModel
from fockbench.protocol import (
    PAIR_NAMES,
    PAPER_VISIBILITIES,
    RunConfig,
    RunMode,
    analytic_coincidences,
    default_phi_grid,
    paper_runs,
    run_sweep,
    run_trial,
)
from fockbench.timing import TimingModel, race

from conftest import haar_unitary
from fock_oracle import (
    apply_element,
    apply_eop,
    apply_two_mode_unitary,
    create_photon,
    fock_coincidences,
    make_vacuum,
)
from oracle_util import oracle_amplitudes

SEED = 42
V = Polarization.V


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def bench():
    return builtin_figure1()


def test_criterion_1_closed_form_fringes(bench):
    grid = np.linspace(0.0, 2.0 * math.pi, 100)
    t0 = time.perf_counter()
    fringes = [analytic_coincidences(bench, phi) for phi in grid]
    elapsed = time.perf_counter() - t0
    worst = worst_oracle = 0.0
    for phi, ac in zip(grid, fringes):
        c2 = 0.5 * math.cos(phi / 2.0) ** 2
        s2 = 0.5 * math.sin(phi / 2.0) ** 2
        worst = max(
            worst,
            abs(ac.pairs["D1-D2*"] - c2),
            abs(ac.pairs["D2-D1*"] - c2),
            abs(ac.pairs["D1-D1*"] - s2),
            abs(ac.pairs["D2-D2*"] - s2),
        )
        ref = fock_coincidences(bench, phi)
        worst_oracle = max(worst_oracle, *(abs(ac.pairs[p] - ref.pairs[p]) for p in PAIR_NAMES))
    report(1, worst < 1e-12 and worst_oracle < 1e-12 and elapsed < 1.0,
           f"100-point fringe grid: max err {worst:.2e} vs closed form, {worst_oracle:.2e} "
           f"vs Fock oracle (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_monte_carlo_matches_analytic(bench):
    cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=100_000,
                    phi_grid=default_phi_grid(25))
    t0 = time.perf_counter()
    data = run_sweep(bench, cfg, seed=SEED, workers=1)
    elapsed = time.perf_counter() - t0
    worst_z = 0.0
    for i, phi in enumerate(data.phi_grid):
        ref = fock_coincidences(bench, phi)
        kept = int(data.trials_kept[i])
        for pair in PAIR_NAMES:
            p = ref.pairs[pair]
            sd = math.sqrt(max(kept * p * (1.0 - p), 1e-30))
            z = abs(int(data.counts[pair][i]) - kept * p) / max(sd, 1e-15)
            if sd > 1e-10:
                worst_z = max(worst_z, z)
            else:
                assert int(data.counts[pair][i]) == 0
    report(2, worst_z <= 3.0 and elapsed < 60.0,
           f"25x1e5 trials vs Fock oracle: worst |z| {worst_z:.2f} (<= 3), {elapsed:.1f}s (< 60s)")


def paper_fits(bench, trials, v_passive, v_active):
    """The fringe fits of the paper's three runs at seed SEED, 25 phases."""
    _, runs = paper_runs(bench, trials, 25, SEED, v_passive, v_active)
    return fit_fringes(runs[0][2].phi_grid, [data.counts[pair] for _, pair, data in runs])


def test_criterion_3_active_correction_phase(bench):
    fit_passive, fit_inhib, fit_active = paper_fits(bench, 100_000, 1.0, 1.0)
    d_active = wrap_phase(fit_active.phi0 - fit_passive.phi0)
    d_inhib = abs(wrap_phase(fit_inhib.phi0 - fit_passive.phi0))
    ok = abs(d_active) <= 0.05 and abs(d_inhib - math.pi) <= 0.05
    report(3, ok,
           f"compare(active, passive-D1) dphi0 {d_active:+.4f} (|.| <= 0.05); "
           f"compare(inhibited-D2, passive-D1) |dphi0| {d_inhib:.4f} (pi +- 0.05)")


def test_criterion_4_headline_fidelity_figures(bench):
    # dephasing calibrated from the target visibilities, so this closes the
    # loop through propagation, post-selection and the fringe fit rather
    # than predicting the figures independently
    fit_p, _, fit_a = paper_fits(bench, 20_000, *PAPER_VISIBILITIES)
    f_passive = fidelity_from_visibility(fit_p.visibility)
    f_active = fidelity_from_visibility(fit_a.visibility)
    ok = abs(f_passive - 0.953) <= 0.01 and abs(f_active - 0.90) <= 0.02
    report(4, ok,
           f"F_passive {f_passive:.4f}+-{error_propagation(fit_p):.4f} "
           f"(0.953 +- 0.01); F_a {f_active:.4f}+-{error_propagation(fit_a):.4f} "
           f"(0.90 +- 0.02)")


def test_criterion_5_timing_race():
    rr_stock = race(TimingModel(), 8.0)
    rr_short = race(TimingModel(), 7.0)
    rng = np.random.default_rng(SEED)
    timing = TimingModel(jitter_sigma_ns=3.0)
    n = 100_000
    misses = sum(not race(timing, 8.0, rng).armed_in_time for _ in range(n))
    z = (24.0 - 22.0) / 3.0
    want = 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    gap = abs(misses / n - want)
    ok = rr_stock.armed_in_time and not rr_short.armed_in_time and gap <= 0.01
    report(5, ok,
           f"8m armed={rr_stock.armed_in_time}, 7m armed={rr_short.armed_in_time}; "
           f"jittered miss rate off by {gap:.4f} (<= 0.01) from the Gaussian CDF")


def test_criterion_6_bell_efficiency(bench):
    phis = (0.0, 0.9, 2.3, 4.4)
    exact = [analytic_coincidences(bench, phi).p_coincidence for phi in phis]
    oracle = [fock_coincidences(bench, phi).p_coincidence for phi in phis]
    analytic_ok = all(abs(p - 0.5) < 1e-12 for p in exact + oracle)
    cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=100_000, phi_grid=(1.3,))
    data = run_sweep(bench, cfg, seed=SEED)
    n = int(data.trials_total[0])
    kept = int(data.trials_kept[0])
    sd = math.sqrt(n * 0.25)
    mc_ok = abs(kept - 0.5 * n) <= 3.0 * sd
    report(6, analytic_ok and mc_ok,
           f"non-idle fraction: analytic and Fock oracle 0.5 exact, Monte Carlo {kept / n:.4f} "
           f"({abs(kept - 0.5 * n) / sd:.2f} sigma)")


def test_criterion_7_property_suites(bench):
    rng = np.random.default_rng(SEED)

    # unitarity / norm fuzz: 1000 random two-mode unitaries round-trip
    modes = [ModeId(i, V) for i in range(3)]
    worst = 0.0
    for _ in range(1000):
        st = create_photon(make_vacuum(modes), modes[rng.integers(3)])
        if rng.random() < 0.5:
            st = create_photon(st, modes[rng.integers(3)])
        i, j = rng.choice(3, size=2, replace=False)
        u = haar_unitary(rng)
        fwd = apply_two_mode_unitary(st, modes[i], modes[j], u)
        back = apply_two_mode_unitary(fwd, modes[i], modes[j], u.conj().T)
        worst = max(worst, abs(fwd.norm_sq() - 1.0))
        for occ in set(st.amplitudes) | set(back.amplitudes):
            worst = max(worst, abs(back.amplitude(occ) - st.amplitude(occ)))
    fuzz_ok = worst < 1e-10

    # sigma_z twice is bit-exact identity
    qubit = make_vacuum([ModeId(0, V)])._replace({(0,): 0.6 + 0j, (1,): 0.8j})
    twice = apply_eop(apply_eop(qubit, ModeId(0, V)), ModeId(0, V))
    sigma_ok = twice.amplitudes == qubit.amplitudes

    # post-selection soundness at unit efficiency
    cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1)
    trial_rng = np.random.default_rng(SEED)
    sound = True
    for _ in range(500):
        rec = run_trial(bench, 1.9, cfg, trial_rng)
        if rec.discarded != rec.bell.idle:
            sound = False
        if not rec.discarded:
            sound = sound and len(rec.alice_clicks.clicked()) == 1
            sound = sound and len(rec.bob_clicks.clicked()) == 1
    sweep_cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=20_000, phi_grid=(2.6,))
    data = run_sweep(bench, sweep_cfg, seed=SEED)
    sound = sound and sum(int(data.counts[p][0]) for p in PAIR_NAMES) == int(data.trials_kept[0])

    # seed determinism, including across worker counts 1 and 4
    cfg_det = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=5_000,
                        phi_grid=default_phi_grid(9),
                        noise=NoiseModel(qe=0.45, dephasing_sigma=0.5),
                        timing=TimingModel(jitter_sigma_ns=2.0))
    runs = [run_sweep(bench, cfg_det, seed=SEED, workers=w) for w in (1, 1, 4)]
    det_ok = all(
        (runs[0].counts[p] == r.counts[p]).all()
        for r in runs[1:] for p in PAIR_NAMES
    ) and all((runs[0].trials_kept == r.trials_kept).all() for r in runs[1:])

    ok = fuzz_ok and sigma_ok and sound and det_ok
    report(7, ok,
           f"fuzz worst err {worst:.2e} (< 1e-10); sigma_z^2 bit-exact {sigma_ok}; "
           f"post-selection sound {sound}; workers 1/4 deterministic {det_ok}")


def test_criterion_8_oracle_equivalence():
    from fockbench import elements as el

    rng = np.random.default_rng(SEED)
    H = Polarization.H
    worst = 0.0
    checked = 0
    for _ in range(100):
        n_paths = int(rng.integers(1, 3))  # up to 2 paths = 4 modes
        modes = tuple(ModeId(p, pol) for p in range(n_paths) for pol in (H, V))
        pipeline = []
        for _ in range(int(rng.integers(2, 7))):
            kind = int(rng.integers(3)) if n_paths >= 2 else int(rng.integers(1, 3))
            if kind == 0:
                a, b = rng.choice(n_paths, size=2, replace=False)
                pipeline.append(el.beam_splitter(int(a), int(b),
                                                 float(rng.uniform(0, math.pi / 2))))
            elif kind == 1:
                pipeline.append(el.phase_shifter(int(rng.integers(n_paths)),
                                                 float(rng.uniform(0, 2 * math.pi))))
            else:
                pipeline.append(el.quarter_wave_plate(int(rng.integers(n_paths)),
                                                      float(rng.uniform(0, math.pi))))
        in_occ = [0] * len(modes)
        for _ in range(int(rng.integers(1, 3))):  # 1 or 2 photons
            in_occ[int(rng.integers(len(modes)))] += 1
        st = make_vacuum(modes)
        for i, k in enumerate(in_occ):
            for _ in range(k):
                st = create_photon(st, modes[i])
        for e in pipeline:
            st = apply_element(st, e)
        want = oracle_amplitudes(pipeline, modes, tuple(in_occ))
        for occ in set(st.amplitudes) | set(want):
            worst = max(worst, abs(st.amplitude(occ) - want.get(occ, 0j)))
            checked += 1
    report(8, worst < 1e-10,
           f"{checked} amplitudes across 100 random benches vs permanent oracle: "
           f"max err {worst:.2e} (tol 1e-10)")
