import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockbench import elements, noise
from fockbench.bench import Bench, _require_protocol_bench, figure1_text, parse
from fockbench.elements import phase_shifter
from fockbench.errors import BadParam, ProtocolError
from fockbench.fock import ModeId, Polarization
from fockbench.noise import NoiseModel
from fockbench.protocol import (
    ALICE_PATTERNS,
    FIRING_PATTERN,
    KEPT_PATTERNS,
    PAIR_NAMES,
    BellOutcome,
    RunConfig,
    RunMode,
    analytic_coincidences,
    click_tables,
    count_tables,
    default_phi_grid,
    outcome_distribution,
    phase_from_position,
    position_from_phase,
    run_sweep,
    run_trial,
)
from fockbench.timing import TimingModel

from oracle_util import composed_matrix, oracle_amplitudes, transfer_matrix

DATA = Path(__file__).parent / "data"

# every noise source on: 45% detectors, dark counts, dephasing and a jittered
# race whose 23.5 ns risetime arms the cell with probability
# Phi((24 - 23.5) / 1.5) = 0.63, strictly between 0 and 1
FULL_NOISE = NoiseModel(qe=0.45, dephasing_sigma=0.66, dark_count_prob=2e-3)
JITTERED = TimingModel(risetime_ns=23.5, jitter_sigma_ns=1.5)


@pytest.mark.parametrize("d1, d2, bell", [
    (True, False, BellOutcome.PSI3),
    (False, True, BellOutcome.PSI4),
    (False, False, BellOutcome.PSI1_IDLE),
    (True, True, BellOutcome.PSI2_IDLE),
])
def test_alice_pattern_table(d1, d2, bell):
    pattern = d1 + 2 * d2
    assert ALICE_PATTERNS[pattern] is bell
    # exactly one click is kept, and only a lone D2 click fires the cell
    assert (pattern in KEPT_PATTERNS) == (d1 != d2) == (not bell.idle)
    assert (pattern == FIRING_PATTERN) == (d2 and not d1)


def pairs(*probs):
    """The four pair probabilities, given in PAIR_NAMES order."""
    return dict(zip(PAIR_NAMES, probs))


class TestAnalyticCoincidences:
    def test_phi_zero(self, bench):
        ac = analytic_coincidences(bench, 0.0)
        assert ac.pairs == pytest.approx(pairs(0.0, 0.5, 0.5, 0.0), abs=1e-12)

    def test_phi_pi(self, bench):
        ac = analytic_coincidences(bench, math.pi)
        assert ac.pairs == pytest.approx(pairs(0.5, 0.0, 0.0, 0.5), abs=1e-12)

    def test_phi_pi_over_three(self, bench):
        ac = analytic_coincidences(bench, math.pi / 3)
        assert ac.pairs == pytest.approx(pairs(0.125, 0.375, 0.375, 0.125), abs=1e-12)

    def test_closed_form_table_on_grid(self, bench):
        for phi in np.linspace(0, 2 * math.pi, 17):
            ac = analytic_coincidences(bench, phi)
            c2 = 0.5 * math.cos(phi / 2) ** 2
            s2 = 0.5 * math.sin(phi / 2) ** 2
            assert ac.pairs["D1-D2*"] == pytest.approx(c2, abs=1e-12)
            assert ac.pairs["D2-D1*"] == pytest.approx(c2, abs=1e-12)
            assert ac.pairs["D1-D1*"] == pytest.approx(s2, abs=1e-12)
            assert ac.pairs["D2-D2*"] == pytest.approx(s2, abs=1e-12)

    def test_pairs_sum_to_one(self, bench):
        for phi in (0.3, 1.1, 4.0):
            assert sum(analytic_coincidences(bench, phi).pairs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_bell_efficiency_exactly_half(self, bench):
        for phi in (0.0, 0.7, 2.5):
            assert analytic_coincidences(bench, phi).p_coincidence == pytest.approx(0.5, abs=1e-12)


class TestRunTrial:
    def test_d1_trigger_at_phi_zero_lands_on_d2star(self, bench, rng):
        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=1)
        seen_d1 = 0
        for _ in range(300):
            rec = run_trial(bench, 0.0, cfg, rng)
            if rec.bell is BellOutcome.PSI3:
                seen_d1 += 1
                assert rec.bob_clicks.clicks == {"D1*": False, "D2*": True}
        assert seen_d1 > 30

    def test_idle_trials_are_discarded(self, bench, rng):
        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=1)
        saw_idle = False
        for _ in range(200):
            rec = run_trial(bench, 0.4, cfg, rng)
            assert rec.discarded == rec.bell.idle
            if rec.bell.idle:
                saw_idle = True
                assert not rec.corrected
        assert saw_idle

    def test_corrected_only_on_psi4_active(self, bench, rng):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1)
        saw = 0
        for _ in range(300):
            rec = run_trial(bench, 1.0, cfg, rng)
            if rec.corrected:
                saw += 1
                assert rec.bell is BellOutcome.PSI4
        assert saw > 20

    def test_passive_never_corrects(self, bench, rng):
        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=1)
        for _ in range(100):
            assert not run_trial(bench, 1.0, cfg, rng).corrected

    def test_inhibited_never_corrects(self, bench, rng):
        cfg = RunConfig(mode=RunMode.ACTIVE_INHIBITED, trials_per_phi=1)
        for _ in range(100):
            assert not run_trial(bench, 1.0, cfg, rng).corrected

    def test_active_log_records_race(self, bench, rng):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1)
        for _ in range(200):
            rec = run_trial(bench, 1.0, cfg, rng)
            if rec.bell is BellOutcome.PSI4:
                kinds = [e.kind for e in rec.log.events]
                assert "HvReady" in kinds and "PhotonAtEop" in kinds
                times = [e.t_ns for e in rec.log.events]
                assert times == sorted(times)
                break
        else:
            pytest.fail("no Psi4 trial in 200 shots")

    def test_clicks_are_stamped_at_alice_and_at_bob(self, bench, rng):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1, noise=FULL_NOISE,
                        timing=JITTERED)
        for _ in range(300):
            rec = run_trial(bench, 1.0, cfg, rng)
            alice, bob = rec.alice_clicks, rec.bob_clicks
            assert set(alice.clicks) == {"D1", "D2"} and set(bob.clicks) == {"D1*", "D2*"}
            assert alice.timestamps_ns == dict.fromkeys(alice.clicked(), 0.0)
            # 8 m of delay line at 3 ns/m
            assert bob.timestamps_ns == dict.fromkeys(bob.clicked(), 24.0)

    def test_same_seed_same_records(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1, noise=FULL_NOISE,
                        timing=JITTERED)
        a, b = np.random.default_rng(99), np.random.default_rng(99)
        for phi in np.linspace(0.0, 6.0, 100):
            assert run_trial(bench, phi, cfg, a) == run_trial(bench, phi, cfg, b)

    def test_kept_trials_have_one_click_each_side_at_unit_qe(self, bench, rng):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1)
        for _ in range(300):
            rec = run_trial(bench, 2.0, cfg, rng)
            if not rec.discarded:
                assert len(rec.alice_clicks.clicked()) == 1
                assert len(rec.bob_clicks.clicked()) == 1


def alice_marginal(bench, phi):
    """Probability of Alice's photon counts, indexed n(D1) + 3 n(D2)."""
    return count_tables(bench, (phi,))[0, 0].sum(axis=1)


class TestCorrectionClosure:
    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.2, 4.5])
    def test_sigma_z_restores_the_psi3_branch_state(self, bench, phi):
        # amplitude of one photon at an Alice detector and one in mode k,
        # just before the cell: a 2x2 permanent of the source rows of the
        # transfer matrix of the pipeline up to the cell, the knob set to phi
        cell = _require_protocol_bench(bench)
        upstream = [phase_shifter(e.paths[0], phi, knob=True) if e.is_knob else e
                    for e in bench.pipeline[:cell]]
        idx = {m: i for i, m in enumerate(bench.modes)}
        u = composed_matrix(upstream, bench.modes)[[idx[m] for m in bench.sources]]
        d1, d2 = idx[bench.detectors["D1"]], idx[bench.detectors["D2"]]
        channel = idx[ModeId(bench.pipeline[cell].paths[0], Polarization.V)]

        def bob_restriction(alice, fire):
            amps = u[0, alice] * u[1] + u[1, alice] * u[0]
            if fire:
                amps[channel] = -amps[channel]
            return np.delete(amps, [d1, d2])

        uncorrected = bob_restriction(d1, fire=False)
        corrected = bob_restriction(d2, fire=True)
        assert abs(uncorrected).max() > 0.1
        assert abs(uncorrected - corrected).max() < 1e-12

    def test_branch_probabilities_are_exact(self, bench):
        marginal = alice_marginal(bench, 1.3)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-12)
        assert marginal[1] == pytest.approx(0.25, abs=1e-12)  # (1, 0): Psi3
        assert marginal[3] == pytest.approx(0.25, abs=1e-12)  # (0, 1): Psi4


class TestRunSweep:
    def test_counts_match_analytic_within_3_sigma(self, bench):
        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=20_000,
                        phi_grid=default_phi_grid(9))
        data = run_sweep(bench, cfg, seed=5)
        for i, phi in enumerate(data.phi_grid):
            ac = analytic_coincidences(bench, phi)
            kept = data.trials_kept[i]
            for pair in PAIR_NAMES:
                p = ac.pairs[pair]
                sd = math.sqrt(max(kept * p * (1 - p), 1e-30))
                assert abs(data.counts[pair][i] - kept * p) <= 3 * sd + 1e-9

    def test_kept_fraction_near_half(self, bench):
        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=50_000, phi_grid=(0.9,))
        data = run_sweep(bench, cfg, seed=11)
        n = data.trials_total[0]
        sd = math.sqrt(n * 0.25)
        assert abs(data.trials_kept[0] - 0.5 * n) <= 3 * sd

    def test_kept_trials_all_counted_at_unit_qe(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=10_000, phi_grid=(1.7,))
        data = run_sweep(bench, cfg, seed=2)
        total_pairs = sum(int(data.counts[p][0]) for p in PAIR_NAMES)
        assert total_pairs == int(data.trials_kept[0])

    def test_seed_determinism(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=3000,
                        phi_grid=default_phi_grid(5),
                        noise=NoiseModel(qe=0.45, dephasing_sigma=0.4))
        a = run_sweep(bench, cfg, seed=17)
        b = run_sweep(bench, cfg, seed=17)
        assert all((a.counts[p] == b.counts[p]).all() for p in PAIR_NAMES)
        assert (a.trials_kept == b.trials_kept).all()

    def test_one_stream_gives_independent_exact_draws(self, bench):
        # over many seeds, every point's kept and pair counts are binomial
        # around the exact tables: z-scores with mean 0 and variance 1, and
        # adjacent points uncorrelated (a shifted row or a reused stream fails)
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=2000, noise=FULL_NOISE,
                        timing=JITTERED, phi_grid=default_phi_grid(9))
        cells = outcome_distribution(bench, cfg)[:, 1:3, 1:]
        p = np.column_stack([cells.sum(axis=(1, 2)),
                             (cells[:, :, :2] + cells[:, :, 2:]).reshape(-1, 4)])
        n = cfg.trials_per_phi
        runs = [run_sweep(bench, cfg, seed=s) for s in range(300)]
        counts = np.array([np.column_stack([d.trials_kept, *(d.counts[q] for q in PAIR_NAMES)])
                           for d in runs])  # (seed, point, kept + pairs)
        z = (counts - n * p) / np.sqrt(n * p * (1 - p))
        m = z.shape[0] * z.shape[1]
        excess_kurtosis = (1 - 6 * p * (1 - p)) / (n * p * (1 - p))
        for k in range(z.shape[2]):
            zk = z[:, :, k]
            assert abs(zk.mean()) <= 5 / math.sqrt(m)
            assert abs((zk**2).mean() - 1) <= 5 * math.sqrt((2 + excess_kurtosis[:, k].mean()) / m)
        d1_d2s = z[:, :, 1 + PAIR_NAMES.index("D1-D2*")]
        adjacent = (d1_d2s[:, :-1] * d1_d2s[:, 1:]).ravel()
        assert abs(adjacent.mean()) <= 5 / math.sqrt(adjacent.size)

    def test_worker_count_does_not_change_results(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=2000,
                        phi_grid=default_phi_grid(5),
                        noise=NoiseModel(qe=0.7, dephasing_sigma=0.2))
        a = run_sweep(bench, cfg, seed=23, workers=1)
        b = run_sweep(bench, cfg, seed=23, workers=4)
        assert all((a.counts[p] == b.counts[p]).all() for p in PAIR_NAMES)
        assert (a.trials_kept == b.trials_kept).all()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_rejected(self, bench, workers):
        cfg = RunConfig(trials_per_phi=10, phi_grid=(0.0,))
        with pytest.raises(BadParam):
            run_sweep(bench, cfg, seed=0, workers=workers)

    def test_inhibited_d2_fringe_is_pi_flipped(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE_INHIBITED, trials_per_phi=20_000,
                        phi_grid=(0.0,))
        data = run_sweep(bench, cfg, seed=3)
        # at phi=0 the sigma_z state shows no D2-D2* coincidences... all of
        # the D2-triggered ones land there (sin^2 -> 0 means none at D2-D2*)
        assert data.counts["D2-D2*"][0] == 0
        assert data.counts["D2-D1*"][0] > 0

    def test_active_d2_fringe_matches_passive_d1(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=20_000, phi_grid=(0.0,))
        data = run_sweep(bench, cfg, seed=3)
        # correction moves every D2-triggered coincidence onto D2*
        assert data.counts["D2-D1*"][0] == 0
        assert data.counts["D2-D2*"][0] > 0

    def test_round_trip_csv(self, bench):
        from fockbench.protocol import FringeData

        cfg = RunConfig(mode=RunMode.PASSIVE, trials_per_phi=500,
                        phi_grid=default_phi_grid(5))
        data = run_sweep(bench, cfg, seed=1)
        back = FringeData.from_csv(data.to_csv())
        assert back.phi_grid == data.phi_grid
        assert all((back.counts[p] == data.counts[p]).all() for p in PAIR_NAMES)
        assert (back.trials_kept == data.trials_kept).all()
        assert (back.trials_total == data.trials_total).all()


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square upper tail via the series of the lower regularized gamma."""
    a, y = dof / 2.0, x / 2.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= y / (a + n)
        total += term
    return 1.0 - total * math.exp(a * math.log(y) - y - math.lgamma(a))


# both photons can share the cell's V mode (path a), so the two-photon
# channel term S2 is nonzero, which the builtin bench never exercises
BUNCHING_BENCH = """
path a
path b
path c
path d
source photon a V
source photon c V
bs a c theta=0.6
phase a knob
bs a b theta=0.7
bs c d theta=0.5
delay a length_m=8.0
eop a
bs a b theta=0.7853981633974483
detector D1 c V
detector D2 d V
detector D1* a V
detector D2* b V
"""


# both photons can reach the knob path: the first splitter shares them over
# (a, b), so their two-photon term on a picks up e^{2i phi} and every table
# has a |k| = 2 Fourier term, which the builtin bench's tables lack (1e-17);
# the splitter after the cell mixes its mode c with d, fed before the cell
KNOB_PAIR_BENCH = """
path a
path b
path c
path d
source photon a V
source photon b V
bs a b theta=0.6
phase a knob
bs a b theta=0.8
bs b c theta=0.5
bs a d theta=0.4
delay c length_m=8.0
eop c
bs c d theta=0.7853981633974483
detector D1 a V
detector D2 b V
detector D1* c V
detector D2* d V
"""


# seeds of generated protocol benches: the bundled bench with every splitter
# theta, quarter-wave angle and the input theta moved by up to 0.3 rad at random
GENERATED = ("gen1", "gen2", "gen3")


def protocol_bench(which, builtin):
    """The builtin bench, the bunching or knob-pair bench or a generated one,
    by name."""
    from fockbench.bench import figure1_text, parse

    if which == "builtin":
        return builtin
    if which == "bunching":
        return parse(BUNCHING_BENCH)
    if which == "knob-pair":
        return parse(KNOB_PAIR_BENCH)
    rng = np.random.default_rng(int(which.removeprefix("gen")))
    text = re.sub(r"(theta|angle)=(\S+)",
                  lambda m: f"{m[1]}={float(m[2]) + rng.uniform(-0.3, 0.3)!r}",
                  figure1_text())
    return parse(text).with_input_theta(math.pi / 4 + rng.uniform(-0.3, 0.3))


def fock_click_table(bench, phi, armed):
    """Independent derivation: propagate the Fock state through the whole
    pipeline, the cell disarmed or armed, and read off the ideal click table."""
    from fockbench.elements import ElementKind, apply_element, apply_eop
    from fockbench.fock import create_photon, make_vacuum

    det = [bench.modes.index(bench.detectors[d]) for d in ("D1", "D2", "D1*", "D2*")]
    st = make_vacuum(bench.modes)
    for m in bench.sources:
        st = create_photon(st, m)
    for e in bench.pipeline:
        if e.is_knob:
            e = phase_shifter(e.paths[0], phi, knob=True)
        st = apply_element(st, e)
        if armed and e.kind is ElementKind.POCKELS_CELL:
            st = apply_eop(st, ModeId(e.paths[0], Polarization.V))
    out = np.zeros((4, 4))
    for occ, amp in st.amplitudes.items():
        hit = [occ[i] > 0 for i in det]
        out[hit[0] + 2 * hit[1], hit[2] + 2 * hit[3]] += abs(amp) ** 2
    return out


def oracle_count_tables(bench, phi):
    """(2, 9, 9) joint photon counts from the permanent oracle, the knob at
    phi and the cell disarmed ([0]) and fired ([1]: a pi phase on its V mode),
    indexed as ``count_tables``."""
    from fockbench.elements import Action, Element, ElementKind

    det = [bench.modes.index(bench.detectors[d]) for d in ("D1", "D2", "D1*", "D2*")]
    in_occ = [bench.sources.count(m) for m in bench.modes]
    out = np.zeros((2, 9, 9))
    for fired in (0, 1):
        pipeline = []
        for e in bench.pipeline:
            if e.is_knob:
                e = phase_shifter(e.paths[0], phi, knob=True)
            elif fired and e.kind is ElementKind.POCKELS_CELL:
                flip = Action("phase", (ModeId(e.paths[0], Polarization.V),), matrix=(math.pi,))
                e = Element(ElementKind.PHASE_SHIFTER, e.paths, actions=(flip,))
            pipeline.append(e)
        for occ, amp in oracle_amplitudes(pipeline, bench.modes, in_occ).items():
            n = [occ[i] for i in det]
            out[fired, n[0] + 3 * n[1], n[2] + 3 * n[3]] += abs(amp) ** 2
    return out


def table(bench, phi, mode, noise=FULL_NOISE, timing=JITTERED):
    cfg = RunConfig(mode=mode, noise=noise, timing=timing, phi_grid=(phi,))
    return outcome_distribution(bench, cfg)[0]


class TestOutcomeDistribution:
    @pytest.mark.parametrize("mode", list(RunMode))
    @pytest.mark.parametrize("noise", [NoiseModel(), FULL_NOISE])
    def test_sums_to_one(self, bench, mode, noise):
        for phi in (0.0, 1.3, 4.0):
            t = table(bench, phi, mode, noise)
            assert t.min() >= 0.0
            assert t.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", [RunMode.PASSIVE, RunMode.ACTIVE_INHIBITED])
    def test_noiseless_cells_are_the_analytic_fringe(self, bench, mode):
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            cells = table(bench, phi, mode, NoiseModel(), TimingModel())[1:3, 1:]
            kept = cells.sum()
            assert kept == pytest.approx(0.5, abs=1e-12)
            pairs = (cells[:, :2] + cells[:, 2:]).ravel() / kept
            ac = analytic_coincidences(bench, phi)
            assert pairs == pytest.approx([ac.pairs[p] for p in PAIR_NAMES], abs=1e-12)

    @pytest.mark.parametrize("mode", list(RunMode))
    @pytest.mark.parametrize("sigma", [0.3, 0.66])
    def test_dephasing_scales_the_fringe_by_exp_minus_sigma2_over_2(self, bench, mode, sigma):
        sharp = NoiseModel(qe=0.45, dark_count_prob=2e-3)
        blurred = NoiseModel(qe=0.45, dark_count_prob=2e-3, dephasing_sigma=sigma)
        for phi in (0.3, 1.7):
            s0, s1 = table(bench, phi, mode, sharp), table(bench, phi + math.pi, mode, sharp)
            b0, b1 = table(bench, phi, mode, blurred), table(bench, phi + math.pi, mode, blurred)
            # the phase-even part is untouched, the fringe itself shrinks
            assert b0 + b1 == pytest.approx(s0 + s1, abs=1e-12)
            assert b0 - b1 == pytest.approx(math.exp(-sigma**2 / 2) * (s0 - s1), abs=1e-12)

    def test_a_sigma_too_large_to_square_dephases_fully(self, bench):
        # 1e200 squared overflows a float; sigma 40 already damps both
        # coherence factors to exactly 0
        phis = default_phi_grid(9)
        huge = count_tables(bench, phis, sigma=1e200)
        assert np.array_equal(huge, count_tables(bench, phis, sigma=40.0))

    @pytest.mark.parametrize("phi", [0.6, 2.4])
    def test_chi_square_against_run_trial_shots(self, bench, phi):
        # run_trial draws the jittered race itself and Bob's pattern given
        # Alice's; the closed form mixes the fired and disarmed tables instead
        cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=1, noise=FULL_NOISE,
                        timing=JITTERED, phi_grid=(phi,))
        rng = np.random.default_rng(1234)
        shots = 10_000
        observed = np.zeros((4, 4))
        for _ in range(shots):
            rec = run_trial(bench, phi, cfg, rng)
            a, b = rec.alice_clicks.clicks, rec.bob_clicks.clicks
            observed[a["D1"] + 2 * a["D2"], b["D1*"] + 2 * b["D2*"]] += 1
        expected = shots * outcome_distribution(bench, cfg)[0]
        small = expected < 5  # pooled into one cell
        obs = np.append(observed[~small], observed[small].sum())
        exp = np.append(expected[~small], expected[small].sum())
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert chi2_sf(chi2, len(obs) - 1) >= 1e-6

    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.5, 4.1])
    @pytest.mark.parametrize("which", ["builtin", "bunching", "knob-pair", *GENERATED])
    def test_ideal_tables_match_fock_projection(self, bench, phi, which):
        bench = protocol_bench(which, bench)
        # qe 1, no dark counts, sigma 0 and the stock 22 ns < 24 ns race: p_arm = 1
        got = table(bench, phi, RunMode.ACTIVE, NoiseModel(), TimingModel())
        armed, disarmed = fock_click_table(bench, phi, True), fock_click_table(bench, phi, False)
        assert got[2] == pytest.approx(armed[2], abs=1e-12)  # the fired row
        rows = [0, 1, 3]
        assert got[rows] == pytest.approx(disarmed[rows], abs=1e-12)
        assert abs(armed[2] - disarmed[2]).max() > 0.01  # the cell matters here

    @pytest.mark.parametrize("which, fired", [
        pytest.param("bunching", 0, id="0"), pytest.param("bunching", 1, id="1"),
        *(pytest.param(g, f, id=f"{g}-{f}") for g in GENERATED for f in (0, 1)),
    ])
    def test_dephasing_average_equals_quadrature_over_theta(self, bench, which, fired):
        # Gauss-Hermite quadrature of the explicit-theta tables over
        # theta ~ N(0, sigma^2) against the closed-form average, on a bench
        # where the channel carries 0, 1 or 2 photons and on generated ones
        bench = protocol_bench(which, bench)
        phis, sigma = (0.4, 2.9), 0.7
        x, w = np.polynomial.hermite.hermgauss(60)
        quad = sum(wi * count_tables(bench, phis, theta=math.sqrt(2) * sigma * xi)[fired]
                   for xi, wi in zip(x, w)) / math.sqrt(math.pi)
        exact = count_tables(bench, phis, sigma=sigma)[fired]
        assert np.abs(quad - exact).max() < 1e-12
        assert np.abs(exact - count_tables(bench, phis)[fired]).max() > 1e-3

    @pytest.mark.parametrize("which", ["builtin", "bunching"])
    def test_firing_leaves_alices_marginal_unchanged(self, bench, which):
        # run_trial draws Alice's pattern before the race decides which table
        # Bob's pattern comes from
        from fockbench.bench import parse

        if which == "bunching":
            bench = parse(BUNCHING_BENCH)
        unfired, fired = click_tables(bench, default_phi_grid(9), FULL_NOISE)
        assert np.abs(unfired.sum(axis=-1) - fired.sum(axis=-1)).max() <= 1e-15
        assert np.abs(unfired - fired).max() > 0.01

    def test_batched_grid_equals_one_phase_at_a_time(self, bench):
        cfg = RunConfig(mode=RunMode.ACTIVE, noise=FULL_NOISE, timing=JITTERED)
        batched = outcome_distribution(bench, cfg)
        assert batched.shape == (len(cfg.phi_grid), 4, 4)
        for i, phi in enumerate(cfg.phi_grid):
            one = RunConfig(mode=RunMode.ACTIVE, noise=FULL_NOISE, timing=JITTERED,
                            phi_grid=(phi,))
            assert np.abs(batched[i] - outcome_distribution(bench, one)[0]).max() <= 1e-15

    def test_sweep_point_memory_does_not_grow_with_trials(self, bench):
        def peak(trials):
            cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=trials,
                            noise=FULL_NOISE, timing=JITTERED, phi_grid=(1.0,))
            tracemalloc.start()
            try:
                run_sweep(bench, cfg, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # first-call allocations
        assert abs(peak(10**8) - peak(10**3)) <= 64 * 1024

    def test_matches_the_frozen_table(self, bench):
        # frozen from an earlier engine: a faster engine may sum in another
        # order and move the tables by ULPs, but by no more
        cfg = RunConfig(mode=RunMode.ACTIVE, noise=FULL_NOISE,
                        timing=TimingModel(jitter_sigma_ns=1.5))
        want = np.loadtxt(DATA / "outcome_distribution.txt").reshape(-1, 4, 4)
        got = outcome_distribution(bench, cfg)
        assert np.abs(got - want).max() <= 1e-14


def test_click_table_is_built_once_per_noise_model(bench, monkeypatch):
    build, built = noise.click_table, []
    monkeypatch.setattr(noise, "click_table", lambda model: built.append(model) or build(model))
    cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=100, phi_grid=default_phi_grid(9),
                    noise=dataclasses.replace(FULL_NOISE), timing=JITTERED)
    rng = np.random.default_rng(3)
    for i in range(50):
        run_trial(bench, cfg.phi_grid[i % 9], cfg, rng)
    run_sweep(bench, cfg, seed=1)
    assert built == [cfg.noise]
    assert np.array_equal(cfg.noise.clicks, build(cfg.noise))
    with pytest.raises(ValueError, match="read-only"):
        cfg.noise.clicks[0, 0] = 1.0


class TestCountTables:
    def test_both_photons_at_the_knob_give_a_second_harmonic(self):
        # the oracle's tables at 8 equally spaced phases: their |k| = 2
        # Fourier coefficient is what five interpolation nodes are for
        bench = protocol_bench("knob-pair", None)
        phis = 2.0 * math.pi * np.arange(8) / 8
        oracle = np.array([oracle_count_tables(bench, phi) for phi in phis])
        assert np.abs(np.fft.fft(oracle, axis=0)[2] / 8).max() > 1e-3

    @pytest.mark.parametrize("which", ["builtin", "bunching", "knob-pair"])
    def test_matches_the_permanent_oracle_at_random_phases(self, bench, which, rng):
        bench = protocol_bench(which, bench)
        phis = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 30)
        want = np.array([oracle_count_tables(bench, phi) for phi in phis]).swapaxes(0, 1)
        assert np.abs(count_tables(bench, phis) - want).max() <= 1e-13

    @pytest.mark.parametrize("which", ["builtin", "bunching", "knob-pair", *GENERATED])
    @pytest.mark.parametrize("sigma", [0.0, 0.66])
    def test_grid_and_single_phase_agree(self, bench, which, sigma):
        bench = protocol_bench(which, bench)
        grid = default_phi_grid(25)
        tables = count_tables(bench, grid, sigma)
        for i, phi in enumerate(grid):
            assert np.abs(tables[:, i] - count_tables(bench, (phi,), sigma)[:, 0]).max() <= 1e-15

    @pytest.mark.parametrize("which", ["builtin", "bunching", "knob-pair", *GENERATED])
    @pytest.mark.parametrize("noise", [NoiseModel(), FULL_NOISE], ids=["ideal", "full-noise"])
    def test_no_table_goes_negative(self, bench, which, noise, rng):
        # exact zeros come out of the interpolation as rounding-level
        # negatives, about -1e-17, unless they are clipped
        bench = protocol_bench(which, bench)
        phis = rng.uniform(0.0, 2.0 * math.pi, 200)
        assert count_tables(bench, phis, noise.dephasing_sigma).min() >= 0.0
        assert click_tables(bench, phis, noise).min() >= 0.0


class TestPhotonRows:
    """The two photons' pass through the optics runs once per bench."""

    @staticmethod
    def count_passes(monkeypatch) -> list:
        """Record every ``elements._carry_rows`` call from here on; a pass
        makes three (to the knob, on to the cell, past it)."""
        calls = []
        carry = elements._carry_rows

        def spy(*args):
            calls.append(args)
            carry(*args)

        monkeypatch.setattr(elements, "_carry_rows", spy)
        return calls

    def test_one_pass_serves_every_sweep_and_shot(self, monkeypatch, rng):
        bench = parse(figure1_text())  # not the shared builtin, whose pass may have run
        calls = self.count_passes(monkeypatch)
        for mode in RunMode:
            run_sweep(bench, RunConfig(mode=mode, noise=FULL_NOISE, timing=JITTERED), seed=1)
        cfg = RunConfig(mode=RunMode.ACTIVE, noise=FULL_NOISE, timing=JITTERED)
        for phi in np.linspace(0.0, 2.0 * math.pi, 50):
            run_trial(bench, phi, cfg, rng)
        assert len(calls) == 3

    @pytest.mark.parametrize("derive", [
        lambda b: b.with_input_theta(math.pi / 4),
        dataclasses.replace,
        lambda b: dataclasses.replace(b.with_delay_m(7.0)),
    ], ids=["with_input_theta", "replace", "replace-of-with_delay_m"])
    def test_a_derived_bench_runs_its_own_pass(self, bench, monkeypatch, derive):
        count_tables(bench, (0.0,))
        derived = derive(bench)
        calls = self.count_passes(monkeypatch)
        for phi in (0.0, 1.0):
            count_tables(derived, (phi,))
        assert len(calls) == 3
        assert derived.photon_rows is not bench.photon_rows

    def test_a_delay_edit_shares_the_pass(self, bench, monkeypatch):
        # a delay line has no actions: its length cannot change the pass
        count_tables(bench, (0.0,))
        calls = self.count_passes(monkeypatch)
        with np.load(DATA / "count_tables.npz") as frozen:
            for length in (6.5, 7.33, 8.5):
                derived = bench.with_delay_m(length)
                assert derived.photon_rows is bench.photon_rows
                for sigma in (0.0, 0.66):
                    for theta in (0.0, 0.4):
                        want = frozen[f"builtin sigma={sigma} theta={theta}"]
                        got = count_tables(derived, (0.0, 1.3, 4.0), sigma, theta)
                        assert np.array_equal(got, want)
        assert calls == []

    def test_delay_edits_run_their_first_parents_pass_once(self, monkeypatch):
        parent = parse(figure1_text())  # not the shared builtin, whose pass may have run
        calls = self.count_passes(monkeypatch)
        first = parent.with_delay_m(7.0)
        second = first.with_delay_m(9.0)
        for b in (second, first, parent):
            count_tables(b, (0.0, 1.0))
        assert len(calls) == 3
        assert second.photon_rows is first.photon_rows is parent.photon_rows
        assert second.delay_m == 9.0 and first.delay_m == 7.0 and parent.delay_m == 8.0

    def test_a_retuned_input_gives_other_tables(self, bench):
        phis = (0.0, 1.3, 4.0)
        want = count_tables(bench, phis)
        got = count_tables(bench.with_input_theta(0.3), phis)
        assert np.abs(got - want).max() > 0.1

    def test_the_cached_arrays_are_read_only(self, bench):
        rows = bench.photon_rows
        for a in (rows.rows, rows.at_channel, rows.classes):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_a_failed_pass_is_not_cached(self, bench):
        no_eop = Bench(bench.path_names, bench.sources,
                       tuple(e for e in bench.pipeline if e.kind.value != "eop"),
                       dict(bench.detectors))
        messages = []
        for _ in range(2):
            with pytest.raises(ProtocolError) as err:
                count_tables(no_eop, (0.0,))
            messages.append(str(err.value))
        assert messages == ["protocol needs exactly one Pockels cell, got 0"] * 2
        assert "photon_rows" not in vars(no_eop)

    def test_a_delay_edit_of_an_unrunnable_bench_raises_on_first_use(self, bench):
        no_eop = Bench(bench.path_names, bench.sources,
                       tuple(e for e in bench.pipeline if e.kind.value != "eop"),
                       dict(bench.detectors))
        derived = no_eop.with_delay_m(7.0)  # the edit itself does not run the pass
        assert derived.delay_m == 7.0
        with pytest.raises(ProtocolError, match="exactly one Pockels cell, got 0"):
            count_tables(derived, (0.0,))
        assert "photon_rows" not in vars(derived)
        assert "photon_rows" not in vars(no_eop)

    @pytest.mark.parametrize("which", ["builtin", "bunching", "knob-pair", *GENERATED])
    @pytest.mark.parametrize("sigma", [0.0, 0.66])
    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_tables_match_the_frozen_ones_bit_for_bit(self, bench, which, sigma, theta):
        # frozen before the pass was cached on the bench, on x86-64 with
        # numpy 2.4 and OpenBLAS: the first call and a cached one must both
        # give exactly those floats
        bench = protocol_bench(which, bench)
        with np.load(DATA / "count_tables.npz") as frozen:
            want = frozen[f"{which} sigma={sigma} theta={theta}"]
        for _ in range(2):
            assert np.array_equal(count_tables(bench, (0.0, 1.3, 4.0), sigma, theta), want)


@pytest.mark.parametrize("which", ["builtin", *GENERATED])
def test_transfer_matrix_of_every_slice_is_the_per_element_product(bench, which):
    pipeline, modes = protocol_bench(which, bench).pipeline, bench.modes
    eye = np.eye(len(modes))
    for i in range(len(pipeline)):
        for j in range(i, len(pipeline) + 1):
            mat = transfer_matrix(pipeline[i:j], modes)
            assert np.abs(mat - composed_matrix(pipeline[i:j], modes)).max() <= 1e-14
            assert np.abs(mat @ mat.conj().T - eye).max() <= 1e-14


class TestConfig:
    def test_trials_must_be_positive(self):
        with pytest.raises(BadParam):
            RunConfig(trials_per_phi=0)

    def test_empty_grid_is_rejected(self):
        with pytest.raises(BadParam, match="empty"):
            RunConfig(phi_grid=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_rejected(self, bench, bad):
        with pytest.raises(BadParam, match="not finite"):
            RunConfig(phi_grid=(0.0, bad, 1.0, 2.0))
        with pytest.raises(BadParam, match="not finite"):
            run_trial(bench, bad, RunConfig(), np.random.default_rng(0))

    def test_default_grid_25_points(self):
        cfg = RunConfig()
        assert len(cfg.phi_grid) == 25
        assert cfg.phi_grid[0] == 0.0
        assert cfg.phi_grid[-1] == pytest.approx(2 * math.pi)

    def test_mode_parsing(self):
        assert RunMode.parse("active-inhibited") is RunMode.ACTIVE_INHIBITED
        assert RunMode.parse("passive") is RunMode.PASSIVE
        with pytest.raises(BadParam):
            RunMode.parse("bogus")

    def test_protocol_needs_eop(self, bench):
        from fockbench.bench import Bench

        no_eop = Bench(
            bench.path_names, bench.sources,
            tuple(e for e in bench.pipeline if e.kind.value != "eop"),
            dict(bench.detectors),
        )
        with pytest.raises(ProtocolError):
            run_sweep(no_eop, RunConfig(trials_per_phi=1, phi_grid=(0.0,)), seed=0)


    @pytest.mark.parametrize("sources", ["one", "same-mode"])
    def test_protocol_needs_two_sources_on_distinct_modes(self, bench, sources):
        from fockbench.bench import Bench

        src = bench.sources[:1] if sources == "one" else bench.sources[:1] * 2
        odd = Bench(bench.path_names, src, bench.pipeline, dict(bench.detectors))
        with pytest.raises(ProtocolError):
            run_sweep(odd, RunConfig(trials_per_phi=1, phi_grid=(0.0,)), seed=0)

    def test_protocol_needs_the_knob_before_the_cell(self, bench):
        from fockbench.bench import Bench
        from fockbench.elements import phase_shifter

        # the knob moved onto Bob's output path, past the cell
        knob = bench.knob_index
        moved = (bench.pipeline[:knob] + bench.pipeline[knob + 1:]
                 + (phase_shifter(bench.path_names.index("b2"), knob=True),))
        late = Bench(bench.path_names, bench.sources, moved, dict(bench.detectors))
        with pytest.raises(ProtocolError):
            run_sweep(late, RunConfig(trials_per_phi=1, phi_grid=(0.0,)), seed=0)

    def test_protocol_keeps_alices_modes_clear_of_the_cell(self, bench):
        from fockbench.bench import Bench
        from fockbench.elements import phase_shifter

        # a fixed phase on D1's path, past the cell
        ka = bench.path_names.index("ka")
        late = Bench(bench.path_names, bench.sources,
                     bench.pipeline + (phase_shifter(ka, 0.1),), dict(bench.detectors))
        with pytest.raises(ProtocolError, match="after the Pockels cell"):
            run_sweep(late, RunConfig(trials_per_phi=1, phi_grid=(0.0,)), seed=0)

    @pytest.mark.parametrize("steps", [0, 2, 3])
    def test_grid_too_coarse_to_fit_is_rejected(self, steps):
        with pytest.raises(BadParam):
            default_phi_grid(steps)


class TestPhaseFromPosition:
    def test_zero(self):
        assert phase_from_position(0.0, 727.6e-9) == 0.0

    def test_mirror_travel_for_pi(self):
        x = position_from_phase(math.pi, 727.6e-9)
        assert x == pytest.approx(727.6e-9 / 2**1.5, rel=1e-12)
        assert x == pytest.approx(257.25e-9, abs=0.01e-9)

    def test_round_trip(self):
        lam = 727.6e-9
        for x in (0.0, 1e-7, 3.3e-7):
            back = position_from_phase(phase_from_position(x, lam), lam)
            assert back == pytest.approx(x, abs=1e-12 * max(x, 1e-9))

    def test_bad_wavelength(self):
        with pytest.raises(BadParam):
            phase_from_position(1.0, 0.0)
        with pytest.raises(BadParam):
            position_from_phase(1.0, -1.0)


class TestInputTheta:
    def test_settings_reproduce_weights(self, bench):
        # the preparation splitter at theta leaves the vacuum amplitude
        # sin(theta) on the ancilla branch, so the no-Alice-click (both
        # photons at Bob) weight is sin^2(theta) / 2
        retuned = bench.with_input_theta(0.4)
        no_click = alice_marginal(retuned, 0.0)[0]
        assert no_click == pytest.approx(math.sin(0.4) ** 2 / 2, abs=1e-12)
