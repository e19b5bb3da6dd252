"""The benchmark's checkers pass correct outputs and fail wrong ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed

PHI = np.linspace(0.0, 2.0 * math.pi, 25)
V = 0.906


def sampled_fringe(sign: int, seed: int = 5, kept: int = 50_000):
    """Pair counts drawn from the closed form, with the D1-D2* sign flipped if -1."""
    rng = np.random.default_rng(seed)
    kept = np.full(PHI.shape, kept)
    counts = {}
    for pair in checks.PAIR_SIGN:
        s = checks.pair_sign(pair, active=False) * (sign if pair == "D1-D2*" else 1)
        counts[pair] = rng.binomial(kept, (1 + s * V * np.cos(PHI)) / 4)
    return counts, kept


def test_fringe_counts_pass_the_closed_form():
    counts, kept = sampled_fringe(+1)
    checks.fringe_counts(PHI, counts, kept, V, active=False)


def test_fringe_with_the_sign_flipped_fails():
    counts, kept = sampled_fringe(-1)
    with pytest.raises(CheckFailed, match="D1-D2"):
        checks.fringe_counts(PHI, counts, kept, V, active=False)


def test_active_mode_swaps_the_d2_signs():
    counts, kept = sampled_fringe(+1)
    with pytest.raises(CheckFailed):
        checks.fringe_counts(PHI, counts, kept, V, active=True)


@pytest.mark.parametrize("off_sigmas, ok", [(0.0, True), (3.0, True), (10.0, False)])
def test_visibility_off_by_sigmas(off_sigmas, ok):
    sigma_v = 0.004
    v = V + off_sigmas * sigma_v
    if ok:
        checks.fidelity("passive", v, sigma_v, 0.5 * (1 + V))
    else:
        with pytest.raises(CheckFailed, match="fidelity"):
            checks.fidelity("passive", v, sigma_v, 0.5 * (1 + V))


def test_phase_offset_wraps_and_rejects_no_flip():
    checks.phase_offset("inhibited", -math.pi + 0.01, math.pi, 0.01)
    with pytest.raises(CheckFailed):
        checks.phase_offset("inhibited", 0.02, math.pi, 0.01)


def test_fringe_fit_recovers_signed_visibility_and_phase():
    counts, _ = sampled_fringe(+1)
    fit = checks.fringe_fit(PHI, counts["D1-D2*"].astype(float))
    assert abs(fit["vcos"] - V) < 7 * fit["sigma_vcos"]
    assert abs(fit["phi0"]) < 7 * fit["sigma_phi0"]
    flipped = checks.fringe_fit(PHI, counts["D1-D1*"].astype(float))
    assert abs(flipped["vcos"] + V) < 7 * flipped["sigma_vcos"]


def test_race_scan_relation():
    fit12 = {"vcos": 0.8, "sigma_vcos": 0.02, "phi0": 0.01, "sigma_phi0": 0.02}
    armed = checks.armed_share(8.0, 3.0, 22.0, 1.5)
    good = {"vcos": 0.8 * (2 * armed - 1), "sigma_vcos": 0.03}
    checks.race_scan_point(fit12, good, armed, 8.0)
    with pytest.raises(CheckFailed, match="D2-D2"):
        checks.race_scan_point(fit12, {"vcos": -0.8, "sigma_vcos": 0.03}, armed, 8.0)
    with pytest.raises(CheckFailed, match="D1-D2"):
        checks.race_scan_point(dict(fit12, phi0=math.pi), good, armed, 8.0)


def test_corrected_share():
    armed = checks.armed_share(8.0, 3.0, 22.0, 1.5)
    assert armed == pytest.approx(0.9088, abs=1e-4)
    checks.corrected_share(2000, round(2000 * armed), armed)
    with pytest.raises(CheckFailed, match="corrected"):
        checks.corrected_share(2000, 1000, armed)


def test_binomial_kept_share():
    checks.binomial("kept", [50_100, 49_900], [100_000, 100_000], 0.5)
    with pytest.raises(CheckFailed):
        checks.binomial("kept", [51_500], [100_000], 0.5)


GOOD_LOG = ("timestamp_ns,event,detail\n"
            "0.000000,PhotonEmitted,\n0.000000,AliceClick,D2\n"
            "22.100000,HvReady,jitter=0.100\n24.000000,PhotonAtEop,\n"
            "24.000000,EopApplied,\n")


def shot_args(**kw):
    args = dict(alice_clicks=1, bob_clicks=1, idle=False, discarded=False,
                d2_trigger=True, corrected=True,
                events=checks.events_from_csv(GOOD_LOG))
    args.update(kw)
    return args


def test_a_correct_shot_passes():
    checks.shot(**shot_args())
    checks.shot(**shot_args(alice_clicks=2, idle=True, discarded=True,
                            d2_trigger=False, corrected=False,
                            events=[(0.0, "PhotonEmitted")]))


def test_event_log_out_of_time_order_fails():
    events = checks.events_from_csv(GOOD_LOG)
    events[1], events[3] = events[3], events[1]
    with pytest.raises(CheckFailed, match="time order"):
        checks.shot(**shot_args(events=events))


@pytest.mark.parametrize("bad", [
    dict(discarded=True),                       # kept coincidence discarded
    dict(bob_clicks=0),                         # kept without a Bob click
    dict(idle=True),                            # idle but not discarded
    dict(events=[(0.0, "PhotonEmitted")]),      # D2 trigger with no EOP event
])
def test_shot_rule_violations_fail(bad):
    with pytest.raises(CheckFailed):
        checks.shot(**shot_args(**bad))


def test_corrected_shot_without_eop_applied_fails():
    events = [(t, "EopMissed" if k == "EopApplied" else k)
              for t, k in checks.events_from_csv(GOOD_LOG)]
    with pytest.raises(CheckFailed, match="EopApplied"):
        checks.shot(**shot_args(events=events))
