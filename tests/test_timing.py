import math

import numpy as np
import pytest

from fockbench.errors import BadParam
from fockbench.timing import (
    ALICE_CLICK,
    EOP_APPLIED,
    EOP_MISSED,
    HV_READY,
    PHOTON_AT_EOP,
    PHOTON_EMITTED,
    RaceResult,
    TimingModel,
    race,
    shot_log,
)


class TestTimingModel:
    def test_stock_defaults(self):
        t = TimingModel()
        assert t.risetime_ns == 22.0
        assert t.delay_ns_per_m == 3.0

    def test_negative_rejected(self):
        with pytest.raises(BadParam):
            TimingModel(risetime_ns=-1.0)

    @pytest.mark.parametrize("kw", [
        {"risetime_ns": math.nan}, {"delay_ns_per_m": math.inf}, {"jitter_sigma_ns": math.nan},
    ])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(BadParam):
            TimingModel(**kw)


class TestRace:
    def test_stock_bench_makes_it(self):
        # 8 m at 3.0 ns/m gives 24 ns of flight against a 22 ns risetime
        rr = race(TimingModel(), 8.0)
        assert rr.armed_in_time
        assert rr.photon_at_eop_ns == pytest.approx(24.0)
        assert rr.hv_ready_ns == pytest.approx(22.0)

    def test_six_meters_misses(self):
        rr = race(TimingModel(), 6.0)
        assert not rr.armed_in_time

    def test_zero_risetime_always_wins(self):
        rr = race(TimingModel(risetime_ns=0.0), 0.1)
        assert rr.armed_in_time

    def test_log_is_time_sorted_and_complete(self):
        rr = race(TimingModel(), 8.0)
        times = [e.t_ns for e in rr.log.events]
        assert times == sorted(times)
        kinds = [e.kind for e in rr.log.events]
        assert kinds[0] == PHOTON_EMITTED
        assert ALICE_CLICK in kinds and HV_READY in kinds and PHOTON_AT_EOP in kinds
        assert EOP_APPLIED in kinds and EOP_MISSED not in kinds

    def test_missed_race_logs_miss(self):
        rr = race(TimingModel(), 6.0)
        kinds = [e.kind for e in rr.log.events]
        assert EOP_MISSED in kinds and EOP_APPLIED not in kinds

    def test_hv_ready_invariant(self, rng):
        t = TimingModel(risetime_ns=23.5, jitter_sigma_ns=0.5)
        for _ in range(50):
            rr = race(t, 8.0, rng)
            hv = [e for e in rr.log.events if e.kind == HV_READY][0]
            assert hv.t_ns == pytest.approx(rr.hv_ready_ns)
            assert rr.hv_ready_ns >= 1.5  # click at 0, + 1.5, jitter aside

    def test_log_details_carry_the_drawn_jitter(self, rng):
        t = TimingModel(jitter_sigma_ns=3.0)
        draws = [race(t, 8.0, rng) for _ in range(50)]
        assert {rr.armed_in_time for rr in draws} == {False, True}
        for rr in draws:
            assert rr.hv_ready_ns == t.risetime_ns + rr.jitter_ns
            details = {e.kind: e.detail for e in rr.log.events}
            assert details[HV_READY] == f"jitter={rr.jitter_ns:.3f}"
            if not rr.armed_in_time:
                late = rr.hv_ready_ns - rr.photon_at_eop_ns
                assert details[EOP_MISSED] == f"late by {late:.3f} ns"

    def test_jittered_race_needs_an_rng(self):
        with pytest.raises(BadParam, match="rng"):
            race(TimingModel(jitter_sigma_ns=1.0), 8.0)

    def test_threshold_flips_exactly_once(self):
        t = TimingModel()
        armed = [race(t, d, None).armed_in_time
                 for d in np.linspace(5.0, 10.0, 201)]
        flips = sum(a != b for a, b in zip(armed, armed[1:]))
        assert flips == 1
        assert not armed[0] and armed[-1]

    def test_jitter_miss_rate_matches_gaussian_cdf(self, rng):
        # deadline 24 ns, mean ready 22 ns, sigma 3 ns
        t = TimingModel(jitter_sigma_ns=3.0)
        n = 100_000
        misses = sum(not race(t, 8.0, rng).armed_in_time for _ in range(n))
        z = (24.0 - 22.0) / 3.0
        want = 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert abs(misses / n - want) < 0.01

    def test_csv_export(self):
        rr = race(TimingModel(), 8.0)
        csv = rr.log.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "timestamp_ns,event,detail"
        assert len(lines) == len(rr.log.events) + 1
        assert any("EopApplied" in line for line in lines)


class TestArmingProbability:
    @pytest.mark.parametrize("slack", [-1e-9, 0.0, 1e-9])
    def test_step_matches_race_without_jitter(self, slack):
        # 8 m at 3 ns/m is 24 ns of flight against a risetime of 24 - slack
        t = TimingModel(risetime_ns=24.0 - slack)
        armed = race(t, 8.0).armed_in_time
        assert armed == (slack >= 0)
        assert t.arming_probability(8.0) == float(armed)

    def test_matches_jittered_race_draws(self, rng):
        t = TimingModel(risetime_ns=23.5, jitter_sigma_ns=1.5)
        p = t.arming_probability(8.0)
        assert 0.5 < p < 0.7
        n = 20_000
        hits = sum(race(t, 8.0, rng).armed_in_time for _ in range(n))
        assert abs(hits - n * p) <= 5 * math.sqrt(n * p * (1 - p))


class TestShotLog:
    def test_equal_times_keep_the_build_order(self):
        # risetime 0 against a 0 m line: every event lands at t = 0
        rr = RaceResult(True, 0.0, 0.0, 0.0)
        kinds = [(e.kind, e.detail) for e in shot_log(["D2"], rr).events]
        assert kinds == [(PHOTON_EMITTED, ""), (ALICE_CLICK, "D2"),
                         (HV_READY, "jitter=0.000"), (PHOTON_AT_EOP, ""), (EOP_APPLIED, "")]

    def test_early_high_voltage_comes_first(self):
        # a jitter of -30 ns puts the high voltage before the click
        rr = RaceResult(True, -8.0, 24.0, -30.0)
        log = shot_log(["D2"], rr)
        assert [e.kind for e in log.events] == [HV_READY, PHOTON_EMITTED, ALICE_CLICK,
                                               PHOTON_AT_EOP, EOP_APPLIED]
        assert log.events[0].t_ns == -8.0
