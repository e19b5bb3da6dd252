import itertools
import math

import numpy as np
import pytest

from fockbench.errors import BadCalibration, BadParam
from fockbench.noise import NoiseModel, calibrate_sigma, click_table


class TestNoiseModel:
    def test_defaults(self):
        nm = NoiseModel()
        assert nm.qe == 1.0 and nm.dephasing_sigma == 0.0 and nm.dark_count_prob == 0.0

    @pytest.mark.parametrize("kw", [
        {"qe": 1.5}, {"qe": -0.1}, {"dephasing_sigma": -1.0}, {"dark_count_prob": 1.0},
        {"dephasing_sigma": math.nan}, {"dephasing_sigma": math.inf},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(BadParam):
            NoiseModel(**kw)


class TestThinByEfficiency:
    """Efficiency thinning and dark counts, as the exact per-detector click table."""

    def test_unit_qe_reports_presence(self):
        table = click_table(NoiseModel(qe=1.0))
        for n1, n2 in itertools.product(range(3), repeat=2):
            assert table[n1 + 3 * n2, (n1 > 0) + 2 * (n2 > 0)] == 1.0

    def test_qe_045_click_rate(self):
        assert click_table(NoiseModel(qe=0.45))[1, 1] == pytest.approx(0.45, abs=1e-15)

    def test_zero_qe_dark_counts_only(self):
        table = click_table(NoiseModel(qe=0.0, dark_count_prob=0.01))
        for n in range(3):
            assert table[n, 1] + table[n, 3] == pytest.approx(0.01, abs=1e-15)

    def test_two_photons_click_more(self):
        table = click_table(NoiseModel(qe=0.45))
        assert table[2, 1] == pytest.approx(1 - 0.55**2, abs=1e-15)
        assert table[2, 1] > table[1, 1]

    @pytest.mark.parametrize("qe, dark", [(0.45, 2e-3), (1.0, 0.0), (0.0, 0.01), (0.3, 0.2)])
    def test_matches_explicit_enumeration(self, qe, dark):
        # every photon registers with probability qe and every detector has its
        # own dark count; a detector clicks on either
        table = click_table(NoiseModel(qe=qe, dark_count_prob=dark))
        for n1, n2 in itertools.product(range(3), repeat=2):
            want = np.zeros(4)
            at = [0] * n1 + [1] * n2  # the detector each photon reaches
            for seen in itertools.product((False, True), repeat=n1 + n2):
                for darks in itertools.product((False, True), repeat=2):
                    p = math.prod(qe if s else 1 - qe for s in seen)
                    p *= math.prod(dark if d else 1 - dark for d in darks)
                    hit = [darks[d] or any(s for s, a in zip(seen, at) if a == d)
                           for d in (0, 1)]
                    want[hit[0] + 2 * hit[1]] += p
            assert np.abs(table[n1 + 3 * n2] - want).max() <= 1e-15


class TestCalibrateSigma:
    def test_equal_visibilities_need_no_noise(self):
        assert calibrate_sigma(0.9, 0.9) == 0.0

    def test_headline_calibration(self):
        # V 0.906 -> 0.80, i.e. the bench's F 95.3% -> 90% via V = 2F - 1
        sigma = calibrate_sigma(0.906, 0.80)
        assert sigma == pytest.approx(math.sqrt(2 * math.log(0.906 / 0.80)), abs=1e-12)
        assert sigma == pytest.approx(0.4989, abs=1e-3)
        assert 0.906 * math.exp(-(sigma**2) / 2) == pytest.approx(0.80, abs=1e-12)

    def test_increase_rejected(self):
        with pytest.raises(BadCalibration):
            calibrate_sigma(0.8, 0.9)

    def test_zero_target_rejected(self):
        with pytest.raises(BadCalibration):
            calibrate_sigma(0.9, 0.0)
