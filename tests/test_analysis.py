import math

import numpy as np
import pytest

from fockbench.analysis import (
    CLASSICAL_FIDELITY_BOUND,
    classical_bound_check,
    error_propagation,
    fidelity_from_visibility,
    fit_fringe,
    wrap_phase,
)
from fockbench.errors import BadParam, FitUnderdetermined

PHI = np.linspace(0, 2 * math.pi, 25)


def model(a, v, phi0, phi=PHI):
    return a * (1 + v * np.cos(phi - phi0))


class TestFitFringe:
    def test_exact_recovery_of_full_visibility(self):
        fit = fit_fringe(PHI, model(120.0, 1.0, 0.0))
        assert fit.visibility == pytest.approx(1.0, abs=1e-3)
        assert fit.sigma_visibility < 1e-3 * 120
        assert fit.amplitude == pytest.approx(120.0, rel=1e-10)
        assert fit.phi0 == pytest.approx(0.0, abs=1e-10)

    def test_exact_recovery_with_offset(self):
        fit = fit_fringe(PHI, model(50.0, 0.62, 1.1))
        assert fit.visibility == pytest.approx(0.62, abs=1e-10)
        assert fit.phi0 == pytest.approx(1.1, abs=1e-10)

    def test_generate_and_recover_at_sampling_noise(self, rng):
        # binomial draws around a V=0.80 fringe, 1e5 trials per point
        n = 100_000
        p = (1 + 0.80 * np.cos(PHI)) / 8.0
        counts = rng.binomial(n, p)
        fit = fit_fringe(PHI, counts.astype(float))
        assert fit.visibility == pytest.approx(0.80, abs=0.01)
        assert fit.phi0 == pytest.approx(0.0, abs=0.02)

    def test_flat_counts_give_zero_visibility_unlocked(self):
        fit = fit_fringe(PHI, np.full_like(PHI, 37.0))
        assert fit.visibility == pytest.approx(0.0, abs=1e-10)
        assert not fit.phase_locked

    def test_underdetermined_grid(self):
        with pytest.raises(FitUnderdetermined):
            fit_fringe(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_mismatched_shapes(self):
        with pytest.raises(BadParam, match="same shape"):
            fit_fringe(PHI, model(10.0, 0.5, 0.0)[:-1])

    def test_degenerate_equal_phases(self):
        phi = np.full(10, 0.5)
        with pytest.raises(FitUnderdetermined):
            fit_fringe(phi, np.ones(10))

    def test_scale_equivariance(self):
        counts = model(80.0, 0.7, 0.9)
        a = fit_fringe(PHI, counts)
        b = fit_fringe(PHI, counts * 13.0)
        assert b.amplitude == pytest.approx(13.0 * a.amplitude, rel=1e-10)
        assert b.visibility == pytest.approx(a.visibility, abs=1e-10)
        assert b.phi0 == pytest.approx(a.phi0, abs=1e-10)

    def test_clamping_keeps_raw_value(self, rng):
        # sparse noisy data can push the raw estimate past 1
        p = (1 + np.cos(PHI)) / 8.0
        counts = rng.binomial(200, p).astype(float)
        fit = fit_fringe(PHI, counts)
        assert 0.0 <= fit.visibility <= 1.0
        assert fit.visibility_raw >= fit.visibility

    def test_chi2_of_well_specified_model(self, rng):
        # golden-seed draw; Wilson-Hilferty gives the p=0.001 critical value
        n = 50_000
        p = (1 + 0.9 * np.cos(PHI - 0.4)) / 8.0
        counts = rng.binomial(n, p).astype(float)
        fit = fit_fringe(PHI, counts)
        dof = fit.dof
        z = 3.0902  # 0.999 quantile of the standard normal
        crit = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
        assert fit.chi2 < crit

    def test_against_grid_search_oracle(self):
        counts = model(60.0, 0.55, 2.0) + np.array(
            [3, -2, 1, 0, -1, 2, -3, 1, 0, 2, -1, -2, 3, 0, 1, -1, 2, 0, -2, 1, 0, -1, 1, 2, -2]
        )
        fit = fit_fringe(PHI, counts)
        w = 1.0 / np.maximum(counts, 1.0)
        best = (np.inf, None, None)
        for v in np.linspace(0, 1, 201):
            for phi0 in np.linspace(0, 2 * math.pi, 361):
                m = 1 + v * np.cos(PHI - phi0)
                a = np.sum(w * counts * m) / np.sum(w * m * m)
                sse = np.sum(w * (counts - a * m) ** 2)
                if sse < best[0]:
                    best = (sse, v, phi0)
        assert fit.visibility == pytest.approx(best[1], abs=0.01)
        assert abs(wrap_phase(fit.phi0 - best[2])) < 0.02


class TestFidelity:
    def test_unit_visibility(self):
        assert fidelity_from_visibility(1.0) == 1.0

    def test_headline_passive_figure(self):
        assert fidelity_from_visibility(0.906) == pytest.approx(0.953, abs=1e-12)

    def test_headline_active_figure(self):
        assert fidelity_from_visibility(0.80) == pytest.approx(0.90, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(BadParam):
            fidelity_from_visibility(1.2)

    def test_monotone(self):
        vs = np.linspace(0, 1, 50)
        fs = [fidelity_from_visibility(v) for v in vs]
        assert all(b > a for a, b in zip(fs, fs[1:]))


class TestErrorPropagation:
    @pytest.mark.parametrize("sv,sf", [(0.04, 0.02), (0.0, 0.0), (0.012, 0.006)])
    def test_half_rule(self, sv, sf):
        import dataclasses

        fit = fit_fringe(PHI, model(10.0, 0.5, 0.0))
        fit = dataclasses.replace(fit, sigma_visibility=sv)
        assert error_propagation(fit) == pytest.approx(sf, abs=1e-15)


class TestClassicalBound:
    def test_headline_active_beats_it(self):
        assert classical_bound_check(0.90)

    def test_below(self):
        assert not classical_bound_check(0.66)

    def test_exactly_two_thirds_is_not_enough(self):
        assert not classical_bound_check(2.0 / 3.0)
        assert CLASSICAL_FIDELITY_BOUND == pytest.approx(2.0 / 3.0)

    def test_range_check(self):
        with pytest.raises(BadParam):
            classical_bound_check(1.5)


class TestWrapPhase:
    @pytest.mark.parametrize("x,want", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (2 * math.pi, 0.0),
        (3.5 * math.pi, -0.5 * math.pi),
    ])
    def test_values(self, x, want):
        assert wrap_phase(x) == pytest.approx(want, abs=1e-12)
