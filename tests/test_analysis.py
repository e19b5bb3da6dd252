import math

import numpy as np
import pytest

from fockbench.analysis import (
    CLASSICAL_FIDELITY_BOUND,
    classical_bound_check,
    error_propagation,
    fidelity_from_visibility,
    fit_fringe,
    fit_fringes,
    wrap_phase,
)
from fockbench.errors import BadParam, FitUnderdetermined
from fockbench.protocol import default_phi_grid

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_rejected(self, bad):
        phi = PHI.copy()
        phi[3] = bad
        with pytest.raises(BadParam, match="finite"):
            fit_fringe(phi, model(10.0, 0.5, 0.0))

    def test_distinct_phases_are_counted_after_rounding(self):
        # four settings, two of them 1e-13 apart: three distinct ones
        phi = np.array([0.0, 1.0, 2.0, 2.0 + 1e-13])
        with pytest.raises(FitUnderdetermined):
            fit_fringe(phi, np.ones(4))
        assert fit_fringe(phi + [0, 0, 0, 1e-9], np.ones(4)).dof == 1

    def test_settings_are_counted_modulo_two_pi(self):
        # default_phi_grid's ends 0 and 2 pi are one setting: a 4-step grid
        # has three, a 5-step grid four
        four, five = np.array(default_phi_grid(4)), np.array(default_phi_grid(5))
        with pytest.raises(FitUnderdetermined, match="modulo 2 pi"):
            fit_fringe(four, model(10.0, 0.5, 0.3, four))
        fit = fit_fringe(five, model(10.0, 0.5, 0.3, five))
        assert fit.visibility == pytest.approx(0.5, abs=1e-9)
        # a repeated setting is still an independent draw: dof counts points
        assert fit.dof == 2

    @pytest.mark.parametrize("turns", [-3, 1, 2])
    def test_whole_turns_apart_are_one_setting(self, turns):
        phi = np.array([0.0, 1.0, 2.0, 2.0 + 2 * math.pi * turns])
        with pytest.raises(FitUnderdetermined):
            fit_fringe(phi, np.ones(4))

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


def seeded_fringes(rng, rows, trials):
    """(rows, 25) binomial fringes with random visibilities and phases."""
    v = rng.uniform(0.0, 1.0, (rows, 1))
    phi0 = rng.uniform(-math.pi, math.pi, (rows, 1))
    return rng.binomial(trials, (1 + v * np.cos(PHI - phi0)) / 8).astype(float)


def reference_fit(phi, counts):
    """(A, B, C) and their covariance by ``np.linalg.solve`` of one fringe's
    normal equations."""
    x = np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)], axis=1)
    w = 1.0 / np.maximum(counts, 1.0)
    normal = x.T @ (w[:, None] * x)
    return np.linalg.solve(normal, x.T @ (w * counts)), np.linalg.solve(normal, np.eye(3))


class TestFitFringes:
    @pytest.mark.parametrize("rows", [1, 2, 4, 7])
    def test_each_row_is_fit_fringe_of_that_row(self, rng, rows):
        for trials in (200, 2000, 10**6, 10**15):
            counts = seeded_fringes(rng, rows, trials)
            fits = fit_fringes(PHI, counts)
            assert fits == [fit_fringe(PHI, row) for row in counts]

    def test_agrees_with_a_solve_reference(self, rng):
        for trials in (1000, 10**5, 10**9):
            counts = seeded_fringes(rng, 6, trials)
            for fit, row in zip(fit_fringes(PHI, counts), counts):
                (a, b, c), cov = reference_fit(PHI, row)
                assert fit.amplitude == pytest.approx(a, rel=1e-12)
                assert fit.visibility_raw == pytest.approx(math.hypot(b, c) / a, rel=1e-12)
                assert fit.phi0 == pytest.approx(math.atan2(c, b), rel=1e-12, abs=1e-12)
                assert fit.sigma_amplitude == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)

    def test_chi2_is_the_residual_sum_at_huge_counts(self, rng):
        # at counts near 1e15 the moments' form of chi^2, sum(w y^2) minus
        # the fitted part, cancels 15 digits; the residuals' form does not
        mean = 1e15 * (1 + 0.7 * np.cos(PHI - 0.3))
        counts = np.round(mean + np.sqrt(mean) * rng.standard_normal((3, len(PHI))))
        for fit, row in zip(fit_fringes(PHI, counts), counts):
            b = fit.amplitude * fit.visibility_raw * math.cos(fit.phi0)
            c = fit.amplitude * fit.visibility_raw * math.sin(fit.phi0)
            resid = row - (fit.amplitude + b * np.cos(PHI) + c * np.sin(PHI))
            assert fit.chi2 == pytest.approx(np.sum(resid**2 / row), rel=1e-6)
            assert 1 < fit.chi2 < 100  # 22 degrees of freedom

    @pytest.mark.parametrize("counts", [
        [[1.0] * 25, [1.0] * 24],
        [1.0] * 25,
        [[[1.0] * 25]],
        [[1.0] * 24],
        [["a"] * 25],
    ], ids=["ragged", "one-dimensional", "three-dimensional", "short-rows", "not-numbers"])
    def test_a_misshaped_stack_is_rejected(self, counts):
        with pytest.raises(BadParam):
            fit_fringes(PHI, counts)

    def test_a_two_dimensional_grid_is_rejected(self):
        with pytest.raises(BadParam, match="same shape"):
            fit_fringes(PHI[None], [model(10.0, 0.5, 0.0)])

    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_a_non_positive_amplitude_in_any_row_is_rejected(self, bad_row):
        counts = np.array([model(50.0, 0.5, 1.0)] * 3)
        counts[bad_row] = -counts[bad_row]
        with pytest.raises(FitUnderdetermined, match="non-positive fitted amplitude -50") as exc:
            fit_fringes(PHI, counts)
        assert exc.value.row == bad_row

    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_a_singular_row_is_named(self, bad_row):
        # weights of 1e-300 underflow that row's normal determinant to 0
        counts = np.array([model(50.0, 0.5, 1.0)] * 3)
        counts[bad_row] = 1e300
        with pytest.raises(FitUnderdetermined, match="singular normal matrix") as exc:
            fit_fringes(PHI, counts)
        assert exc.value.row == bad_row

    def test_a_grid_too_coarse_for_every_row_names_none(self):
        with pytest.raises(FitUnderdetermined) as exc:
            fit_fringes(PHI[:3], [model(10.0, 0.5, 0.0, PHI[:3])] * 2)
        assert exc.value.row is None

    def test_an_empty_stack_gives_no_fits(self):
        assert fit_fringes(PHI, np.empty((0, len(PHI)))) == []


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
