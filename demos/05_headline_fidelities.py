"""Reproduce the bench's headline teleportation fidelities.

The passive interferometer reaches visibility 0.906 (fidelity 95.3%); the
8 m delay line adds dephasing that drops the active figure to V = 0.80
(fidelity 90%).  ``paper_runs`` calibrates a single Gaussian-phase-noise
knob from those two visibilities via sigma = sqrt(2 ln(v_in / v_out)) and
runs the paper's sweeps; we fit the fringes and recover both numbers, then
push the noise further to find where teleportation stops beating the
classical 2/3 bound.
"""

import math

from fockbench import (
    RunConfig,
    RunMode,
    builtin_figure1,
    classical_bound_check,
    error_propagation,
    fidelity_from_visibility,
    fit_fringe,
    paper_runs,
    run_sweep,
)
from fockbench.analysis import fit_fringes
from fockbench.noise import NoiseModel
from fockbench.protocol import PAPER_VISIBILITIES

bench = builtin_figure1()
v_passive, v_active = PAPER_VISIBILITIES

(sigma_passive, sigma_added, sigma_total), runs = paper_runs(
    bench, 20_000, 25, 10, v_passive, v_active)
print(f"calibrated dephasing: passive {sigma_passive:.4f} rad, "
      f"delay line adds {sigma_added:.4f} rad, total {sigma_total:.4f} rad")
print(f"(decay law: {v_passive} * exp(-{sigma_added:.4f}**2 / 2) = "
      f"{v_passive * math.exp(-sigma_added**2 / 2):.4f})\n")

grid = runs[0][2].phi_grid
fit_p, _, fit_a = fit_fringes(grid, [data.counts[pair] for _, pair, data in runs])
f_p, sf_p = fidelity_from_visibility(fit_p.visibility), error_propagation(fit_p)
f_a, sf_a = fidelity_from_visibility(fit_a.visibility), error_propagation(fit_a)
print(f"passive fidelity: {f_p:.4f} +- {sf_p:.4f}   (target 0.953)")
print(f"active fidelity:  {f_a:.4f} +- {sf_a:.4f}   (target 0.90)")
print(f"both beat the classical bound: {classical_bound_check(f_p)} / "
      f"{classical_bound_check(f_a)}\n")

# how much more delay-line noise could the protocol tolerate?
print("active fidelity vs extra dephasing:")
for extra in (0.0, 0.4, 0.8, 1.2, 1.6):
    sigma = math.hypot(sigma_total, extra)
    cfg = RunConfig(mode=RunMode.ACTIVE, trials_per_phi=20_000, phi_grid=grid,
                    noise=NoiseModel(dephasing_sigma=sigma))
    fit = fit_fringe(grid, run_sweep(bench, cfg, seed=20).counts["D2-D2*"])
    f, sf = fidelity_from_visibility(fit.visibility), error_propagation(fit)
    verdict = "quantum" if classical_bound_check(f) else "classically explainable"
    print(f"  sigma={sigma:.3f}: F = {f:.4f} +- {sf:.4f}  ({verdict})")
