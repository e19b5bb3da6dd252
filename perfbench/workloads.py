"""The benchmark's workloads: inputs made from a seed, unit operations, checks.

A workload is run in rounds.  ``round_ops(r)`` gives round r's unit
operations, each a callable taking no argument; ``check(r, outputs)``
tests their outputs against closed forms and raises ``checks.CheckFailed``;
``finish()`` runs the checks that pool every round.  The program is called
only through module attributes (``protocol.run_sweep``, ``cli.main``), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from pathlib import Path

import numpy as np

import checks
from fockbench import analysis, bench, cli, noise, protocol, timing

PHI_STEPS = 25
#: the paper's passive and active visibilities, as ``reproduce-paper`` takes them
V_PASSIVE, V_ACTIVE = 0.906, 0.80
#: the stock feed-forward chain: 22 ns risetime against 3 ns/m of delay line
RISETIME_NS, NS_PER_M = 22.0, 3.0
#: race-scan and shot-log noise: detector efficiency, dark counts, jitter, dephasing
QE, DARK_PROB, JITTER_NS, SIGMA = 0.45, 2e-3, 1.5, 0.66


def round_seeds(seed: int, r: int, n: int) -> list[int]:
    """n program seeds for round r, fixed by the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, r]).generate_state(n)]


class PaperHeadline:
    """The three ``reproduce-paper`` sweeps, each followed by its fringe fit."""

    trials_per_phi = 100_000

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.bench = bench.load(None)
        sigma_passive = noise.calibrate_sigma(1.0, V_PASSIVE)
        sigma_total = math.hypot(sigma_passive,
                                 noise.calibrate_sigma(V_PASSIVE, V_ACTIVE))
        grid = protocol.default_phi_grid(PHI_STEPS)

        def cfg(mode, sigma):
            return protocol.RunConfig(mode=mode, trials_per_phi=self.trials_per_phi,
                                      phi_grid=grid,
                                      noise=noise.NoiseModel(dephasing_sigma=sigma),
                                      timing=timing.TimingModel())

        # (config, fitted pair, closed-form visibility) as reproduce-paper runs them
        self.sweeps = [
            (cfg(protocol.RunMode.PASSIVE, sigma_passive), "D1-D2*", V_PASSIVE),
            (cfg(protocol.RunMode.ACTIVE_INHIBITED, sigma_total), "D2-D2*", V_ACTIVE),
            (cfg(protocol.RunMode.ACTIVE, sigma_total), "D2-D2*", V_ACTIVE),
        ]
        self.trials_per_round = len(self.sweeps) * PHI_STEPS * self.trials_per_phi

    def round_ops(self, r: int):
        # seed, seed + 1, seed + 2 as reproduce-paper gives its three sweeps
        base = round_seeds(self.seed, r, 1)[0] % 2**62
        return [functools.partial(self._sweep, cfg, pair, base + k)
                for k, (cfg, pair, _) in enumerate(self.sweeps)]

    def _sweep(self, cfg, pair, seed):
        data = protocol.run_sweep(self.bench, cfg, seed=seed, workers=1)
        fit = analysis.fit_fringe(np.array(data.phi_grid), data.counts[pair])
        return data, fit

    def check(self, r: int, outputs) -> None:
        fits = []
        for (cfg, _, v), (data, fit) in zip(self.sweeps, outputs):
            name = cfg.mode.value
            checks.binomial(f"{name} trials_kept", data.trials_kept,
                            data.trials_total, 0.5)
            checks.fringe_counts(data.phi_grid, data.counts, data.trials_kept, v,
                                 active=cfg.mode is protocol.RunMode.ACTIVE)
            checks.fidelity(name, fit.visibility, fit.sigma_visibility, 0.5 * (1 + v))
            fits.append(fit)
        passive, inhibited, active = fits
        for name, fit, offset in (("inhibited", inhibited, math.pi),
                                  ("active", active, 0.0)):
            checks.phase_offset(f"{name} phi0 - passive phi0",
                                fit.phi0 - passive.phi0, offset,
                                math.hypot(fit.sigma_phi0, passive.sigma_phi0))

    def finish(self) -> None:
        pass


class RaceScan:
    """CLI ``run`` then ``analyze`` at delay lengths across the race threshold."""

    trials_per_phi = 2000
    lengths_m = tuple(float(x) for x in np.linspace(6.5, 8.5, 21))

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.flags = ["--mode", "active", "--trials", str(self.trials_per_phi),
                      "--phi-steps", str(PHI_STEPS), "--qe", str(QE),
                      "--dark-prob", str(DARK_PROB), "--jitter-ns", str(JITTER_NS),
                      "--dephasing-sigma", str(SIGMA),
                      "--risetime-ns", str(RISETIME_NS), "--ns-per-m", str(NS_PER_M)]
        self.trials_per_round = len(self.lengths_m) * PHI_STEPS * self.trials_per_phi

    def round_ops(self, r: int):
        seeds = round_seeds(self.seed, r, len(self.lengths_m))
        return [functools.partial(self._point, i, length, s)
                for i, (length, s) in enumerate(zip(self.lengths_m, seeds))]

    def _point(self, i: int, length: float, seed: int):
        out = self.scratch / f"point{i}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = (cli.main(["run", *self.flags, "--seed", str(seed),
                               "--delay-m", repr(length), "--out", str(out)]),
                     cli.main(["analyze", str(out / "fringe.csv")]))
        return codes, stdout.getvalue()

    def check(self, r: int, outputs) -> None:
        for i, (length, (codes, report)) in enumerate(zip(self.lengths_m, outputs)):
            if codes != (0, 0):
                raise checks.CheckFailed(f"exit codes {codes} at {length} m")
            csv = (self.scratch / f"point{i}" / "fringe.csv").read_text(encoding="utf-8")
            phi, counts = checks.fringe_from_csv(csv)
            fits = {}
            for pair in ("D1-D2*", "D2-D2*"):
                fits[pair] = fit = checks.fringe_fit(phi, counts[pair])
                key = pair.replace("*", "s")
                printed = dict(line.split("=", 1) for line in report.splitlines()
                               if line.startswith(key + "."))
                vcos = (float(printed[f"{key}.visibility"])
                        * math.cos(float(printed[f"{key}.phi0"])))
                checks.within(f"analyze {pair} V cos(phi0)", vcos, fit["vcos"], 2e-6)
            checks.race_scan_point(fits["D1-D2*"], fits["D2-D2*"], checks.armed_share(
                length, NS_PER_M, RISETIME_NS, JITTER_NS), length)

    def finish(self) -> None:
        pass


class ShotLog:
    """Sequential ``run_trial`` shots over the phase grid, each log serialised."""

    delay_m = 8.0  # the builtin bench's delay line

    def __init__(self, seed: int, scratch: Path):
        self.bench = bench.load(None)
        self.cfg = protocol.RunConfig(
            mode=protocol.RunMode.ACTIVE,
            phi_grid=protocol.default_phi_grid(PHI_STEPS),
            noise=noise.NoiseModel(qe=QE, dephasing_sigma=SIGMA,
                                   dark_count_prob=DARK_PROB),
            timing=timing.TimingModel(risetime_ns=RISETIME_NS,
                                      delay_ns_per_m=NS_PER_M,
                                      jitter_sigma_ns=JITTER_NS))
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.trials_per_round = PHI_STEPS
        self.kept_d2 = self.corrected = 0

    def round_ops(self, r: int):
        return [functools.partial(self._shot, phi) for phi in self.cfg.phi_grid]

    def _shot(self, phi: float):
        record = protocol.run_trial(self.bench, phi, self.cfg, self.rng)
        return record, record.log.to_csv()

    def check(self, r: int, outputs) -> None:
        for record, csv in outputs:
            alice = [d for d, hit in record.alice_clicks.clicks.items() if hit]
            d2_trigger = alice == ["D2"]
            checks.shot(len(alice), sum(record.bob_clicks.clicks.values()),
                        record.bell.idle, record.discarded, d2_trigger,
                        record.corrected, checks.events_from_csv(csv))
            if d2_trigger and not record.discarded:
                self.kept_d2 += 1
                self.corrected += record.corrected

    def finish(self) -> None:
        checks.corrected_share(self.kept_d2, self.corrected, checks.armed_share(
            self.delay_m, NS_PER_M, RISETIME_NS, JITTER_NS))


WORKLOADS = {"paper-headline": PaperHeadline, "race-scan": RaceScan,
             "shot-log": ShotLog}
