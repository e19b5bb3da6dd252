"""Fence on the shot path: seeded ``run_trial`` records, frozen as digests.

Each configuration runs a fixed number of seeded shots over a phase grid and
hashes every record's Bell outcome, both click patterns with their
timestamps, the correction and discard flags and the event-log CSV.  Any
change to the draws, their order or the log fails here.  To re-freeze on
purpose, after the new records have been shown to be distributed as the old
ones, run

    PYTHONPATH=src python tests/test_shot_records.py > tests/data/shot_records.sha256
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fockbench.bench import builtin_figure1
from fockbench.noise import NoiseModel
from fockbench.protocol import RunConfig, RunMode, default_phi_grid, run_trial
from fockbench.timing import TimingModel

FROZEN = Path(__file__).parent / "data" / "shot_records.sha256"

BENCH = builtin_figure1()
NOISY = NoiseModel(qe=0.45, dephasing_sigma=0.66, dark_count_prob=2e-3)
JITTERED = TimingModel(risetime_ns=23.5, jitter_sigma_ns=1.5)  # arms with p = 0.63
SHOTS = 200

# name -> (seed, bench, config)
CONFIGS = {
    "passive-noisy": (1, BENCH, RunConfig(mode=RunMode.PASSIVE, noise=NOISY)),
    "inhibited-noisy": (2, BENCH, RunConfig(mode=RunMode.ACTIVE_INHIBITED, noise=NOISY)),
    "active-dephased": (3, BENCH, RunConfig(mode=RunMode.ACTIVE, timing=JITTERED,
                                            noise=NoiseModel(dephasing_sigma=0.66))),
    "active-noisy": (4, BENCH, RunConfig(mode=RunMode.ACTIVE, noise=NOISY, timing=JITTERED)),
    # HV ready before the photon leaves half the time: the log's sort matters
    "active-early-hv": (5, BENCH, RunConfig(mode=RunMode.ACTIVE, timing=TimingModel(
        risetime_ns=0.0, jitter_sigma_ns=30.0))),
    "active-theta": (6, BENCH.with_input_theta(0.3), RunConfig(mode=RunMode.ACTIVE)),
}


def digest(name: str) -> str:
    seed, bench, cfg = CONFIGS[name]
    rng = np.random.default_rng(seed)
    grid = default_phi_grid(25)
    h = hashlib.sha256()
    for i in range(SHOTS):
        rec = run_trial(bench, grid[i % len(grid)], cfg, rng)
        a, b = rec.alice_clicks, rec.bob_clicks
        h.update(f"{rec.phi!r} {rec.bell.value} {a.clicks} {a.timestamps_ns} "
                 f"{b.clicks} {b.timestamps_ns} {rec.corrected} {rec.discarded}\n"
                 f"{rec.log.to_csv()}".encode())
    return h.hexdigest()


def frozen() -> dict[str, str]:
    return dict(line.split() for line in FROZEN.read_text().splitlines())


@pytest.mark.parametrize("name", CONFIGS)
def test_records_match_the_frozen_digest(name):
    assert digest(name) == frozen()[name]


if __name__ == "__main__":
    for name in CONFIGS:
        print(name, digest(name))
