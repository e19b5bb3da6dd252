"""Simulator of an all-optical vacuum/one-photon qubit teleportation bench.

The package models the bench end to end on one physics path: the optical
elements carry the two source photons' amplitude rows, whose 2x2 permanents
give the exact click-pattern tables, with detector and dephasing noise, that
sweeps and single shots sample and the analytic fringe reads; the classical
feed-forward timing race arms the Pockels-cell correction; and the
fringe-fit analysis turns coincidence counts into visibility and fidelity
figures.
"""

from .fock import ModeId, Polarization
from .bench import builtin_figure1
from .timing import TimingModel, race
from .protocol import (
    RunConfig,
    RunMode,
    analytic_coincidences,
    paper_runs,
    phase_from_position,
    position_from_phase,
    run_sweep,
    run_trial,
)
from .analysis import (
    classical_bound_check,
    error_propagation,
    fidelity_from_visibility,
    fit_fringe,
)

__all__ = [
    "ModeId",
    "Polarization",
    "builtin_figure1",
    "TimingModel",
    "race",
    "RunMode",
    "RunConfig",
    "run_trial",
    "run_sweep",
    "paper_runs",
    "analytic_coincidences",
    "phase_from_position",
    "position_from_phase",
    "fit_fringe",
    "fidelity_from_visibility",
    "error_propagation",
    "classical_bound_check",
]

__version__ = "0.1.0"
