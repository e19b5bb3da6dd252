"""Fringe fitting and the headline figures: visibility, fidelity, errors.

The fringe model is rate(phi) = A (1 + V cos(phi - phi0)).  Expanded as
A + B cos(phi) + C sin(phi) it is linear in (A, B, C), so a weighted linear
least-squares solve recovers the parameters in closed form; standard errors
come from the fit covariance via the delta method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, FitUnderdetermined

#: classical teleportation bound for an unknown pure qubit; strict inequality
CLASSICAL_FIDELITY_BOUND = 2.0 / 3.0


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    visibility: float  # clamped to [0, 1]
    phi0: float
    sigma_amplitude: float
    sigma_visibility: float
    sigma_phi0: float
    visibility_raw: float  # before clamping, for diagnostics
    phase_locked: bool  # False when V ~ 0 leaves phi0 unconstrained
    chi2: float
    dof: int


def fit_fringe(phi: np.ndarray, counts: np.ndarray) -> FitResult:
    """Weighted least-squares fit of A (1 + V cos(phi - phi0)) to counts.

    Weights are 1/max(count, 1), the binomial/Poisson variance estimate.
    Needs at least four distinct phase settings, all finite.
    """
    phi = np.asarray(phi, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if phi.shape != counts.shape:
        raise BadParam("phi and counts must have the same shape")
    if not np.isfinite(phi).all():
        raise BadParam("phases must be finite")
    if len(set(np.round(phi, 12).tolist())) < 4:
        raise FitUnderdetermined("fit needs >= 4 distinct phase settings")

    w = 1.0 / np.maximum(counts, 1.0)
    x = np.empty((len(phi), 3))
    x[:, 0], x[:, 1], x[:, 2] = 1.0, np.cos(phi), np.sin(phi)
    xtw = x.T * w
    normal = xtw @ x
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise FitUnderdetermined(f"singular normal matrix: {exc}") from None
    coef = cov @ (xtw @ counts)
    a, b, c = coef
    resid = counts - x @ coef
    chi2 = float(np.sum(w * resid**2))
    dof = len(phi) - 3

    r = math.hypot(b, c)
    if a <= 0:
        raise FitUnderdetermined(f"non-positive fitted amplitude {a:.3g}")
    v_raw = r / a
    phase_locked = v_raw > 1e-6
    phi0 = math.atan2(c, b) if phase_locked else 0.0

    # delta method: V = sqrt(b^2 + c^2)/a, phi0 = atan2(c, b)
    if r > 0:
        g_v = np.array([-r / a**2, b / (r * a), c / (r * a)])
        g_p = np.array([0.0, -c / r**2, b / r**2])
        sigma_v = float(math.sqrt(max(g_v @ cov @ g_v, 0.0)))
        sigma_p = float(math.sqrt(max(g_p @ cov @ g_p, 0.0)))
    else:
        sigma_v = float(math.sqrt(max(cov[1, 1] + cov[2, 2], 0.0))) / a
        sigma_p = float("inf")
    return FitResult(
        amplitude=float(a),
        visibility=float(min(max(v_raw, 0.0), 1.0)),
        phi0=float(phi0),
        sigma_amplitude=float(math.sqrt(max(cov[0, 0], 0.0))),
        sigma_visibility=sigma_v,
        sigma_phi0=sigma_p,
        visibility_raw=float(v_raw),
        phase_locked=phase_locked,
        chi2=chi2,
        dof=dof,
    )


def fidelity_from_visibility(v: float) -> float:
    """F = (1 + V) / 2 for the vacuum/one-photon verification scheme."""
    if not 0.0 <= v <= 1.0:
        raise BadParam(f"visibility {v} outside [0, 1]")
    return 0.5 * (1.0 + v)


def error_propagation(fit: FitResult) -> float:
    """Standard error of the fidelity: sigma_F = sigma_V / 2."""
    return 0.5 * fit.sigma_visibility


def classical_bound_check(f: float) -> bool:
    """True iff the fidelity strictly beats the classical 2/3 bound."""
    if not 0.0 <= f <= 1.0:
        raise BadParam(f"fidelity {f} outside [0, 1]")
    return f > CLASSICAL_FIDELITY_BOUND


def wrap_phase(dphi: float) -> float:
    """Wrap a phase difference into (-pi, pi]."""
    out = math.fmod(dphi + math.pi, 2.0 * math.pi)
    if out <= 0:
        out += 2.0 * math.pi
    return out - math.pi
