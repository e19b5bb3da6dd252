"""Fringe fitting and the headline figures: visibility, fidelity, errors.

The fringe model is rate(phi) = A (1 + V cos(phi - phi0)).  Expanded as
A + B cos(phi) + C sin(phi) it is linear in (A, B, C), so a weighted linear
least-squares solve recovers the parameters in closed form; standard errors
come from the fit covariance via the delta method.  ``fit_fringes`` fits a
stack of fringes on one phase grid in one solve, and ``fit_fringe`` is its
one-fringe case.
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
    Needs at least four phase settings distinct modulo 2 pi, all finite.
    This is the one-row case of ``fit_fringes``.
    """
    return fit_fringes(phi, [counts])[0]


def fit_fringes(phi: np.ndarray, counts) -> list[FitResult]:
    """``fit_fringe`` of every row of ``counts``, a stack of fringes on the
    one phase grid ``phi``, in one weighted solve.

    One matrix product gives every row's weighted moments and right-hand
    side, and each row's 3x3 normal equations are solved in closed form.  A
    row's fit does not depend on the other rows.  A singular normal matrix
    or a non-positive fitted amplitude in any row raises
    ``FitUnderdetermined`` with that row's index.
    """
    try:
        phi = np.asarray(phi, dtype=float)
        y = np.asarray(counts, dtype=float)
    except ValueError as exc:  # e.g. a ragged stack of rows
        raise BadParam(f"phi and counts must be numeric arrays: {exc}") from None
    if phi.ndim != 1 or y.ndim != 2 or y.shape[1] != len(phi):
        raise BadParam("phi and each row of counts must have the same shape")
    phis = phi.tolist()
    if not all(map(math.isfinite, phis)):
        raise BadParam("phases must be finite")
    # the model is 2 pi-periodic: count settings modulo 2 pi, in units of
    # 1e-12 rad, where a phase that rounds up to 2 pi is 0 again
    turn = round(math.tau * 1e12)
    if len({round(p % math.tau * 1e12) % turn for p in phis}) < 4:
        raise FitUnderdetermined("fit needs >= 4 distinct phase settings modulo 2 pi")

    x = np.ones((3, len(phi)))  # the model's terms 1, cos, sin
    np.cos(phi, out=x[1])
    np.sin(phi, out=x[2])
    w = 1.0 / np.maximum(y, 1.0)
    n = len(y)
    # each row's normal matrix, the moments of x_i x_j under w, and under
    # w * y its right-hand side, the three moments with x_0 = 1
    moments = (np.concatenate([w, w * y]) @ (x[:, None] * x).reshape(9, -1).T).tolist()
    coefs, covs = [], []
    for row, ((s00, s01, s02, _, s11, s12, _, _, s22), (r0, r1, r2, *_)) in enumerate(
            zip(moments[:n], moments[n:])):
        # the symmetric normal matrix's inverse, from its cofactors
        c00, c01, c02 = s11 * s22 - s12 * s12, s02 * s12 - s01 * s22, s01 * s12 - s02 * s11
        det = s00 * c00 + s01 * c01 + s02 * c02
        if det == 0:
            raise FitUnderdetermined("singular normal matrix", row)
        c11, c12, c22 = s00 * s22 - s02 * s02, s01 * s02 - s00 * s12, s00 * s11 - s01 * s01
        cov = ((c00 / det, c01 / det, c02 / det), (c01 / det, c11 / det, c12 / det),
               (c02 / det, c12 / det, c22 / det))
        coefs.append([k0 * r0 + k1 * r1 + k2 * r2 for k0, k1, k2 in cov])
        covs.append(cov)
    # from the residuals: the moments' form of chi^2 cancels catastrophically
    resid = y - (np.array(coefs).reshape(n, 3, 1) * x).sum(axis=1)
    chi2 = (w * resid**2).sum(axis=1).tolist()
    dof = len(phi) - 3

    fits = []
    for row, ((a, b, c), cov, chi2_row) in enumerate(zip(coefs, covs, chi2)):
        if a <= 0:
            raise FitUnderdetermined(f"non-positive fitted amplitude {a:.3g}", row)
        r = math.hypot(b, c)
        v_raw = r / a
        phase_locked = v_raw > 1e-6
        phi0 = math.atan2(c, b) if phase_locked else 0.0
        # delta method: V = sqrt(b^2 + c^2)/a, phi0 = atan2(c, b)
        if r > 0:
            sigma_v = math.sqrt(max(_quadratic_form(
                cov, (-r / (a * a), b / (r * a), c / (r * a))), 0.0))
            sigma_p = math.sqrt(max(_quadratic_form(
                cov, (0.0, -c / (r * r), b / (r * r))), 0.0))
        else:
            sigma_v = math.sqrt(max(cov[1][1] + cov[2][2], 0.0)) / a
            sigma_p = math.inf
        fits.append(FitResult(
            amplitude=a,
            visibility=min(max(v_raw, 0.0), 1.0),
            phi0=phi0,
            sigma_amplitude=math.sqrt(max(cov[0][0], 0.0)),
            sigma_visibility=sigma_v,
            sigma_phi0=sigma_p,
            visibility_raw=v_raw,
            phase_locked=phase_locked,
            chi2=chi2_row,
            dof=dof,
        ))
    return fits


def _quadratic_form(m, g: tuple[float, float, float]) -> float:
    """g^T m g of a 3x3 matrix m."""
    return sum(gi * (mi[0] * g[0] + mi[1] * g[1] + mi[2] * g[2]) for gi, mi in zip(g, m))


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
