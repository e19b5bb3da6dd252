"""Closed-form checks of the program's outputs; each raises ``CheckFailed``.

Every expected value is computed here from the workload's inputs, never
read from stored output.  Statistical checks allow ``Z`` standard errors:
a two-sided normal tail of 2.6e-12 per check, so a run of a few thousand
checks on a correct program fails less than once in 10**6 runs.
"""

from __future__ import annotations

import math

import numpy as np

Z = 7.0

#: sign of the V cos(phi) term of each detector pair's share of kept trials
PAIR_SIGN = {"D1-D1*": -1, "D1-D2*": +1, "D2-D1*": +1, "D2-D2*": -1}


class CheckFailed(Exception):
    pass


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def within(name: str, value: float, expected: float, sigma: float) -> None:
    if not abs(value - expected) <= Z * sigma:
        raise CheckFailed(f"{name}: {value:.6g}, expected {expected:.6g} "
                          f"within {Z:g} x {sigma:.3g}")


def binomial(name: str, k, n, p) -> None:
    """Every k[i] is a plausible draw of Binomial(n[i], p[i])."""
    k, n, p = (np.asarray(x, dtype=float) for x in (k, n, p))
    z = np.atleast_1d(np.abs(k - n * p) / np.sqrt(n * p * (1.0 - p)))
    bad = np.flatnonzero(~(z <= Z))
    if bad.size:
        raise CheckFailed(f"{name}: entry {bad[0]} is {z[bad[0]]:.1f} sigma "
                          f"off Binomial(n, p)")


def pair_sign(pair: str, active: bool) -> int:
    """Active mode's sigma_z correction swaps the signs of the D2 pairs."""
    sign = PAIR_SIGN[pair]
    return -sign if active and pair.startswith("D2") else sign


def fringe_counts(phi, counts: dict, kept, visibility: float, active: bool) -> None:
    """Each pair count ~ Binomial(kept, (1 +- V cos phi) / 4)."""
    phi = np.asarray(phi, dtype=float)
    for pair, c in counts.items():
        p = (1.0 + pair_sign(pair, active) * visibility * np.cos(phi)) / 4.0
        binomial(f"{pair} coincidences", c, kept, p)


def fidelity(name: str, visibility: float, sigma_visibility: float,
             expected: float) -> None:
    """F = (1 + V) / 2 is within the fit's sigma_F = sigma_V / 2 of expected."""
    within(f"{name} fidelity", 0.5 * (1.0 + visibility), expected,
           0.5 * sigma_visibility)


def phase_offset(name: str, dphi: float, expected: float, sigma: float) -> None:
    """dphi equals expected modulo 2 pi."""
    off = (dphi - expected + math.pi) % (2.0 * math.pi) - math.pi
    within(name, off, 0.0, sigma)


def fringe_from_csv(text: str) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Phase grid and per-pair counts of a ``run`` fringe CSV."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    phi = np.array(sorted({float(r[0]) for r in rows}))
    counts: dict[str, list[int]] = {}
    for r in rows:
        counts.setdefault(r[1], []).append(int(r[2]))
    return phi, {pair: np.array(c, dtype=float) for pair, c in counts.items()}


def fringe_fit(phi, counts) -> dict[str, float]:
    """Weighted least-squares fit of A + B cos(phi) + C sin(phi).

    Weights are 1/max(count, 1).  Returns V cos(phi0) = B/A and phi0 =
    atan2(C, B), each with its delta-method standard error.
    """
    x = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    xtw = x.T / np.maximum(counts, 1.0)
    cov = np.linalg.inv(xtw @ x)
    a, b, c = cov @ (xtw @ counts)
    g_s = np.array([-b / a**2, 1.0 / a, 0.0])
    g_p = np.array([0.0, -c, b]) / (b * b + c * c)
    return {"vcos": b / a, "sigma_vcos": math.sqrt(g_s @ cov @ g_s),
            "phi0": math.atan2(c, b), "sigma_phi0": math.sqrt(g_p @ cov @ g_p)}


def armed_share(delay_m: float, ns_per_m: float, risetime_ns: float,
                jitter_ns: float) -> float:
    """Chance the jittered HV chain beats the photon down the delay line."""
    return normal_cdf((ns_per_m * delay_m - risetime_ns) / jitter_ns)


def race_scan_point(fit12: dict, fit22: dict, armed: float, length_m: float) -> None:
    """D1-D2* has phi0 = 0; D2-D2*'s V cos(phi0) is D1-D2*'s times (2 armed - 1)."""
    within(f"D1-D2* phi0 at {length_m:.3f} m", fit12["phi0"], 0.0,
           fit12["sigma_phi0"])
    k = 2.0 * armed - 1.0
    within(f"D2-D2* V cos(phi0) at {length_m:.3f} m", fit22["vcos"],
           k * fit12["vcos"], math.hypot(fit22["sigma_vcos"], k * fit12["sigma_vcos"]))


def events_from_csv(text: str) -> list[tuple[float, str]]:
    """(timestamp ns, event kind) rows of an event-log CSV."""
    rows = []
    for line in text.strip().splitlines()[1:]:
        t, kind, _ = line.split(",", 2)
        rows.append((float(t), kind))
    return rows


def shot(alice_clicks: int, bob_clicks: int, idle: bool, discarded: bool,
         d2_trigger: bool, corrected: bool, events: list[tuple[float, str]]) -> None:
    """One run_trial record against the coincidence and feed-forward rules."""
    coincidence = alice_clicks == 1 and bob_clicks >= 1
    if discarded != idle or discarded == coincidence:
        raise CheckFailed(f"discarded={discarded}, idle={idle} with {alice_clicks} "
                          f"Alice and {bob_clicks} Bob clicks")
    times = [t for t, _ in events]
    if times != sorted(times):
        raise CheckFailed(f"event log out of time order: {times}")
    kinds = [k for _, k in events]
    eop = kinds.count("EopApplied") + kinds.count("EopMissed")
    if d2_trigger and eop != 1:
        raise CheckFailed(f"D2-triggered shot logs {eop} EopApplied/EopMissed")
    if corrected and "EopApplied" not in kinds:
        raise CheckFailed("corrected shot without EopApplied")


def corrected_share(kept_d2: int, corrected: int, armed: float) -> None:
    """Corrected kept D2-triggered shots ~ Binomial(kept_d2, armed)."""
    binomial("corrected D2-triggered shots", corrected, kept_d2, armed)
