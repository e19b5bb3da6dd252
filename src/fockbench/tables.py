"""Exact two-photon count and click tables of a bench.

The bench upstream of the detectors is linear optics on two photons, so
every two-photon amplitude is a 2x2 permanent of the two source photons'
single-photon amplitude rows (S. Scheel, quant-ph/0406127).  Those rows
depend on the bench alone, so each bench carries them through its pipeline
once, on first use, and keeps them (``Bench.photon_rows``); every
``count_tables`` call on that bench, in a sweep or a shot, reads them.
Summed over the modes of each detector class, the permanents' squares
reduce to products of small per-class Gram matrices of the photons'
amplitudes.  The knob makes every table a trigonometric polynomial of
degree at most 2 in the phase, so the Grams are contracted at five phase
nodes only and the tables of any grid are interpolated from them exactly.
``click_tables`` turns them into the exact (Alice, Bob) click-pattern
tables, averaging out the dephasing phase and the detectors in closed form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bench import Bench
from .noise import NoiseModel

# Detector classes of an output mode: no protocol detector, D1, D2, D1*, D2*.
# A photon in each class adds this to the flattened (Alice counts) x (Bob
# counts) index 9 n(D1) + 27 n(D2) + n(D1*) + 3 n(D2*).
_CLASS_COUNTS = np.array([0, 9, 27, 1, 3])
#: (25, 81): one photon in class A and one in class B land in the cell of A + B
_CLASS_PAIR_TO_COUNTS = np.eye(81)[np.add.outer(_CLASS_COUNTS, _CLASS_COUNTS).ravel()]


def _gram_coefficients() -> np.ndarray:
    """(3, 16, 16): the class-pair probability as bilinear forms of Grams.

    Photon i reaches mode j with amplitude a_ij = p_ij + e^{it} q_ij, q
    being its path through the cell's V mode.  Over output classes A and B,
    sum_{j in A, k in B} |a1j a2k + a1k a2j|^2 / 2 is (A11 B22 + A22 B11 +
    A12 B21 + A21 B12) / 2 with A_il = sum_{j in A} a_ij a_lj^*.  Expanding
    a_i in p_i and q_i writes that as G_A^T W G_B over the 16 entries of the
    Gram G[x, y] = sum_j v_xj v_yj^* of v = (p1, p2, q1, q2).  Its terms
    carry e^{ikt} for k = 0, +-1, +-2; W[|k|] collects them.
    """
    w = np.zeros((3, 16, 16))
    for i, l, m, n in ((0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)):
        for s, s2, r, r2 in np.ndindex(2, 2, 2, 2):  # 0: p, 1: q
            x = 4 * (2 * s + i) + 2 * s2 + l
            y = 4 * (2 * r + m) + 2 * r2 + n
            w[abs(s - s2 + r - r2), x, y] += 0.5
    return w


_W_K0, _W_K1, _W_K2 = _gram_coefficients()

#: e^{i phi_j} at the five nodes phi_j = 2 pi j / 5 that fix a degree-2 table
_NODES = np.exp(2j * np.pi * np.arange(5) / 5)


def count_tables(bench: Bench, phis, sigma: float = 0.0, theta: float = 0.0) -> np.ndarray:
    """(2, P, 9, 9) joint photon counts through ``bench`` at each phase of
    ``phis``, cell disarmed ([0]) and fired ([1]).

    Rows index Alice's counts n(D1) + 3 n(D2), columns Bob's n(D1*) +
    3 n(D2*).  Each call reads the bench's ``Bench.photon_rows`` and does
    only the work that depends on ``phis``, ``sigma`` and ``theta``.  At the
    knob each row splits into the part that skips the knob path and the part
    that takes it, so a photon's amplitude is w0 + e^{i phi} w1 at every phase.

    The channel phase is theta; ``sigma`` > 0 averages a further
    t ~ N(0, sigma^2) exactly.  Each photon's amplitude splits at the cell's
    V mode into p + e^{it} q (q changes sign when the cell fires), so the
    count tables are bilinear in the per-class Grams of (p1, p2, q1, q2)
    (``_gram_coefficients``): E[e^{it}] = exp(-sigma^2 / 2) damps their terms
    odd in q and E[e^{2it}] = exp(-2 sigma^2) the q-squared cross terms.

    The degree-2 Dirichlet kernel (1 + 2 cos d + 2 cos 2d) / 5 carries the
    tables of the five nodes phi_j = 2 pi j / 5 exactly to ``phis``; the
    rounding-level negatives this leaves are clipped to 0.
    """
    photons = bench.photon_rows
    w, n = photons.rows, photons.rows.shape[1]
    c = photons.at_channel * cmath.exp(1j * theta)
    # (5, 4, n): (p1, p2, q1, q2) at each node
    p = w[:2] + _NODES[:, None, None] * w[2:4]
    q = (c[:2] + _NODES[:, None] * c[2:])[..., None] * w[4]
    v = np.concatenate([p, q], axis=1)
    outer = (v[:, :, None, :] * v.conj()[:, None, :, :]).reshape(5, 16, n)
    gram = (outer @ photons.classes).swapaxes(-1, -2)  # (5, 5, 16)
    # not sigma**2, which raises OverflowError for a huge sigma: the product
    # overflows to inf instead, and exp(-inf) = 0 dephases fully
    var = sigma * sigma
    odd = math.exp(-0.5 * var) * _W_K1
    even = _W_K0 + math.exp(-2.0 * var) * _W_K2
    coef = np.stack([even + odd, even - odd])  # (2, 16, 16)
    nodes = ((gram.reshape(-1, 16) @ coef).reshape(2, 5, 5, 16)
             @ gram.swapaxes(-1, -2)).real.reshape(2, 5, 25) @ _CLASS_PAIR_TO_COUNTS
    # e^{i (phi - phi_j)} for every phase and node
    u = np.multiply.outer(np.exp(1j * np.asarray(phis, dtype=float)), _NODES.conj())
    kernel = (1.0 + 2.0 * (u + u * u).real) / 5.0  # (P, 5)
    return np.maximum(kernel @ nodes, 0.0).reshape(2, len(kernel), 9, 9)


def click_tables(bench: Bench, phis, noise: NoiseModel) -> np.ndarray:
    """(2, P, 4, 4) exact (Alice, Bob) click-pattern probabilities through
    ``bench`` at each phase, cell disarmed ([0]) and fired ([1]).

    Rows index Alice's pattern and columns Bob's, both as click1 + 2 * click2
    over (D1, D2) and (D1*, D2*); each table sums to 1.  The dephasing phase
    (``count_tables``) and the detectors (``NoiseModel.clicks``) are averaged
    out in closed form.  Firing the cell acts on Bob's side only, so both
    tables have the same row sums.
    """
    clicks = noise.clicks
    return clicks.T @ count_tables(bench, phis, noise.dephasing_sigma) @ clicks
