"""Truncated multi-mode Fock states and exact linear-optics evolution.

A state is a sparse map from occupation vectors to complex amplitudes over a
fixed, totally ordered list of modes.  A mode is a (path, polarization) pair;
paths are small integers assigned by the bench compiler, polarization orders
H before V so basis enumeration is deterministic.

Two-mode unitaries act on creation operators row-wise,

    a1+ -> u[0,0] a1+ + u[0,1] a2+
    a2+ -> u[1,0] a1+ + u[1,1] a2+

so a single photon entering port 1 of ``u = [[c, -s], [s, c]]`` leaves as
``c |1,0> - s |0,1>``; at 45 degrees that is the minus-sign singlet.  With a
phase shifter ``u = [[exp(i phi)]]`` every basis entry picks up
``exp(i phi n)``.
"""

from __future__ import annotations

import cmath
import math
from enum import IntEnum
from typing import Iterable, Mapping, NamedTuple

from .errors import FockbenchError

#: amplitudes below this modulus are dropped rather than stored as zeros
PRUNE_EPSILON = 1e-14

#: tolerance for the unitarity precondition u+ u = I
UNITARITY_TOL = 1e-10

#: truncation: at most this many photons per mode and in total
MAX_PER_MODE = 2
MAX_TOTAL = 2


class Polarization(IntEnum):
    H = 0
    V = 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class ModeId(NamedTuple):
    """One optical mode: spatial path index plus polarization."""

    path: int
    pol: Polarization

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.path}{self.pol.name}"


Occupation = tuple[int, ...]


class FockState:
    """Sparse amplitude map over photon-number basis states.

    Instances are immutable; every operation returns a new state.  Safe to
    share across threads.
    """

    __slots__ = ("modes", "amplitudes", "_index")

    def __init__(self, modes: tuple[ModeId, ...], amplitudes: Mapping[Occupation, complex]):
        self.modes = tuple(modes)
        self.amplitudes = {
            occ: complex(a) for occ, a in amplitudes.items() if abs(a) >= PRUNE_EPSILON
        }
        self._index = {m: i for i, m in enumerate(self.modes)}

    # -- bookkeeping ---------------------------------------------------

    def index_of(self, mode: ModeId) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise FockbenchError(f"mode {mode} not in state") from None

    def amplitude(self, occ: Occupation) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def _replace(self, amplitudes: Mapping[Occupation, complex]) -> "FockState":
        return FockState(self.modes, amplitudes)

    def renormalized(self) -> "FockState":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise FockbenchError("cannot normalize a zero state")
        return self._replace({occ: a / n for occ, a in self.amplitudes.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(
            f"{occ}: {a:.4g}" for occ, a in sorted(self.amplitudes.items())
        )
        return f"FockState({terms})"


def make_vacuum(modes: Iterable[ModeId]) -> FockState:
    """All-zero occupation with amplitude one."""
    modes = tuple(modes)
    if not modes:
        raise FockbenchError("a state needs at least one mode")
    if len(set(modes)) != len(modes):
        raise FockbenchError(f"duplicate mode in {modes}")
    zero = tuple(0 for _ in modes)
    return FockState(modes, {zero: 1.0 + 0j})


def create_photon(state: FockState, mode: ModeId) -> FockState:
    """Apply the bosonic creation operator on ``mode`` and renormalize."""
    i = state.index_of(mode)
    out: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        n = occ[i]
        if n + 1 > MAX_PER_MODE or sum(occ) + 1 > MAX_TOTAL:
            raise FockbenchError(
                f"creating a photon on {mode} exceeds truncation "
                f"(per-mode {MAX_PER_MODE}, total {MAX_TOTAL})"
            )
        new = occ[:i] + (n + 1,) + occ[i + 1 :]
        out[new] = out.get(new, 0j) + amp * math.sqrt(n + 1)
    return state._replace(out).renormalized()


def _check_unitary(u) -> None:
    # u is a 2x2 (or 1x1) nested sequence of complex numbers
    rows = [list(map(complex, row)) for row in u]
    n = len(rows)
    for i in range(n):
        for j in range(n):
            acc = sum(rows[k][i].conjugate() * rows[k][j] for k in range(n))
            want = 1.0 if i == j else 0.0
            if abs(acc - want) > UNITARITY_TOL:
                raise FockbenchError(f"u+u deviates from identity by {abs(acc - want):.3g}")


def apply_two_mode_unitary(state: FockState, m1: ModeId, m2: ModeId, u) -> FockState:
    """Exact action of a 2x2 mode unitary on the truncated basis.

    The induced multi-photon matrix is obtained by expanding
    ``(u00 a1+ + u01 a2+)**n1 (u10 a1+ + u11 a2+)**n2`` for every basis
    entry; the norm is preserved to floating-point accuracy.
    """
    if m1 == m2:
        raise FockbenchError("two-mode unitary needs distinct modes")
    _check_unitary(u)
    i1, i2 = state.index_of(m1), state.index_of(m2)
    u00, u01 = complex(u[0][0]), complex(u[0][1])
    u10, u11 = complex(u[1][0]), complex(u[1][1])

    out: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        n1, n2 = occ[i1], occ[i2]
        total = n1 + n2
        if total == 0:
            out[occ] = out.get(occ, 0j) + amp
            continue
        # binomial expansion of the transformed monomial
        base = amp / math.sqrt(math.factorial(n1) * math.factorial(n2))
        coeffs = [0j] * (total + 1)  # index = photons left in mode 1
        for j1 in range(n1 + 1):
            c1 = math.comb(n1, j1) * u00**j1 * u01 ** (n1 - j1)
            for j2 in range(n2 + 1):
                c2 = math.comb(n2, j2) * u10**j2 * u11 ** (n2 - j2)
                coeffs[j1 + j2] += c1 * c2
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if k > MAX_PER_MODE or total - k > MAX_PER_MODE:
                raise FockbenchError(
                    f"unitary mixing drives occupation past per-mode cap {MAX_PER_MODE}"
                )
            new = _with_pair(occ, i1, i2, k, total - k)
            weight = base * c * math.sqrt(math.factorial(k) * math.factorial(total - k))
            out[new] = out.get(new, 0j) + weight
    return state._replace(out)


def _with_pair(occ: Occupation, i1: int, i2: int, n1: int, n2: int) -> Occupation:
    lst = list(occ)
    lst[i1] = n1
    lst[i2] = n2
    return tuple(lst)


def apply_phase(state: FockState, mode: ModeId, phi: float) -> FockState:
    """Multiply each basis entry by ``exp(i phi n)`` for its occupation n."""
    i = state.index_of(mode)
    # exp(i*phi)**n keeps phi=pi exactly sign-flipping up to one ulp per power
    base = cmath.exp(1j * phi)
    out = {}
    for occ, amp in state.amplitudes.items():
        n = occ[i]
        out[occ] = amp * base**n if n else amp
    return state._replace(out)


def relabel_modes(state: FockState, mapping: Mapping[ModeId, ModeId]) -> FockState:
    """Permute occupation between modes (e.g. a polarizing splitter).

    ``mapping`` sends source modes to destination modes and must be a
    bijection on the modes it mentions; unmentioned modes stay put.
    """
    for m in list(mapping) + list(mapping.values()):
        state.index_of(m)
    srcs, dsts = set(mapping), set(mapping.values())
    if len(dsts) != len(mapping) or srcs != dsts:
        raise FockbenchError(f"mode relabeling is not a permutation: {mapping}")
    perm = list(range(len(state.modes)))
    for src, dst in mapping.items():
        perm[state.index_of(dst)] = state.index_of(src)
    out = {}
    for occ, amp in state.amplitudes.items():
        new = tuple(occ[perm[i]] for i in range(len(occ)))
        out[new] = amp
    return state._replace(out)


def partial_probability(state: FockState, pattern: Mapping[ModeId, int]) -> float:
    """Probability that the constrained modes carry exactly ``pattern``."""
    constraints = [(state.index_of(m), n) for m, n in pattern.items()]
    return sum(
        abs(a) ** 2 for occ, a in state.amplitudes.items()
        if all(occ[i] == n for i, n in constraints)
    )

