"""Independent brute-force amplitude oracle for linear-optics checks.

Composes a pipeline's single-photon transfer matrix as the product of its
per-element matrices (``transfer_matrix`` of one element each, so the
association order differs from ``count_tables``' single pass over the
pipeline, though both read the elements' actions through one row update)
and derives every multi-photon amplitude from a matrix permanent, never
touching the Fock-state expansion of ``fock_oracle.apply_two_mode_unitary``:

    <out| U |in> = perm(B) / sqrt(prod(in!) * prod(out!))

where B has one row per input photon and one column per output photon,
B[r][c] = M[mode of input photon r][mode of output photon c].
"""

from itertools import permutations

import numpy as np

from fockbench.elements import _carry_rows
from fockbench.fock import ModeId


def transfer_matrix(elements, modes: tuple[ModeId, ...]) -> np.ndarray:
    """Creation-operator transfer matrix of a run of elements on ``modes``.

    Rows are input modes, columns output modes, so composing is the
    left-to-right product: ``_carry_rows`` carries the n unit rows through
    the elements.
    """
    n = len(modes)
    rows = [[complex(i == j) for j in range(n)] for i in range(n)]
    _carry_rows(rows, elements, {m: i for i, m in enumerate(modes)})
    return np.array(rows)


def permanent(mat: np.ndarray) -> complex:
    """Definition-level permanent: sum over permutations of row products."""
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0j
        for r, c in enumerate(perm):
            prod *= mat[r, c]
        total += prod
    return total


def composed_matrix(pipeline, modes) -> np.ndarray:
    """The per-element transfer matrices, multiplied left to right."""
    mat = np.eye(len(modes), dtype=complex)
    for e in pipeline:
        mat = mat @ transfer_matrix((e,), modes)
    return mat


def occupations(n_photons: int, n_modes: int):
    """All occupation tuples of n_photons over n_modes."""
    if n_modes == 1:
        yield (n_photons,)
        return
    for k in range(n_photons + 1):
        for rest in occupations(n_photons - k, n_modes - 1):
            yield (k,) + rest


def _factorial_prod(occ) -> float:
    out = 1.0
    for n in occ:
        for k in range(2, n + 1):
            out *= k
    return out


def oracle_amplitudes(pipeline, modes, in_occ) -> dict:
    """Every output amplitude for ``in_occ`` photons through ``pipeline``."""
    mat = composed_matrix(pipeline, modes)
    in_modes = [i for i, n in enumerate(in_occ) for _ in range(n)]
    total = sum(in_occ)
    out = {}
    for out_occ in occupations(total, len(modes)):
        out_modes = [j for j, n in enumerate(out_occ) for _ in range(n)]
        sub = np.array(
            [[mat[i, j] for j in out_modes] for i in in_modes], dtype=complex
        ).reshape(total, total)
        amp = permanent(sub) / np.sqrt(
            _factorial_prod(in_occ) * _factorial_prod(out_occ)
        )
        if abs(amp) > 1e-14:
            out[out_occ] = amp
    return out

