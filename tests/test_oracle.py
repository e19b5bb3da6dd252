"""The Fock-state oracle's amplitudes against the permanent-based brute-force
oracle."""

import math

import numpy as np
import pytest

from fockbench import elements as el
from fockbench.fock import ModeId, Polarization

from conftest import haar_unitary
from fock_oracle import apply_element, apply_two_mode_unitary, create_photon, make_vacuum
from oracle_util import composed_matrix, oracle_amplitudes, permanent

H, V = Polarization.H, Polarization.V


def test_permanent_matches_definition_small():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert permanent(m) == pytest.approx(1 * 4 + 2 * 3)
    m3 = np.arange(1, 10, dtype=complex).reshape(3, 3)
    # expansion over all 6 permutations of a 3x3
    want = 1*5*9 + 1*6*8 + 2*4*9 + 2*6*7 + 3*4*8 + 3*5*7
    assert permanent(m3) == pytest.approx(want)


def _engine_amplitudes(pipeline, modes, in_occ):
    st = make_vacuum(modes)
    for i, n in enumerate(in_occ):
        for _ in range(n):
            st = create_photon(st, modes[i])
    for e in pipeline:
        st = apply_element(st, e)
    return st.amplitudes


def _random_pipeline(rng, n_paths):
    pipeline = []
    for _ in range(rng.integers(2, 6)):
        kind = rng.integers(3) if n_paths >= 2 else rng.integers(1, 3)
        if kind == 0:
            a, b = rng.choice(n_paths, size=2, replace=False)
            pipeline.append(el.beam_splitter(int(a), int(b), float(rng.uniform(0, math.pi / 2))))
        elif kind == 1:
            pipeline.append(el.phase_shifter(int(rng.integers(n_paths)),
                                             float(rng.uniform(0, 2 * math.pi))))
        else:
            pipeline.append(el.quarter_wave_plate(int(rng.integers(n_paths)),
                                                  float(rng.uniform(0, math.pi))))
    return pipeline


@pytest.mark.parametrize("n_paths,photons", [
    (1, [(0, V)]),
    (2, [(0, V)]),
    (2, [(0, V), (1, V)]),
    (2, [(0, H), (0, V)]),
    (2, [(1, H), (1, H)]),
])
def test_random_pipelines_match_oracle(rng, n_paths, photons):
    # <= 2 photons over <= 4 modes: every amplitude to 1e-10
    modes = tuple(ModeId(p, pol) for p in range(n_paths) for pol in (H, V))
    for _ in range(40):
        pipeline = _random_pipeline(rng, n_paths)
        in_occ = [0] * len(modes)
        for path_pol in photons:
            in_occ[modes.index(ModeId(*path_pol))] += 1
        got = _engine_amplitudes(pipeline, modes, tuple(in_occ))
        want = oracle_amplitudes(pipeline, modes, tuple(in_occ))
        for occ in set(got) | set(want):
            assert abs(got.get(occ, 0j) - want.get(occ, 0j)) < 1e-10


def test_two_photon_haar_unitary_matches_oracle(rng):
    m = (ModeId(0, V), ModeId(1, V))
    for _ in range(50):
        u = haar_unitary(rng)
        st = create_photon(create_photon(make_vacuum(m), m[0]), m[1])
        out = apply_two_mode_unitary(st, m[0], m[1], u)
        fake = el.Element(
            el.ElementKind.BEAM_SPLITTER, (0, 1),
            actions=(el._u2(m[0], m[1], u),),
        )
        want = oracle_amplitudes([fake], m, (1, 1))
        for occ in set(out.amplitudes) | set(want):
            assert abs(out.amplitude(occ) - want.get(occ, 0j)) < 1e-10


def test_figure1_pipeline_against_oracle(bench):
    # the real bench is 16 modes; the oracle formula is size-agnostic
    from fockbench.elements import phase_shifter

    pipeline = [
        phase_shifter(e.paths[0], 0.7, knob=True) if e.is_knob else e
        for e in bench.pipeline
    ]
    in_occ = [0] * len(bench.modes)
    for m in bench.sources:
        in_occ[bench.modes.index(m)] = 1
    got = _engine_amplitudes(pipeline, bench.modes, tuple(in_occ))
    want = oracle_amplitudes(pipeline, bench.modes, tuple(in_occ))
    for occ in set(got) | set(want):
        assert abs(got.get(occ, 0j) - want.get(occ, 0j)) < 1e-10


def test_composed_matrix_is_unitary(bench):
    mat = composed_matrix(bench.pipeline, bench.modes)
    eye = np.eye(len(bench.modes))
    assert np.max(np.abs(mat @ mat.conj().T - eye)) < 1e-10
