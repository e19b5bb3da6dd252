import math

import numpy as np
import pytest

from fockbench import elements as el
from fockbench.elements import (
    apply_element,
    apply_eop,
    beam_splitter,
    delay_line,
    pockels_cell,
    polarizing_bs,
    quarter_wave_plate,
)
from fockbench.errors import BadParam
from fockbench.fock import (
    ModeId,
    Polarization,
    create_photon,
    make_vacuum,
    partial_probability,
)

from conftest import haar_unitary, raises_invariant
from oracle_util import transfer_matrix

H, V = Polarization.H, Polarization.V


def modes_for(n_paths):
    return tuple(ModeId(p, pol) for p in range(n_paths) for pol in (H, V))


class TestBeamSplitter:
    def test_symmetric_gives_singlet(self):
        m = modes_for(2)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        st = apply_element(st, beam_splitter(0, 1, math.pi / 4))
        occ_10 = (0, 1, 0, 0)  # (0H, 0V, 1H, 1V)
        occ_01 = (0, 0, 0, 1)
        assert st.amplitude(occ_10) == pytest.approx(2**-0.5, abs=1e-12)
        assert st.amplitude(occ_01) == pytest.approx(-(2**-0.5), abs=1e-12)

    def test_theta_zero_is_identity(self):
        m = modes_for(2)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        out = apply_element(st, beam_splitter(0, 1, 0.0))
        assert out.amplitudes == st.amplitudes

    def test_arbitrary_theta_sets_branch_weights(self):
        # photon entering the second port splits as (sin t, cos t), which is
        # how the preparation splitter realizes the qubit weights
        m = modes_for(2)
        st = create_photon(make_vacuum(m), ModeId(1, V))
        theta = 0.3
        out = apply_element(st, beam_splitter(0, 1, theta))
        assert out.amplitude((0, 1, 0, 0)) == pytest.approx(math.sin(theta), abs=1e-12)
        assert out.amplitude((0, 0, 0, 1)) == pytest.approx(math.cos(theta), abs=1e-12)

    @pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 0.1, 7.0])
    def test_out_of_range_theta(self, theta):
        with pytest.raises(BadParam):
            beam_splitter(0, 1, theta)

    def test_same_path_rejected(self):
        with raises_invariant("two distinct paths"):
            beam_splitter(0, 0, 0.5)


class TestEop:
    def qubit(self):
        # (alpha |0> + beta |1>) on the V mode of path 0
        m = modes_for(1)
        st = make_vacuum(m)
        alpha, beta = 0.6, 0.8
        return st._replace({(0, 0): alpha, (0, 1): beta}), alpha, beta

    def test_armed_is_sigma_z(self):
        st, alpha, beta = self.qubit()
        out = apply_eop(st, ModeId(0, V))
        assert out.amplitude((0, 0)) == pytest.approx(alpha)
        assert out.amplitude((0, 1)) == pytest.approx(-beta)

    def test_armed_twice_is_identity_bit_exact(self):
        st, _, _ = self.qubit()
        out = apply_eop(st, ModeId(0, V))
        out = apply_eop(out, ModeId(0, V))
        assert out.amplitudes == st.amplitudes

    def test_disarmed_is_identity(self):
        st, _, _ = self.qubit()
        out = apply_element(st, pockels_cell(0))
        assert out.amplitudes == st.amplitudes

    def test_h_mode_rejected(self):
        st, _, _ = self.qubit()
        with raises_invariant("acts on V modes"):
            apply_eop(st, ModeId(0, H))

    def test_h_amplitudes_bit_identical(self):
        m = modes_for(1)
        st = make_vacuum(m)
        st = st._replace({(1, 0): 0.6 + 0j, (1, 1): 0.8j})
        out = apply_eop(st, ModeId(0, V))
        assert out.amplitude((1, 0)) is not None
        assert out.amplitude((1, 0)) == st.amplitude((1, 0))
        assert out.amplitude((1, 1)) == -st.amplitude((1, 1))

    def test_commutes_with_h_only_elements(self, rng):
        # random state over two paths; a wave plate pair on path 1's H modes
        m = modes_for(2)
        amps = {}
        for occ in [(0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)]:
            amps[occ] = complex(rng.standard_normal(), rng.standard_normal())
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        st = make_vacuum(m)._replace({k: v / norm for k, v in amps.items()})
        h_mix = el._u2(ModeId(0, H), ModeId(1, H), haar_unitary(rng))
        helem = el.Element(el.ElementKind.BEAM_SPLITTER, (0, 1), actions=(h_mix,))

        a = apply_eop(apply_element(st, helem), ModeId(1, V))
        b = apply_element(apply_eop(st, ModeId(1, V)), helem)
        for occ in set(a.amplitudes) | set(b.amplitudes):
            assert abs(a.amplitude(occ) - b.amplitude(occ)) < 1e-12


class TestPolarizingBs:
    def test_v_reflects(self):
        m = modes_for(4)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        out = apply_element(st, polarizing_bs(0, 1, 2, 3))
        assert partial_probability(out, {ModeId(3, V): 1}) == pytest.approx(1.0)

    def test_h_transmits(self):
        m = modes_for(4)
        st = create_photon(make_vacuum(m), ModeId(0, H))
        out = apply_element(st, polarizing_bs(0, 1, 2, 3))
        assert partial_probability(out, {ModeId(2, H): 1}) == pytest.approx(1.0)

    def test_coherent_superposition_splits_with_norm_one(self, rng):
        m = modes_for(4)
        st = make_vacuum(m)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        occ_h = [0] * 8
        occ_h[m.index(ModeId(0, H))] = 1
        occ_v = [0] * 8
        occ_v[m.index(ModeId(0, V))] = 1
        st = st._replace({tuple(occ_h): a / n, tuple(occ_v): b / n})
        out = apply_element(st, polarizing_bs(0, 1, 2, 3))
        # against the mode-permutation oracle
        want = oracle = {}
        mat = transfer_matrix((polarizing_bs(0, 1, 2, 3),), m)
        ih, iv = m.index(ModeId(0, H)), m.index(ModeId(0, V))
        for occ, amp in st.amplitudes.items():
            src = occ.index(1)
            dst = int(np.argmax(np.abs(mat[src])))
            new = [0] * 8
            new[dst] = 1
            oracle[tuple(new)] = amp
        assert abs(out.norm_sq() - 1.0) < 1e-12
        for occ in set(out.amplitudes) | set(want):
            assert abs(out.amplitude(occ) - oracle.get(occ, 0j)) < 1e-12

    def test_path_collision(self):
        with raises_invariant("paths collide"):
            polarizing_bs(0, 1, 1, 2)


class TestQuarterWavePlate:
    def test_angle_zero_is_diag_1_i(self):
        q = quarter_wave_plate(0, 0.0)
        (a, b), (c, d) = q.actions[0].matrix
        assert a == pytest.approx(1.0)
        assert d == pytest.approx(1j)
        assert abs(b) < 1e-15 and abs(c) < 1e-15

    def test_45_degrees_balances_v_photon(self):
        m = modes_for(1)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        out = apply_element(st, quarter_wave_plate(0, math.pi / 4))
        assert abs(out.amplitude((1, 0))) == pytest.approx(2**-0.5, abs=1e-12)
        assert abs(out.amplitude((0, 1))) == pytest.approx(2**-0.5, abs=1e-12)

    def test_matches_jones_oracle(self, rng):
        # independent Jones matrix: R(a) diag(1, i) R(-a) applied to (1, 0)
        for _ in range(25):
            angle = float(rng.uniform(0, math.pi))
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            jones = rot @ np.diag([1.0, 1j]) @ rot.T
            m = modes_for(1)
            st = create_photon(make_vacuum(m), ModeId(0, H))
            out = apply_element(st, quarter_wave_plate(0, angle))
            assert out.amplitude((1, 0)) == pytest.approx(jones[0, 0], abs=1e-12)
            assert out.amplitude((0, 1)) == pytest.approx(jones[1, 0], abs=1e-12)

    def test_two_quarters_make_a_half_wave(self):
        m = modes_for(1)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        for _ in range(2):
            st = apply_element(st, quarter_wave_plate(0, math.pi / 4))
        assert st.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_qwp_plus_pbs_is_variable_splitter(self):
        # sweeping the plate angle reproduces the cos^2/sin^2 splitting law
        # between the H (ancilla) and V (signal) inputs of the verifier
        m = modes_for(4)
        for angle in np.linspace(0.0, math.pi / 2, 13):
            st = create_photon(make_vacuum(m), ModeId(0, V))
            st = apply_element(st, quarter_wave_plate(0, angle))
            st = apply_element(st, polarizing_bs(0, 1, 2, 3))
            p_h = partial_probability(st, {ModeId(2, H): 1})
            p_v = partial_probability(st, {ModeId(3, V): 1})
            # Q(a) V-column has |sin a cos a (1-i)|^2 and |sin^2 a + i cos^2 a|^2
            want_h = (math.sin(angle) * math.cos(angle)) ** 2 * 2
            assert p_h == pytest.approx(want_h, abs=1e-10)
            assert p_h + p_v == pytest.approx(1.0, abs=1e-10)


class TestDelayLine:
    def test_negative_length(self):
        with pytest.raises(BadParam):
            delay_line(0, -1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length(self, length):
        with pytest.raises(BadParam):
            delay_line(0, length)

    def test_no_amplitude_change(self):
        m = modes_for(1)
        st = create_photon(make_vacuum(m), ModeId(0, V))
        out = apply_element(st, delay_line(0, 8.0))
        assert out.amplitudes == st.amplitudes


class TestElementUnitarity:
    def test_every_figure1_element_is_unitary(self, bench):
        eye = np.eye(len(bench.modes))
        for e in bench.pipeline:
            mat = transfer_matrix((e,), bench.modes)
            assert np.max(np.abs(mat.conj().T @ mat - eye)) < 1e-10
