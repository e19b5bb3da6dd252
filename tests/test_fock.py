import math

import pytest

from fockbench.fock import (
    ModeId,
    Polarization,
    apply_phase,
    apply_two_mode_unitary,
    create_photon,
    make_vacuum,
    partial_probability,
    relabel_modes,
)

from conftest import haar_unitary, raises_invariant

V = Polarization.V
M = [ModeId(i, V) for i in range(6)]
BS50 = [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
        [math.sin(math.pi / 4), math.cos(math.pi / 4)]]


def singlet():
    st = create_photon(make_vacuum(M[:2]), M[0])
    return apply_two_mode_unitary(st, M[0], M[1], BS50)


class TestMakeVacuum:
    def test_two_modes(self):
        st = make_vacuum(M[:2])
        assert st.amplitudes == {(0, 0): 1.0 + 0j}

    def test_six_modes_single_entry_norm_one(self):
        st = make_vacuum(M)
        assert len(st.amplitudes) == 1
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with raises_invariant("at least one mode"):
            make_vacuum([])

    def test_duplicates_rejected(self):
        with raises_invariant("duplicate mode"):
            make_vacuum([M[0], M[0]])


class TestCreatePhoton:
    def test_vacuum_to_one_photon(self):
        st = create_photon(make_vacuum(M[:2]), M[0])
        assert st.amplitudes == {(1, 0): 1.0 + 0j}

    def test_two_photon_product_state(self):
        st = create_photon(make_vacuum(M[:2]), M[0])
        st = create_photon(st, M[1])
        assert st.amplitude((1, 1)) == pytest.approx(1.0)
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_overflow(self):
        st = make_vacuum(M[:2])
        st = create_photon(st, M[0])
        st = create_photon(st, M[0])
        with raises_invariant("exceeds truncation"):
            create_photon(st, M[0])

    def test_unknown_mode(self):
        with raises_invariant("not in state"):
            create_photon(make_vacuum(M[:2]), M[5])


class TestTwoModeUnitary:
    def test_identity(self):
        st = singlet()
        out = apply_two_mode_unitary(st, M[0], M[1], [[1, 0], [0, 1]])
        assert out.amplitudes == st.amplitudes

    def test_symmetric_splitter_gives_minus_singlet(self):
        st = singlet()
        inv = 1 / math.sqrt(2)
        assert st.amplitude((1, 0)) == pytest.approx(inv, abs=1e-12)
        assert st.amplitude((0, 1)) == pytest.approx(-inv, abs=1e-12)

    def test_hong_ou_mandel(self):
        st = create_photon(make_vacuum(M[:2]), M[0])
        st = create_photon(st, M[1])
        out = apply_two_mode_unitary(st, M[0], M[1], BS50)
        assert abs(out.amplitude((1, 1))) < 1e-12
        assert abs(out.amplitude((2, 0))) == pytest.approx(2**-0.5, abs=1e-12)
        assert abs(out.amplitude((0, 2))) == pytest.approx(2**-0.5, abs=1e-12)

    def test_one_photon_takes_exactly_its_row_of_u(self, rng):
        # a1+ -> u00 a1+ + u01 a2+ and a2+ -> u10 a1+ + u11 a2+, with no rounding
        for _ in range(200):
            u = haar_unitary(rng)
            amp = complex(*rng.standard_normal(2))
            for n1 in (0, 1):
                st = make_vacuum(M[:3])._replace({(n1, 1 - n1, 0): amp})
                out = apply_two_mode_unitary(st, M[0], M[1], u)
                a, b = u[1 - n1]
                assert out.amplitudes == {(1, 0, 0): amp * a, (0, 1, 0): amp * b}

    def test_non_unitary_rejected(self):
        with raises_invariant("deviates from identity"):
            apply_two_mode_unitary(singlet(), M[0], M[1], [[1, 0], [0, 2]])

    def test_unknown_mode(self):
        with raises_invariant("not in state"):
            apply_two_mode_unitary(singlet(), M[0], M[5], BS50)

    def test_norm_preserved_across_random_sequence(self, rng):
        st = create_photon(make_vacuum(M[:4]), M[0])
        st = create_photon(st, M[2])
        for _ in range(50):
            i, j = rng.choice(4, size=2, replace=False)
            st = apply_two_mode_unitary(st, M[i], M[j], haar_unitary(rng))
        assert abs(st.norm_sq() - 1.0) < 1e-12

    def test_unitarity_fuzz_1000_roundtrips(self, rng):
        # u then u-dagger recovers the input to 1e-10 per amplitude
        for _ in range(1000):
            st = create_photon(make_vacuum(M[:3]), M[rng.integers(3)])
            if rng.random() < 0.5:
                st = create_photon(st, M[rng.integers(3)])
            i, j = rng.choice(3, size=2, replace=False)
            u = haar_unitary(rng)
            fwd = apply_two_mode_unitary(st, M[i], M[j], u)
            back = apply_two_mode_unitary(fwd, M[i], M[j], u.conj().T)
            assert abs(fwd.norm_sq() - 1.0) < 1e-12
            for occ in set(st.amplitudes) | set(back.amplitudes):
                assert abs(back.amplitude(occ) - st.amplitude(occ)) < 1e-10


class TestApplyPhase:
    def test_zero_is_identity(self):
        st = singlet()
        assert apply_phase(st, M[0], 0.0).amplitudes == st.amplitudes

    def test_pi_flips_one_photon_component(self):
        st = singlet()
        out = apply_phase(st, M[1], math.pi)
        assert out.amplitude((1, 0)) == pytest.approx(st.amplitude((1, 0)), abs=1e-12)
        assert out.amplitude((0, 1)) == pytest.approx(-st.amplitude((0, 1)), abs=1e-12)

    def test_two_pi_is_identity(self):
        st = singlet()
        out = apply_phase(st, M[0], 2 * math.pi)
        for occ in st.amplitudes:
            assert abs(out.amplitude(occ) - st.amplitude(occ)) < 1e-12

    def test_unknown_mode(self):
        with raises_invariant("not in state"):
            apply_phase(singlet(), M[5], 1.0)


class TestPartialProbability:
    def test_empty_pattern_is_one(self):
        assert partial_probability(singlet(), {}) == pytest.approx(1.0, abs=1e-12)

    def test_singlet_branch_is_half(self):
        assert partial_probability(singlet(), {M[0]: 1}) == pytest.approx(0.5, abs=1e-12)

    def test_absent_entry_is_zero(self):
        assert partial_probability(singlet(), {M[0]: 1, M[1]: 1}) == 0.0

    def test_unknown_mode(self):
        with raises_invariant("not in state"):
            partial_probability(singlet(), {M[5]: 1})


class TestRenormalized:
    def test_zero_state_is_impossible(self):
        with raises_invariant("cannot normalize a zero state"):
            make_vacuum(M[:2])._replace({}).renormalized()


class TestRelabel:
    def test_swap_moves_occupation(self):
        st = create_photon(make_vacuum(M[:2]), M[0])
        out = relabel_modes(st, {M[0]: M[1], M[1]: M[0]})
        assert out.amplitudes == {(0, 1): 1.0 + 0j}

    def test_non_permutation_rejected(self):
        st = make_vacuum(M[:2])
        with raises_invariant("not a permutation"):
            relabel_modes(st, {M[0]: M[1]})


class TestPruning:
    def test_tiny_amplitudes_dropped_not_stored(self):
        st = singlet()
        tiny = {occ: a * 1e-20 for occ, a in st.amplitudes.items()}
        tiny[(0, 0)] = 1.0
        rebuilt = st._replace(tiny)
        assert set(rebuilt.amplitudes) == {(0, 0)}
