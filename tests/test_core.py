
import numpy as np
import pytest

import gamowkit
from gamowkit import (
    Arrow,
    GamowState,
    HalfPlane,
    Kind,
    Orientation,
    ResonancePole,
    Role,
    TimeHalf,
    canonical_state,
    resonance_s_matrix,
)

PREP = Arrow.PREPARATION_REGISTRATION
EXC = Arrow.EXCITATION_DEEXCITATION


# Transcription of the two four-cell summary tables, one entry per
# canonical state: (arrow, kind, regime) -> half-plane, role, half-domain,
# orientation, bracket.
CANONICAL_TABLE = [
    (PREP, Kind.GROWING, 0, HalfPlane.MINUS, Role.STATE,
     TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_MINUS_INF, "<phi,r=0|Z_R*,r=0>"),
    (PREP, Kind.DECAYING, 0, HalfPlane.PLUS, Role.OBSERVABLE,
     TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF, "<psi,r=0|Z_R,r=0>"),
    (PREP, Kind.DECAYING, 1, HalfPlane.PLUS, Role.OBSERVABLE,
     TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_PLUS_INF, "<psi,r=1|Z_R,r=1>"),
    (PREP, Kind.GROWING, 1, HalfPlane.MINUS, Role.STATE,
     TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF, "<phi,r=1|Z_R*,r=1>"),
    (EXC, Kind.GROWING, 0, HalfPlane.PLUS, Role.EXCITATION,
     TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_MINUS_INF, "<phi_+,r=0|Z_R*,r=0>"),
    (EXC, Kind.DECAYING, 0, HalfPlane.MINUS, Role.DEEXCITATION,
     TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF, "<phi_-,r=0|Z_R,r=0>"),
    (EXC, Kind.DECAYING, 1, HalfPlane.MINUS, Role.DEEXCITATION,
     TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_PLUS_INF, "<phi_-,r=1|Z_R,r=1>"),
    (EXC, Kind.GROWING, 1, HalfPlane.PLUS, Role.EXCITATION,
     TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF, "<phi_+,r=1|Z_R*,r=1>"),
]


@pytest.fixture
def pole():
    return ResonancePole(1.0, 0.2)


class TestResonancePole:
    def test_pole_pair(self):
        pole = ResonancePole(1.0, 0.2)
        assert pole.decaying_pole == 1.0 - 0.1j
        assert pole.growing_pole == 1.0 + 0.1j

    def test_zero_energy(self):
        pole = ResonancePole(0.0, 1.0)
        assert pole.decaying_pole == -0.5j
        assert pole.growing_pole == +0.5j

    def test_width_whose_half_rounds_to_zero_rejected(self):
        # both poles would sit on the real axis
        with pytest.raises(ValueError, match=r"^resonance width 5e-324 is too small: "
                                             r"Gamma/2 rounds to 0$"):
            ResonancePole(1.0, 5e-324)
        assert ResonancePole(1.0, 1e-323).decaying_pole == complex(1.0, -5e-324)

    @pytest.mark.parametrize("energy, width",
                             [(np.float32(1.5), 0.2), (np.int64(2), np.float64(0.3)), (3, 1)])
    def test_numpy_and_int_scalars_accepted(self, energy, width):
        pole = ResonancePole(energy, width)
        assert pole.decaying_pole == complex(float(energy), -0.5 * float(width))

    def test_stores_python_floats(self):
        pole = ResonancePole(np.float32(1.5), np.int64(2))
        assert (type(pole.energy), type(pole.width)) == (float, float)
        assert (pole.energy, pole.width) == (1.5, 2.0)
        assert repr(ResonancePole(1, 2)) == "ResonancePole(energy=1.0, width=2.0)"

    def test_negative_energy_allowed(self):
        pole = ResonancePole(-3.0, 0.5)
        assert pole.decaying_pole.imag < 0 < pole.growing_pole.imag

    def test_eigenvalue_by_kind(self):
        pole = ResonancePole(2.0, 0.4)
        assert pole.eigenvalue(Kind.DECAYING) == pole.decaying_pole
        assert pole.eigenvalue(Kind.GROWING) == pole.growing_pole

    def test_pole_halves_strict(self):
        pole = ResonancePole(1.0, 1e-12)
        assert pole.decaying_pole.imag < 0.0
        assert pole.growing_pole.imag > 0.0


class TestCanonicalStates:
    @pytest.mark.parametrize(
        "arrow,kind,regime,half_plane,role,half,orientation,bracket", CANONICAL_TABLE)
    def test_assignments(self, pole, arrow, kind, regime, half_plane, role,
                         half, orientation, bracket):
        state = canonical_state(arrow, kind, regime, pole)
        assert state.half_plane is half_plane
        assert state.role is role
        assert state.time_domain is orientation
        assert state.time_domain.half is half
        assert state.bracket == bracket
        assert state.amplitude == 1.0 + 0.0j

    def test_total_and_deterministic(self, pole):
        states = set()
        for arrow, kind, regime, *_ in CANONICAL_TABLE:
            first = canonical_state(arrow, kind, regime, pole)
            again = canonical_state(arrow, kind, regime, pole)
            assert first == again
            states.add(first)
        assert len(states) == 8

    def test_state_stores_only_its_key(self, pole):
        # Half-plane and role are derived, so a non-canonical pairing cannot be written.
        assert list(vars(GamowState(pole, Kind.GROWING, 0, PREP))) == \
               ["pole", "kind", "regime", "arrow", "amplitude"]
        for arrow, kind, regime, *_ in CANONICAL_TABLE:
            state = GamowState(pole, kind, regime, arrow)
            assert state == canonical_state(arrow, kind, regime, pole)
            scaled = GamowState(pole, kind, regime, arrow, amplitude=0.5j)
            assert scaled.amplitude == 0.5j
            assert (scaled.half_plane, scaled.role, scaled.bracket) == \
                   (state.half_plane, state.role, state.bracket)

    def test_amplitude_carried(self, pole):
        state = canonical_state(EXC, Kind.DECAYING, 1, pole, amplitude=2.0 - 1.0j)
        assert state.amplitude == 2.0 - 1.0j
        assert GamowState(pole, Kind.DECAYING, 1, EXC, amplitude=3.0).amplitude == 3.0 + 0.0j

    def test_complex_energy(self, pole):
        assert canonical_state(PREP, Kind.DECAYING, 0, pole).complex_energy == 1.0 - 0.1j
        assert canonical_state(PREP, Kind.GROWING, 0, pole).complex_energy == 1.0 + 0.1j


def test_package_exports_each_module_list_once():
    modules = (gamowkit.core, gamowkit.evolution, gamowkit.scenarios, gamowkit.symmetry,
               gamowkit.transform)
    names = [name for module in modules for name in module.__all__]
    assert gamowkit.__all__ == names
    assert len(names) == len(set(names)) == 33
    for module in modules:
        for name in module.__all__:
            assert getattr(gamowkit, name) is getattr(module, name)


class TestArrowConvention:
    def test_exactly_two_arrows_and_half_planes(self):
        assert len(list(Arrow)) == 2
        assert len(list(HalfPlane)) == 2


class TestOrientation:
    @pytest.mark.parametrize("half,orientation", [
        (TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF),
        (TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_PLUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_MINUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF),
    ])
    def test_valid_combinations(self, half, orientation):
        assert orientation.half is half
        assert orientation.contains(0.0)

    def test_value_is_the_table_annotation(self):
        assert Orientation("0->inf") is Orientation.TOWARD_PLUS_INF
        assert [orientation.value for orientation in Orientation] == \
            ["0->inf", "-inf->0", "0<-inf", "-inf<-0"]

    def test_each_half_and_regime_names_one_orientation(self):
        pairs = [(orientation.half, orientation.regime) for orientation in Orientation]
        assert len(pairs) == len(set(pairs)) == 4
        assert set(pairs) == {(half, regime) for half in TimeHalf for regime in (0, 1)}

    def test_a_half_is_no_orientation(self):
        with pytest.raises(ValueError, match="^'t>=0' is not a valid Orientation$"):
            Orientation("t>=0")

    def test_membership(self):
        nonneg = Orientation.TOWARD_PLUS_INF
        assert nonneg.contains(3.5) and nonneg.contains(0.0)
        assert not nonneg.contains(-1e-9)
        nonpos = Orientation.TOWARD_MINUS_INF
        assert nonpos.contains(-3.5) and nonpos.contains(0.0)
        assert not nonpos.contains(1e-9)

    def test_reflection_is_involution(self):
        for half, orientations in (
            (TimeHalf.NONNEG, (Orientation.TOWARD_PLUS_INF, Orientation.TOWARD_ZERO_FROM_PLUS_INF)),
            (TimeHalf.NONPOS, (Orientation.TOWARD_ZERO_FROM_MINUS_INF, Orientation.TOWARD_MINUS_INF)),
        ):
            for orientation in orientations:
                mirrored = orientation.reflected()
                assert mirrored.half is half.flipped()
                assert mirrored.regime == 1 - orientation.regime
                assert mirrored.reflected() is orientation


class TestSMatrix:
    def test_value_at_resonance_energy(self, pole):
        # (E_R - z*) / (E_R - z) = (-i Gamma/2) / (+i Gamma/2) = -1
        value = resonance_s_matrix(pole, [pole.energy])[0]
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_unimodular_on_real_axis(self, pole):
        energies = np.linspace(-4.0, 6.0, 501)
        s = resonance_s_matrix(pole, energies)
        np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12, rtol=0)
