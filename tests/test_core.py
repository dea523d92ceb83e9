import dataclasses
import warnings

import numpy as np
import pytest

from gamowkit import (
    Arrow,
    GamowState,
    HalfPlane,
    Kind,
    Orientation,
    ResonancePole,
    Role,
    TimeDomain,
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

    @pytest.mark.parametrize("width", [-0.1, 0.0, -1e300])
    def test_nonpositive_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            ResonancePole(1.0, width)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["energy", "width"])
    def test_nonfinite_rejected(self, field, value):
        fields = {"energy": 1.0, "width": 0.2, field: value}
        with pytest.raises(ValueError, match=f"resonance {field} must be finite, got {value}"):
            ResonancePole(**fields)

    @pytest.mark.parametrize("energy, width, message", [
        ("1", 0.2, "resonance energy must be real, got '1'"),
        (None, 0.2, "resonance energy must be real, got None"),
        (1 + 0j, 0.2, r"resonance energy must be real, got \(1\+0j\)"),
        (1.0, True, "resonance width must be real, got True"),
        (10**400, 1.0, "resonance energy must be finite, got an integer of 1329 bits"),
    ])
    def test_ill_typed_scalar_rejected(self, energy, width, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ResonancePole(energy, width)

    @pytest.mark.parametrize("energy, width",
                             [(np.float32(1.5), 0.2), (np.int64(2), np.float64(0.3)), (3, 1)])
    def test_numpy_and_int_scalars_accepted(self, energy, width):
        pole = ResonancePole(energy, width)
        assert pole.decaying_pole == complex(float(energy), -0.5 * float(width))

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
        assert state.time_domain == TimeDomain(half, orientation)
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

    def test_invalid_regime(self, pole):
        with pytest.raises(ValueError, match="regime"):
            canonical_state(PREP, Kind.GROWING, 2, pole)

    @pytest.mark.parametrize("regime", [True, 1.0, "1", None])
    def test_ill_typed_regime_rejected(self, pole, regime):
        with pytest.raises(ValueError, match=f"^regime must be 0 or 1, got {regime}$"):
            canonical_state(PREP, Kind.GROWING, regime, pole)

    def test_state_stores_only_its_key(self, pole):
        # Half-plane and role are derived, so a non-canonical pairing cannot be written.
        assert [f.name for f in dataclasses.fields(GamowState)] == \
               ["pole", "kind", "regime", "arrow", "amplitude"]
        for arrow, kind, regime, *_ in CANONICAL_TABLE:
            state = GamowState(pole, kind, regime, arrow)
            assert state == canonical_state(arrow, kind, regime, pole)
            scaled = state.with_amplitude(0.5j)
            assert scaled.amplitude == 0.5j
            assert (scaled.half_plane, scaled.role, scaled.bracket) == \
                   (state.half_plane, state.role, state.bracket)

    def test_ill_typed_key_rejected(self, pole):
        with pytest.raises(ValueError, match="kind='growing'"):
            canonical_state(PREP, "growing", 0, pole)
        with pytest.raises(ValueError, match="arrow='prep'"):
            GamowState(pole, Kind.GROWING, 0, "prep")

    def test_amplitude_carried(self, pole):
        state = canonical_state(EXC, Kind.DECAYING, 1, pole, amplitude=2.0 - 1.0j)
        assert state.amplitude == 2.0 - 1.0j
        assert state.with_amplitude(3.0).amplitude == 3.0 + 0.0j

    def test_complex_energy(self, pole):
        assert canonical_state(PREP, Kind.DECAYING, 0, pole).complex_energy == 1.0 - 0.1j
        assert canonical_state(PREP, Kind.GROWING, 0, pole).complex_energy == 1.0 + 0.1j


class TestArrowConvention:
    def test_exactly_two_arrows_and_half_planes(self):
        assert len(list(Arrow)) == 2
        assert len(list(HalfPlane)) == 2


class TestTimeDomain:
    @pytest.mark.parametrize("half,orientation", [
        (TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF),
        (TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_PLUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_MINUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF),
    ])
    def test_valid_combinations(self, half, orientation):
        domain = TimeDomain(half, orientation)
        assert domain.contains(0.0)

    @pytest.mark.parametrize("half,orientation", [
        (TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_MINUS_INF),
        (TimeHalf.NONNEG, Orientation.TOWARD_MINUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_PLUS_INF),
        (TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_PLUS_INF),
    ])
    def test_invalid_combinations(self, half, orientation):
        with pytest.raises(ValueError, match="orientation"):
            TimeDomain(half, orientation)

    def test_orientation_must_be_an_orientation(self):
        with pytest.raises(ValueError, match="orientation must be an Orientation, got '0->inf'"):
            TimeDomain(TimeHalf.NONNEG, "0->inf")

    def test_half_must_be_a_time_half(self):
        with pytest.raises(ValueError, match="half must be a TimeHalf, got 't>=0'"):
            TimeDomain("t>=0", Orientation.TOWARD_PLUS_INF)

    def test_membership(self):
        nonneg = TimeDomain(TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF)
        assert nonneg.contains(3.5) and nonneg.contains(0.0)
        assert not nonneg.contains(-1e-9)
        nonpos = TimeDomain(TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF)
        assert nonpos.contains(-3.5) and nonpos.contains(0.0)
        assert not nonpos.contains(1e-9)

    def test_reflection_is_involution(self):
        for half, orientations in (
            (TimeHalf.NONNEG, (Orientation.TOWARD_PLUS_INF, Orientation.TOWARD_ZERO_FROM_PLUS_INF)),
            (TimeHalf.NONPOS, (Orientation.TOWARD_ZERO_FROM_MINUS_INF, Orientation.TOWARD_MINUS_INF)),
        ):
            for orientation in orientations:
                domain = TimeDomain(half, orientation)
                mirrored = domain.reflected()
                assert mirrored.half is half.flipped()
                assert mirrored.reflected() == domain


class TestSMatrix:
    def test_value_at_resonance_energy(self, pole):
        # (E_R - z*) / (E_R - z) = (-i Gamma/2) / (+i Gamma/2) = -1
        value = resonance_s_matrix(pole, [pole.energy])[0]
        assert value == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_energy_rejected(self, pole, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            with pytest.raises(ValueError, match=f"^energies must be finite, got {value}$"):
                resonance_s_matrix(pole, [1.0, value])

    def test_unimodular_on_real_axis(self, pole):
        energies = np.linspace(-4.0, 6.0, 501)
        s = resonance_s_matrix(pole, energies)
        np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12, rtol=0)
