import re
import warnings
from fractions import Fraction

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
    ResultTable,
    TimeHalf,
    build_representation,
    canonical_state,
    check_conjugation_identities,
    evolve,
    lineshape,
    lorentzian_density,
    resonance_s_matrix,
    survival_probability,
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

    def test_width_whose_half_rounds_to_zero_rejected(self):
        # both poles would sit on the real axis
        with pytest.raises(ValueError, match=r"^resonance width 5e-324 is too small: "
                                             r"Gamma/2 rounds to 0$"):
            ResonancePole(1.0, 5e-324)
        assert ResonancePole(1.0, 1e-323).decaying_pole == complex(1.0, -5e-324)

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

    @pytest.mark.parametrize("energy, width, message", [
        (np.array([1.0, 2.0]), 0.2, r"resonance energy must be one number, got an array of shape \(2,\)"),
        ([1.0], 0.2, r"resonance energy must be one number, got an array of shape \(1,\)"),
        (1.0, [[0.2]], r"resonance width must be one number, got an array of shape \(1, 1\)"),
    ], ids=["array", "list", "nested-list"])
    def test_grid_rejected(self, energy, width, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ResonancePole(energy, width)

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

    def test_invalid_regime(self, pole):
        with pytest.raises(ValueError, match="regime"):
            canonical_state(PREP, Kind.GROWING, 2, pole)

    @pytest.mark.parametrize("regime", [True, 1.0, "1", None])
    def test_ill_typed_regime_rejected(self, pole, regime):
        with pytest.raises(ValueError, match=f"^regime must be 0 or 1, got {regime}$"):
            canonical_state(PREP, Kind.GROWING, regime, pole)

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

    def test_ill_typed_key_rejected(self, pole):
        with pytest.raises(ValueError, match="kind='growing'"):
            canonical_state(PREP, "growing", 0, pole)
        with pytest.raises(ValueError, match="arrow='prep'"):
            GamowState(pole, Kind.GROWING, 0, "prep")

    def test_amplitude_carried(self, pole):
        state = canonical_state(EXC, Kind.DECAYING, 1, pole, amplitude=2.0 - 1.0j)
        assert state.amplitude == 2.0 - 1.0j
        assert GamowState(pole, Kind.DECAYING, 1, EXC, amplitude=3.0).amplitude == 3.0 + 0.0j

    @pytest.mark.parametrize("amplitude", [
        complex("nan"), complex(1.0, float("inf")), complex(float("-inf"), 0.0), float("nan"),
        np.complex128(complex(0.0, float("nan"))),
    ])
    def test_nonfinite_amplitude_rejected(self, pole, amplitude):
        message = rf"^amplitude must be finite, got {re.escape(str(complex(amplitude)))}$"
        with pytest.raises(ValueError, match=message):
            canonical_state(EXC, Kind.DECAYING, 1, pole, amplitude=amplitude)
        state = canonical_state(EXC, Kind.DECAYING, 1, pole)
        with pytest.raises(ValueError, match=message):
            GamowState(state.pole, state.kind, state.regime, state.arrow, amplitude=amplitude)
        with pytest.raises(ValueError, match=message):
            GamowState(pole, Kind.DECAYING, 1, EXC, complex(amplitude))

    def test_complex_energy(self, pole):
        assert canonical_state(PREP, Kind.DECAYING, 0, pole).complex_energy == 1.0 - 0.1j
        assert canonical_state(PREP, Kind.GROWING, 0, pole).complex_energy == 1.0 + 0.1j


@pytest.mark.parametrize("call, message", [
    (lambda pole: lineshape(pole, ["a"]), "energies must be real, got ['a']"),
    (lambda pole: resonance_s_matrix(pole, [1j]), "energies must be real, got [1j]"),
    (lambda pole: canonical_state(PREP, Kind.GROWING, 0, pole, amplitude="x"),
     "amplitude must be a complex number, got 'x'"),
    (lambda pole: canonical_state(PREP, Kind.GROWING, 0, pole, amplitude=True),
     "amplitude must be a complex number, got True"),
    (lambda pole: canonical_state(PREP, Kind.GROWING, 0, pole, amplitude=10**400),
     "amplitude must be finite, got int beyond the double range"),
    (lambda pole: GamowState(pole, Kind.GROWING, 0, PREP, amplitude=Fraction(10**400, 3)),
     "amplitude must be finite, got Fraction beyond the double range"),
], ids=["lineshape-str", "s-matrix-complex", "amplitude-str", "amplitude-bool", "amplitude-huge-int",
        "amplitude-huge-fraction"])
def test_ill_typed_energies_and_amplitudes_name_themselves(pole, call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(pole)


_RAGGED = [[0.0, 1.0], [2.0]]


@pytest.mark.parametrize("call, name", [
    (lambda pole: evolve(canonical_state(PREP, Kind.DECAYING, 0, pole), _RAGGED), "t"),
    (lambda pole: survival_probability(canonical_state(PREP, Kind.DECAYING, 0, pole), _RAGGED),
     "t"),
    (lambda pole: lorentzian_density(pole, _RAGGED), "energies"),
    (lambda pole: lineshape(pole, _RAGGED), "energies"),
    (lambda pole: resonance_s_matrix(pole, _RAGGED), "energies"),
    (lambda pole: ResultTable(("a", "b"), [[1.0, 2.0], [3.0]]), "rows"),
], ids=["evolve", "survival", "density", "lineshape", "s-matrix", "table"])
def test_ragged_input_names_itself(pole, call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        with pytest.raises(ValueError, match=f"^{name} must be a rectangular array, got a "
                                             "ragged sequence$"):
            call(pole)


@pytest.mark.parametrize("pole", ["x", None, (1.0, 0.2)], ids=["str", "none", "tuple"])
def test_state_needs_a_resonance_pole(pole):
    message = f"pole must be a ResonancePole, got {pole!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        canonical_state(PREP, Kind.GROWING, 0, pole)


@pytest.mark.parametrize("call", [
    lambda pole: lineshape(pole, [1.0]),
    lambda pole: lorentzian_density(pole, [1.0]),
    lambda pole: lorentzian_density(pole, 1.0),
    lambda pole: resonance_s_matrix(pole, 1.0),
    lambda pole: resonance_s_matrix(pole, [1.0]),
    lambda pole: check_conjugation_identities(build_representation(1, 0), pole),
], ids=["lineshape", "density-grid", "density", "s-matrix", "s-matrix-grid", "conjugation"])
@pytest.mark.parametrize("pole", ["x", None, (1.0, 0.2)], ids=["str", "none", "tuple"])
def test_pole_functions_need_a_resonance_pole(call, pole):
    message = f"pole must be a ResonancePole, got {pole!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(pole)


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
