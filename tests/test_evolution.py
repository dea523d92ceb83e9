import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamowkit import (
    Arrow,
    DomainViolationError,
    Kind,
    NonHermitianError,
    ResonancePole,
    Scenario,
    TimeHalf,
    branch_by_label,
    branch_for,
    canonical_state,
    evolve,
    group_evolve,
    run_decay,
    survival_probability,
)

PREP = Arrow.PREPARATION_REGISTRATION
EXC = Arrow.EXCITATION_DEEXCITATION

# Sign pattern of the eight formulas, read off independently of the
# implementation: (arrow, kind, regime) -> (label, phase_sign, growth_sign,
# half-domain).
BRANCH_FIXTURE = {
    (PREP, Kind.GROWING, 0): ("4a", -1, +1, TimeHalf.NONPOS),
    (PREP, Kind.DECAYING, 0): ("4b", -1, -1, TimeHalf.NONNEG),
    (PREP, Kind.DECAYING, 1): ("10", +1, -1, TimeHalf.NONNEG),
    (PREP, Kind.GROWING, 1): ("11", +1, +1, TimeHalf.NONPOS),
    (EXC, Kind.GROWING, 0): ("12", +1, +1, TimeHalf.NONPOS),
    (EXC, Kind.DECAYING, 0): ("5b", -1, -1, TimeHalf.NONNEG),
    (EXC, Kind.DECAYING, 1): ("13", -1, -1, TimeHalf.NONNEG),
    (EXC, Kind.GROWING, 1): ("5a", +1, +1, TimeHalf.NONPOS),
}

ALL_KEYS = sorted(BRANCH_FIXTURE, key=lambda k: BRANCH_FIXTURE[k][0])


@pytest.fixture
def pole():
    return ResonancePole(1.0, 0.2)


def state_for(key, pole, amplitude=1.0 + 0.0j):
    arrow, kind, regime = key
    return canonical_state(arrow, kind, regime, pole, amplitude=amplitude)


class TestBranchTable:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_matches_fixture(self, pole, key):
        label, phase_sign, growth_sign, half = BRANCH_FIXTURE[key]
        branch = branch_for(state_for(key, pole))
        assert branch.label == label
        assert branch.phase_sign == phase_sign
        assert branch.growth_sign == growth_sign
        assert branch.domain.half is half

    def test_domain_agrees_with_state(self, pole):
        for key in ALL_KEYS:
            state = state_for(key, pole)
            assert branch_for(state).domain == state.time_domain

    def test_labels_unique(self, pole):
        labels = {branch_for(state_for(key, pole)).label for key in ALL_KEYS}
        assert len(labels) == 8

    def test_lookup_by_label(self):
        assert branch_by_label("5a").phase_sign == +1
        with pytest.raises(ValueError, match="unknown branch"):
            branch_by_label("6c")


class TestEvolve:
    def test_identity_at_zero(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        assert evolve(state, 0.0) == 1.0 + 0.0j

    def test_decaying_modulus(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        factor = evolve(state, 5.0)
        # exp(-Gamma t / 2) at Gamma=0.2, t=5
        assert abs(factor) == pytest.approx(0.6065306597126334, abs=1e-12)
        # the phase part alone is unimodular
        assert abs(factor * math.exp(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_growing_backward_modulus(self, pole):
        state = state_for((PREP, Kind.GROWING, 0), pole)
        factor = evolve(state, -5.0)
        assert abs(factor) == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_value_against_direct_formula(self, pole):
        state = state_for((EXC, Kind.GROWING, 1), pole)  # branch 5a
        t = -3.25
        expected = cmath.exp(+1j * 1.0 * t) * math.exp(+0.1 * t)
        assert evolve(state, t) == pytest.approx(expected, abs=1e-14)

    def test_amplitude_scales(self, pole):
        amp = 0.5 - 2.0j
        plain = evolve(state_for((PREP, Kind.DECAYING, 0), pole), 2.0)
        scaled = evolve(state_for((PREP, Kind.DECAYING, 0), pole, amplitude=amp), 2.0)
        assert scaled == pytest.approx(plain * amp, abs=1e-14)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_no_inverse_across_boundary(self, pole, key):
        state = state_for(key, pole)
        half = branch_for(state).domain.half
        wrong = 1.0 if half is TimeHalf.NONPOS else -1.0
        with pytest.raises(DomainViolationError):
            evolve(state, wrong)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("function", [evolve, survival_probability])
    def test_nonfinite_time_rejected(self, pole, function, t):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        with pytest.raises(ValueError, match=f"t must be finite, got {t}") as excinfo:
            function(state, t)
        assert not isinstance(excinfo.value, DomainViolationError)

    @pytest.mark.parametrize("energy, t", [
        (1e300, 1e10),    # the phase overflows to inf: cmath refuses it
        (-1e300, 1e10),
        (1.0, -1e4),      # off the domain, the modulus overflows: cmath refuses it
        (1.0, 2),         # an int time
        (1.0, -0.0),
    ])
    def test_scalar_factor_equals_array_factor(self, energy, t):
        pole = ResonancePole(energy, 0.2)
        branch = branch_for(state_for((PREP, Kind.DECAYING, 0), pole))
        with np.errstate(all="ignore"):
            scalar = branch.factor(pole, t)
            array = branch.factor(pole, np.array([t]))[0]
        assert type(scalar) is complex
        assert (scalar.real.hex(), scalar.imag.hex()) == (array.real.hex(), array.imag.hex())

    @pytest.mark.parametrize("energy, message", [
        (1e300, "inf"),
        (-1e300, "-inf"),
        # numpy scalars multiply with numpy's overflow warning
        pytest.param(np.float64(1e300), "inf", id="float64-1e+300-inf"),
        pytest.param(np.float64(-1e300), "-inf", id="float64--1e+300--inf"),
    ])
    def test_overflowing_phase_rejected(self, energy, message):
        pole = ResonancePole(energy, 0.2)
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            scenario = Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 1e10, 5)  # checked by a sweep
            for call in (lambda: evolve(state, 1e10), lambda: run_decay(scenario)):
                with pytest.raises(ValueError) as excinfo:
                    call()
                assert str(excinfo.value) == f"E_R * t must be finite, got {message}"

    @pytest.mark.parametrize("times", [[0.0, 1.0, 2.5], (3.0,), np.linspace(0.0, 40.0, 9)])
    def test_time_grid_equals_scalar_calls(self, pole, times):
        state = state_for((PREP, Kind.DECAYING, 0), pole, amplitude=0.5 - 2.0j)
        factors = evolve(state, times)
        assert factors.dtype == complex and factors.shape == (len(times),)
        for t, factor in zip(times, factors):
            scalar = evolve(state, t)
            assert (factor.real.hex(), factor.imag.hex()) == (scalar.real.hex(), scalar.imag.hex())

    def test_empty_time_grid(self, pole):
        state = state_for((PREP, Kind.GROWING, 0), pole)
        assert evolve(state, np.array([])).shape == (0,)
        assert evolve(state, []).dtype == complex

    def test_time_grid_checked_for_domain_then_phase(self):
        # a grid both off the half-domain and overflowing the phase reports the domain
        pole = ResonancePole(1e300, 0.2)
        with pytest.raises(DomainViolationError, match="^t=-1.0 lies outside"):
            run_decay(Scenario(pole, PREP, Kind.DECAYING, 0, -1.0, 1e10, 3))
        with pytest.raises(ValueError, match=r"^E_R \* t must be finite, got inf$"):
            evolve(state_for((PREP, Kind.DECAYING, 0), pole), [0.0, 1e10])

    @pytest.mark.parametrize("width", [1e300, np.float64(1e300)], ids=["float", "float64"])
    def test_overflowing_modulus_underflows_silently(self, width):
        state = state_for((PREP, Kind.DECAYING, 0), ResonancePole(1.0, width))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Gamma * t overflows: no numpy RuntimeWarning
            assert evolve(state, 1e10) == 0j
            assert evolve(state, [0.0, 1e10]).tolist() == [1.0, 0j]
            assert survival_probability(state, 1e10) == 0.0
            assert survival_probability(state, [0.0, 1e10]).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("t, message", [
        ("1", "t must be real, got '1'"),
        (True, "t must be real, got True"),
        (None, "t must be real, got None"),
        (1j, r"t must be real, got 1j"),
    ])
    def test_ill_typed_time_rejected(self, pole, t, message):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve(state, t)

    def test_scalar_time_checked_as_float(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        assert type(branch_for(state).checked_times(2)) is float
        assert evolve(state, 2) == evolve(state, 2.0)

    def test_composition_random(self, pole):
        rng = np.random.default_rng(7)
        for key in ALL_KEYS:
            state = state_for(key, pole)
            sign = 1.0 if branch_for(state).domain.half is TimeHalf.NONNEG else -1.0
            for _ in range(200):
                t1, t2 = sign * rng.uniform(0.0, 40.0, size=2)
                stepped = evolve(state.with_amplitude(evolve(state, t1)), t2)
                assert abs(stepped - evolve(state, t1 + t2)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, 7), magnitude=st.floats(0.0, 80.0))
    def test_modulus_law(self, index, magnitude):
        pole = ResonancePole(1.0, 0.2)
        key = ALL_KEYS[index]
        state = state_for(key, pole, amplitude=1.5 + 0.5j)
        branch = branch_for(state)
        t = magnitude if branch.domain.half is TimeHalf.NONNEG else -magnitude
        expected = math.exp(branch.growth_sign * 0.5 * pole.width * t) * abs(state.amplitude)
        assert abs(abs(evolve(state, t)) - expected) < 1e-12


class TestSurvivalProbability:
    def test_no_elapsed_time(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        assert survival_probability(state, 0.0) == 1.0

    def test_exponential_decay(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        # exp(-Gamma t) at Gamma=0.2, t=10
        assert survival_probability(state, 10.0) == pytest.approx(
            0.1353352832366127, abs=1e-12)

    def test_domain_violation(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        with pytest.raises(DomainViolationError):
            survival_probability(state, -1.0)

    def test_growing_state_rejected(self, pole):
        state = state_for((PREP, Kind.GROWING, 0), pole)
        with pytest.raises(ValueError, match="decaying"):
            survival_probability(state, -1.0)

    @pytest.mark.parametrize("times", [[0.0, 0.5, 2.0, 7.5], np.linspace(0.0, 200.0, 401), []])
    def test_time_grid_matches_scalar_calls(self, pole, times):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        survival = survival_probability(state, times)
        assert isinstance(survival, np.ndarray) and survival.shape == (len(times),)
        for t, value in zip(times, survival):
            scalar = survival_probability(state, t)
            assert scalar == math.exp(-pole.width * t)  # one time: math.exp, bit for bit
            assert abs(value - scalar) <= math.ulp(scalar)

    def test_matches_evolve_modulus(self, pole):
        state = state_for((EXC, Kind.DECAYING, 1), pole)
        for t in (0.5, 2.0, 7.5):
            assert survival_probability(state, t) == pytest.approx(
                abs(evolve(state, t)) ** 2, abs=1e-12)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


class TestGroupEvolve:
    def test_zero_hamiltonian_is_identity(self):
        v = np.array([1.0 + 2.0j, -0.5j, 3.0])
        np.testing.assert_array_equal(group_evolve(np.zeros((3, 3)), 17.3, v), v)

    def test_diagonal_spectral_example(self):
        out = group_evolve(np.diag([1.0, 2.0]), math.pi, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [cmath.exp(-1j * math.pi), 0.0], atol=1e-12)
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-12)

    def test_group_inverse(self):
        rng = np.random.default_rng(11)
        for dim in (2, 5, 8):
            h = random_hermitian(rng, dim)
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            roundtrip = group_evolve(h, -2.7, group_evolve(h, 2.7, v))
            np.testing.assert_allclose(roundtrip, v, atol=1e-12)

    def test_composition_for_signed_times(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        for t1, t2 in [(-3.0, 5.5), (2.0, 2.0), (-1.0, -4.25)]:
            left = group_evolve(h, t1, group_evolve(h, t2, v))
            right = group_evolve(h, t1 + t2, v)
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 7)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        for t in (-8.0, 0.0, 0.3, 12.0):
            assert np.linalg.norm(group_evolve(h, t, v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-12)

    def test_semigroup_does_not_preserve_modulus(self, pole):
        # contrast: every branch changes the modulus away from t = 0
        for key in ALL_KEYS:
            state = state_for(key, pole)
            sign = 1.0 if branch_for(state).domain.half is TimeHalf.NONNEG else -1.0
            assert abs(abs(evolve(state, sign * 2.0)) - 1.0) > 0.1

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            group_evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, np.array([1.0, 0.0]))

    def test_dimension_cap(self):
        group_evolve(np.zeros((64, 64)), 1.0, np.zeros(64))
        with pytest.raises(ValueError, match="^dimension 65 exceeds the cap 64$"):
            group_evolve(np.zeros((65, 65)), 1.0, np.zeros(65))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            group_evolve(np.zeros((2, 3)), 1.0, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            group_evolve(np.zeros((2, 2)), 1.0, np.zeros(3))
