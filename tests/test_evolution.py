import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gamowkit import (
    BRANCHES,
    DomainViolationError,
    Kind,
    ResonancePole,
    Scenario,
    TimeHalf,
    branch_for,
    canonical_state,
    evolve,
    group_evolve,
    run_decay,
    survival_probability,
)
from canonical_states import BRANCH_KEYS, CANONICAL_STATES, EXC, PREP


def state_for(key, pole, amplitude=1.0 + 0.0j):
    arrow, kind, regime = key
    return canonical_state(arrow, kind, regime, pole, amplitude=amplitude)


class TestBranchTable:
    @pytest.mark.parametrize("key", BRANCH_KEYS)
    def test_matches_fixture(self, pole, key):
        expected = CANONICAL_STATES[key]
        branch = branch_for(state_for(key, pole))
        assert branch.label == expected.label
        assert branch.phase_sign == expected.phase_sign
        assert branch.growth_sign == expected.growth_sign
        assert branch.domain.half is expected.orientation.half

    def test_domain_agrees_with_state(self, pole):
        for key in BRANCH_KEYS:
            state = state_for(key, pole)
            assert branch_for(state).domain == state.time_domain

    def test_iteration_order(self):
        assert list(BRANCHES) == list(CANONICAL_STATES)

    def test_labels_unique(self, pole):
        labels = {branch_for(state_for(key, pole)).label for key in BRANCH_KEYS}
        assert len(labels) == 8


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

    @pytest.mark.parametrize("key", BRANCH_KEYS)
    def test_no_inverse_across_boundary(self, pole, key):
        state = state_for(key, pole)
        half = branch_for(state).domain.half
        wrong = 1.0 if half is TimeHalf.NONPOS else -1.0
        with pytest.raises(DomainViolationError):
            evolve(state, wrong)

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

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(list(BRANCHES)), energy=st.floats(-1e300, 1e300),
           width=st.floats(1e-300, 1e308), t=st.floats(-1e10, 1e10))
    @example(key=(PREP, Kind.DECAYING, 0), energy=1.0, width=0.2, t=0.0)
    @example(key=(PREP, Kind.GROWING, 0), energy=1.0, width=0.2, t=-0.0)
    @example(key=(EXC, Kind.DECAYING, 1), energy=-3.0, width=0.2, t=-5e-324)
    @example(key=(EXC, Kind.DECAYING, 0), energy=2.0, width=0.2, t=5e-324)
    @example(key=(PREP, Kind.GROWING, 1), energy=1.0, width=1e308, t=-1e10)  # growth * t = -inf
    def test_scalar_factor_function_is_factor(self, key, energy, width, t):
        branch, pole = BRANCHES[key], ResonancePole(energy, width)
        t = t if branch.domain.contains(t) else -t  # both zeros lie on every branch
        assume(math.isfinite(energy * t))  # as a sweep checks first
        bits = [(z.real.hex(), z.imag.hex()) for z in (
            branch.scalar_factor(pole)(t), branch.factor(pole, t),
            branch.factor(pole, np.array([t]))[0])]
        assert bits[0] == bits[1] == bits[2]

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

    @pytest.mark.parametrize("width", [0.2, 1e300])
    def test_float64_time_factor_is_the_float_factor(self, width):
        # a numpy float64 time multiplies without numpy's overflow warning, as a float does
        pole = ResonancePole(1.0, width)
        branch = BRANCHES[(PREP, Kind.DECAYING, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (2.5, 1e10):
                factor, expected = branch.factor(pole, np.float64(t)), branch.factor(pole, t)
                assert type(factor) is complex
                assert (factor.real.hex(), factor.imag.hex()) == (expected.real.hex(),
                                                                  expected.imag.hex())

    def test_list_and_array_of_times_checked_alike(self, pole):
        branch = branch_for(state_for((PREP, Kind.GROWING, 0), pole))
        # both ends inside, an inner point outside: the first point outside is named
        for times in ([-1.0, 0.5, -3.0, 2.0, -1.0], np.array([-1.0, 0.5, -3.0, 2.0, -1.0])):
            with pytest.raises(DomainViolationError, match="^t=0.5 lies outside the t<=0 "):
                branch.checked_times(times)
        with pytest.raises(ValueError, match="^t must be finite, got nan$"):
            branch.checked_times([-1.0, math.nan, math.inf])
        overflowing = ResonancePole(1e300, 0.2)
        for times in ([-1e10, 0.0], [0.0, -1e10], np.array([0.0, -1e10])):
            with pytest.raises(ValueError, match=r"^E_R \* t must be finite, got inf$"):
                branch.evolvable_times(overflowing, times)

    def test_scalar_time_checked_as_float(self, pole):
        state = state_for((PREP, Kind.DECAYING, 0), pole)
        assert type(branch_for(state).checked_times(2)) is float
        assert evolve(state, 2) == evolve(state, 2.0)

    def test_checked_times_convert_once(self, pole):
        branch = branch_for(state_for((PREP, Kind.DECAYING, 0), pole))
        for t in (np.float32(2.0), np.int64(2), np.array(2.0)):
            assert type(branch.checked_times(t)) is float
            assert type(branch.evolvable_times(pole, t)) is float
        times = branch.evolvable_times(pole, [0.0, 2])
        assert type(times) is np.ndarray and times.dtype == float and times.tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("energy", [1e300, -1e300])
    @pytest.mark.parametrize("key", BRANCH_KEYS)
    def test_scalar_and_grid_phase_messages_agree(self, key, energy):
        # the phase is checked at |t|, so its sign is E_R's on either half-domain
        state = state_for(key, ResonancePole(energy, 0.2))
        t = 1e10 if branch_for(state).domain.half is TimeHalf.NONNEG else -1e10
        messages = set()
        for times in (t, np.float64(t), [t], [0.0, t], np.array([t])):
            with pytest.raises(ValueError, match=r"^E_R \* t must be finite") as caught:
                evolve(state, times)
            messages.add(str(caught.value))
        assert messages == {f"E_R * t must be finite, got {math.copysign(math.inf, energy)}"}

    def test_composition_random(self, pole):
        rng = np.random.default_rng(7)
        for key in BRANCH_KEYS:
            state = state_for(key, pole)
            sign = 1.0 if branch_for(state).domain.half is TimeHalf.NONNEG else -1.0
            for _ in range(200):
                t1, t2 = sign * rng.uniform(0.0, 40.0, size=2)
                stepped = evolve(canonical_state(state.arrow, state.kind, state.regime, pole,
                                                 amplitude=evolve(state, t1)), t2)
                assert abs(stepped - evolve(state, t1 + t2)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, 7), magnitude=st.floats(0.0, 80.0))
    def test_modulus_law(self, index, magnitude):
        pole = ResonancePole(1.0, 0.2)
        key = BRANCH_KEYS[index]
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
    @pytest.mark.parametrize("dim", [3, 64])  # 64: the dimension cap
    def test_zero_hamiltonian_is_identity(self, dim):
        v = np.arange(dim) * (1.0 + 2.0j) - 0.5j
        np.testing.assert_array_equal(group_evolve(np.zeros((dim, dim)), 17.3, v), v)

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
        for key in BRANCH_KEYS:
            state = state_for(key, pole)
            sign = 1.0 if branch_for(state).domain.half is TimeHalf.NONNEG else -1.0
            assert abs(abs(evolve(state, sign * 2.0)) - 1.0) > 0.1

    @pytest.mark.parametrize("h, t", [(np.diag([10.0, 1.0]), 1e308),
                                      (np.diag([1.0, -10.0]), -1e308)])
    def test_overflowing_phase_rejected(self, h, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ValueError, match=r"^eigenvalue \* t must be finite, got inf$"):
                group_evolve(h, t, [1.0, 0.0])

    @pytest.mark.parametrize("h, t, v, message", [
        (np.eye(2), math.nan, [1.0, 0.0], "t must be finite, got nan"),
        (np.eye(2), math.inf, [1.0, 0.0], "t must be finite, got inf"),
        (np.eye(2), -math.inf, [1.0, 0.0], "t must be finite, got -inf"),
        (np.eye(2), "a", [1.0, 0.0], "t must be real, got 'a'"),
        (np.eye(2), 1.0j, [1.0, 0.0], "t must be real, got 1j"),
        ([[math.nan, 0.0], [0.0, 1.0]], 1.0, [1.0, 0.0], "hamiltonian must be finite, got nan"),
        ([[1.0, complex(0.0, math.inf)], [complex(0.0, -math.inf), 1.0]], 1.0, [1.0, 0.0],
         "hamiltonian must be finite, got inf"),
        ([["a", "b"], ["c", "d"]], 1.0, [1.0, 0.0],
         "hamiltonian must be real, got array([['a', 'b'],\n       ['c', 'd']], dtype='<U1')"),
        (np.eye(2), 1.0, [math.nan, 0.0], "vector must be finite, got nan"),
        (np.eye(2), 1.0, [1.0, complex(0.0, -math.inf)], "vector must be finite, got -inf"),
        (np.eye(2), [1.0, 2.0], [1.0, 0.0], "t must be one number, got an array of shape (2,)"),
    ])
    def test_nonfinite_input_rejected_before_eigh(self, monkeypatch, h, t, v, message):
        def eigh(_):
            raise AssertionError("eigh reached")
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(ValueError) as excinfo:
                group_evolve(h, t, v)
        assert str(excinfo.value) == message
