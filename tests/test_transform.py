import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamowkit import (
    BRANCHES,
    Arrow,
    HalfPlane,
    Kind,
    Orientation,
    ResonancePole,
    TimeHalf,
    branch_for,
    build_representation,
    canonical_state,
    cross_identify,
    derive_table,
    evolve,
    time_reverse,
    time_reverse_twice,
)
from golden_tables import EXCITATION_DEEXCITATION_TABLE, PREPARATION_REGISTRATION_TABLE

PREP = Arrow.PREPARATION_REGISTRATION
EXC = Arrow.EXCITATION_DEEXCITATION

ALL_LABELS = [(arrow, kind, regime)
              for arrow in Arrow for kind in Kind for regime in (0, 1)]

BY_LABEL = {b.label: b for b in BRANCHES.values()}


@pytest.fixture
def pole():
    return ResonancePole(1.0, 0.2)


class TestTimeReverse:
    def test_growing_laboratory_state(self, pole):
        state = canonical_state(PREP, Kind.GROWING, 0, pole)
        image = time_reverse(state)
        assert image.kind is Kind.DECAYING
        assert image.half_plane is HalfPlane.PLUS
        assert image.regime == 1
        domain = branch_for(image).domain
        assert domain.half is TimeHalf.NONNEG
        assert domain is Orientation.TOWARD_ZERO_FROM_PLUS_INF

    def test_decaying_laboratory_state(self, pole):
        state = canonical_state(PREP, Kind.DECAYING, 0, pole)
        image = time_reverse(state)
        assert image.kind is Kind.GROWING
        assert image.half_plane is HalfPlane.MINUS
        assert image.regime == 1
        domain = branch_for(image).domain
        assert domain.half is TimeHalf.NONPOS
        assert domain is Orientation.TOWARD_MINUS_INF

    def test_amplitude_conjugated(self, pole):
        state = canonical_state(EXC, Kind.DECAYING, 0, pole, amplitude=1.0 + 2.0j)
        assert time_reverse(state).amplitude == 1.0 - 2.0j

    def test_pole_unchanged(self, pole):
        state = canonical_state(EXC, Kind.GROWING, 1, pole)
        assert time_reverse(state).pole == pole

    @pytest.mark.parametrize("arrow,kind,regime", ALL_LABELS)
    def test_flip_law(self, pole, arrow, kind, regime):
        state = canonical_state(arrow, kind, regime, pole)
        image = time_reverse(state)
        assert image.half_plane is not state.half_plane
        assert image.kind is state.kind.flipped()
        assert image.regime == 1 - state.regime
        assert image.role is not state.role
        assert image.arrow is state.arrow

    @pytest.mark.parametrize("arrow,kind,regime", ALL_LABELS)
    def test_involution_on_descriptors(self, pole, arrow, kind, regime):
        state = canonical_state(arrow, kind, regime, pole, amplitude=0.3 - 0.7j)
        assert time_reverse(time_reverse(state)) == state

    @pytest.mark.parametrize("arrow,kind,regime", ALL_LABELS)
    def test_domain_reflects(self, pole, arrow, kind, regime):
        state = canonical_state(arrow, kind, regime, pole)
        before = branch_for(state).domain
        after = branch_for(time_reverse(state)).domain
        assert after == before.reflected()


class TestTimeReverseTwice:
    @pytest.mark.parametrize("row,twice_j,sign", [
        (4, 0, -1),   # -(-1)^0
        (2, 1, +1),   # -(-1)^1
        (3, 1, -1),   # (-1)^1
        (4, 2, -1),   # -(-1)^2
        (3, 2, +1),   # (-1)^2
    ])
    def test_scalar_matches_family_sign(self, pole, row, twice_j, sign):
        rep = build_representation(row, twice_j)
        state = canonical_state(PREP, Kind.GROWING, 0, pole, amplitude=1.0 - 1.0j)
        restored, factor = time_reverse_twice(state, rep)
        assert restored == state
        assert factor == sign == rep.reversal_sign

class TestDerivedTables:
    def test_matches_golden_preparation_registration(self):
        derived = derive_table(PREP).to_dict()
        assert json.dumps(derived, sort_keys=True) == json.dumps(
            PREPARATION_REGISTRATION_TABLE, sort_keys=True)

    def test_matches_golden_excitation_deexcitation(self):
        derived = derive_table(EXC).to_dict()
        assert json.dumps(derived, sort_keys=True) == json.dumps(
            EXCITATION_DEEXCITATION_TABLE, sort_keys=True)

    def test_tables_share_decaying_laboratory_cell(self):
        cells = {}
        for arrow in (PREP, EXC):
            table = derive_table(arrow)
            cell = next(c for c in table.cells if c.row_label == "decaying" and c.regime == 0)
            cells[arrow] = (cell.orientation.half, cell.orientation)
        assert cells[PREP] == cells[EXC] == (TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF)

    def test_four_cells_each(self):
        for arrow in Arrow:
            assert len(derive_table(arrow).cells) == 4


class TestCrossIdentify:
    def test_branch_5a(self):
        record = cross_identify("5a")
        assert record.regime == 1
        assert record.matches_factor_of is None

    def test_branch_5b(self):
        record = cross_identify("5b")
        assert record.regime == 0
        assert record.matches_factor_of == "4b"
        data = record.to_dict()
        assert data["sign_pattern"] == {
            "phase_sign": -1, "growth_sign": -1, "domain": "t>=0"}

    def test_5b_pattern_equals_4b_pattern(self):
        b5b, b4b = BY_LABEL["5b"], BY_LABEL["4b"]
        assert (b5b.phase_sign, b5b.growth_sign, b5b.domain.half) == \
               (b4b.phase_sign, b4b.growth_sign, b4b.domain.half)

    def test_5a_pattern_equals_11_pattern(self):
        # The same match that gives 5b ~ 4b gives 5a ~ 11, yet the identification
        # records no factor match for 5a; both facts are pinned here.
        b5a, b11 = BY_LABEL["5a"], BY_LABEL["11"]
        assert (b5a.phase_sign, b5a.growth_sign, b5a.domain) == \
               (b11.phase_sign, b11.growth_sign, b11.domain)
        assert cross_identify("5a").matches_factor_of is None

class TestFactorConsistency:
    @pytest.mark.parametrize("key", ALL_LABELS, ids=lambda key: BRANCHES[key].label)
    def test_reversed_factor_conjugates_up_to_twice_the_energy_phase(self, key, pole):
        # conj(evolve(s, t)) == evolve(R s, -t) * exp(-2i * phase_sign * E_R * t): the moduli
        # agree, but the tabulated phases do not conjugate, and the tables keep that gap
        # instead of normalizing it away.  It closes exactly at E_R = 0.
        branch = BRANCHES[key]
        sign = 1.0 if branch.domain.half is TimeHalf.NONNEG else -1.0
        times = [sign * t for t in np.linspace(0.0, 10.0 / pole.width, 50).tolist()]
        state = canonical_state(*key, pole)
        conjugated = [evolve(state, t).conjugate() for t in times]
        mirrored = [evolve(time_reverse(state), -t) for t in times]
        for t, c, m in zip(times, conjugated, mirrored):
            assert abs(c - m * cmath.exp(-2j * branch.phase_sign * pole.energy * t)) <= 1e-12
        assert max(abs(c - m) for c, m in zip(conjugated, mirrored)) > 0.1
        at_rest = canonical_state(*key, ResonancePole(0.0, pole.width))
        assert [evolve(at_rest, t).conjugate() for t in times] == \
            [evolve(time_reverse(at_rest), -t) for t in times]

    @settings(max_examples=60, deadline=None)
    @given(energy=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6), t=st.floats(0.0, 1e6))
    def test_reflection_law_exact(self, energy, width, t):
        # evolve(R s, -t) == evolve(s, t), the law BRANCHES builds each r = 1 branch from,
        # at one time (the scalar path) and on a grid (the array path).  The bare factors
        # agree bit for bit; evolve's zeros may differ in sign, as R conjugates the unit
        # amplitude to 1-0j.
        def bits(z):
            return np.atleast_1d(np.asarray(z, dtype=complex)).view(np.int64)

        pole = ResonancePole(energy, width)
        for key in ALL_LABELS:
            state = canonical_state(*key, pole)
            reversed_state = time_reverse(state)
            sign = 1.0 if branch_for(state).domain.half is TimeHalf.NONNEG else -1.0
            for times in (sign * t, sign * np.array([0.0, 0.5 * t, t])):
                assert np.array_equal(evolve(reversed_state, -times), evolve(state, times))
                np.testing.assert_array_equal(
                    bits(branch_for(reversed_state).factor(pole, -times)),
                    bits(branch_for(state).factor(pole, times)))

    def test_sample_spot_check(self, pole):
        state = canonical_state(PREP, Kind.GROWING, 0, pole, amplitude=1.0)
        mirrored = time_reverse(state)
        for t in (-0.5, -2.0, -7.25):
            assert evolve(mirrored, -t) == pytest.approx(evolve(state, t), abs=1e-13)
            assert abs(np.conj(evolve(state, t))) == pytest.approx(
                abs(evolve(mirrored, -t)), abs=1e-13)
