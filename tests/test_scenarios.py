import cmath
import csv
import io
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit import (
    BRANCHES,
    Arrow,
    DomainViolationError,
    Kind,
    ResonancePole,
    ResultTable,
    Scenario,
    branch_for,
    evolution_table,
    evolve,
    lineshape,
    lorentzian_density,
    run_decay,
)
from gamowkit.scenarios import _BLOCK_ROWS

# numpy < 2.0 names the trapezoidal rule trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz

PREP = Arrow.PREPARATION_REGISTRATION
EXC = Arrow.EXCITATION_DEEXCITATION
BRANCH_KEYS = sorted(BRANCHES, key=lambda key: BRANCHES[key].label)


@pytest.fixture
def pole():
    return ResonancePole(1.0, 0.2)


def _in_domain(pole, key, lo, hi, steps):
    """A scenario for state ``key`` whose grid covers magnitudes lo..hi on
    the state's own half-domain."""
    arrow, kind, regime = key
    if kind is Kind.DECAYING:
        return Scenario(pole, arrow, kind, regime, lo, hi, steps)
    return Scenario(pole, arrow, kind, regime, -hi, -lo, steps)


class TestRunDecay:
    def test_decaying_survival_endpoint(self, pole):
        table = run_decay(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 10.0, 11))
        assert table.columns == ("t", "survival", "factor_real", "factor_imag")
        assert len(table.rows) == 11
        # exp(-Gamma t) at t=10, Gamma=0.2
        assert table.rows[-1][1] == pytest.approx(0.1353352832366127, abs=1e-12)
        assert table.rows[0][1] == pytest.approx(1.0, abs=1e-15)

    def test_survival_equals_exponential_everywhere(self, pole):
        for arrow in (PREP, EXC):
            table = run_decay(Scenario(pole, arrow, Kind.DECAYING, 0, 0.0, 25.0, 101))
            for t, survival, _, _ in table.rows:
                assert abs(survival - math.exp(-pole.width * t)) < 1e-12

    def test_growing_state_grows_toward_zero(self, pole):
        table = run_decay(Scenario(pole, PREP, Kind.GROWING, 0, -10.0, 0.0, 11))
        assert table.rows[0][1] == pytest.approx(0.1353352832366127, abs=1e-12)
        survivals = [row[1] for row in table.rows]
        assert survivals == sorted(survivals)  # increasing toward t = 0

    def test_grid_outside_domain(self, pole):
        scenario = Scenario(pole, PREP, Kind.DECAYING, 0, -1.0, 1.0, 3)
        with pytest.raises(DomainViolationError, match="t=-1"):
            run_decay(scenario)
        # The grid check and the scalar check raise the one message: the
        # first offending t, the half-domain and the branch label.
        with pytest.raises(DomainViolationError) as from_grid:
            scenario.checked_times()
        with pytest.raises(DomainViolationError) as from_scalar:
            evolve(scenario.state(), -1.0)
        expected = ("t=-1.0 lies outside the t>=0 half-domain of branch 4b; "
                    "semigroup evolution has no inverse across t=0")
        assert str(from_grid.value) == str(from_scalar.value) == expected

    @pytest.mark.parametrize("arrow", [PREP, EXC])
    @pytest.mark.parametrize("kind", [Kind.GROWING, Kind.DECAYING])
    @pytest.mark.parametrize("regime", [0, 1])
    def test_monotone_along_orientation(self, pole, arrow, kind, regime):
        # States that grow along their reading direction have increasing
        # survival when traversed that way; the others decrease.
        nonneg = kind is Kind.DECAYING
        scenario = Scenario(pole, arrow, kind, regime,
                            0.0 if nonneg else -12.0, 12.0 if nonneg else 0.0, 25)
        table = run_decay(scenario)
        values = [row[1] for row in table.rows]
        branch = branch_for(scenario.state())
        reads_forward = branch.domain.orientation.value in ("0->inf", "-inf->0")
        along = values if reads_forward else values[::-1]
        grows_along_arrow = (kind is Kind.GROWING) == (regime == 0)
        if grows_along_arrow:
            assert along == sorted(along)
        else:
            assert along == sorted(along, reverse=True)

    @pytest.mark.parametrize("builder", [run_decay, evolution_table])
    @pytest.mark.parametrize("key", BRANCH_KEYS)
    def test_factor_columns_match_evolve(self, pole, key, builder):
        scenario = _in_domain(pole, key, 0.0, 37.5, 101)
        table = builder(scenario)
        state = scenario.state()
        for row in table.rows:
            t, real, imag = row[0], row[-2], row[-1]
            factor = evolve(state, t)
            assert complex(real, imag) == factor
            if builder is run_decay:
                expected = abs(factor) ** 2
                assert abs(row[1] - expected) <= math.ulp(expected)

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, 7),
           bounds=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2),
           steps=st.integers(2, 64),
           energy=st.floats(-50.0, 50.0),
           width=st.floats(1e-3, 10.0))
    def test_array_factor_bitwise_equals_scalar_evolve(self, index, bounds, steps, energy, width):
        key = BRANCH_KEYS[index]
        scenario = _in_domain(ResonancePole(energy, width), key, min(bounds), max(bounds), steps)
        state = scenario.state()
        branch = BRANCHES[key]
        rows = evolution_table(scenario).rows
        # the same grid passed to evolve directly
        grid = evolve(state, [t for t, _, _ in rows])
        for (t, real, imag), from_grid in zip(rows, grid, strict=True):
            factor = evolve(state, t)
            # reference: the closed form evaluated with cmath
            reference = cmath.exp(complex(branch.growth_sign * 0.5 * width * t,
                                          branch.phase_sign * energy * t)) * state.amplitude
            bits = (real.hex(), imag.hex())
            assert bits == (factor.real.hex(), factor.imag.hex())
            assert bits == (reference.real.hex(), reference.imag.hex())
            assert bits == (from_grid.real.hex(), from_grid.imag.hex())
        # A scalar time takes the Python-float path of evolve; its bits are
        # those of the array path, signed zeros included (an amplitude with
        # a -0.0 part keeps the sign of the factor's zero part).
        for t, amplitude in itertools.product((-0.0, 0.0), (1.0 + 0.0j, complex(1.0, -0.0))):
            array_factor = branch.factor(state.pole, np.array([t]))
            array_factor *= amplitude
            factor = evolve(state.with_amplitude(amplitude), t)
            assert (factor.real.hex(), factor.imag.hex()) == \
                (array_factor[0].real.hex(), array_factor[0].imag.hex())


class TestEvolutionTable:
    def test_columns_and_identity_row(self, pole):
        table = evolution_table(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 1.0, 2))
        assert table.columns == ("t", "factor_real", "factor_imag")
        assert table.rows[0] == (0.0, 1.0, 0.0)

    def test_domain_enforced(self, pole):
        with pytest.raises(DomainViolationError):
            evolution_table(Scenario(pole, PREP, Kind.GROWING, 0, 0.0, 1.0, 2))


class TestScenarioValidation:
    def test_needs_two_steps(self, pole):
        with pytest.raises(ValueError, match="steps"):
            Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 1.0, 1)

    @pytest.mark.parametrize("bound", [float, np.float64])
    def test_overflowing_span_rejected(self, pole, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ValueError, match="t_max - t_min must be finite, got inf"):
                Scenario(pole, PREP, Kind.DECAYING, 0, bound(-1e308), bound(1e308), 3)

    def test_ordered_grid(self, pole):
        with pytest.raises(ValueError, match="t_max"):
            Scenario(pole, PREP, Kind.DECAYING, 0, 5.0, 1.0, 3)

    @pytest.mark.parametrize("t_min, t_max, name, value", [
        (float("nan"), 1.0, "t_min", "nan"),
        (float("-inf"), 0.0, "t_min", "-inf"),
        (0.0, float("inf"), "t_max", "inf"),
        # checked before the ordering check, which nan and -inf would fail
        (0.0, float("nan"), "t_max", "nan"),
        (5.0, float("-inf"), "t_max", "-inf"),
    ])
    def test_nonfinite_bounds_rejected(self, pole, t_min, t_max, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            Scenario(pole, PREP, Kind.DECAYING, 0, t_min, t_max, 3)

    @pytest.mark.parametrize("field, value, message", [
        ("steps", 2.5, "a scenario grid needs an integer number of steps, got 2.5"),
        ("steps", "10", "a scenario grid needs an integer number of steps, got '10'"),
        ("steps", True, "a scenario grid needs an integer number of steps, got True"),
        ("regime", True, "regime must be 0 or 1, got True"),
        ("t_min", "0", "t_min must be real, got '0'"),
        ("t_max", None, "t_max must be real, got None"),
    ])
    def test_ill_typed_field_rejected(self, pole, field, value, message):
        fields = dict(pole=pole, arrow=PREP, kind=Kind.DECAYING, regime=0,
                      t_min=0.0, t_max=1.0, steps=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scenario(**{**fields, field: value})

    def test_numpy_integer_steps_accepted(self, pole):
        scenario = Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 1.0, np.int64(3))
        assert len(run_decay(scenario).rows) == 3

    def test_zero_only_edge(self, pole):
        # t = 0 belongs to both halves, so a grid ending at 0 is fine for
        # nonpos states and starting at 0 for nonneg ones
        run_decay(Scenario(pole, PREP, Kind.GROWING, 0, -4.0, 0.0, 5))
        run_decay(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 4.0, 5))


class TestLineshape:
    def test_peak_value(self, pole):
        table = lineshape(pole, [pole.energy])
        # 2 / (pi Gamma) at Gamma=0.2
        assert table.rows[0][1] == pytest.approx(3.183098861837907, abs=1e-12)

    def test_half_width_at_half_maximum(self, pole):
        peak = lorentzian_density(pole, [pole.energy])[0]
        for offset in (+0.5 * pole.width, -0.5 * pole.width):
            value = lorentzian_density(pole, [pole.energy + offset])[0]
            assert value == pytest.approx(0.5 * peak, abs=1e-12)

    def test_symmetric_about_resonance_energy(self, pole):
        offsets = np.linspace(0.0, 5.0, 41)
        left = lorentzian_density(pole, pole.energy - offsets)
        right = lorentzian_density(pole, pole.energy + offsets)
        np.testing.assert_allclose(left, right, atol=1e-12, rtol=0)

    def test_unit_area_on_wide_grid(self, pole):
        # quadrature oracle over +-50 widths; truncation limits accuracy
        energies = np.linspace(pole.energy - 50 * pole.width,
                               pole.energy + 50 * pole.width, 200_001)
        area = trapezoid(lorentzian_density(pole, energies), energies)
        assert abs(area - 1.0) < 1e-2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_energy_rejected(self, pole, value):
        with pytest.raises(ValueError, match=f"energies must be finite, got {value}"):
            lineshape(pole, [0.5, value, 1.5])

    def test_empty_grid_rejected(self, pole):
        with pytest.raises(ValueError, match="nonempty"):
            lineshape(pole, [])

    @pytest.mark.parametrize("width", [1e-200, 1e-160, 2.9e-154])
    def test_width_whose_square_is_subnormal_rejected(self, width):
        # (Gamma/2)^2 underflows: to 0 at 1e-200 (a divide-by-zero warning and inf),
        # to a subnormal that has lost digits at 1e-160 (a peak wrong in its 5th digit)
        narrow = ResonancePole(1.0, width)
        message = (f"^resonance width {width} is too small for a lineshape: "
                   r"\(Gamma/2\)\^2 is below the smallest normal double$")
        for call in (lorentzian_density, lineshape):
            with pytest.raises(ValueError, match=message):
                call(narrow, [1.0])

    def test_narrowest_accepted_width_has_its_peak(self):
        narrow = ResonancePole(1.0, 3e-154)
        assert lorentzian_density(narrow, [1.0])[0] == pytest.approx(2.0 / (math.pi * 3e-154),
                                                                     rel=1e-15)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_density_rejects_nonfinite_energy(self, pole, value):
        with pytest.raises(ValueError, match=f"^energies must be finite, got {value}$"):
            lorentzian_density(pole, [0.5, value])


class TestResultTableRoundTrip:
    def test_csv_round_trip_exact(self, pole):
        table = run_decay(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 10.0, 64))
        assert ResultTable.from_csv(table.to_csv()) == table

    def test_json_round_trip_exact(self, pole):
        table = run_decay(Scenario(pole, EXC, Kind.GROWING, 1, -9.0, 0.0, 37))
        assert ResultTable.from_json(table.to_json()) == table

    def test_json_writes_rows_as_lists(self, pole):
        table = run_decay(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 10.0, 9))
        assert table.to_json() == json.dumps({"columns": list(table.columns),
                                              "rows": [list(row) for row in table.rows]})

    def test_csv_header_first_row(self):
        table = ResultTable(("a", "b"), [(1.5, -2.25)])
        lines = table.to_csv().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1.5,-2.25"

    def test_not_equal_to_other_types(self):
        assert (ResultTable(("x",), [(1.0,)]) == object()) is False

    def test_repr_one_row(self):
        assert repr(ResultTable(("x", "y"), [(1.5, -2.0)])) == \
            "ResultTable(columns=('x', 'y'), rows=[(1.5, -2.0)])"

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(allow_infinity=False, width=64), min_size=1, max_size=12))
    @example(values=[float("nan")])
    def test_csv_round_trip_property(self, values):
        table = ResultTable(("x",), [(v,) for v in values])
        recovered = ResultTable.from_csv(table.to_csv())
        assert recovered == table

    def test_csv_text_pinned(self):
        table = ResultTable(("t", "a,b"), [(-0.0, 5e-324), (1e300, float("nan"))])
        assert table.to_csv() == 't,"a,b"\n-0.0,5e-324\n1e+300,nan\n'

    def test_extreme_floats_survive(self):
        table = ResultTable(("x", "y"), [(1e-300, -1e300), (5e-324, 0.1 + 0.2)])
        assert ResultTable.from_csv(table.to_csv()) == table
        assert ResultTable.from_json(table.to_json()) == table

    @pytest.mark.parametrize("parse, text, message", [
        ("from_csv", "", "CSV table has no header line"),
        ("from_json", '{"columns": ["a"]}', "JSON table has no 'rows'"),
        ("from_json", '{"rows": []}', "JSON table has no 'columns'"),
        ("from_json", "{}", "JSON table has no 'columns' or 'rows'"),
        ("from_json", "[1]", "JSON table must be an object, got list"),
        ("from_json", "null", "JSON table must be an object, got NoneType"),
    ])
    def test_malformed_text_names_what_is_missing(self, parse, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(ResultTable, parse)(text)


# Every float that formats unusually: signed zero, the smallest subnormal,
# non-finite values, a value without a short decimal form, a large exponent.
_SPECIAL = (-0.0, 5e-324, float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, -1e300)


def _whole_csv(columns, rows):
    """CSV as one string, the way it was written before block streaming."""
    header = io.StringIO()
    csv.writer(header, lineterminator="").writerow(columns)
    return "\n".join([header.getvalue(), *(",".join(map(repr, map(float, row))) for row in rows), ""])


class _Chunks:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


class TestResultTableBlocks:
    COLUMNS = ("t", "a,b", "c")

    @staticmethod
    def _rows(n):
        return [(_SPECIAL[i % 7], _SPECIAL[(3 * i + 1) % 7], float(i)) for i in range(n)]

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_text_equals_whole_string_formula(self, n):
        rows = self._rows(n)
        table = ResultTable(self.COLUMNS, rows)
        expected_csv = _whole_csv(self.COLUMNS, rows)
        expected_json = json.dumps({"columns": list(self.COLUMNS), "rows": rows})
        for write, to_text, expected in ((table.write_csv, table.to_csv, expected_csv),
                                         (table.write_json, table.to_json, expected_json)):
            buffer = io.StringIO()
            write(buffer)
            assert buffer.getvalue() == expected
            assert to_text() == expected

    @pytest.mark.parametrize("n", [_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
    def test_no_write_holds_more_than_a_block(self, n):
        table = ResultTable(self.COLUMNS, self._rows(n))
        csv_sink, json_sink = _Chunks(), _Chunks()
        table.write_csv(csv_sink)
        table.write_json(json_sink)
        assert max(chunk.count("\n") for chunk in csv_sink.chunks) == _BLOCK_ROWS
        assert max(chunk.count("]") for chunk in json_sink.chunks) == _BLOCK_ROWS
        assert "".join(csv_sink.chunks) == table.to_csv()
        assert "".join(json_sink.chunks) == table.to_json()

    @settings(max_examples=12, deadline=None)
    @given(pool=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=16),
           width=st.integers(1, 5),
           n=st.integers(_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trips_across_blocks_are_lossless(self, pool, width, n, seed):
        values = np.random.default_rng(seed).choice(np.array(pool), size=(n, width))
        table = ResultTable(tuple(f"c{i}" for i in range(width)), values)
        for recovered in (ResultTable.from_csv(table.to_csv()),
                          ResultTable.from_json(table.to_json())):
            assert recovered == table
            assert np.array(recovered.rows).tobytes() == values.tobytes()  # -0.0 too

    def test_rows_are_tuples_of_floats(self):
        table = ResultTable(("x", "y"), np.array([[1.0, -0.0], [2.5, 3.0]]))
        assert table.rows == [(1.0, -0.0), (2.5, 3.0)]
        assert all(type(v) is float for row in table.rows for v in row)
        assert table == ResultTable(("x", "y"), [(1.0, 0.0), (2.5, 3.0)])
        assert table != ResultTable(("x", "z"), table.rows)
        assert table != ResultTable(("x", "y"), table.rows[:1])

    def test_rows_must_fit_the_columns(self):
        with pytest.raises(ValueError, match="do not fit 2 columns"):
            ResultTable(("x", "y"), [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        with pytest.raises(ValueError, match="CSV line 3 has 1 fields, expected 2"):
            ResultTable.from_csv("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="do not fit 2 columns"):
            ResultTable.from_json('{"columns": ["x", "y"], "rows": [[1, 2, 3], [4, 5, 6]]}')
