import cmath
import csv
import io
import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit import (
    BRANCHES,
    DomainViolationError,
    GamowState,
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
from gamowkit.grid import _BLOCK_ROWS, linspace_blocks, linspace_points
from gamowkit.curves import csv_text, decay_row, json_text
from canonical_states import BRANCH_KEYS, EXC, PREP

# numpy < 2.0 names the trapezoidal rule trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz


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

    _BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.5e-323, 1e10, -1e10]),
                        st.floats(-1e12, 1e12))

    @staticmethod
    def _check_as_a_full_scan(scenario):
        # the first point of np.linspace outside the half-domain, else the phase at the largest |t|
        branch = branch_for(scenario.state())
        grid = np.linspace(scenario.t_min, scenario.t_max, scenario.steps)
        outside = [float(t) for t in grid if not branch.domain.contains(t)]
        phase = scenario.pole.energy * float(np.abs(grid).max())
        if outside:
            error, message = DomainViolationError, (
                f"t={outside[0]} lies outside the {branch.domain.half.value} half-domain of "
                f"branch {branch.label}; semigroup evolution has no inverse across t=0")
        elif not math.isfinite(phase):
            error, message = ValueError, f"E_R * t must be finite, got {phase}"
        else:
            assert scenario.checked_times() is None
            return
        with pytest.raises(error) as caught:
            scenario.checked_times()
        assert type(caught.value) is error and str(caught.value) == message

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(0, 7), bounds=st.tuples(_BOUNDS, _BOUNDS), steps=st.integers(2, 1500),
           energy=st.sampled_from([1.0, -1.0, 1e300, -1e300]))
    @example(index=BRANCH_KEYS.index((PREP, Kind.GROWING, 0)), bounds=(-1.5e-323, 0.0), steps=6,
             energy=1.0)  # a subnormal step overshoots t_max to 5e-324
    def test_grid_check_equals_a_full_scan(self, index, bounds, steps, energy):
        self._check_as_a_full_scan(Scenario(ResonancePole(energy, 0.2), *BRANCH_KEYS[index],
                                            *sorted(bounds), steps))

    # The check reads three points of the grid, not all: at the edges of a double, with
    # -0.0, with a step that rounds to 0, and with a first point outside in a later block.
    _EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.5e-323, 1e-320, -1e-320, 1e308,
                              -1e308, 8.9e307, -8.9e307, 1.0, -1.0])

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(0, 7), bounds=st.tuples(_EDGES, _EDGES),
           steps=st.sampled_from([2, 3, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                  2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS + 7]),
           energy=st.sampled_from([1.0, 2.0, 1e-300]))
    @example(index=BRANCH_KEYS.index((PREP, Kind.GROWING, 0)), bounds=(-1.0, 1e-320),
             steps=3 * _BLOCK_ROWS + 7, energy=1.0)  # only t_max, in the last block, is outside
    def test_edge_grid_check_equals_a_full_scan(self, index, bounds, steps, energy):
        low, high = sorted(bounds)
        if not math.isfinite(high - low):
            return
        self._check_as_a_full_scan(Scenario(ResonancePole(energy, 0.2), *BRANCH_KEYS[index],
                                            low, high, steps))

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
        reads_forward = branch.domain.value in ("0->inf", "-inf->0")
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
            replaced = GamowState(state.pole, state.kind, state.regime, state.arrow, amplitude)
            factor = evolve(replaced, t)
            assert (factor.real.hex(), factor.imag.hex()) == \
                (array_factor[0].real.hex(), array_factor[0].imag.hex())


class TestEvolutionTable:
    def test_columns_and_identity_row(self, pole):
        table = evolution_table(Scenario(pole, PREP, Kind.DECAYING, 0, 0.0, 1.0, 2))
        assert table.columns == ("t", "factor_real", "factor_imag")
        assert table.rows[0] == (0.0, 1.0, 0.0)

class TestScenarioValidation:
    @pytest.mark.parametrize("bound", [float, np.float64])
    def test_overflowing_span_rejected(self, pole, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(ValueError, match="t_max - t_min must be finite, got inf"):
                Scenario(pole, PREP, Kind.DECAYING, 0, bound(-1e308), bound(1e308), 3)

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

    def test_narrowest_accepted_width_has_its_peak(self):
        narrow = ResonancePole(1.0, 3e-154)
        assert lorentzian_density(narrow, [1.0])[0] == pytest.approx(2.0 / (math.pi * 3e-154),
                                                                     rel=1e-15)

    @pytest.mark.parametrize("width", [0.2, 2.759, 1e200, 3e-154])
    def test_density_at_a_float_is_the_array_value(self, width):
        pole = ResonancePole(1.0, width)
        energies = [-1e300, -3.0, 0.0, 1.0, 1.5, 1e200, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # (E - E_R)^2 and (Gamma/2)^2 overflow silently
            grid = lorentzian_density(pole, np.array(energies))
            scalars = [lorentzian_density(pole, e) for e in energies]
            assert lorentzian_density(pole, np.float64(1e300)) == grid[-1]
        assert all(type(value) is float for value in scalars)
        assert [v.hex() for v in scalars] == [v.hex() for v in grid.tolist()]
        assert lorentzian_density(pole, energies).tolist() == grid.tolist()  # a float block

    def test_peak_squares_the_half_width_as_numpy_does(self):
        # Python's hw ** 2 and numpy's float64 ** 2 are pow(); hw * hw rounds otherwise here
        pole = ResonancePole(1.0, 2.759)
        assert lorentzian_density(pole, 1.0) == 0.23074294032895304
        assert lorentzian_density(pole, [1.0]).tolist() == [0.23074294032895304]

class TestFloatGrid:
    @settings(max_examples=60, deadline=None)
    @given(start=st.one_of(st.floats(-1e308, 1e308), st.floats(-1e-300, 1e-300)),
           span=st.one_of(st.floats(0.0, 1e308), st.integers(0, 40).map(lambda k: k * 5e-324)),
           steps=st.one_of(st.integers(2, 3 * _BLOCK_ROWS + 3),
                           st.sampled_from([_BLOCK_ROWS, _BLOCK_ROWS + 1, 50001])))
    @example(start=0.0, span=1e-320, steps=7)
    @example(start=-1e308, span=1e308, steps=1_000_000)
    @example(start=0.0, span=1e308, steps=3)
    @example(start=2.0, span=0.0, steps=5)
    @example(start=-0.0, span=0.0, steps=2)
    def test_blocks_are_numpy_linspace(self, start, span, steps):
        stop = start + span
        if not math.isfinite(stop) or not math.isfinite(stop - start):
            return
        blocks = list(linspace_blocks(start, stop, steps))
        assert [len(b) for b in blocks[:-1]] == [_BLOCK_ROWS] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= _BLOCK_ROWS
        points = list(itertools.chain.from_iterable(blocks))
        assert all(type(t) is float for t in points)
        assert np.array(points).tobytes() == np.linspace(start, stop, steps).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(start=st.one_of(st.floats(-1e308, 1e308), st.floats(-1e-300, 1e-300),
                           st.sampled_from([-0.0, 0.0, -1e308, 1e308, -5e-324, 5e-324])),
           span=st.one_of(st.floats(0.0, 1e308), st.integers(0, 40).map(lambda k: k * 5e-324),
                          st.sampled_from([0.0, 1e308])),
           steps=st.one_of(st.integers(2, 3 * _BLOCK_ROWS + 3),
                           st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                            2 * _BLOCK_ROWS + 1])))
    @example(start=0.0, span=1e-320, steps=7)  # the step rounds to 0
    @example(start=-1.5e-323, span=1.5e-323, steps=6)  # the last point before stop overshoots it
    @example(start=-0.0, span=0.0, steps=3)
    @example(start=-1e308, span=1e308, steps=_BLOCK_ROWS + 1)
    def test_three_points_are_the_grid_extremes(self, start, span, steps):
        stop = start + span
        if not math.isfinite(stop) or not math.isfinite(stop - start):
            return
        extremes = linspace_points(start, stop, steps, (0, steps - 2, steps - 1))
        points = list(itertools.chain.from_iterable(linspace_blocks(start, stop, steps)))
        assert extremes == [points[0], points[-2], points[-1]]
        assert (min(extremes), max(extremes)) == (min(points), max(points))

    @pytest.mark.parametrize("key", BRANCH_KEYS, ids=lambda key: BRANCHES[key].label)
    def test_decay_row_of_a_float_is_the_array_row(self, pole, key):
        scenario = _in_domain(pole, key, 0.0, 60.0, 97)
        times = scenario.times()
        factors = evolve(scenario.state(), times)
        rows = [decay_row(t, f) for t, f in zip(times.tolist(), factors.tolist())]
        assert np.array(rows).tobytes() == np.column_stack(decay_row(times, factors)).tobytes()
        assert np.array(rows).tobytes() == run_decay(scenario)._values.tobytes()


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

    def test_json_spells_nonfinite_values_as_json_dumps(self):
        rows = [(math.nan, math.inf), (-math.inf, 1.5), (-0.0, 5e-324)]
        table = ResultTable(("n", "inf"), rows)
        text = table.to_json()
        assert text.encode() == json.dumps({"columns": ["n", "inf"],
                                            "rows": [list(row) for row in rows]}).encode()
        assert '"rows": [[NaN, Infinity], [-Infinity, 1.5], [-0.0, 5e-324]]' in text
        assert ResultTable.from_json(text) == table

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
        ("from_csv", "a\nx\n", "CSV line 2: could not convert string to float: 'x'"),
        ("from_csv", "a,b\n1,2\n3,\n", "CSV line 3: could not convert string to float: ''"),
        ("from_json", '{"columns": ["a"]}', "JSON table has no 'rows'"),
        ("from_json", '{"rows": []}', "JSON table has no 'columns'"),
        ("from_json", "{}", "JSON table has no 'columns' or 'rows'"),
        ("from_json", "[1]", "JSON table must be an object, got list"),
        ("from_json", "null", "JSON table must be an object, got NoneType"),
        ("from_json", '{"columns": 5, "rows": []}', "JSON table columns must be a list of names"),
        *[("from_json", text, "JSON table columns must be a list of names")
          for text in ('{"columns": "ab", "rows": [[1, 2]]}', '{"columns": [1], "rows": [[1]]}')],
        *[("from_json", text, "JSON table rows must be a list of lists")
          for text in ('{"columns": ["a"], "rows": 5}', '{"columns": ["a"], "rows": [1, 2]}')],
    ])
    def test_malformed_text_names_what_is_missing(self, parse, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(ResultTable, parse)(text)

    @pytest.mark.parametrize("rows, message", [
        ("[[1, 2], [3]]", "JSON table rows[1] has 1 values, which do not fit 2 columns"),
        ('[[1, 2], [3, "x"]]', "JSON table rows[1] holds 'x', which is not a number"),
        ("[[true, 2]]", "JSON table rows[0] holds True, which is not a number"),
        ("[[1, 2], [3, null]]", "JSON table rows[1] holds None, which is not a number"),
        (f"[[1, 2], [3, {10**400}]]", "JSON table rows[1] must be finite, got an integer of "
         "1329 bits"),
    ], ids=["ragged", "string", "bool", "null", "huge-int"])
    def test_json_rows_name_the_bad_row(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ResultTable.from_json(f'{{"columns": ["a", "b"], "rows": {rows}}}')

    def test_json_keeps_the_largest_int_a_double_holds(self):
        big = int(sys.float_info.max)
        table = ResultTable.from_json(f'{{"columns": ["a"], "rows": [[{big}], [-{big}]]}}')
        assert table.rows == [(sys.float_info.max,), (-sys.float_info.max,)]


# Every float that formats unusually: signed zero, the smallest subnormal,
# non-finite values, a value without a short decimal form, a large exponent.
_SPECIAL = (-0.0, 5e-324, float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, -1e300)


def _whole_csv(columns, rows):
    """CSV as one string, the way it was written before block streaming."""
    header = io.StringIO()
    csv.writer(header, lineterminator="").writerow(columns)
    return "\n".join([header.getvalue(), *(",".join(map(repr, map(float, row))) for row in rows), ""])


def _blocks(rows):
    """``rows`` as lists of at most _BLOCK_ROWS rows, as a grid command passes them."""
    return [rows[start:start + _BLOCK_ROWS] for start in range(0, len(rows), _BLOCK_ROWS)]


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
        for text, to_text, expected in ((csv_text, table.to_csv, expected_csv),
                                        (json_text, table.to_json, expected_json)):
            assert "".join(text(self.COLUMNS, _blocks(rows))) == expected
            assert to_text() == expected

    @pytest.mark.parametrize("n", [_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
    def test_no_write_holds_more_than_a_block(self, n):
        rows = self._rows(n)
        table = ResultTable(self.COLUMNS, rows)
        csv_chunks = list(csv_text(self.COLUMNS, _blocks(rows)))
        json_chunks = list(json_text(self.COLUMNS, _blocks(rows)))
        assert max(chunk.count("\n") for chunk in csv_chunks) == _BLOCK_ROWS
        assert max(chunk.count("]") for chunk in json_chunks) == _BLOCK_ROWS
        assert "".join(csv_chunks) == table.to_csv()
        assert "".join(json_chunks) == table.to_json()

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

    def test_rows_keep_ints_beyond_int64(self):
        table = ResultTable(("a", "b"), [(1.5, 2**70), (2**64, -(2**80))])
        assert table.rows == [(1.5, 2.0**70), (2.0**64, -(2.0**80))]

    def test_rows_must_fit_the_columns(self):
        with pytest.raises(ValueError, match="do not fit 2 columns"):
            ResultTable(("x", "y"), [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        with pytest.raises(ValueError, match="CSV line 3 has 1 fields, expected 2"):
            ResultTable.from_csv("x,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="do not fit 2 columns"):
            ResultTable.from_json('{"columns": ["x", "y"], "rows": [[1, 2, 3], [4, 5, 6]]}')
        with pytest.raises(ValueError, match=r"^rows of shape \(3,\) do not fit 2 columns$"):
            ResultTable(("x", "y"), [1.0, 2.0, 3.0])  # a flat sequence of whole rows only
        assert ResultTable(("x", "y"), [1.0, 2.0, 3.0, 4.0]).rows == [(1.0, 2.0), (3.0, 4.0)]
