"""Scenario runner: decay/growth curves, lineshapes, and table emission.

A :class:`Scenario` pins a resonance, a canonical state, and a uniform time
grid; :func:`run_decay` and :func:`evolution_table` sweep the grid through
the semigroup evolution.  Results come back as :class:`ResultTable` values,
one float64 array each, that stream to CSV (shortest round-trip float
formatting) and JSON and parse back without loss.  Each time table has one
row formula, ``row(point, value)``, which builds its columns here from arrays.
The CLI applies the same formula to Python floats: it takes the grid from
:func:`linspace_blocks` one block at a time, so it never loads numpy.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys

from .core import (Arrow, GamowState, Kind, Record, ResonancePole, canonical_state, is_integer,
                   np, require_array, require_finite, require_number, require_pole)
from .evolution import branch_for, evolve
from .grid import linspace_blocks, linspace_points, row_blocks

__all__ = ["ResultTable", "Scenario", "evolution_table", "lineshape", "lorentzian_density",
           "run_decay"]

# Largest accepted grid.  A streamed grid holds one block of rows, so the
# bound is time: a 1e6-point `decay` spends seconds formatting text.
MAX_GRID_STEPS = 1_000_000


def check_steps(grid: str, steps: int) -> None:
    """Reject a grid of fewer than 2 or more than MAX_GRID_STEPS points."""
    if not is_integer(steps):
        raise ValueError(f"{grid} needs an integer number of steps, got {steps!r}")
    if steps < 2:
        raise ValueError(f"{grid} needs at least 2 steps, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"{grid} allows at most {MAX_GRID_STEPS} steps, got {steps}")


class ResultTable:
    """A column-labelled table of floats, held as one n x k float64 array.

    ``rows`` gives the values as a list of tuples.  :meth:`to_csv` and
    :meth:`to_json` join the text that :func:`csv_text` and :func:`json_text`
    yield a block of rows at a time; CSV uses the shortest round-trip float
    formatting, and both formats parse back without loss.
    """

    def __init__(self, columns, rows):
        self.columns = tuple(columns) if hasattr(columns, "__iter__") else (columns,)  # a bad name
        if isinstance(columns, str) or not all(isinstance(name, str) for name in self.columns):
            raise ValueError(f"columns must be a sequence of str names, got {columns!r}")
        values = require_array("rows", rows)
        k = len(self.columns)
        if values.dtype.kind not in "iuf" and not {type(v) for v in values.flat} <= {int, float}:
            raise ValueError(f"rows must be real numbers, got an array of {values.dtype}")
        if not k or not values.ndim or values.shape[1:] not in ((), (k,)) or values.size % k:
            raise ValueError(f"rows of shape {values.shape} do not fit {k} columns")
        try:  # numpy holds an int beyond int64 as an object, and one beyond a double overflows
            self._values = values.astype(float, copy=False).reshape(-1, k)
        except OverflowError:
            raise ValueError("rows must be finite, got an integer beyond a double") from None

    @property
    def rows(self) -> list[tuple[float, ...]]:
        return list(map(tuple, self._values.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.columns == other.columns and bool(
            np.array_equal(self._values, other._values, equal_nan=True))

    def __repr__(self) -> str:
        return f"ResultTable(columns={self.columns!r}, rows={self.rows!r})"

    def to_csv(self) -> str:
        return "".join(csv_text(self.columns, row_blocks(self._values)))

    def to_json(self) -> str:
        return "".join(json_text(self.columns, row_blocks(self._values)))

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        columns = next(reader, None)
        if columns is None:
            raise ValueError("CSV table has no header line")

        def values():
            for row in reader:
                if row and len(row) != len(columns):
                    raise ValueError(f"CSV line {reader.line_num} has {len(row)} fields, "
                                     f"expected {len(columns)}")
                try:
                    yield from map(float, row)
                except ValueError as exc:
                    raise ValueError(f"CSV line {reader.line_num}: {exc}") from None

        return cls(columns, np.fromiter(values(), dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"JSON table must be an object, got {type(data).__name__}")
        missing = [key for key in ("columns", "rows") if key not in data]
        if missing:
            raise ValueError(f"JSON table has no {' or '.join(map(repr, missing))}")
        columns, rows = data["columns"], data["rows"]
        if type(columns) is not list or not all(isinstance(c, str) for c in columns):
            raise ValueError("JSON table columns must be a list of names")
        for i, row in enumerate(rows if type(rows) is list else [rows]):  # a non-list fails
            if type(row) is not list:
                raise ValueError("JSON table rows must be a list of lists")
            if len(row) != len(columns):
                raise ValueError(f"JSON table rows[{i}] has {len(row)} values, which do not fit "
                                 f"{len(columns)} columns")
            for value in itertools.filterfalse(lambda v: type(v) is float, row):
                if type(value) is not int:
                    raise ValueError(f"JSON table rows[{i}] holds {value!r}, which is not "
                                     "a number")
                require_finite(f"JSON table rows[{i}]", value)  # an int beyond the double range
        return cls(columns, rows)


def csv_text(columns, blocks):
    """``columns``, then the rows of each list of ``blocks``, a string per block."""
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(columns)  # names may need quoting
    yield header.getvalue()
    line = "%r," * (len(columns) - 1) + "%r\n"
    for block in blocks:
        yield line * len(block) % tuple(itertools.chain.from_iterable(block))


def json_text(columns, blocks):
    """``{"columns": [...], "rows": [...]}`` with each list of ``blocks``, a string per block."""
    yield json.dumps({"columns": list(columns), "rows": []})[:-2]
    separator = ""
    for block in blocks:
        yield separator + json.dumps(block)[1:-1]
        separator = ", "
    yield "]}"


class Scenario(Record):
    """A canonical state swept over a uniform time grid.

    The grid must have at least two points.  A sweep checks, through
    :func:`evolve`, that it lies inside the half-domain of the state's
    branch (t = 0 is inside both halves), then that its phase E_R * t does
    not overflow a double; :meth:`checked_times` makes those checks alone.
    """

    pole: ResonancePole
    arrow: Arrow
    kind: Kind
    regime: int
    t_min: float
    t_max: float
    steps: int

    def __post_init__(self) -> None:
        check_steps("a scenario grid", self.steps)
        self.state()  # rejects an ill-typed arrow, kind or regime now, not at the first sweep
        t_min, t_max = require_number("t_min", self.t_min), require_number("t_max", self.t_max)
        if not t_max >= t_min:
            raise ValueError(f"t_max={self.t_max} must not precede t_min={self.t_min}")
        require_finite("t_max - t_min", t_max - t_min)

    def state(self) -> GamowState:
        return canonical_state(self.arrow, self.kind, self.regime, self.pole)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    def checked_times(self) -> None:
        """A sweep's checks, without numpy: the half-domain at the grid's extremes (point i is
        monotone in i: the first, the last before t_max, which a subnormal step can overshoot,
        and t_max), scanned only to name a first point outside, then the phase there."""
        branch, grid = branch_for(self.state()), (self.t_min, self.t_max, self.steps)
        extremes = linspace_points(*grid, (0, self.steps - 2, self.steps - 1))
        if not all(map(branch.domain.contains, extremes)):
            points = itertools.chain.from_iterable(linspace_blocks(*grid))
            branch.checked_times(next(itertools.filterfalse(branch.domain.contains, points)))
        for t in (min(extremes), max(extremes)):
            branch.evolvable_times(self.pole, t)


DECAY_COLUMNS = ("t", "survival", "factor_real", "factor_imag")
EVOLUTION_COLUMNS = ("t", "factor_real", "factor_imag")
LINESHAPE_COLUMNS = ("energy", "density")


# Each table's row formula: its row at a point and the value there, as floats, or its
# columns at an array of points and their values, as arrays, with the same bits.
def decay_row(t, factor) -> tuple:
    # |factor| by the C library's hypot on both: numpy's complex abs rounds otherwise on some CPUs
    survival = abs(factor) if isinstance(factor, complex) else np.hypot(factor.real, factor.imag)
    survival *= survival  # the bits of numpy's array ** 2
    return t, survival, factor.real, factor.imag


def evolution_row(t, factor) -> tuple:
    return t, factor.real, factor.imag


# The CLI's time tables, by command: columns and row formula.
TIME_TABLES = {"decay": (DECAY_COLUMNS, decay_row), "evolve": (EVOLUTION_COLUMNS, evolution_row)}


def _sweep(scenario: Scenario, columns, row) -> ResultTable:
    if not isinstance(scenario, Scenario):
        raise ValueError(f"scenario must be a Scenario, got {scenario!r}")
    times = scenario.times()
    return ResultTable(columns, np.column_stack(row(times, evolve(scenario.state(), times))))


def run_decay(scenario: Scenario) -> ResultTable:
    """Survival probability and evolution factor over the scenario grid.

    Columns are (t, survival, factor_real, factor_imag) with
    survival = |factor|^2 (the scenario's state has unit amplitude), which
    equals exp(growth_sign * Gamma * t) on the scenario's branch.
    """
    return _sweep(scenario, DECAY_COLUMNS, decay_row)


def evolution_table(scenario: Scenario) -> ResultTable:
    """Evolution factor over the scenario grid, columns (t, factor_real,
    factor_imag)."""
    return _sweep(scenario, EVOLUTION_COLUMNS, evolution_row)


def lorentzian(pole: ResonancePole):
    """After the pole and width checks, the pole's unit-area Lorentzian as an
    unchecked function of an energy (a float, without numpy) or of a float array."""
    energy, half_width = require_pole(pole).energy, 0.5 * pole.width
    # A subnormal (Gamma/2)^2 has lost digits, and 0 divides by zero at E_R.
    if half_width * half_width < sys.float_info.min:
        raise ValueError(f"resonance width {pole.width} is too small for a lineshape: "
                         f"(Gamma/2)^2 is below the smallest normal double")
    try:
        squared = half_width**2  # C pow(), as numpy's float64 ** 2; hw * hw rounds otherwise
    except OverflowError:  # numpy's inf: an infinite denominator is a density of 0.0
        squared = math.inf
    scale = pole.width / (2.0 * math.pi)

    def density(e):
        offset = e - energy
        return scale / (offset * offset + squared)  # offset * offset: the bits of ** 2
    return density


def lorentzian_density(pole: ResonancePole, energies):
    """Unit-area Lorentzian lineshape attached to a resonance pole, at an
    energy (a float) or at every energy of an array (an array)."""
    e = require_finite("energies", energies)
    density = lorentzian(pole)
    if isinstance(e, float):
        return density(e)
    with np.errstate(over="ignore"):  # an infinite denominator is a density of 0.0
        return density(e)


def lineshape(pole: ResonancePole, energies) -> ResultTable:
    """Lineshape table with columns (energy, density).

    density(E) = (Gamma / 2 pi) / ((E - E_R)^2 + Gamma^2 / 4): peak value
    2 / (pi Gamma) at E = E_R, half the peak at E_R +- Gamma/2, and unit
    area over the whole real axis.
    """
    e = require_finite("energies", energies)
    if np.ndim(e) > 1:
        raise ValueError(f"energies must be a number or a 1-D grid, got shape {np.shape(e)}")
    if np.size(e) == 0:
        raise ValueError("energies must be a nonempty grid, got an empty one")
    return ResultTable(LINESHAPE_COLUMNS, np.column_stack((e, lorentzian_density(pole, e))))
