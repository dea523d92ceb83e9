"""The numpy table API: decay/growth curves and lineshapes as float64 tables.

Each :class:`ResultTable` streams to CSV (shortest round-trip float formatting) and JSON
and parses back without loss.  The CLI's grid commands import ``curves`` alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import json

from .core import ResonancePole, np, require_array, require_finite
from .curves import (DECAY_COLUMNS, EVOLUTION_COLUMNS, LINESHAPE_COLUMNS, Scenario, csv_text,
                     decay_row, evolution_row, json_text, lorentzian)
from .evolution import evolve
from .grid import _BLOCK_ROWS

__all__ = ["ResultTable", "Scenario", "evolution_table", "lineshape", "lorentzian_density",
           "run_decay"]


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


def row_blocks(values):
    """The rows of a float array in order, as lists of at most _BLOCK_ROWS rows of floats."""
    for start in range(0, len(values), _BLOCK_ROWS):
        yield values[start:start + _BLOCK_ROWS].tolist()


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
