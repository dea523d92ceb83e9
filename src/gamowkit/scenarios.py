"""Scenario runner: decay/growth curves, lineshapes, and table emission.

A :class:`Scenario` pins a resonance, a canonical state, and a uniform time
grid; :func:`run_decay` and :func:`evolution_table` sweep the grid through
the semigroup evolution.  Results come back as :class:`ResultTable` values,
one float64 array each, that stream to CSV (shortest round-trip float
formatting) and JSON and parse back without loss.  Each table has one row
function, ``rows(state_or_pole, grid)``, which builds it whole here and which
the CLI applies to one block of the grid at a time.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass

from .core import (Arrow, GamowState, Kind, ResonancePole, canonical_state, is_integer, np,
                   require_finite)
from .evolution import branch_for, evolve

# Largest accepted grid.  A streamed grid holds 8 bytes per point and one
# block of rows, so the bound is time: a 1e6-point `decay` spends seconds
# formatting text.
MAX_GRID_STEPS = 1_000_000

# Rows computed, formatted and written at a time: about 0.15 MiB of arrays and
# text.  Of 512 to 4096 rows, 512 gave 50001-point runs the lowest peak RSS
# at no measurable cost in time.
_BLOCK_ROWS = 512


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

    ``rows`` gives the values as a list of tuples.  :meth:`write_csv` and
    :meth:`write_json` stream the table to a text file a block of rows at a
    time; CSV uses the shortest round-trip float formatting, and both
    formats parse back without loss.
    """

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        values = np.asarray(rows, dtype=float)
        if values.ndim > 1 and values.shape[1:] != (len(self.columns),):
            raise ValueError(f"rows of shape {values.shape} do not fit {len(self.columns)} columns")
        self._values = values.reshape(-1, len(self.columns))

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

    def write_csv(self, fh) -> None:
        write_csv(fh, self.columns, row_blocks(self._values))

    def write_json(self, fh) -> None:
        write_json(fh, self.columns, row_blocks(self._values))

    def to_csv(self) -> str:
        return _text(self.write_csv)

    def to_json(self) -> str:
        return _text(self.write_json)

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
                yield from map(float, row)

        return cls(columns, np.fromiter(values(), dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"JSON table must be an object, got {type(data).__name__}")
        missing = [key for key in ("columns", "rows") if key not in data]
        if missing:
            raise ValueError(f"JSON table has no {' or '.join(map(repr, missing))}")
        return cls(data["columns"], data["rows"])


def _text(write) -> str:
    buffer = io.StringIO()
    write(buffer)
    return buffer.getvalue()


def row_blocks(values):
    """``values`` in order, as slices of at most _BLOCK_ROWS rows."""
    for start in range(0, len(values), _BLOCK_ROWS):
        yield values[start:start + _BLOCK_ROWS]


def write_csv(fh, columns, blocks) -> None:
    """``columns``, then the rows of each float array of ``blocks``, a block per write."""
    csv.writer(fh, lineterminator="\n").writerow(columns)  # names may need quoting
    line = "%r," * (len(columns) - 1) + "%r\n"
    for block in blocks:
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_json(fh, columns, blocks) -> None:
    """``{"columns": [...], "rows": [...]}`` with each array of ``blocks``, a block per write."""
    fh.write(json.dumps({"columns": list(columns), "rows": []})[:-2])
    separator = ""
    for block in blocks:
        fh.write(separator + json.dumps(block.tolist())[1:-1])
        separator = ", "
    fh.write("]}")


@dataclass(frozen=True)
class Scenario:
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
        require_finite("t_min", self.t_min)
        require_finite("t_max", self.t_max)
        if not self.t_max >= self.t_min:
            raise ValueError(f"t_max={self.t_max} must not precede t_min={self.t_min}")
        # Python floats overflow to inf without the warning numpy scalars print
        require_finite("t_max - t_min", float(self.t_max) - float(self.t_min))

    def state(self) -> GamowState:
        return canonical_state(self.arrow, self.kind, self.regime, self.pole)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    def checked_times(self) -> np.ndarray:
        return branch_for(self.state()).evolvable_times(self.pole, self.times())


DECAY_COLUMNS = ("t", "survival", "factor_real", "factor_imag")
EVOLUTION_COLUMNS = ("t", "factor_real", "factor_imag")
LINESHAPE_COLUMNS = ("energy", "density")


def decay_rows(state: GamowState, times) -> np.ndarray:
    """Rows of DECAY_COLUMNS at ``times``, as :func:`evolve` checks them."""
    factor = evolve(state, times)
    survival = np.hypot(factor.real, factor.imag)
    survival **= 2
    return np.column_stack((times, survival, factor.real, factor.imag))


def evolution_rows(state: GamowState, times) -> np.ndarray:
    """Rows of EVOLUTION_COLUMNS at ``times``, as :func:`evolve` checks them."""
    factor = evolve(state, times)
    return np.column_stack((times, factor.real, factor.imag))


def run_decay(scenario: Scenario) -> ResultTable:
    """Survival probability and evolution factor over the scenario grid.

    Columns are (t, survival, factor_real, factor_imag) with
    survival = |factor|^2 (the scenario's state has unit amplitude), which
    equals exp(growth_sign * Gamma * t) on the scenario's branch.
    """
    return ResultTable(DECAY_COLUMNS, decay_rows(scenario.state(), scenario.times()))


def evolution_table(scenario: Scenario) -> ResultTable:
    """Evolution factor over the scenario grid, columns (t, factor_real,
    factor_imag)."""
    return ResultTable(EVOLUTION_COLUMNS, evolution_rows(scenario.state(), scenario.times()))


def check_width(pole: ResonancePole) -> None:
    """Reject a width whose (Gamma/2)^2 is below the smallest normal double:
    a subnormal square has lost digits, and 0 divides by zero at E_R."""
    half_width = 0.5 * float(pole.width)  # a float product underflows or overflows silently
    if half_width * half_width < sys.float_info.min:
        raise ValueError(f"resonance width {pole.width} is too small for a lineshape: "
                         f"(Gamma/2)^2 is below the smallest normal double")


def lorentzian_density(pole: ResonancePole, energies) -> np.ndarray:
    """Unit-area Lorentzian lineshape attached to a resonance pole."""
    e = np.asarray(require_finite("energies", energies), dtype=float)
    check_width(pole)
    half_width = np.float64(0.5 * pole.width)  # squares to inf where a float raises OverflowError
    with np.errstate(over="ignore"):  # an infinite denominator is a density of 0.0
        return (pole.width / (2.0 * np.pi)) / ((e - pole.energy) ** 2 + half_width**2)


def lineshape_rows(pole: ResonancePole, energies) -> np.ndarray:
    """Rows of LINESHAPE_COLUMNS at ``energies``."""
    return np.column_stack((energies, lorentzian_density(pole, energies)))


def lineshape(pole: ResonancePole, energies) -> ResultTable:
    """Lineshape table with columns (energy, density).

    density(E) = (Gamma / 2 pi) / ((E - E_R)^2 + Gamma^2 / 4): peak value
    2 / (pi Gamma) at E = E_R, half the peak at E_R +- Gamma/2, and unit
    area over the whole real axis.
    """
    e = np.asarray(require_finite("energies", energies), dtype=float)
    if e.size == 0:
        raise ValueError("lineshape needs a nonempty energy grid")
    return ResultTable(LINESHAPE_COLUMNS, lineshape_rows(pole, e))
