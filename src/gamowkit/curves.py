"""The grid commands' float path: scenarios, row formulas and table text.

All three run on Python floats a block of rows at a time, without numpy; ``scenarios``
builds its float64 tables on them, since a row formula also takes arrays.
"""

from __future__ import annotations

import io
import itertools
import math
import sys

from .core import (Arrow, GamowState, Kind, Record, ResonancePole, canonical_state, is_integer,
                   np, require_finite, require_number, require_pole)
from .evolution import branch_for
from .grid import linspace_blocks, linspace_points


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


def csv_text(columns, blocks):
    """``columns``, then the rows of each list of ``blocks``, a string per block."""
    import csv  # here, on the first block, so that a JSON run never loads it
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(columns)  # names may need quoting
    yield header.getvalue()
    line = "%r," * (len(columns) - 1) + "%r\n"
    for block in blocks:
        yield line * len(block) % tuple(itertools.chain.from_iterable(block))


def json_text(columns, blocks):
    """``{"columns": [...], "rows": [...]}`` with each list of ``blocks``, a string per block."""
    import json  # likewise: a CSV run never loads it
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

