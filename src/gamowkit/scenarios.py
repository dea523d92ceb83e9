"""Scenario runner: decay/growth curves, lineshapes, and table emission.

A :class:`Scenario` pins a resonance, a canonical state, and a uniform time
grid; :func:`run_decay` and :func:`evolution_table` sweep the grid through
the semigroup evolution.  Results come back as :class:`ResultTable` values
that serialize to CSV (shortest round-trip float formatting) and JSON and
parse back without loss.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .core import Arrow, GamowState, Kind, ResonancePole, canonical_state, require_finite
from .evolution import branch_for


@dataclass
class ResultTable:
    """A small column-labelled table of floats."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([repr(float(x)) for x in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = [tuple(float(x) for x in row) for row in reader if row]
        return cls(tuple(header), rows)

    def to_json(self) -> str:
        return json.dumps({"columns": list(self.columns),
                           "rows": [list(row) for row in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        data = json.loads(text)
        return cls(tuple(data["columns"]),
                   [tuple(float(x) for x in row) for row in data["rows"]])


@dataclass(frozen=True)
class Scenario:
    """A canonical state swept over a uniform time grid.

    The grid must lie inside the half-domain of the state's branch (t = 0
    is inside both halves) and must have at least two points.
    """

    pole: ResonancePole
    arrow: Arrow
    kind: Kind
    regime: int
    t_min: float
    t_max: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"a scenario grid needs at least 2 steps, got {self.steps}")
        require_finite("t_min", self.t_min)
        require_finite("t_max", self.t_max)
        if not self.t_max >= self.t_min:
            raise ValueError(f"t_max={self.t_max} must not precede t_min={self.t_min}")

    def state(self) -> GamowState:
        return canonical_state(self.arrow, self.kind, self.regime, self.pole)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)

    def checked_times(self) -> np.ndarray:
        return branch_for(self.state()).checked_times(self.times())


def _table(columns: tuple[str, ...], *arrays: np.ndarray) -> ResultTable:
    return ResultTable(columns, list(zip(*(a.tolist() for a in arrays))))


def _evolved(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The checked grid and the evolved amplitude on it, as evolve() gives it."""
    state = scenario.state()
    times = scenario.checked_times()
    factor = branch_for(state).factor(state.pole, times)
    factor *= state.amplitude  # in place, as survival **= 2: a grid-sized array fewer at peak RSS
    return times, factor


def run_decay(scenario: Scenario) -> ResultTable:
    """Survival probability and evolution factor over the scenario grid.

    Columns are (t, survival, factor_real, factor_imag) with
    survival = |factor|^2 (the scenario's state has unit amplitude), which
    equals exp(growth_sign * Gamma * t) on the scenario's branch.
    """
    times, factor = _evolved(scenario)
    survival = np.hypot(factor.real, factor.imag)
    survival **= 2
    return _table(("t", "survival", "factor_real", "factor_imag"),
                  times, survival, factor.real, factor.imag)


def evolution_table(scenario: Scenario) -> ResultTable:
    """Evolution factor over the scenario grid, columns (t, factor_real,
    factor_imag)."""
    times, factor = _evolved(scenario)
    return _table(("t", "factor_real", "factor_imag"), times, factor.real, factor.imag)


def lorentzian_density(pole: ResonancePole, energies) -> np.ndarray:
    """Unit-area Lorentzian lineshape attached to a resonance pole."""
    e = np.asarray(energies, dtype=float)
    half_width = 0.5 * pole.width
    return (pole.width / (2.0 * np.pi)) / ((e - pole.energy) ** 2 + half_width**2)


def lineshape(pole: ResonancePole, energies) -> ResultTable:
    """Lineshape table with columns (energy, density).

    density(E) = (Gamma / 2 pi) / ((E - E_R)^2 + Gamma^2 / 4): peak value
    2 / (pi Gamma) at E = E_R, half the peak at E_R +- Gamma/2, and unit
    area over the whole real axis.
    """
    e = require_finite("energies", np.asarray(energies, dtype=float))
    if e.size == 0:
        raise ValueError("lineshape needs a nonempty energy grid")
    return _table(("energy", "density"), e, lorentzian_density(pole, e))
