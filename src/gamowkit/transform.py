"""Time reversal of Gamow states and derivation of the two state tables.

Applying time reversal to a canonical state flips the half-plane label, the
regime index r, and the pole kind, swaps the role within its arrow
convention (state <-> observable, excitation <-> de-excitation), conjugates
the amplitude (the operator is antilinear), and reflects the governing time
domain.  Doing this to the two r = 0 states of each arrow convention and
tabulating the results reproduces the four-cell summary table of that
convention; the tables are also kept as hard-coded fixtures in the test
suite so that transcription and logic drift are caught independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Arrow,
    GamowState,
    Kind,
    Orientation,
    ResonancePole,
    TimeHalf,
    canonical_state,
    swapped_role,
)
from .evolution import EvolutionBranch, branch_by_label, branch_for
from .symmetry import RepresentationTriple, scalar_multiple_of_identity


def time_reverse(state: GamowState) -> GamowState:
    """The image of a canonical state under the time-reversal operator.

    Flips kind, half-plane and regime, swaps the role, conjugates the
    amplitude, and leaves the pole untouched.  The output's time domain is
    the reflection of the input's.
    """
    return canonical_state(
        state.arrow,
        state.kind.flipped(),
        1 - state.regime,
        state.pole,
        amplitude=np.conj(state.amplitude),
    )


def time_reverse_twice(state: GamowState, rep: RepresentationTriple) -> tuple[GamowState, int]:
    """Apply time reversal twice, returning (restored state, scalar sign).

    The descriptor labels always return to themselves; the scalar is
    computed by squaring the family's time-reversal matrix and therefore
    equals that family's eps_R.  Requires a doubled family: the single-sheet
    family 1 has nowhere to put the r = 1 content the first application
    produces.
    """
    if not rep.doubled:
        raise ValueError(
            "family 1 is not doubled: r=1 content produced by time reversal "
            "is not representable; use one of families 2-4"
        )
    restored = time_reverse(time_reverse(state))
    squared = rep.time_reversal.compose(rep.time_reversal)
    sign = scalar_multiple_of_identity(squared.matrix)
    if sign is None or squared.conjugates:
        raise ValueError("time reversal squared is not a scalar multiple of the identity")
    return restored, sign


@dataclass(frozen=True)
class TransformRecord:
    """A state, its time-reversed image, and both governing branches."""

    before: GamowState
    after: GamowState
    branch_before: EvolutionBranch
    branch_after: EvolutionBranch


def transform_record(state: GamowState) -> TransformRecord:
    after = time_reverse(state)
    return TransformRecord(state, after, branch_for(state), branch_for(after))


@dataclass(frozen=True)
class TableCell:
    """One cell of a derived table: a bracket with its domain annotation."""

    row_label: str
    regime: int
    bracket: str
    half: TimeHalf
    orientation: Orientation
    branch: str

    def to_dict(self) -> dict:
        return {
            "row": self.row_label,
            "regime": self.regime,
            "bracket": self.bracket,
            "domain": self.half.value,
            "orientation": self.orientation.value,
            "branch": self.branch,
        }


@dataclass(frozen=True)
class DerivedTable:
    arrow: Arrow
    cells: tuple[TableCell, ...]

    def to_dict(self) -> dict:
        return {
            "arrow": self.arrow.value,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _cell(row_label: str, state: GamowState) -> TableCell:
    branch = branch_for(state)
    return TableCell(
        row_label=row_label,
        regime=state.regime,
        bracket=state.bracket,
        half=branch.domain.half,
        orientation=branch.domain.orientation,
        branch=branch.label,
    )


def derive_table(arrow: Arrow, pole: ResonancePole | None = None) -> DerivedTable:
    """Derive the four-cell summary table for one arrow convention.

    Builds the two r = 0 canonical states, applies :func:`time_reverse` to
    each, and lists (bracket, half-domain, orientation) for all four.  Rows
    are labelled by the r = 0 progenitor's kind; each row's r = 1 cell is
    the time-reversed partner, which carries the opposite pole kind but the
    same growth character along its own reading direction.
    """
    if pole is None:
        pole = ResonancePole(1.0, 0.2)
    cells = []
    for row_label, kind in (("growing", Kind.GROWING), ("decaying", Kind.DECAYING)):
        original = canonical_state(arrow, kind, 0, pole)
        cells.append(_cell(row_label, original))
        cells.append(_cell(row_label, time_reverse(original)))
    return DerivedTable(arrow, tuple(cells))


@dataclass(frozen=True)
class CrossIdentification:
    """Regime identification of one excitation/de-excitation branch."""

    branch: str
    regime: int
    matches_factor_of: str | None
    phase_sign: int
    growth_sign: int
    domain: str
    note: str

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "regime": self.regime,
            "matches_factor_of": self.matches_factor_of,
            "sign_pattern": {
                "phase_sign": self.phase_sign,
                "growth_sign": self.growth_sign,
                "domain": self.domain,
            },
            "note": self.note,
        }


_CROSS_NOTES = {
    "5a": "identified with the time-reversed regime once laboratory "
          "preparations are read as a special case of excitations",
    "5b": "identified with the laboratory regime; its factor carries the "
          "same sign pattern as branch 4b",
}


def cross_identify(label: str) -> CrossIdentification:
    """Map branch 5a or 5b onto a regime of the laboratory tables.

    This is a recorded identification, not a computation: 5a is assigned
    r = 1 and 5b is assigned r = 0, and for 5b the report notes that its
    factor shares the sign pattern of branch 4b.
    """
    if label not in ("5a", "5b"):
        raise ValueError(f"cross-identification is defined for branches 5a and 5b, got {label!r}")
    branch = branch_by_label(label)
    return CrossIdentification(
        branch=label,
        regime=1 if label == "5a" else 0,
        matches_factor_of="4b" if label == "5b" else None,
        phase_sign=branch.phase_sign,
        growth_sign=branch.growth_sign,
        domain=branch.domain.half.value,
        note=_CROSS_NOTES[label],
    )


@dataclass(frozen=True)
class FactorConsistencyEntry:
    """How one branch's printed factor behaves under time reversal.

    ``reflected_factor_deviation`` measures evolve(R s, -t) - evolve(s, t),
    which the printed factors satisfy exactly.  ``conjugation_deviation``
    measures conj(evolve(s, t)) - evolve(R s, -t): the moduli agree but the
    printed phases do not conjugate (the gap is a phase 2*E_R*t), and the
    tabulated factors take precedence over normalizing it away.
    """

    bracket_before: str
    branch_before: str
    branch_after: str
    reflected_factor_deviation: float
    modulus_deviation: float
    conjugation_deviation: float

    def to_dict(self) -> dict:
        return {
            "bracket": self.bracket_before,
            "branch": self.branch_before,
            "time_reversed_branch": self.branch_after,
            "reflected_factor_deviation": self.reflected_factor_deviation,
            "modulus_deviation": self.modulus_deviation,
            "conjugation_deviation": self.conjugation_deviation,
        }


def factor_consistency_report(pole: ResonancePole | None = None,
                              n_times: int = 50) -> tuple[FactorConsistencyEntry, ...]:
    """Compare each branch's factor with its time-reversed partner's.

    For every canonical state s (unit amplitude) and a sample of times t in
    its half-domain, evaluates evolve(s, t), evolve(R s, -t) and
    conj(evolve(s, t)) over the whole sample at once and records the
    maximal deviations described on :class:`FactorConsistencyEntry`.
    """
    if pole is None:
        pole = ResonancePole(1.0, 0.2)
    entries = []
    for arrow, kind, regime in itertools.product(Arrow, Kind, (0, 1)):
        state = canonical_state(arrow, kind, regime, pole)
        branch, reversed_branch = branch_for(state), branch_for(time_reverse(state))
        sign = 1.0 if branch.domain.half is TimeHalf.NONNEG else -1.0
        times = branch.checked_times(sign * np.linspace(0.0, 10.0 / pole.width, n_times))
        forward = branch.factor(pole, times)
        mirrored = reversed_branch.factor(pole, reversed_branch.checked_times(-times))
        conjugated = np.conj(forward)
        entries.append(FactorConsistencyEntry(
            bracket_before=state.bracket,
            branch_before=branch.label,
            branch_after=reversed_branch.label,
            reflected_factor_deviation=float(np.max(np.abs(mirrored - forward), initial=0.0)),
            modulus_deviation=float(np.max(np.abs(np.abs(conjugated) - np.abs(mirrored)),
                                           initial=0.0)),
            conjugation_deviation=float(np.max(np.abs(conjugated - mirrored), initial=0.0)),
        ))
    return tuple(entries)
