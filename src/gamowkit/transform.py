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

from .core import (
    DEFAULT_POLE,
    Arrow,
    GamowState,
    Kind,
    Orientation,
    ResonancePole,
    TimeHalf,
    canonical_state,
    np,
)
from .evolution import BRANCHES, branch_for, evolve
from .symmetry import RepresentationTriple, _operator, _square_scalar


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
        amplitude=state.amplitude.conjugate(),
    )


def time_reverse_twice(state: GamowState, rep: RepresentationTriple) -> tuple[GamowState, int]:
    """Apply time reversal twice, returning (restored state, scalar sign).

    The descriptor labels always return to themselves; the scalar is
    computed by composing the family's time reversal with itself, an O(d)
    gather of its signed columns, and therefore equals that family's eps_R.
    Requires a doubled family: the single-sheet family 1 has nowhere to put
    the r = 1 content the first application produces.  A time reversal of
    another dimension, or whose square is no multiple of I, raises
    ValueError.
    """
    if not rep.doubled:
        raise ValueError(
            "family 1 is not doubled: r=1 content produced by time reversal "
            "is not representable; use one of families 2-4"
        )
    restored = time_reverse(time_reverse(state))
    sign = _square_scalar(_operator(rep, "time_reversal"))
    if sign is None:
        raise ValueError("time reversal squared is not a scalar multiple of the identity")
    return restored, sign


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


def derive_table(arrow: Arrow) -> DerivedTable:
    """Derive the four-cell summary table for one arrow convention.

    Builds the two r = 0 canonical states, applies :func:`time_reverse` to
    each, and lists (bracket, half-domain, orientation) for all four.  Rows
    are labelled by the r = 0 progenitor's kind; each row's r = 1 cell is
    the time-reversed partner, which carries the opposite pole kind but the
    same growth character along its own reading direction.  No label,
    domain or branch depends on the pole, so the default one is used.
    """
    cells = []
    for row_label, kind in (("growing", Kind.GROWING), ("decaying", Kind.DECAYING)):
        original = canonical_state(arrow, kind, 0, DEFAULT_POLE)
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


# Each identified branch's factor match and note.  Recorded, not derived: 5a's sign
# pattern (+1, +1, t<=0, -inf<-0) equals 11's as 5b's equals 4b's, yet 5a names none.
CROSS_IDENTIFIED = {
    "5a": dict(matches_factor_of=None, note="identified with the time-reversed regime once "
               "laboratory preparations are read as a special case of excitations"),
    "5b": dict(matches_factor_of="4b", note="identified with the laboratory regime; its "
               "factor carries the same sign pattern as branch 4b"),
}


def cross_identify(label: str) -> CrossIdentification:
    """Map branch 5a or 5b onto a regime of the laboratory tables.

    The regime is the branch's r in ``BRANCHES`` and the sign pattern is the
    branch's own; the matching laboratory factor (4b for 5b, none for 5a)
    and the note are the recorded identification in ``CROSS_IDENTIFIED``.
    """
    if label not in CROSS_IDENTIFIED:
        raise ValueError(f"cross-identification is defined for branches "
                         f"{' and '.join(CROSS_IDENTIFIED)}, got {label!r}")
    (_, _, regime), branch = next(item for item in BRANCHES.items() if item[1].label == label)
    return CrossIdentification(branch=label, regime=regime, phase_sign=branch.phase_sign,
                               growth_sign=branch.growth_sign, domain=branch.domain.half.value,
                               **CROSS_IDENTIFIED[label])


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


def factor_consistency_report(pole: ResonancePole = DEFAULT_POLE) -> tuple[FactorConsistencyEntry, ...]:
    """Compare each branch's factor with its time-reversed partner's.

    For every canonical state s of ``pole`` (default E_R = 1.0, Gamma = 0.2)
    with unit amplitude and 50 times t in its half-domain, evaluates
    evolve(s, t), evolve(R s, -t) and conj(evolve(s, t)) at once and
    records the maximal deviations described on :class:`FactorConsistencyEntry`.
    """
    entries = []
    for arrow, kind, regime in itertools.product(Arrow, Kind, (0, 1)):
        state = canonical_state(arrow, kind, regime, pole)
        branch, reversed_state = branch_for(state), time_reverse(state)
        sign = 1.0 if branch.domain.half is TimeHalf.NONNEG else -1.0
        times = sign * np.linspace(0.0, 10.0 / pole.width, 50)
        forward = evolve(state, times)
        mirrored = evolve(reversed_state, -times)
        conjugated = np.conj(forward)
        entries.append(FactorConsistencyEntry(
            bracket_before=state.bracket,
            branch_before=branch.label,
            branch_after=branch_for(reversed_state).label,
            reflected_factor_deviation=float(np.max(np.abs(mirrored - forward), initial=0.0)),
            modulus_deviation=float(np.max(np.abs(np.abs(conjugated) - np.abs(mirrored)),
                                           initial=0.0)),
            conjugation_deviation=float(np.max(np.abs(conjugated - mirrored), initial=0.0)),
        ))
    return tuple(entries)
