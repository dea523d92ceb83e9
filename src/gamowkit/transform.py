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

from .core import (
    CROSS_IDENTIFIED,
    DEFAULT_POLE,
    Arrow,
    GamowState,
    Kind,
    Orientation,
    Record,
    canonical_state,
)
from .evolution import BRANCHES, branch_for

__all__ = ["cross_identify", "derive_table", "time_reverse", "time_reverse_twice"]


def time_reverse(state: GamowState) -> GamowState:
    """The image of a canonical state under the time-reversal operator.

    Flips kind, half-plane and regime, swaps the role, conjugates the
    amplitude, and leaves the pole untouched.  The output's time domain is
    the reflection of the input's.
    """
    if not isinstance(state, GamowState):
        raise ValueError(f"state must be a GamowState, got {state!r}")
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
    the r = 1 content the first application produces.  A rep that is no
    RepresentationTriple, that has a field out of range, or whose time reversal
    is of another dimension or squares to no multiple of I, raises ValueError.
    """
    from .relations import _checked, _square_scalar
    *_, r = _checked(rep, "time_reversal")  # checks rep before it is read
    if not rep.doubled:
        raise ValueError(
            f"rep must be a doubled family, got family {rep.row}: r=1 content produced by "
            "time reversal is not representable; use one of families 2-4"
        )
    restored = time_reverse(time_reverse(state))
    sign = _square_scalar(r)
    if sign is None:
        raise ValueError("rep must have a time reversal whose square is a multiple of the identity")
    return restored, sign


class TableCell(Record):
    """One cell of a derived table: a bracket with its domain annotation."""

    row_label: str
    regime: int
    bracket: str
    orientation: Orientation
    branch: str

    def to_dict(self) -> dict:
        return {
            "row": self.row_label,
            "regime": self.regime,
            "bracket": self.bracket,
            "domain": self.orientation.half.value,
            "orientation": self.orientation.value,
            "branch": self.branch,
        }


class DerivedTable(Record):
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
        orientation=branch.domain,
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


class CrossIdentification(Record):
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


def cross_identify(label: str) -> CrossIdentification:
    """Map branch 5a or 5b onto a regime of the laboratory tables.

    The regime is the branch's r in ``BRANCHES`` and the sign pattern is the
    branch's own; the matching laboratory factor (4b for 5b, none for 5a)
    and the note are the recorded identification in ``CROSS_IDENTIFIED``.
    """
    if not isinstance(label, str) or label not in CROSS_IDENTIFIED:
        raise ValueError(f"cross-identification is defined for branches "
                         f"{' and '.join(CROSS_IDENTIFIED)}, got label={label!r}")
    (_, _, regime), branch = next(item for item in BRANCHES.items() if item[1].label == label)
    return CrossIdentification(branch=label, regime=regime, phase_sign=branch.phase_sign,
                               growth_sign=branch.growth_sign, domain=branch.domain.half.value,
                               **CROSS_IDENTIFIED[label])
