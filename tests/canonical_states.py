"""The eight canonical Gamow states, transcribed from the paper's formulas and summary
tables apart from the package's derivations, with the two orders in which the tests
visit them and the Wigner signs of the four symmetry families.

The two state tables that ``derive_table`` must give are in ``tests/golden_tables.py``,
which holds nothing else: ``perfbench/checks.py`` reads each assignment there as a table.
"""

from collections import namedtuple

from gamowkit import Arrow, HalfPlane, Kind, Orientation, Role

PREP = Arrow.PREPARATION_REGISTRATION
EXC = Arrow.EXCITATION_DEEXCITATION

# One entry per canonical state, (arrow, kind, regime) -> its branch's label and sign
# pattern, read off the eight formulas, then its row of the summary tables; the half-domain
# is the orientation's.  Keyed in the order of BRANCHES: each arrow's two r = 0 rows, then
# their time-reversed partners.
CanonicalState = namedtuple(
    "CanonicalState", "label phase_sign growth_sign half_plane role orientation bracket")
CANONICAL_STATES = {
    (PREP, Kind.GROWING, 0): CanonicalState("4a", -1, +1, HalfPlane.MINUS, Role.STATE,
        Orientation.TOWARD_ZERO_FROM_MINUS_INF, "<phi,r=0|Z_R*,r=0>"),
    (PREP, Kind.DECAYING, 0): CanonicalState("4b", -1, -1, HalfPlane.PLUS, Role.OBSERVABLE,
        Orientation.TOWARD_PLUS_INF, "<psi,r=0|Z_R,r=0>"),
    (PREP, Kind.DECAYING, 1): CanonicalState("10", +1, -1, HalfPlane.PLUS, Role.OBSERVABLE,
        Orientation.TOWARD_ZERO_FROM_PLUS_INF, "<psi,r=1|Z_R,r=1>"),
    (PREP, Kind.GROWING, 1): CanonicalState("11", +1, +1, HalfPlane.MINUS, Role.STATE,
        Orientation.TOWARD_MINUS_INF, "<phi,r=1|Z_R*,r=1>"),
    (EXC, Kind.GROWING, 0): CanonicalState("12", +1, +1, HalfPlane.PLUS, Role.EXCITATION,
        Orientation.TOWARD_ZERO_FROM_MINUS_INF, "<phi_+,r=0|Z_R*,r=0>"),
    (EXC, Kind.DECAYING, 0): CanonicalState("5b", -1, -1, HalfPlane.MINUS, Role.DEEXCITATION,
        Orientation.TOWARD_PLUS_INF, "<phi_-,r=0|Z_R,r=0>"),
    (EXC, Kind.DECAYING, 1): CanonicalState("13", -1, -1, HalfPlane.MINUS, Role.DEEXCITATION,
        Orientation.TOWARD_ZERO_FROM_PLUS_INF, "<phi_-,r=1|Z_R,r=1>"),
    (EXC, Kind.GROWING, 1): CanonicalState("5a", +1, +1, HalfPlane.PLUS, Role.EXCITATION,
        Orientation.TOWARD_MINUS_INF, "<phi_+,r=1|Z_R*,r=1>"),
}

# The two orderings of the eight keys that tests loop over: arrow, then kind, then regime;
# and by branch label.
ALL_STATE_KEYS = [(arrow, kind, regime) for arrow in Arrow for kind in Kind for regime in (0, 1)]
BRANCH_KEYS = sorted(CANONICAL_STATES, key=lambda key: CANONICAL_STATES[key].label)


def expected_signs(row, twice_j):
    """(eps_R, eps_T) of family row 1..4 at spin j = twice_j / 2: R^2 = eps_R I, T^2 = eps_T I."""
    base = (-1) ** twice_j
    return ({1: base, 2: -base, 3: base, 4: -base}[row],
            {1: base, 2: base, 3: -base, 4: -base}[row])
