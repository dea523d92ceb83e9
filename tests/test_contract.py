"""The input contract of the public surface, as one table.

Each name in ``gamowkit.__all__`` has a row.  A callable or a constructor
gives one good call, as keyword arguments, and the bad values of each
argument, with every warning an error.  A bad value written ``Says(value,
message)`` is a test case of its own: it must raise a ValueError (or the
subclass it gives) whose whole text is ``message``.  Every other bad value
must raise a ValueError whose message names its argument.  A value that is
legal where it goes (NaN in a table row, a complex amplitude) is not listed
as bad.  A name that needs no check gives the reason instead.  A name without
a row fails, so a new export must state its contract here, and a rejection
by the library is stated here once.
"""

import math
import re
import reprlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gamowkit
from gamowkit import (
    AntilinearOperator,
    Arrow,
    DomainViolationError,
    GamowState,
    Kind,
    NonHermitianError,
    ResonancePole,
    ResultTable,
    Scenario,
    build_representation,
    canonical_state,
    check_conjugation_identities,
    cross_identify,
    derive_table,
    evolution_table,
    evolve,
    group_evolve,
    lineshape,
    lorentzian_density,
    resonance_s_matrix,
    reversed_wavefunction,
    run_decay,
    survival_probability,
    time_reversal_matrix,
    time_reverse,
    time_reverse_twice,
    verify_group_relations,
)
from gamowkit.evolution import branch_for
from gamowkit.symmetry import RepresentationTriple


class Says:
    """A bad value with the whole message it raises and the class of that error.  ``given``
    replaces other arguments of the good call; ``shown`` names the value in the test id."""

    def __init__(self, value, message, error=ValueError, shown=None, **given):
        self.value, self.message, self.error, self.given = value, message, error, given
        if shown is None:  # the repr, on one line, without an address, cut at 40 characters
            shown = " ".join(re.sub(r" at 0x\w+", "", repr(value)).split())
            shown = shown if len(shown) <= 40 else shown[:37] + "..."
        self.shown = shown


def says(template, *values, **given):
    """A Says for each value, whose message is ``template`` formatted with it."""
    return [Says(value, template.format(value), **given) for value in values]


def family(row, twice_j, /, **fields):
    """Family ``row`` at ``twice_j``, with ``fields`` in place of its own."""
    return RepresentationTriple(**{**vars(build_representation(row, twice_j)), **fields})


PREP = Arrow.PREPARATION_REGISTRATION
POLE = ResonancePole(1.0, 0.2)
STATE = canonical_state(PREP, Kind.DECAYING, 0, POLE)
REP = build_representation(2, 1)
SCENARIO = Scenario(POLE, PREP, Kind.DECAYING, 0, 0.0, 1.0, 3)

NONFINITE = (math.nan, math.inf, -math.inf)
# What is no real number: a bool, a str, a complex, None, an int beyond the double range,
# an object of no numeric type.
NOT_REAL = [True, "1.0", 1j, None, 10**400, object()]
# Where one real number is required.
REAL = [*NONFINITE, *NOT_REAL]
# Where a count or an index is required: a float is the wrong type, even a whole one.
COUNT = [*REAL, 1.0]
# Where a complex number is required.
COMPLEX = [math.nan, complex(0.0, math.inf), -math.inf, True, "1j", None, 10**400, object()]
# Where a package value (a pole, a state, a family, a scenario, an enum member) is required.
OBJECT = [*REAL, 1, []]
# Where one real number or an array of them is required.
GRID = [*REAL, *([value] for value in REAL), [0.0, math.nan], [0.0, True]]
RAGGED = [[0.0, 1.0], [2.0]]

NO_CHECK = {
    **dict.fromkeys(["Arrow", "HalfPlane", "Kind", "Orientation", "Role", "TimeHalf"],
                    "an enum: its members are fixed, and a lookup by value raises ValueError"),
    **dict.fromkeys(["DomainViolationError", "NonHermitianError"],
                    "an exception class: it takes any message, as ValueError does"),
    "BRANCHES": "a mapping built at import: it is read, not called",
}


def ragged(name):
    """A ragged grid given as ``name``."""
    return Says(RAGGED, f"{name} must be a rectangular array, got a ragged sequence")


def not_a_pole(**given):
    """Three bad ``pole`` values that are no ResonancePole, with ``given`` as in Says."""
    return says("pole must be a ResonancePole, got {!r}", "x", None, (1.0, 0.2), **given)


NOT_A_POLE = not_a_pole()
NOT_A_STATE = says("state must be a GamowState, got {!r}", "x", None, POLE)
NOT_A_SCENARIO = says("scenario must be a Scenario, got {!r}", "x", None, POLE)
# Besides no family at all, hand-built fields are checked before any is read.
NOT_A_REP = [*says("rep must be a RepresentationTriple, got {!r}", "x", None, 4), *(
    Says(family(1, 0, **fields), message, shown="{}={!r}".format(*next(iter(fields.items()))))
    for fields, message in [
        ({"twice_j": -1, **dict.fromkeys(["parity", "time_reversal", "total_inversion"],
                                         AntilinearOperator((), True))},
         "twice_j must be a nonnegative integer, got -1"),
        ({"twice_j": "x"}, "twice_j must be a nonnegative integer, got 'x'"),
        ({"twice_j": 0.0}, "twice_j must be a nonnegative integer, got 0.0"),
        ({"row": 5}, "row must be one of (1, 2, 3, 4), got 5"),
        ({"reversal_sign": "x"}, "reversal_sign must be +1 or -1, got 'x'"),
        ({"inversion_sign": 2}, "inversion_sign must be +1 or -1, got 2")])]


def operators(message, row, twice_j, operator, *names):
    """A Says for family ``row`` at ``twice_j`` with ``operator`` in place of each of ``names``
    in turn; ``message`` is formatted with the name."""
    return [Says(family(row, twice_j, **{name: operator}), message.format(name),
                 shown=f"{name}-{type(operator).__name__}-row-{row}-2j-{twice_j}")
            for name in names]


# (Gamma/2)^2 underflows: to 0 at 1e-200 (a divide-by-zero warning and inf), to a subnormal
# that has lost digits at 1e-160 (a peak wrong in its 5th digit)
SUBNORMAL_SQUARE = [Says(ResonancePole(1.0, width), f"resonance width {width} is too small for a "
                         "lineshape: (Gamma/2)^2 is below the smallest normal double",
                         energies=[1.0]) for width in (1e-200, 1e-160, 2.9e-154)]
THREE_BY_THREE = AntilinearOperator((2, -1, 3), True)
WRONG_DIMENSION = "{} must be a 2x2 signed permutation matrix"
NOT_AN_OPERATOR = "{} must be an AntilinearOperator, got ndarray"
OPERATORS = ("parity", "time_reversal", "total_inversion")
PERMUTATION = "columns must hold each of +-1, ..., +-{} once: a signed permutation"

STATE_ARGS = dict(arrow=PREP, kind=Kind.DECAYING, regime=0, pole=POLE, amplitude=1j)
STATE_BAD = dict(
    arrow=[*OBJECT, Says("prep", "no canonical state for arrow='prep' and "
                                 "kind=<Kind.DECAYING: 'decaying'>")],
    kind=[*OBJECT, Says("growing", "no canonical state for arrow=<Arrow.PREPARATION_REGISTRATION: "
                                   "'preparation_registration'> and kind='growing'")],
    regime=[*COUNT, -1, *says("regime must be 0 or 1, got {}", 2, True, 1.0, "1", None)],
    pole=[*OBJECT, *NOT_A_POLE],
    amplitude=[*COMPLEX, *(Says(value, f"amplitude must be finite, got {complex(value)}")
                           for value in (complex("nan"), complex(1.0, math.inf),
                                         complex(-math.inf, 0.0), math.nan, complex(0.0, math.nan),
                                         np.complex128(complex(0.0, math.nan)))),
               *says("amplitude must be a complex number, got {!r}", "x", True),
               Says(10**400, "amplitude must be finite, got int beyond the double range"),
               Says(Fraction(10**400, 3),
                    "amplitude must be finite, got Fraction beyond the double range")])

# name: (callable, the good call's keyword arguments, each argument's bad values)
CONTRACT = {
    "GamowState": (GamowState, STATE_ARGS, STATE_BAD),
    "ResonancePole": (ResonancePole, dict(energy=1.0, width=0.2), dict(
        energy=[*REAL, *says("resonance energy must be finite, got {}", *NONFINITE),
                *says("resonance energy must be real, got {!r}", "1", None, 1 + 0j),
                Says(10**400, "resonance energy must be finite, got an integer of 1329 bits"),
                Says(np.array([1.0, 2.0]),
                     "resonance energy must be one number, got an array of shape (2,)"),
                Says([1.0], "resonance energy must be one number, got an array of shape (1,)")],
        width=[*REAL, *says("resonance width must be finite, got {}", *NONFINITE),
               *says("resonance width must be positive, got {}", -0.1, 0.0, -0.2, -1e300),
               Says(True, "resonance width must be real, got True"),
               Says([[0.2]],
                    "resonance width must be one number, got an array of shape (1, 1)")])),
    "canonical_state": (canonical_state, STATE_ARGS, STATE_BAD),
    "resonance_s_matrix": (resonance_s_matrix, dict(pole=POLE, energies=[0.5, 1.0]), dict(
        pole=[*OBJECT, *NOT_A_POLE, *not_a_pole(energies=1.0)],
        energies=[*GRID, Says([1j], "energies must be real, got [1j]"), ragged("energies"),
                  *(Says([1.0, value], f"energies must be finite, got {value}")
                    for value in NONFINITE)])),
    "branch_for": (branch_for, dict(state=STATE), dict(state=[*OBJECT, *NOT_A_STATE])),
    "evolve": (evolve, dict(state=STATE, t=[0.0, 1.0]), dict(
        state=[*OBJECT, *NOT_A_STATE],
        t=[*GRID, -1.0, *says("t must be finite, got {}", *NONFINITE),
           *says("t must be real, got {!r}", "1", True, None, 1j), ragged("t")])),
    "group_evolve": (
        group_evolve, dict(hamiltonian=[[1.0, 1j], [-1j, 2.0]], t=0.5, vector=[1.0, 0.0]),
        dict(hamiltonian=[*REAL, *([[value]] for value in REAL), [[1.0, 2.0]],
                          [[0.0, 1.0], [2.0, 0.0]],  # not square, not Hermitian
                          Says(np.array([[0.0, 1.0], [0.0, 0.0]]), "hamiltonian is not Hermitian: "
                               "max |H - H^dagger| = 1.000e+00", NonHermitianError),
                          Says(np.zeros((65, 65)), "hamiltonian dimension 65 exceeds the cap 64"),
                          Says(np.zeros((2, 3)),
                               "hamiltonian must be a square matrix, got shape (2, 3)"),
                          Says([[1.0, 0.0], [0.0]],
                               "hamiltonian must be a rectangular array, got a ragged sequence")],
             t=[*REAL, [1.0, 2.0]],
             vector=[*REAL, *([value, value] for value in COMPLEX), [1.0],
                     Says(np.zeros(3), "vector shape (3,) does not match dimension 2"),
                     Says([[1.0], [0.0, 1.0]],
                          "vector must be a rectangular array, got a ragged sequence")])),
    "survival_probability": (survival_probability, dict(state=STATE, t=2.0), dict(
        state=[*OBJECT, *NOT_A_STATE,
               Says(canonical_state(PREP, Kind.GROWING, 0, POLE), "state must be decaying for a "
                    "survival probability, got a growing one", shown="growing-state", t=-1.0)],
        t=[*GRID, -1.0, *says("t must be finite, got {}", *NONFINITE), ragged("t"),
           Says(-1.0, "t=-1.0 lies outside the t>=0 half-domain of branch 4b; semigroup "
                "evolution has no inverse across t=0", DomainViolationError)])),
    "ResultTable": (
        ResultTable, dict(columns=("a", "b"), rows=[(math.nan, -math.inf), (0.0, 1.5)]),
        dict(columns=[*REAL, "ab", (1, 2), ("a", None),
                      *says("rows of shape (0,) do not fit 0 columns", [], (), rows=[]),
                      *(Says(columns, f"columns must be a sequence of str names, got {columns!r}",
                             rows=rows) for columns, rows in [
                          ("time", [[1.0, 2.0, 3.0, 4.0]]),  # else four one-letter columns
                          ((1, 2), [[1.0, 2.0]]),  # else JSON that from_json rejects
                          (("t", None), [[1.0, 2.0]]), ([b"t"], [[1.0]]),
                          (5, [[1.0]]), (None, [[1.0]])])],  # no sequence at all
             rows=[*REAL, [None], [(0.0, None)], [(1.0, 2.0), (None, 3.0)],
                   *([(value, 0.0)] for value in NOT_REAL), [(True, False)],
                   [1.0, 2.0, 3.0], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (3.0,)], ragged("rows"),
                   *(Says(rows, message, columns=("a",)) for rows, message in [
                       *((rows, "rows must be real numbers, got an array of object")
                         for rows in (None, [None], [(1.0,), (None,)], [(object(),)])),
                       ([(1j,)], "rows must be real numbers, got an array of complex128"),
                       ([("1.0",)], "rows must be real numbers, got an array of <U3"),
                       (True, "rows must be real numbers, got an array of bool"),
                       ([(10**400,)], "rows must be finite, got an integer beyond a double"),
                       (5.0, "rows of shape () do not fit 1 columns"),  # a bare number is no row
                       ([[(1.0,)]], "rows of shape (1, 1, 1) do not fit 1 columns")])])),
    "Scenario": (
        Scenario, dict(pole=POLE, arrow=PREP, kind=Kind.DECAYING, regime=0, t_min=0.0,
                       t_max=1.0, steps=3),
        dict(pole=OBJECT, arrow=OBJECT, kind=OBJECT,
             regime=[*COUNT, Says(True, "regime must be 0 or 1, got True")],
             # a non-finite bound is checked before the ordering check, which -inf would fail
             t_min=[*REAL, 2.0, *says("t_min must be finite, got {}", math.nan, -math.inf),
                    Says(5.0, "t_max=1.0 must not precede t_min=5.0"),
                    Says(-math.inf, "t_min must be finite, got -inf", t_max=0.0),
                    Says("0", "t_min must be real, got '0'"),
                    Says([0.0], "t_min must be one number, got an array of shape (1,)")],
             t_max=[*REAL, -1.0, *says("t_max must be finite, got {}", *NONFINITE),
                    Says(-math.inf, "t_max must be finite, got -inf", t_min=5.0),
                    Says(None, "t_max must be real, got None"),
                    Says(np.array([1.0, 2.0]),
                         "t_max must be one number, got an array of shape (2,)")],
             steps=[*COUNT, Says(1, "a scenario grid needs at least 2 steps, got 1"),
                    *says("a scenario grid needs an integer number of steps, got {!r}",
                          2.5, "10", True)])),
    "evolution_table": (evolution_table, dict(scenario=SCENARIO), dict(scenario=[
        *OBJECT, *NOT_A_SCENARIO,
        Says(Scenario(POLE, PREP, Kind.GROWING, 0, 0.0, 1.0, 2), "t=1.0 lies outside the t<=0 "
             "half-domain of branch 4a; semigroup evolution has no inverse across t=0",
             DomainViolationError, shown="growing-scenario-0-to-1")])),
    "run_decay": (run_decay, dict(scenario=SCENARIO), dict(scenario=[*OBJECT, *NOT_A_SCENARIO])),
    "lineshape": (lineshape, dict(pole=POLE, energies=[0.5, 1.0]), dict(
        pole=[*OBJECT, *NOT_A_POLE, *SUBNORMAL_SQUARE],
        energies=[*GRID, [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]],
                  Says(["a"], "energies must be real, got ['a']"), ragged("energies"),
                  Says([], "energies must be a nonempty grid, got an empty one"),
                  *(Says([0.5, value, 1.5], f"energies must be finite, got {value}")
                    for value in NONFINITE)])),
    "lorentzian_density": (lorentzian_density, dict(pole=POLE, energies=1.0), dict(
        pole=[*OBJECT, *NOT_A_POLE, *SUBNORMAL_SQUARE, *not_a_pole(energies=[1.0])],
        energies=[*GRID, ragged("energies"),
                  *(Says([0.5, value], f"energies must be finite, got {value}")
                    for value in NONFINITE)])),
    "AntilinearOperator": (
        AntilinearOperator, dict(columns=(2, -1), conjugates=True),
        dict(columns=[*REAL, *([value, 1] for value in REAL), [1.0, 2], [1, 1], [0],
                      *(Says(columns, message) for columns, message in [
                          ([[1, 2], [2, 1]], "columns must be signed integers, got list"),
                          ([1.0, 2.0], "columns must be signed integers, got float"),
                          (np.array([1, 2], dtype=np.uint8),
                           "columns must be signed integers, got uint8"),
                          ([True, True], "columns must be signed integers, got bool"),
                          ([-1, -1, 2], PERMUTATION.format(3)),
                          (5, "columns must be a sequence of signed integers, got 5"),
                          (None, "columns must be a sequence of signed integers, got None")]),
                      # a 0, a repeated column, a column beyond d
                      *says(PERMUTATION.format(2), [1, 0], [2, -2], [1, 3])],
             conjugates=[math.nan, "True", 1j, 10**400, object(), 0,
                         *says("conjugates must be a bool, got {!r}", "no", 1, None,
                               np.bool_(True))])),
    "build_representation": (build_representation, dict(row=2, twice_j=1), dict(
        row=[*COUNT, *says("row must be one of (1, 2, 3, 4), got {}", 0, 5, -1, True, 1.0)],
        twice_j=[*COUNT, -1, 65536,
                 *says("twice_j must be a nonnegative integer, got {!r}", True, False,
                       np.bool_(True))])),
    "check_conjugation_identities": (check_conjugation_identities, dict(rep=REP, pole=POLE), dict(
        rep=[*OBJECT, *NOT_A_REP,
             *operators(WRONG_DIMENSION, 1, 1, THREE_BY_THREE, "time_reversal"),
             *operators(NOT_AN_OPERATOR, 4, 0, np.eye(2, dtype=np.int64), "time_reversal")],
        pole=[*OBJECT, *NOT_A_POLE,
              Says(ResonancePole(1.0, 1e307),
                   "energy window E_R +- 25*Gamma must be finite, got -inf"),  # a bound overflows
              Says(ResonancePole(1.0, 7e306),  # finite bounds whose span overflows
                   "energy window span must be finite, got inf")])),
    "reversed_wavefunction": (reversed_wavefunction, dict(psi=[1j, 2.0]), dict(
        psi=[*REAL, *([1.0, value] for value in COMPLEX), *(
            Says(psi, message) for psi, message in [
                ("ab", "an entry of psi must be a complex number, got 'b'"),
                ([1.0, "a"], "an entry of psi must be a complex number, got 'a'"),
                ([1.0, True], "an entry of psi must be a complex number, got True"),
                ([math.nan, 1.0], "an entry of psi must be finite, got (nan+0j)"),
                (np.array([1.0, np.inf]), "an entry of psi must be finite, got (inf+0j)"),
                ([complex(0.0, -np.inf)], "an entry of psi must be finite, got -infj"),
                ([10**400], "an entry of psi must be finite, got int beyond the double range")]),
            *says("psi must be a sequence of numbers, got {!r}", 5, (x for x in [1.0]), {1.0})])),
    "time_reversal_matrix": (time_reversal_matrix, dict(twice_j=1), dict(
        twice_j=[*COUNT, 65536, 1024,
                 *says("twice_j must be a nonnegative integer, got {!r}", -1, 1.5)])),
    "verify_group_relations": (verify_group_relations, dict(rep=REP), dict(rep=[
        *OBJECT, *NOT_A_REP, *operators(WRONG_DIMENSION, 4, 0, THREE_BY_THREE, *OPERATORS),
        *operators(NOT_AN_OPERATOR, 4, 0, np.eye(2, dtype=np.int64), *OPERATORS),
        # read as signed columns, never as a dense matrix (above the dense cap here)
        *(Says(family(4, 1000, **{name: getattr(build_representation(1, 1000), name)}),
               f"{name} must be a 2002x2002 signed permutation matrix",
               shown=f"{name}-of-family-1-row-4-2j-1000") for name in OPERATORS)])),
    "cross_identify": (cross_identify, dict(label="5a"), dict(label=[
        *REAL, "5c",
        *says("cross-identification is defined for branches 5a and 5b, got label={!r}",
              "4a", "4b", "10", "11", "12", "13", "zz", [], ["5a"])])),
    "derive_table": (derive_table, dict(arrow=PREP), dict(arrow=OBJECT)),
    "time_reverse": (time_reverse, dict(state=STATE), dict(state=[*OBJECT, *NOT_A_STATE])),
    "time_reverse_twice": (time_reverse_twice, dict(state=STATE, rep=REP), dict(
        state=[*OBJECT, *NOT_A_STATE],
        rep=[*OBJECT, *NOT_A_REP,
             *operators(WRONG_DIMENSION, 4, 0, THREE_BY_THREE, "time_reversal"),
             Says(build_representation(1, 1), "rep must be a doubled family, got family 1: r=1 "
                  "content produced by time reversal is not representable; use one of "
                  "families 2-4",
                  shown="family-1-2j-1"),
             # a signed permutation that cycles three of the four basis vectors: its square is
             # another 3-cycle, no multiple of I
             Says(family(2, 1, time_reversal=AntilinearOperator((2, 3, 1, 4), True)),
                  "rep must have a time reversal whose square is a multiple of the identity",
                  shown="3-cycle-reversal")])),
}

NAMED = [(name, argument) for name, (_, _, bad) in CONTRACT.items() for argument in bad]
SAID = [(name, argument, value) for name, (_, _, bad) in CONTRACT.items()
        for argument, values in bad.items() for value in values if isinstance(value, Says)]


def test_every_export_has_a_row():
    assert not set(NO_CHECK) & set(CONTRACT)
    assert sorted({*NO_CHECK, *CONTRACT}) == sorted(gamowkit.__all__)


@pytest.mark.parametrize("name", CONTRACT)
def test_good_call(name):
    call, good, _ = CONTRACT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**good)


@pytest.mark.parametrize("name, argument", NAMED, ids=[f"{n}-{a}" for n, a in NAMED])
def test_bad_value_raises_a_value_error_naming_it(name, argument):
    call, good, bad = CONTRACT[name]
    failures = []
    for value in bad[argument]:
        if isinstance(value, Says):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(**{**good, argument: value})
            except ValueError as exc:
                if argument not in str(exc):
                    failures.append(f"{reprlib.repr(value)}: unnamed: {exc}")
            except Exception as exc:  # a TypeError, or a warning made an error
                failures.append(f"{reprlib.repr(value)}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{reprlib.repr(value)}: accepted")
    assert not failures


@pytest.mark.parametrize("name, argument, bad", SAID, ids=[
    f"{n}-{a}-{b.shown}" + "".join(f"-{k}={v!r}" for k, v in b.given.items())
    for n, a, b in SAID])
def test_bad_value_says_its_message(name, argument, bad):
    call, good, _ = CONTRACT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            call(**{**good, **bad.given, argument: bad.value})
    assert (type(caught.value), str(caught.value)) == (bad.error, bad.message)


# numpy promotes a bool among floats to 1.0, so a sequence input is scanned for one.
@pytest.mark.parametrize("call", [
    lambda: ResultTable(("a", "b"), [(True, 0.0)]),
    lambda: evolve(STATE, [0.0, True]),
    lambda: group_evolve([[1.0, 0.0], [0.0, 1.0]], 1.0, [True, 0.0]),
], ids=["ResultTable-rows", "evolve-t", "group_evolve-vector"])
def test_a_bool_among_floats_is_rejected(call):
    with pytest.raises(ValueError):
        call()
