"""The input contract of the public surface, as one table.

Each name in ``gamowkit.__all__`` has a row.  A callable or a constructor
gives one good call, as keyword arguments, and the bad values of each
argument; each bad value must raise a ValueError whose message names that
argument, with every warning an error.  A value that is legal where it
goes (NaN in a table row, a complex amplitude) is not listed as bad.  A
name that needs no check gives the reason instead.  A name without a row
fails, so a new export must state its contract here.
"""

import math
import reprlib
import warnings

import pytest

import gamowkit
from gamowkit import (
    AntilinearOperator,
    Arrow,
    GamowState,
    Kind,
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

PREP = Arrow.PREPARATION_REGISTRATION
POLE = ResonancePole(1.0, 0.2)
STATE = canonical_state(PREP, Kind.DECAYING, 0, POLE)
REP = build_representation(2, 1)
SCENARIO = Scenario(POLE, PREP, Kind.DECAYING, 0, 0.0, 1.0, 3)

# What is no real number: a bool, a str, a complex, None, an int beyond the double range,
# an object of no numeric type.
NOT_REAL = [True, "1.0", 1j, None, 10**400, object()]
# Where one real number is required.
REAL = [math.nan, math.inf, -math.inf, *NOT_REAL]
# Where a count or an index is required: a float is the wrong type, even a whole one.
COUNT = [*REAL, 1.0]
# Where a complex number is required.
COMPLEX = [math.nan, complex(0.0, math.inf), -math.inf, True, "1j", None, 10**400, object()]
# Where a package value (a pole, a state, a family, a scenario, an enum member) is required.
OBJECT = [*REAL, 1, []]
# Where one real number or an array of them is required.
GRID = [*REAL, *([value] for value in REAL), [0.0, math.nan], [0.0, True]]

NO_CHECK = {
    **dict.fromkeys(["Arrow", "HalfPlane", "Kind", "Orientation", "Role", "TimeHalf"],
                    "an enum: its members are fixed, and a lookup by value raises ValueError"),
    **dict.fromkeys(["DomainViolationError", "NonHermitianError"],
                    "an exception class: it takes any message, as ValueError does"),
    "BRANCHES": "a mapping built at import: it is read, not called",
}

STATE_ARGS = dict(arrow=PREP, kind=Kind.DECAYING, regime=0, pole=POLE, amplitude=1j)
STATE_BAD = dict(arrow=OBJECT, kind=OBJECT, regime=[*COUNT, 2, -1], pole=OBJECT,
                 amplitude=COMPLEX)

# name: (callable, the good call's keyword arguments, each argument's bad values)
CONTRACT = {
    "GamowState": (GamowState, STATE_ARGS, STATE_BAD),
    "ResonancePole": (ResonancePole, dict(energy=1.0, width=0.2),
                      dict(energy=REAL, width=[*REAL, 0.0, -0.2])),
    "canonical_state": (canonical_state, STATE_ARGS, STATE_BAD),
    "resonance_s_matrix": (resonance_s_matrix, dict(pole=POLE, energies=[0.5, 1.0]),
                           dict(pole=OBJECT, energies=GRID)),
    "branch_for": (branch_for, dict(state=STATE), dict(state=OBJECT)),
    "evolve": (evolve, dict(state=STATE, t=[0.0, 1.0]), dict(state=OBJECT, t=[*GRID, -1.0])),
    "group_evolve": (
        group_evolve, dict(hamiltonian=[[1.0, 1j], [-1j, 2.0]], t=0.5, vector=[1.0, 0.0]),
        dict(hamiltonian=[*REAL, *([[value]] for value in REAL), [[1.0, 2.0]],
                          [[0.0, 1.0], [2.0, 0.0]]],  # not square, not Hermitian
             t=[*REAL, [1.0, 2.0]],
             vector=[*REAL, *([value, value] for value in COMPLEX), [1.0]])),
    "survival_probability": (survival_probability, dict(state=STATE, t=2.0),
                             dict(state=OBJECT, t=[*GRID, -1.0])),
    "ResultTable": (
        ResultTable, dict(columns=("a", "b"), rows=[(math.nan, -math.inf), (0.0, 1.5)]),
        dict(columns=[*REAL, "ab", (1, 2), ("a", None)],
             rows=[*REAL, [None], [(0.0, None)], [(1.0, 2.0), (None, 3.0)],
                   *([(value, 0.0)] for value in NOT_REAL), [(True, False)],
                   [1.0, 2.0, 3.0], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (3.0,)]])),
    "Scenario": (
        Scenario, dict(pole=POLE, arrow=PREP, kind=Kind.DECAYING, regime=0, t_min=0.0,
                       t_max=1.0, steps=3),
        dict(pole=OBJECT, arrow=OBJECT, kind=OBJECT, regime=COUNT, t_min=[*REAL, 2.0],
             t_max=[*REAL, -1.0], steps=[*COUNT, 1])),
    "evolution_table": (evolution_table, dict(scenario=SCENARIO), dict(scenario=OBJECT)),
    "run_decay": (run_decay, dict(scenario=SCENARIO), dict(scenario=OBJECT)),
    "lineshape": (lineshape, dict(pole=POLE, energies=[0.5, 1.0]),
                  dict(pole=OBJECT,
                       energies=[*GRID, [], [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]]])),
    "lorentzian_density": (lorentzian_density, dict(pole=POLE, energies=1.0),
                           dict(pole=OBJECT, energies=GRID)),
    "AntilinearOperator": (
        AntilinearOperator, dict(columns=(2, -1), conjugates=True),
        dict(columns=[*REAL, *([value, 1] for value in REAL), [1.0, 2], [1, 1], [0]],
             conjugates=[math.nan, "True", 1j, None, 10**400, object(), 1, 0])),
    "build_representation": (build_representation, dict(row=2, twice_j=1),
                             dict(row=[*COUNT, 0, 5], twice_j=[*COUNT, -1, 65536])),
    "check_conjugation_identities": (check_conjugation_identities, dict(rep=REP, pole=POLE),
                                     dict(rep=OBJECT, pole=OBJECT)),
    "reversed_wavefunction": (reversed_wavefunction, dict(psi=[1j, 2.0]),
                              dict(psi=[*REAL, *([1.0, value] for value in COMPLEX)])),
    "time_reversal_matrix": (time_reversal_matrix, dict(twice_j=1),
                             dict(twice_j=[*COUNT, -1, 65536, 1024])),
    "verify_group_relations": (verify_group_relations, dict(rep=REP), dict(rep=OBJECT)),
    "cross_identify": (cross_identify, dict(label="5a"), dict(label=[*REAL, "4b", "5c", []])),
    "derive_table": (derive_table, dict(arrow=PREP), dict(arrow=OBJECT)),
    "time_reverse": (time_reverse, dict(state=STATE), dict(state=OBJECT)),
    "time_reverse_twice": (time_reverse_twice, dict(state=STATE, rep=REP),
                           dict(state=OBJECT, rep=OBJECT)),
}

CASES = [(name, argument) for name, (_, _, bad) in CONTRACT.items() for argument in bad]


def test_every_export_has_a_row():
    assert not set(NO_CHECK) & set(CONTRACT)
    assert sorted({*NO_CHECK, *CONTRACT}) == sorted(gamowkit.__all__)


@pytest.mark.parametrize("name", CONTRACT)
def test_good_call(name):
    call, good, _ = CONTRACT[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**good)


@pytest.mark.parametrize("name, argument", CASES, ids=[f"{n}-{a}" for n, a in CASES])
def test_bad_value_raises_a_value_error_naming_it(name, argument):
    call, good, bad = CONTRACT[name]
    failures = []
    for value in bad[argument]:
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


# numpy promotes a bool among floats to 1.0, so a sequence input is scanned for one.
@pytest.mark.parametrize("call", [
    lambda: ResultTable(("a", "b"), [(True, 0.0)]),
    lambda: evolve(STATE, [0.0, True]),
    lambda: group_evolve([[1.0, 0.0], [0.0, 1.0]], 1.0, [True, 0.0]),
], ids=["ResultTable-rows", "evolve-t", "group_evolve-vector"])
def test_a_bool_among_floats_is_rejected(call):
    with pytest.raises(ValueError):
        call()
