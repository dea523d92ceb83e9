"""The value behaviour of every record type: construction by position and by name, equality
and hashing by fields (or by identity), the exact repr, and no assignment or deletion.

The checks use no dataclasses API, so they hold for any implementation of the records."""

import pytest

from gamowkit.core import Arrow, GamowState, Kind, Orientation, ResonancePole
from gamowkit.evolution import EvolutionBranch
from gamowkit.scenarios import Scenario
from gamowkit.symmetry import (AntilinearOperator, ConjugationReport, IdentityCheck,
                               RelationCheck, RelationReport, RepresentationTriple)
from gamowkit.transform import CrossIdentification, DerivedTable, TableCell

POLE = ResonancePole(1.0, 0.2)
PREP = Arrow.PREPARATION_REGISTRATION
CELL = TableCell("growing", 0, "<phi,r=0|Z_R*,r=0>", Orientation.TOWARD_ZERO_FROM_MINUS_INF, "4a")
OPERATOR = AntilinearOperator((2, -1), True)
RELATION = RelationCheck("parity_squared", True, "+1 * I", "1 * I")
IDENTITY = IdentityCheck("angular_momentum_flip", True, 0.0, 1e-12)
POLE_REPR = "ResonancePole(energy=1.0, width=0.2)"
PREP_REPR = "<Arrow.PREPARATION_REGISTRATION: 'preparation_registration'>"
CELL_REPR = ("TableCell(row_label='growing', regime=0, bracket='<phi,r=0|Z_R*,r=0>', "
             "orientation=<Orientation.TOWARD_ZERO_FROM_MINUS_INF: '-inf->0'>, branch='4a')")
OPERATOR_REPR = "AntilinearOperator(columns=(2, -1), conjugates=True)"
RELATION_REPR = ("RelationCheck(name='parity_squared', passed=True, expected='+1 * I', "
                 "observed='1 * I')")
IDENTITY_REPR = ("IdentityCheck(name='angular_momentum_flip', passed=True, max_deviation=0.0, "
                 "tolerance=1e-12)")

# (type, field names in order, values, repr of the record built from them)
RECORDS = [
    (ResonancePole, ("energy", "width"), (1.0, 0.2), POLE_REPR),
    (GamowState, ("pole", "kind", "regime", "arrow", "amplitude"),
     (POLE, Kind.GROWING, 1, PREP, 0.5j),
     f"GamowState(pole={POLE_REPR}, kind=<Kind.GROWING: 'growing'>, regime=1, arrow={PREP_REPR}, "
     "amplitude=0.5j)"),
    (EvolutionBranch, ("label", "phase_sign", "growth_sign", "domain"),
     ("4b", -1, -1, Orientation.TOWARD_PLUS_INF),
     "EvolutionBranch(label='4b', phase_sign=-1, growth_sign=-1, "
     "domain=<Orientation.TOWARD_PLUS_INF: '0->inf'>)"),
    (Scenario, ("pole", "arrow", "kind", "regime", "t_min", "t_max", "steps"),
     (POLE, PREP, Kind.DECAYING, 0, 0.0, 1.0, 3),
     f"Scenario(pole={POLE_REPR}, arrow={PREP_REPR}, kind=<Kind.DECAYING: 'decaying'>, regime=0, "
     "t_min=0.0, t_max=1.0, steps=3)"),
    (TableCell, ("row_label", "regime", "bracket", "orientation", "branch"),
     ("growing", 0, "<phi,r=0|Z_R*,r=0>", Orientation.TOWARD_ZERO_FROM_MINUS_INF, "4a"), CELL_REPR),
    (DerivedTable, ("arrow", "cells"), (PREP, (CELL,)),
     f"DerivedTable(arrow={PREP_REPR}, cells=({CELL_REPR},))"),
    (CrossIdentification,
     ("branch", "regime", "matches_factor_of", "phase_sign", "growth_sign", "domain", "note"),
     ("5b", 0, "4b", -1, -1, "t>=0", "a note"),
     "CrossIdentification(branch='5b', regime=0, matches_factor_of='4b', phase_sign=-1, "
     "growth_sign=-1, domain='t>=0', note='a note')"),
    (AntilinearOperator, ("columns", "conjugates"), ((2, -1), True), OPERATOR_REPR),
    (RepresentationTriple, ("row", "twice_j", "parity", "time_reversal", "total_inversion",
                            "reversal_sign", "inversion_sign"),
     (2, 0, OPERATOR, OPERATOR, OPERATOR, 1, -1),
     f"RepresentationTriple(row=2, twice_j=0, parity={OPERATOR_REPR}, "
     f"time_reversal={OPERATOR_REPR}, total_inversion={OPERATOR_REPR}, reversal_sign=1, "
     "inversion_sign=-1)"),
    (RelationCheck, ("name", "passed", "expected", "observed"),
     ("parity_squared", True, "+1 * I", "1 * I"), RELATION_REPR),
    (RelationReport, ("row", "twice_j", "checks", "commutation_sign"), (1, 0, (RELATION,), None),
     f"RelationReport(row=1, twice_j=0, checks=({RELATION_REPR},), commutation_sign=None)"),
    (IdentityCheck, ("name", "passed", "max_deviation", "tolerance"),
     ("angular_momentum_flip", True, 0.0, 1e-12), IDENTITY_REPR),
    (ConjugationReport, ("row", "twice_j", "entries"), (1, 0, (IDENTITY,)),
     f"ConjugationReport(row=1, twice_j=0, entries=({IDENTITY_REPR},))"),
]
BY_IDENTITY = (AntilinearOperator, RepresentationTriple)
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_built_by_position_and_by_name(cls, names, values, text):
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(record) is cls
        assert tuple(getattr(record, name) for name in names) == values
        assert list(vars(record)) == list(names)  # the fields alone, in order
        assert repr(record) == text


def test_gamow_state_amplitude_defaults_to_one():
    state = GamowState(POLE, Kind.DECAYING, 0, PREP)
    assert state.amplitude == 1.0 + 0.0j and type(state.amplitude) is complex
    assert state == GamowState(pole=POLE, kind=Kind.DECAYING, regime=0, arrow=PREP, amplitude=1)
    assert repr(state).endswith(", amplitude=(1+0j))")


def test_post_init_runs_on_every_construction():
    assert type(ResonancePole(energy=1, width=2).width) is float
    assert type(GamowState(POLE, Kind.DECAYING, 0, PREP, 2).amplitude) is complex
    assert AntilinearOperator([2, -1], True).columns == (2, -1)
    for build in (lambda: ResonancePole(1.0, -1.0), lambda: GamowState(POLE, Kind.GROWING, 2, PREP),
                  lambda: Scenario(POLE, PREP, Kind.DECAYING, 0, 0.0, 1.0, 1),
                  lambda: AntilinearOperator(columns=(1, 1), conjugates=False)):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equal_and_hashed_by_fields(cls, names, values, text):
    record, twin = cls(*values), cls(*values)
    other = next(c(*v) for c, _, v, _ in RECORDS if c is not cls and c not in BY_IDENTITY)
    assert record == record and not record != record
    assert record != values and not record == values  # a tuple of the same values
    assert record.__eq__(values) is NotImplemented
    assert record != other and other != record and record.__eq__(other) is NotImplemented
    if cls in BY_IDENTITY:
        assert record != twin and not record == twin
        assert hash(record) == object.__hash__(record)
        assert len({record, twin}) == 2
    else:
        assert record == twin and not record != twin
        assert hash(record) == hash(twin) == hash(values)
        assert len({record, twin}) == 1


def test_fields_decide_equality():
    assert ResonancePole(1.0, 0.2) != ResonancePole(1.0, 0.3)
    assert GamowState(POLE, Kind.DECAYING, 0, PREP) != GamowState(POLE, Kind.DECAYING, 0, PREP, 2j)
    assert RelationReport(1, 0, (RELATION,), None) != RelationReport(1, 0, (RELATION,), 1)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert list(vars(record)) == list(names)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_a_missing_or_unknown_field_is_a_type_error(cls, names, values, text):
    by_name = dict(zip(names, values))
    with pytest.raises(TypeError):
        cls()  # the first field is required everywhere
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in by_name.items() if name != names[0]})
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one value more than fields
    with pytest.raises(TypeError):
        cls(values[0], **by_name)  # the first field twice
