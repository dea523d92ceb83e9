"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; assertions carry the stated tolerances.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gamowkit import (
    DomainViolationError,
    Kind,
    ResonancePole,
    ResultTable,
    Scenario,
    branch_for,
    build_representation,
    canonical_state,
    check_conjugation_identities,
    derive_table,
    evolve,
    group_evolve,
    lorentzian_density,
    run_decay,
    time_reversal_matrix,
    time_reverse,
    time_reverse_twice,
    verify_group_relations,
)
from canonical_states import ALL_STATE_KEYS, EXC, PREP, expected_signs
from dense import diagonal_reversal_matrix, from_matrix
from golden_tables import EXCITATION_DEEXCITATION_TABLE, PREPARATION_REGISTRATION_TABLE

TESTED_TWICE_J = (0, 1, 2, 3, 4)

POLE = ResonancePole(1.0, 0.2)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS - {text}")


def test_criterion_1_symmetry_family_suite():
    start = time.perf_counter()
    cases = 0
    for twice_j in TESTED_TWICE_J:
        for row in (1, 2, 3, 4):
            rep = build_representation(row, twice_j)
            for op in (rep.parity, rep.time_reversal, rep.total_inversion):
                assert np.issubdtype(op.matrix.dtype, np.integer)
            report = verify_group_relations(rep)
            assert report.all_passed, report.to_dict()
            eps_r, eps_t = expected_signs(row, twice_j)
            assert rep.reversal_sign == eps_r
            assert rep.inversion_sign == eps_t
            by_name = {c.name: c for c in report.checks}
            assert by_name["time_reversal_squared"].observed == f"{eps_r} * I"
            assert by_name["total_inversion_squared"].observed == f"{eps_t} * I"
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 20
    assert elapsed < 1.0, f"suite took {elapsed:.3f}s"
    _report(1, f"20 family cases verified exactly in {elapsed * 1e3:.0f} ms")


def test_criterion_2_conjugation_matrix_consistency():
    start = time.perf_counter()
    for twice_j in TESTED_TWICE_J:
        c = time_reversal_matrix(twice_j)
        expected = (-1) ** twice_j * np.eye(twice_j + 1, dtype=np.int64)
        np.testing.assert_array_equal(c @ np.conj(c), expected)

    # The diagonal placement squares to +I for spin 1/2, contradicting the
    # required reversal sign -1; the package's anti-diagonal C reproduces it.
    r_diag = from_matrix(diagonal_reversal_matrix(1), True)
    diag_square = r_diag.compose(r_diag)
    np.testing.assert_array_equal(diag_square.matrix, np.eye(2, dtype=np.int64))
    required_sign, _ = expected_signs(1, 1)
    assert required_sign == -1
    assert not np.array_equal(diag_square.matrix,
                              required_sign * np.eye(2, dtype=np.int64))
    r_anti = from_matrix(time_reversal_matrix(1), True)
    np.testing.assert_array_equal(r_anti.compose(r_anti).matrix,
                                  required_sign * np.eye(2, dtype=np.int64))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "anti-diagonal squares to (-1)^(2j) I; diagonal variant fails spin 1/2")


def test_criterion_3_semigroup_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for key in ALL_STATE_KEYS:
        state = canonical_state(*key, POLE)
        branch = branch_for(state)
        sign = 1.0 if branch.domain.half.value == "t>=0" else -1.0

        for _ in range(1000):
            t1, t2 = sign * rng.uniform(0.0, 30.0, size=2)
            stepped = evolve(canonical_state(*key, POLE, amplitude=evolve(state, t1)), t2)
            assert abs(stepped - evolve(state, t1 + t2)) < 1e-12

        opposite = -sign * rng.uniform(1e-9, 50.0, size=250)
        for t in opposite:
            with pytest.raises(DomainViolationError):
                evolve(state, float(t))

        for t in sign * rng.uniform(0.0, 60.0, size=1000):
            expected = math.exp(branch.growth_sign * 0.5 * POLE.width * t)
            assert abs(abs(evolve(state, float(t))) - expected) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"suite took {elapsed:.3f}s"
    _report(3, f"8 branches x 1000 compositions, boundary and modulus laws in {elapsed:.2f} s")


def test_criterion_4_unitary_group_contrast():
    rng = np.random.default_rng(55)
    for dim in (2, 4, 8):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for t1, t2 in [(3.0, -1.5), (-2.0, -2.5), (0.7, 4.1)]:
            left = group_evolve(h, t1, group_evolve(h, t2, v))
            right = group_evolve(h, t1 + t2, v)
            assert np.max(np.abs(left - right)) < 1e-10
        for t in (-6.0, 0.9, 11.0):
            roundtrip = group_evolve(h, -t, group_evolve(h, t, v))
            assert np.max(np.abs(roundtrip - v)) < 1e-10
            assert abs(np.linalg.norm(group_evolve(h, t, v)) - np.linalg.norm(v)) < 1e-12

    # the semigroup branches do not share the group property: modulus moves
    for key in ALL_STATE_KEYS:
        state = canonical_state(*key, POLE)
        sign = 1.0 if branch_for(state).domain.half.value == "t>=0" else -1.0
        assert abs(abs(evolve(state, sign * 3.0)) - 1.0) > 0.1
    _report(4, "group composition, inverse and isometry hold for all signed times")


def test_criterion_5_golden_tables():
    derived_prep = derive_table(PREP).to_dict()
    derived_exc = derive_table(EXC).to_dict()
    assert json.dumps(derived_prep, sort_keys=True) == json.dumps(
        PREPARATION_REGISTRATION_TABLE, sort_keys=True)
    assert json.dumps(derived_exc, sort_keys=True) == json.dumps(
        EXCITATION_DEEXCITATION_TABLE, sort_keys=True)
    _report(5, "derived tables equal the transcribed fixtures byte-for-byte")


def test_criterion_6_involution_and_square_sign():
    for key in ALL_STATE_KEYS:
        state = canonical_state(*key, POLE, amplitude=0.8 + 0.2j)
        assert time_reverse(time_reverse(state)) == state
    for row in (2, 3, 4):
        for twice_j in TESTED_TWICE_J:
            rep = build_representation(row, twice_j)
            expected_sign, _ = expected_signs(row, twice_j)
            for key in ALL_STATE_KEYS:
                state = canonical_state(*key, POLE)
                restored, sign = time_reverse_twice(state, rep)
                assert restored == state
                assert sign == expected_sign
    _report(6, "double reversal restores all 8 descriptors with the family sign")


def test_criterion_7_conjugation_identity_checks():
    for row in (1, 2, 3, 4):
        for twice_j in TESTED_TWICE_J:  # includes spin up to j = 2
            report = check_conjugation_identities(
                build_representation(row, twice_j), POLE)
            entries = {e.name: e for e in report.entries}
            assert entries["angular_momentum_flip"].max_deviation < 1e-12
            assert entries["momentum_expectation_flip"].max_deviation < 1e-10
            assert entries["kinetic_energy_invariance"].max_deviation < 1e-10
            assert entries["s_matrix_unitarity"].max_deviation < 1e-12
            assert entries["s_matrix_reciprocity"].max_deviation < 1e-12
            assert report.all_passed
    _report(7, "angular momentum flip, grid parity checks and reciprocity hold")


def test_criterion_8_decay_law_and_lineshape():
    for arrow in (PREP, EXC):
        table = run_decay(Scenario(POLE, arrow, Kind.DECAYING, 0, 0.0, 20.0, 201))
        for t, survival, _, _ in table.rows:
            assert abs(survival - math.exp(-POLE.width * t)) < 1e-12

    peak = lorentzian_density(POLE, [POLE.energy])[0]
    assert abs(peak - 2.0 / (math.pi * POLE.width)) < 1e-12
    for offset in (+0.5 * POLE.width, -0.5 * POLE.width):
        half = lorentzian_density(POLE, [POLE.energy + offset])[0]
        assert abs(half - 0.5 * peak) < 1e-12
    _report(8, "survival equals exp(-Gamma t) pointwise; peak and HWHM exact")


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "gamowkit", *argv],
                          capture_output=True, text=True)


def test_criterion_9_cli_contract():
    proc = _cli("decay", "--er", "1", "--gamma", "0.2",
                "--tmin", "0", "--tmax", "10", "--steps", "11")
    assert proc.returncode == 0
    table = ResultTable.from_csv(proc.stdout)
    assert table.columns == ("t", "survival", "factor_real", "factor_imag")
    assert ResultTable.from_csv(table.to_csv()) == table
    assert table.rows[-1][1] == pytest.approx(math.exp(-2.0), abs=1e-12)

    proc = _cli("decay", "--steps", "5", "--format", "json")
    assert proc.returncode == 0
    json_table = ResultTable.from_json(proc.stdout)
    assert ResultTable.from_json(json_table.to_json()) == json_table

    proc = _cli("table", "--arrow", "prep")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == derive_table(PREP).to_dict()
    assert json.loads(json.dumps(payload)) == payload

    proc = _cli("rep-check", "--row", "3", "--twice-j", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert set(report) == {"row", "twice_j", "group_relations",
                           "conjugation_identities", "all_passed"}
    assert report["all_passed"] is True
    assert json.loads(json.dumps(report)) == report

    assert _cli("decay", "--gamma", "-1").returncode == 2
    assert _cli("decay", "--tmin", "-2", "--tmax", "2").returncode == 2
    assert _cli("unknown-command").returncode == 2
    _report(9, "decay/table/rep-check emit round-tripping CSV/JSON; exit codes hold")
