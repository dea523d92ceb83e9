import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gamowkit import (
    AntilinearOperator,
    Arrow,
    Kind,
    ResonancePole,
    build_representation,
    canonical_state,
    check_conjugation_identities,
    resonance_s_matrix,
    reversed_wavefunction,
    time_reversal_matrix,
    time_reverse_twice,
    verify_group_relations,
)
import gamowkit.grid
from gamowkit.symmetry import MAX_DENSE_DIM, MAX_TWICE_J, RepresentationTriple
from dense import apply, diagonal_reversal_matrix, from_matrix

# numpy < 2.0 names the trapezoidal rule trapz
trapezoid = getattr(np, "trapezoid", None) or np.trapz

TESTED_TWICE_J = (0, 1, 2, 3, 4)
ROWS = (1, 2, 3, 4)


def with_operators(rep, **operators):
    """The family ``rep`` with the named operators in place of its own."""
    return RepresentationTriple(**{**vars(rep), **operators})


def expected_signs(row, twice_j):
    base = (-1) ** twice_j
    eps_r = {1: base, 2: -base, 3: base, 4: -base}[row]
    eps_t = {1: base, 2: base, 3: -base, 4: -base}[row]
    return eps_r, eps_t


class TestTimeReversalMatrix:
    def test_spin_zero(self):
        np.testing.assert_array_equal(time_reversal_matrix(0), [[1]])

    def test_spin_half(self):
        c = time_reversal_matrix(1)
        np.testing.assert_array_equal(c, [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(c @ c, -np.eye(2, dtype=np.int64))

    def test_spin_one(self):
        c = time_reversal_matrix(2)
        np.testing.assert_array_equal(c, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
        np.testing.assert_array_equal(c @ c, np.eye(3, dtype=np.int64))

    def test_integer_dtype(self):
        assert time_reversal_matrix(3).dtype == np.int64

    @pytest.mark.parametrize("twice_j", range(7))
    def test_square_sign_antidiagonal(self, twice_j):
        c = time_reversal_matrix(twice_j)
        expected = (-1) ** twice_j * np.eye(twice_j + 1, dtype=np.int64)
        np.testing.assert_array_equal(c @ np.conj(c), expected)

    @pytest.mark.parametrize("twice_j", range(7))
    def test_diagonal_variant_always_squares_to_identity(self, twice_j):
        c = diagonal_reversal_matrix(twice_j)
        np.testing.assert_array_equal(c @ np.conj(c), np.eye(twice_j + 1, dtype=np.int64))

    def test_diagonal_variant_breaks_half_integer_sign(self):
        # With the diagonal variant, time reversal squares to +I for spin
        # 1/2, contradicting the required eps_R = -1; the anti-diagonal
        # variant reproduces the sign.  This documents why the package
        # places C on the anti-diagonal.
        r_diag = from_matrix(diagonal_reversal_matrix(1), True)
        squared = r_diag.compose(r_diag)
        np.testing.assert_array_equal(squared.matrix, np.eye(2, dtype=np.int64))
        eps_r, _ = expected_signs(1, 1)
        assert eps_r == -1  # +I != eps_R * I: the diagonal variant fails

        r_anti = from_matrix(time_reversal_matrix(1), True)
        np.testing.assert_array_equal(
            r_anti.compose(r_anti).matrix, -np.eye(2, dtype=np.int64))

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            time_reversal_matrix(-1)
        with pytest.raises(ValueError):
            time_reversal_matrix(1.5)


class TestSpinMatrices:
    def test_jz_diagonal(self):
        _, _, jz = spin_matrices(1)
        np.testing.assert_allclose(jz, np.diag([-0.5, 0.5]))

    def test_spin_half_is_half_pauli(self):
        jx, jy, jz = spin_matrices(1)
        np.testing.assert_allclose(jx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(jy, 0.5 * np.array([[0, 1j], [-1j, 0]]), atol=1e-15)

    def test_spin_zero_trivial(self):
        for m in spin_matrices(0):
            np.testing.assert_array_equal(m, [[0.0]])

    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_commutators(self, twice_j):
        jx, jy, jz = spin_matrices(twice_j)
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            commutator = a @ b - b @ a
            assert np.max(np.abs(commutator - 1j * c)) < 1e-12

    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_hermitian(self, twice_j):
        for m in spin_matrices(twice_j):
            assert np.max(np.abs(m - m.conj().T)) < 1e-15

    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_casimir(self, twice_j):
        j = twice_j / 2.0
        jx, jy, jz = spin_matrices(twice_j)
        total = jx @ jx + jy @ jy + jz @ jz
        np.testing.assert_allclose(total, j * (j + 1) * np.eye(twice_j + 1), atol=1e-12)


# 2x2 matrices that are no signed permutation, which from_matrix rejects.
MALFORMED = [
    [[0, 1], [0, 0]],        # a zero row
    [[1, 1], [-1, 0]],       # two nonzeros in a row
    [[0, 1], [0, -1]],       # one nonzero per row, repeated column
    [[0, 2], [-1, 0]],       # an entry beyond +/-1
    [[0, 1j], [-1j, 0]],     # a phase, not a sign
]


def signed_permutations(dim):
    """Signed columns s_i (p_i + 1) of a random dim x dim signed permutation."""
    return st.tuples(st.permutations(range(1, dim + 1)),
                     st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim)).map(
        lambda drawn: np.array(drawn[0]) * np.array(drawn[1]))


def operators(dim, conjugates=st.booleans()):
    return st.builds(AntilinearOperator, signed_permutations(dim), conjugates)


def complex_vectors(dim):
    parts = hnp.arrays(np.float64, (2, dim), elements=st.floats(-10, 10))
    return parts.map(lambda xy: xy[0] + 1j * xy[1])


def signed_permutation_matrix(perm, signs):
    matrix = np.zeros((len(perm), len(perm)), dtype=np.int64)
    matrix[np.arange(len(perm)), perm] = signs
    return matrix


class TestAntilinearOperator:
    def test_apply_conjugates(self):
        op = from_matrix(np.eye(2), True)
        np.testing.assert_array_equal(apply(op, [1.0 + 2.0j, -1.0j]), [1.0 - 2.0j, 1.0j])

    def test_apply_linear(self):
        op = from_matrix([[0, -1], [1, 0]], False)
        np.testing.assert_array_equal(apply(op, [1.0j, 1.0]), [-1.0, 1.0j])

    def test_apply_rejects_vector_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"^a vector of shape \(3,\) does not fit dimension 2$"):
            apply(from_matrix(np.eye(2), True), np.ones(3))

    def test_conjugation_flags_xor(self):
        anti = from_matrix(np.eye(2), True)
        unit = from_matrix(np.eye(2), False)
        assert not anti.compose(anti).conjugates
        assert anti.compose(unit).conjugates
        assert unit.compose(anti).conjugates
        assert not unit.compose(unit).conjugates

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 7))
    def test_compose_matches_sequential_application(self, data, dim):
        a, b = data.draw(operators(dim)), data.draw(operators(dim))
        v = data.draw(complex_vectors(dim))
        np.testing.assert_array_equal(apply(a.compose(b), v), apply(a, apply(b, v)))  # gathers: exact
        # and the gather is the dense product with the conjugated vector
        np.testing.assert_array_equal(apply(a, v), a.matrix @ (np.conj(v) if a.conjugates else v))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 6))
    def test_composition_associative(self, data, dim):
        a, b, c = (data.draw(operators(dim)) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.conjugates == right.conjugates == a.conjugates ^ b.conjugates ^ c.conjugates
        np.testing.assert_array_equal(left.columns, right.columns)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6),
           left_dtype=st.sampled_from([np.int8, np.int32, np.int64, np.float64, np.complex128]),
           right_dtype=st.sampled_from([np.int8, np.int32, np.int64]),
           left_conj=st.booleans(), right_conj=st.booleans())
    def test_integer_compose_equals_matmul(self, data, k, left_dtype, right_dtype,
                                           left_conj, right_conj):
        left, right = (signed_permutation_matrix(np.abs(c) - 1, np.sign(c))
                       for c in (data.draw(signed_permutations(k)) for _ in range(2)))
        a = from_matrix(left.astype(left_dtype), left_conj)
        b = from_matrix(right.astype(right_dtype), right_conj)
        np.testing.assert_array_equal(a.matrix, left)
        expected = left @ (np.conj(right) if left_conj else right)
        product = a.compose(b)
        assert product.matrix.dtype == np.int64
        np.testing.assert_array_equal(product.matrix, expected)
        assert product.conjugates == (left_conj ^ right_conj)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from(["one_per_row", "zero_row", "two_in_a_row",
                                 "zero_row_and_two_in_another"]),
           dtype=st.sampled_from([np.int8, np.int32, np.int64]),
           m=st.integers(1, 6), k=st.integers(2, 6))
    def test_from_matrix_accepts_only_signed_permutations(self, data, kind, dtype, m, k):
        if kind == "zero_row_and_two_in_another":  # as many nonzeros as rows
            m = max(m, 2)
        # repeated columns allowed, values beyond +/-1
        cols = data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
        values = data.draw(st.lists(st.integers(-100, 100).filter(bool), min_size=m, max_size=m))
        matrix = np.zeros((m, k), dtype=dtype)
        matrix[np.arange(m), cols] = values
        row = data.draw(st.integers(0, m - 1))
        if kind in ("zero_row", "zero_row_and_two_in_another"):
            matrix[row] = 0
        if kind in ("two_in_a_row", "zero_row_and_two_in_another"):
            other = row if kind == "two_in_a_row" else (row + 1) % m
            matrix[other, (cols[other] + 1) % k] = 7
        wide = np.abs(matrix.astype(np.int64))
        if m == k and (wide.sum(axis=0) == 1).all() and (wide.sum(axis=1) == 1).all():
            op = from_matrix(matrix, True)  # one_per_row may draw one
            np.testing.assert_array_equal(op.matrix, matrix)
        else:
            with pytest.raises(ValueError, match="signed permutation"):
                from_matrix(matrix, True)

    def test_integer_compose_shape_mismatch_raises(self):
        a = from_matrix(np.eye(2, dtype=np.int64), False)
        b = from_matrix(np.eye(3, dtype=np.int64), False)
        with pytest.raises(ValueError, match=r"^cannot compose dimensions 2 and 3$"):
            a.compose(b)
        with pytest.raises(ValueError, match=r"^cannot compose dimensions 3 and 2$"):
            b.compose(a)

    @pytest.mark.parametrize("conjugates", ["no", 1, None, np.bool_(True)])
    def test_conjugates_must_be_a_bool(self, conjugates):
        message = f"conjugates must be a bool, got {conjugates!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AntilinearOperator([1], conjugates)

    @pytest.mark.parametrize("columns, message", [
        ([[1, 2], [2, 1]], "columns must be signed integers, got list"),
        ([1.0, 2.0], "columns must be signed integers, got float"),
        (np.array([1, 2], dtype=np.uint8), "columns must be signed integers, got uint8"),
        ([True, True], "columns must be signed integers, got bool"),
        ([1, 0], "+-1, ..., +-2 once"),      # a 0
        ([2, -2], "+-1, ..., +-2 once"),     # a repeated column
        ([1, 3], "+-1, ..., +-2 once"),      # a column beyond d
        ([-1, -1, 2], "+-1, ..., +-3 once"),
        (5, "columns must be a sequence of signed integers, got 5"),  # no sequence at all
        (None, "columns must be a sequence of signed integers, got None"),
    ])
    def test_columns_must_be_a_signed_permutation(self, columns, message):
        with pytest.raises(ValueError) as excinfo:
            AntilinearOperator(columns, False)
        assert message in str(excinfo.value)

    def test_compose_goes_through_the_constructor(self):
        op = AntilinearOperator([-2, 1], True)
        square = op.compose(op)
        assert square.columns == (-1, -2) and not square.conjugates

    def test_columns_are_a_read_only_copy(self):
        columns = np.array([2, -1])
        op = AntilinearOperator(columns, False)
        columns[0] = 1  # the caller's array stays the caller's
        assert op.columns == (2, -1) and all(type(c) is int for c in op.columns)
        with pytest.raises(TypeError):
            op.columns[0] = 1
        with pytest.raises(AttributeError, match="^cannot assign to field 'matrix'$"):
            op.matrix = np.eye(2)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_antiunitarity_of_time_reversal(self, row, twice_j):
        rep = build_representation(row, twice_j)
        r_op = rep.time_reversal
        dim = rep.dim
        # antiunitary: it conjugates, and its real matrix is orthogonal, R R^T = I
        assert r_op.conjugates
        np.testing.assert_array_equal(r_op.matrix @ r_op.matrix.T, np.eye(dim, dtype=np.int64))
        rng = np.random.default_rng(row * 10 + twice_j)
        for _ in range(10):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            before = np.vdot(v, w)
            after = np.vdot(apply(r_op, v), apply(r_op, w))
            assert abs(after - np.conj(before)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 8))
    def test_antiunitarity_over_random_signed_permutations(self, data, dim):
        r_op = data.draw(operators(dim, st.just(True)))
        v, w = data.draw(complex_vectors(dim)), data.draw(complex_vectors(dim))
        after = np.vdot(apply(r_op, v), apply(r_op, w))
        scale = 1.0 + np.linalg.norm(v) * np.linalg.norm(w)  # the sum runs in another order
        assert abs(after - np.conj(np.vdot(v, w))) <= 1e-12 * scale


class TestBuildRepresentation:
    def test_row_one_spin_half_signs(self):
        rep = build_representation(1, 1)
        assert rep.reversal_sign == -1
        assert rep.inversion_sign == -1
        assert not rep.doubled
        assert rep.dim == 2

    def test_row_four_spin_zero_blocks(self):
        rep = build_representation(4, 0)
        np.testing.assert_array_equal(rep.parity.matrix, np.eye(2, dtype=np.int64))
        np.testing.assert_array_equal(rep.time_reversal.matrix, [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(rep.total_inversion.matrix, [[0, 1], [-1, 0]])
        assert rep.time_reversal.conjugates and rep.total_inversion.conjugates
        assert not rep.parity.conjugates
        assert rep.reversal_sign == -1 and rep.inversion_sign == -1

    @pytest.mark.parametrize("row, sigma, r_mat, t_mat", [  # row 4: the test above
        (2, [[1, 0], [0, -1]], [[0, 1], [-1, 0]], [[0, 1], [1, 0]]),
        (3, [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]),
    ])
    def test_doubled_spin_zero_blocks(self, row, sigma, r_mat, t_mat):
        rep = build_representation(row, 0)
        np.testing.assert_array_equal(rep.parity.matrix, sigma)
        np.testing.assert_array_equal(rep.time_reversal.matrix, r_mat)
        np.testing.assert_array_equal(rep.total_inversion.matrix, t_mat)

    @settings(max_examples=60, deadline=None)
    @given(row=st.sampled_from(ROWS), twice_j=st.integers(0, 40))
    def test_families_are_signed_permutations(self, row, twice_j):
        rep = build_representation(row, twice_j)
        for op in (rep.parity, rep.time_reversal, rep.total_inversion):
            m = op.matrix
            assert m.dtype == np.int64 and m.shape == (rep.dim, rep.dim)
            assert set(np.unique(m)) <= {-1, 0, 1}
            assert (np.abs(m).sum(axis=0) == 1).all() and (np.abs(m).sum(axis=1) == 1).all()
        assert verify_group_relations(rep).all_passed
        assert (rep.reversal_sign, rep.inversion_sign) == expected_signs(row, twice_j)

    @pytest.mark.parametrize("row", [np.int64(4), np.int8(2)])
    def test_numpy_integer_row_stored_as_int(self, row):
        rep = build_representation(row, np.int64(3))
        assert type(rep.row) is int and type(rep.twice_j) is int
        data = json.loads(json.dumps(verify_group_relations(rep).to_dict()))
        assert data["row"] == row and data["all_passed"]
        assert json.dumps(check_conjugation_identities(rep).to_dict())

    @pytest.mark.parametrize("row", [0, 5, -1, True, 1.0])
    def test_invalid_row(self, row):
        with pytest.raises(ValueError, match=rf"^row must be one of \(1, 2, 3, 4\), got {row}$"):
            build_representation(row, 1)

    @pytest.mark.parametrize("twice_j", [True, False, np.bool_(True)])
    def test_bool_twice_j_rejected(self, twice_j):
        with pytest.raises(ValueError, match="twice_j"):
            build_representation(1, twice_j)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_signs_match_formulas(self, row, twice_j):
        rep = build_representation(row, twice_j)
        eps_r, eps_t = expected_signs(row, twice_j)
        assert rep.reversal_sign == eps_r
        assert rep.inversion_sign == eps_t

    @pytest.mark.parametrize("row", ROWS)
    def test_doubling_and_dimension(self, row):
        rep = build_representation(row, 2)
        assert rep.doubled == (row != 1)
        assert rep.dim == (3 if row == 1 else 6)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_integral_matrices(self, row, twice_j):
        rep = build_representation(row, twice_j)
        for op in (rep.parity, rep.time_reversal, rep.total_inversion):
            assert op.matrix.dtype == np.int64


class TestGroupRelations:
    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_all_relations_hold(self, row, twice_j):
        report = verify_group_relations(build_representation(row, twice_j))
        assert report.all_passed, report.to_dict()

    def test_row_one_integer_spin(self):
        report = verify_group_relations(build_representation(1, 2))
        by_name = {c.name: c for c in report.checks}
        assert by_name["time_reversal_squared"].observed == "1 * I"
        assert by_name["total_inversion_squared"].observed == "1 * I"

    def test_row_two_spin_half_square(self):
        # eps_R = -(-1)^(2j) = +1 for spin 1/2
        report = verify_group_relations(build_representation(2, 1))
        by_name = {c.name: c for c in report.checks}
        assert by_name["time_reversal_squared"].observed == "1 * I"
        assert by_name["time_reversal_squared"].passed

    def test_row_four_inversion_factorizes(self):
        report = verify_group_relations(build_representation(4, 1))
        by_name = {c.name: c for c in report.checks}
        assert by_name["total_inversion_is_parity_then_reversal"].passed

    def test_total_inversion_differing_only_in_conjugation_is_different(self):
        rep = build_representation(4, 1)
        t = AntilinearOperator(rep.total_inversion.columns, not rep.total_inversion.conjugates)
        report = verify_group_relations(with_operators(rep, total_inversion=t))
        check = next(c for c in report.checks if c.name == "total_inversion_is_parity_then_reversal")
        assert (check.passed, check.observed) == (False, "different")

    @pytest.mark.parametrize("row,sign", [(1, 1), (2, -1), (3, -1), (4, 1)])
    def test_commutation_sign_recorded(self, row, sign):
        for twice_j in TESTED_TWICE_J:
            report = verify_group_relations(build_representation(row, twice_j))
            assert report.commutation_sign == sign

    def test_report_serializes(self):
        data = verify_group_relations(build_representation(3, 1)).to_dict()
        assert data["all_passed"] is True
        assert {c["name"] for c in data["checks"]} == {
            "parity_squared", "time_reversal_squared", "total_inversion_squared",
            "total_inversion_is_parity_then_reversal",
            "parity_reversal_commute_up_to_sign",
        }


class TestConjugationIdentities:
    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", TESTED_TWICE_J)
    def test_all_identities_pass(self, row, twice_j):
        report = check_conjugation_identities(build_representation(row, twice_j))
        assert report.all_passed, report.to_dict()

    def test_angular_momentum_flip_tight(self):
        report = check_conjugation_identities(build_representation(1, 1))
        flip = next(e for e in report.entries if e.name == "angular_momentum_flip")
        assert flip.max_deviation < 1e-12

    def test_momentum_flip_against_quadrature_oracle(self):
        # independent oracle: trapezoidal quadrature of the same packet
        p = np.linspace(-10.0, 10.0, 201)
        psi = np.exp(-((p - 2.0) ** 2) / 2.0).astype(complex)
        density = np.abs(psi) ** 2
        expectation_before = trapezoid(p * density, p) / trapezoid(density, p)
        psi_rev = reversed_wavefunction(psi)
        density_rev = np.abs(psi_rev) ** 2
        expectation_after = trapezoid(p * density_rev, p) / trapezoid(density_rev, p)
        assert expectation_before == pytest.approx(2.0, abs=1e-6)
        assert abs(expectation_after + expectation_before) < 1e-10

        report = check_conjugation_identities(build_representation(1, 0))
        flip = next(e for e in report.entries if e.name == "momentum_expectation_flip")
        assert flip.passed and flip.max_deviation < 1e-10

    def test_kinetic_energy_invariance(self):
        report = check_conjugation_identities(build_representation(1, 0))
        entry = next(e for e in report.entries if e.name == "kinetic_energy_invariance")
        assert entry.passed and entry.max_deviation < 1e-10

    def test_reciprocity_checks(self):
        pole = ResonancePole(1.0, 0.2)
        report = check_conjugation_identities(build_representation(1, 0), pole)
        names = {e.name: e for e in report.entries}
        assert names["s_matrix_unitarity"].max_deviation < 1e-12
        assert names["s_matrix_reciprocity"].max_deviation < 1e-12
        # spot value at the resonance energy
        assert resonance_s_matrix(pole, [1.0])[0] == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("twice_j", [0, 63, 255, 511, MAX_TWICE_J])
    def test_exact_up_to_the_cap(self, row, twice_j):
        rep = build_representation(row, twice_j)
        assert verify_group_relations(rep).all_passed
        report = check_conjugation_identities(rep)
        assert report.all_passed, report.to_dict()
        flip = next(e for e in report.entries if e.name == "angular_momentum_flip")
        assert flip.max_deviation == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), row=st.sampled_from(ROWS), keep_family_r=st.booleans())
    def test_banded_flip_matches_dense_gather(self, data, row, keep_family_r):
        twice_j = data.draw(st.integers(0, 11 if row == 1 else 5))  # dimension 1 to 12
        rep = build_representation(row, twice_j)
        if not keep_family_r:
            perm = data.draw(st.permutations(range(rep.dim)))
            signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=rep.dim, max_size=rep.dim))
            rep = with_operators(rep, time_reversal=from_matrix(
                signed_permutation_matrix(perm, signs), data.draw(st.booleans(), label="conjugates")))
        flip = check_conjugation_identities(rep).entries[0]
        assert flip.name == "angular_momentum_flip"
        assert flip.max_deviation == dense_flip_deviation(rep)  # bit for bit

    @pytest.mark.parametrize("row, twice_j", [(1, 0), (1, 1), (1, 2), (1, 3), (4, 0), (4, 1)])
    def test_banded_flip_matches_dense_gather_for_every_small_r(self, row, twice_j):
        # most signed permutations give the same deviation for a wrong sign
        # or a wrong direction of the permutation; a few in dimension 3 and 4 do not
        rep = build_representation(row, twice_j)
        for perm in itertools.permutations(range(rep.dim)):
            for signs in itertools.product((-1, 1), repeat=rep.dim):
                matrix = signed_permutation_matrix(perm, signs)
                for conjugates in (False, True):
                    replaced = with_operators(rep, time_reversal=from_matrix(matrix, conjugates))
                    flip = check_conjugation_identities(replaced).entries[0]
                    assert flip.max_deviation == dense_flip_deviation(replaced)

    @pytest.mark.parametrize("build, cap, message", [
        (time_reversal_matrix, 1023, "twice_j must be at most 1023 for a matrix, got 1024"),
        (lambda twice_j: build_representation(1, twice_j).parity.matrix, 1023,
         "an operator's matrix has dimension at most 1024, got 1025"),
        (lambda twice_j: build_representation(4, twice_j).time_reversal.matrix, 511,
         "an operator's matrix has dimension at most 1024, got 1026"),
    ], ids=["time_reversal_matrix", "row_1_parity", "row_4_time_reversal"])
    def test_dense_matrices_capped(self, build, cap, message):
        assert MAX_DENSE_DIM == 1024
        build(cap)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(cap + 1)

    def test_family_operators_hold_signed_columns(self):
        rep = build_representation(4, MAX_TWICE_J)
        assert repr(rep.time_reversal).startswith("AntilinearOperator(columns=(131072, -131071, ")
        assert "matrix" not in vars(rep.time_reversal)  # no dense matrix until one is read
        small = build_representation(4, 1).time_reversal
        assert small.matrix is small.matrix  # built once, on the first read
        assert not small.matrix.flags.writeable  # it must stay the matrix of the columns
        assert repr(small) == "AntilinearOperator(columns=(4, -3, -2, 1), conjugates=True)"
        assert repr(from_matrix(small.matrix, True)) == repr(small)

    def test_long_operator_reprs_are_summarized(self):
        rep = build_representation(4, MAX_TWICE_J)
        assert repr(rep.time_reversal) == (
            "AntilinearOperator(columns=(131072, -131071, 131070, ..., 3, -2, 1), conjugates=True)")
        assert len(repr(rep)) < 400
        assert repr(build_representation(1, 999).parity).count(", ") == 1000  # 1000 columns in full
        assert repr(build_representation(1, 1000).parity) == (
            "AntilinearOperator(columns=(1, 2, 3, ..., 999, 1000, 1001), conjugates=False)")

    def test_time_reversal_returns_a_matrix_of_its_own(self):
        c = time_reversal_matrix(1)
        c[0, 1] = 5
        np.testing.assert_array_equal(time_reversal_matrix(1), [[0, 1], [-1, 0]])

    @pytest.mark.parametrize("r_mat", MALFORMED)
    def test_time_reversal_must_be_signed_permutation(self, r_mat):
        with pytest.raises(ValueError, match="signed permutation"):
            from_matrix(np.array(r_mat), True)

    def test_time_reversal_of_another_dimension_rejected(self):
        r_op = from_matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], True)
        rep = with_operators(build_representation(1, 1), time_reversal=r_op)
        with pytest.raises(ValueError, match="^time_reversal must be a 2x2 signed permutation matrix$"):
            check_conjugation_identities(rep)

    def test_wrong_signed_permutation_reported_not_raised(self):
        r_op = from_matrix(np.eye(2, dtype=np.int64), True)
        rep = with_operators(build_representation(1, 1), time_reversal=r_op)
        flip = check_conjugation_identities(rep).entries[0]
        assert flip.name == "angular_momentum_flip"
        assert not flip.passed and flip.max_deviation == 1.0

    @pytest.mark.parametrize("width, message", [
        (1e307, "energy window E_R +- 25*Gamma must be finite, got -inf"),  # a bound overflows
        (7e306, "energy window span must be finite, got inf"),  # finite bounds, span overflows
    ])
    def test_overflowing_energy_window_rejected(self, width, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy sees the window
            with pytest.raises(ValueError) as excinfo:
                check_conjugation_identities(build_representation(1, 0), ResonancePole(1.0, width))
        assert str(excinfo.value) == message


@pytest.mark.parametrize("psi, message", [
    ("ab", "an entry of psi must be a complex number, got 'b'"),
    ([1.0, "a"], "an entry of psi must be a complex number, got 'a'"),
    ([1.0, True], "an entry of psi must be a complex number, got True"),
    ([float("nan"), 1.0], "an entry of psi must be finite, got (nan+0j)"),
    (np.array([1.0, np.inf]), "an entry of psi must be finite, got (inf+0j)"),
    ([complex(0.0, -np.inf)], "an entry of psi must be finite, got -infj"),
    ([10**400], "an entry of psi must be finite, got int beyond the double range"),
], ids=["str", "str-entry", "bool", "nan", "inf-array", "inf-imag", "huge-int"])
def test_wavefunction_must_hold_finite_numbers(psi, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reversed_wavefunction(psi)


@pytest.mark.parametrize("psi", [5, (x for x in [1.0]), {1.0}], ids=["number", "generator", "set"])
def test_wavefunction_must_be_a_sequence(psi):
    message = f"psi must be a sequence of numbers, got {psi!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reversed_wavefunction(psi)


@pytest.mark.parametrize("row, twice_j", [(4, 7), (1, 0), (2, 63)])
def test_conjugation_report_does_not_depend_on_the_block_size(monkeypatch, row, twice_j):
    # the momentum grid of 201 points spans several blocks of 7
    rep = build_representation(row, twice_j)
    report = check_conjugation_identities(rep).to_dict()
    monkeypatch.setattr(gamowkit.grid, "_BLOCK_ROWS", 7)
    assert check_conjugation_identities(rep).to_dict() == report
    assert report["all_passed"] is True
    flip = next(e for e in report["entries"] if e["name"] == "momentum_expectation_flip")
    assert flip["max_deviation"] < 1e-14


@pytest.mark.parametrize("call", [
    verify_group_relations,
    check_conjugation_identities,
    lambda rep: time_reverse_twice(canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.DECAYING,
                                                   0, ResonancePole(1.0, 0.2)), rep),
], ids=["relations", "conjugation", "time_reverse_twice"])
@pytest.mark.parametrize("rep", ["x", None, 4], ids=["str", "none", "int"])
def test_rep_must_be_a_representation_triple(call, rep):
    message = f"rep must be a RepresentationTriple, got {rep!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(rep)


EMPTY = AntilinearOperator((), True)


@pytest.mark.parametrize("call", [
    verify_group_relations,
    check_conjugation_identities,
    lambda rep: time_reverse_twice(canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.DECAYING,
                                                   0, ResonancePole(1.0, 0.2)), rep),
], ids=["relations", "conjugation", "time_reverse_twice"])
@pytest.mark.parametrize("fields, message", [
    ({"twice_j": -1, "parity": EMPTY, "time_reversal": EMPTY, "total_inversion": EMPTY},
     "twice_j must be a nonnegative integer, got -1"),
    ({"twice_j": "x"}, "twice_j must be a nonnegative integer, got 'x'"),
    ({"twice_j": 0.0}, "twice_j must be a nonnegative integer, got 0.0"),
    ({"row": 5}, "row must be one of (1, 2, 3, 4), got 5"),
    ({"reversal_sign": "x"}, "reversal_sign must be +1 or -1, got 'x'"),
    ({"inversion_sign": 2}, "inversion_sign must be +1 or -1, got 2"),
], ids=["negative-twice-j", "str-twice-j", "float-twice-j", "row", "str-sign", "sign-two"])
def test_hand_built_fields_checked_before_they_are_read(call, fields, message):
    rep = RepresentationTriple(**{**vars(build_representation(1, 0)), **fields})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(rep)


@pytest.mark.parametrize("call, fields", [
    (verify_group_relations, {"row": np.int64(2), "twice_j": np.int64(3)}),
    (check_conjugation_identities, {"row": np.int64(2), "twice_j": np.int64(3)}),
    (verify_group_relations, {"reversal_sign": np.int64(build_representation(2, 3).reversal_sign)}),
], ids=["relations-numpy-row-and-twice-j", "conjugation-numpy-row-and-twice-j",
        "relations-numpy-sign"])
def test_hand_built_numpy_ints_report_as_python_ints(call, fields):
    rep = build_representation(2, 3)
    report = call(RepresentationTriple(**{**vars(rep), **fields})).to_dict()
    assert json.dumps(report) == json.dumps(call(rep).to_dict())


def spin_matrices(twice_j):
    """Dense (J_x, J_y, J_z) for spin j = twice_j / 2, by the ladder construction in
    the ascending m basis: J_z = diag(-j, ..., +j), <m+1|J_+|m> = sqrt(j(j+1) - m(m+1))."""
    j = twice_j / 2.0
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), k=-1).astype(complex)
    jminus = jplus.conj().T
    return 0.5 * (jplus + jminus), -0.5j * (jplus - jminus), np.diag(m).astype(complex)


def dense_flip_deviation(rep):
    """The angular_momentum_flip deviation, computed with dense spin matrices
    and an np.ix_ gather: (R conj(J) R^-1)[a, b] = s_a s_b conj(J)[p_a, p_b]."""
    r = rep.time_reversal.matrix
    rows, perm = np.nonzero(r)
    sign_outer = np.outer(r[rows, perm], r[rows, perm])
    sheets = np.eye(2 if rep.doubled else 1)
    dev = 0.0
    for j_i in (np.kron(sheets, m) for m in spin_matrices(rep.twice_j)):
        mapped = np.conj(j_i) if rep.time_reversal.conjugates else j_i
        dev = max(dev, float(np.max(np.abs(sign_outer * mapped[np.ix_(perm, perm)] + j_i))))
    return dev


OPERATORS = ("parity", "time_reversal", "total_inversion")



def dense_product(a, b):
    """A o B as (A conj(B) if A conjugates else A B, XOR of the flags), from dense matrices."""
    return a.matrix @ (np.conj(b.matrix) if a.conjugates else b.matrix), a.conjugates ^ b.conjugates


def dense_relation_report(rep):
    """The report of verify_group_relations, computed with dense products."""
    eye = np.eye(rep.dim, dtype=np.int64)
    checks = []
    for name, op, sign in (("parity_squared", rep.parity, 1),
                           ("time_reversal_squared", rep.time_reversal, rep.reversal_sign),
                           ("total_inversion_squared", rep.total_inversion, rep.inversion_sign)):
        square, conjugates = dense_product(op, op)
        s = next((s for s in (1, -1) if np.array_equal(square, s * eye)), None)
        checks.append({"name": name, "passed": s == sign and not conjugates,
                       "expected": f"{sign:+d} * I", "observed": f"{s} * I"})
    sigma_r, conjugates = dense_product(rep.parity, rep.time_reversal)
    same = (np.array_equal(sigma_r, rep.total_inversion.matrix)
            and conjugates == rep.total_inversion.conjugates)
    checks.append({"name": "total_inversion_is_parity_then_reversal", "passed": same,
                   "expected": "T == Sigma o R", "observed": "equal" if same else "different"})
    r_sigma, _ = dense_product(rep.time_reversal, rep.parity)
    comm = next((c for c in (1, -1) if np.array_equal(sigma_r, c * r_sigma)), None)
    checks.append({"name": "parity_reversal_commute_up_to_sign", "passed": comm is not None,
                   "expected": "Sigma o R == +/- R o Sigma", "observed": f"sign {comm}"})
    return {"row": rep.row, "twice_j": rep.twice_j, "checks": checks,
            "commutation_sign": comm, "all_passed": all(c["passed"] for c in checks)}


class TestSignedPermutationRelations:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), row=st.sampled_from(ROWS))
    def test_matches_dense_products(self, data, row):
        twice_j = data.draw(st.integers(0, 11 if row == 1 else 5))  # dimension 1 to 12
        rep = build_representation(row, twice_j)
        replaced = {}
        for name in OPERATORS:
            if data.draw(st.booleans(), label=f"replace {name}"):
                perm = data.draw(st.permutations(range(rep.dim)))
                signs = data.draw(st.lists(st.sampled_from([-1, 1]),
                                           min_size=rep.dim, max_size=rep.dim))
                replaced[name] = from_matrix(
                    signed_permutation_matrix(perm, signs), data.draw(st.booleans()))
        rep = with_operators(rep, **replaced)
        assert verify_group_relations(rep).to_dict() == dense_relation_report(rep)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_operator_of_another_dimension_rejected(self, name):
        rep = build_representation(4, 0)
        operator = from_matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], True)
        rep = with_operators(rep, **{name: operator})
        message = f"^{name} must be a 2x2 signed permutation matrix$"
        with pytest.raises(ValueError, match=message):
            verify_group_relations(rep)
        if name == "time_reversal":
            state = canonical_state(Arrow.PREPARATION_REGISTRATION, Kind.DECAYING, 0,
                                    ResonancePole(1.0, 0.2))
            with pytest.raises(ValueError, match=message):
                time_reverse_twice(state, rep)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_operator_must_be_an_antilinear_operator(self, name):
        rep = with_operators(build_representation(4, 0), **{name: np.eye(2, dtype=np.int64)})
        message = f"^{name} must be an AntilinearOperator, got ndarray$"
        with pytest.raises(ValueError, match=message):
            verify_group_relations(rep)
        if name == "time_reversal":
            with pytest.raises(ValueError, match=message):
                check_conjugation_identities(rep)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_family_operator_of_another_dimension_rejected(self, name):
        # read as signed columns, never as a dense matrix (above the dense cap here)
        rep = build_representation(4, 1000)
        other = getattr(build_representation(1, 1000), name)
        rep = with_operators(rep, **{name: other})
        with pytest.raises(ValueError, match=f"^{name} must be a 2002x2002 signed permutation matrix$"):
            verify_group_relations(rep)
