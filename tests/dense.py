"""Dense references for the signed-permutation operators of gamowkit.symmetry.

The package holds each operator as its signed columns and only builds its
``.matrix``; the tests compare that form with these numpy ones: an operator
read back from a dense matrix, an operator applied to a vector, and the
time-reversal matrix with its entries on the diagonal.
"""

import numpy as np

from gamowkit.symmetry import AntilinearOperator


def from_matrix(matrix, conjugates):
    """The operator of a square signed-permutation matrix, M[i, p_i] = s_i."""
    m = np.asarray(matrix)
    if m.ndim == 2 and m.shape[0] == m.shape[1]:
        rows, cols = np.nonzero(m)
        signs = m[rows, cols]
        if np.array_equal(rows, np.arange(len(m))) and np.isin(signs, (-1, 1)).all():
            return AntilinearOperator((signs.real.astype(np.int64) * (cols + 1)).tolist(), conjugates)
    raise ValueError(f"matrix of shape {m.shape} is not a square signed permutation matrix")


def apply(op, vector):
    """A v: s_i (conj v)[p_i] for an antilinear A, s_i v[p_i] for a linear one."""
    v, columns = np.asarray(vector), np.array(op.columns, dtype=np.int64)
    if v.shape != columns.shape:
        raise ValueError(f"a vector of shape {v.shape} does not fit dimension {len(columns)}")
    return np.sign(columns) * (np.conj(v) if op.conjugates else v)[np.abs(columns) - 1]


def diagonal_reversal_matrix(twice_j):
    """C with its entries (-1)^(j+mu) at C[mu, mu] instead of C[mu, -mu].

    The counter-example to the package's anti-diagonal C: it squares to +I
    for every j, so it cannot give R^2 = -I for half-integer spin.
    """
    return np.diag([(-1) ** k for k in range(twice_j + 1)]).astype(np.int64)
