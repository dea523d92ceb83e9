"""Signed-permutation operators and the four symmetry families built from them.

Every Sigma, R and T is a signed permutation, one +-1 in each row and each
column (Wigner's co-representations), held by :class:`AntilinearOperator`
as its rows' signed columns, a tuple of ints; ``relations`` and ``symmetry``
check the families.  2j goes up to ``MAX_TWICE_J`` = 65535; an operator's matrix,
``time_reversal_matrix`` included, stops at dimension ``MAX_DENSE_DIM`` = 1024.
"""

from __future__ import annotations

import functools

from .core import ROWS, Record, is_integer, np

# Relative signs (eps_R, eps_T) / (-1)^(2j) of each family (Wigner, Group
# Theory, ch. 26); every Sigma, R and T below is derived from them.
_FAMILY_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}
# Largest accepted 2j.  The checks' tuples and lists grow as O(d): row 4 at
# 2j = 65535 (d = 131072) runs in well under a second and about 50 MiB.
MAX_TWICE_J = 65535
# Largest dimension of an operator's matrix, time_reversal_matrix's included:
# a doubled family's at 2j = 511, 8 MiB of int64.
MAX_DENSE_DIM = 1024


def _check_twice_j(twice_j: int) -> int:
    if not is_integer(twice_j) or twice_j < 0:
        raise ValueError(f"twice_j must be a nonnegative integer, got {twice_j!r}")
    if twice_j > MAX_TWICE_J:
        raise ValueError(f"twice_j must be at most {MAX_TWICE_J}, got {twice_j}")
    return int(twice_j)


def _check_row(row: int) -> int:
    if not is_integer(row) or row not in ROWS:
        raise ValueError(f"row must be one of {ROWS}, got {row!r}")
    return int(row)


def _reversal_columns(twice_j: int) -> tuple[int, ...]:
    """The signed columns (see :class:`AntilinearOperator`) of C: (-1)^(j+mu)
    at column -mu of row mu."""
    d = twice_j + 1  # (j + mu) is the ascending index k
    return tuple((d - k) * (-1) ** k for k in range(d))


def time_reversal_matrix(twice_j: int) -> np.ndarray:
    """Single-sheet time-reversal matrix C for spin j = twice_j / 2.

    Rows and columns are indexed by the magnetic quantum number mu running
    from -j to +j in ascending order.  The nonzero entries sit on the
    anti-diagonal, C[mu, -mu] = (-1)^(j+mu), which is the convention
    consistent with the sign formulas of the four symmetry families: it
    gives C conj(C) = (-1)^(2j) I, hence R^2 = -I for half-integer spin.

    Returns an integer matrix of shape (2j+1, 2j+1), for 2j + 1 up to
    ``MAX_DENSE_DIM``.
    """
    twice_j = _check_twice_j(twice_j)
    if twice_j >= MAX_DENSE_DIM:  # checked before a matrix of twice_j + 1 rows is built
        raise ValueError(f"twice_j must be at most {MAX_DENSE_DIM - 1} for a matrix, got {twice_j}")
    return AntilinearOperator(_reversal_columns(twice_j), True).matrix.copy()


class AntilinearOperator(Record):
    """A signed permutation, with or without a complex conjugation.

    Row i holds its one nonzero s_i = +-1 in column p_i: ``columns[i] =
    s_i (p_i + 1)``, a tuple of ints, and anything but a signed permutation
    of 1..d raises ValueError.  The signs being real, ``compose`` gives A B's
    columns sign(a) * b[|a| - 1] and the XOR of the flags, an O(d) gather.
    ``matrix`` is built on its first read, up to dimension ``MAX_DENSE_DIM``;
    only it loads numpy.
    """

    columns: tuple[int, ...]
    conjugates: bool

    def __post_init__(self) -> None:
        if type(self.conjugates) is not bool:
            raise ValueError(f"conjugates must be a bool, got {self.conjugates!r}")
        if not hasattr(self.columns, "__iter__"):
            raise ValueError(f"columns must be a sequence of signed integers, got {self.columns!r}")
        columns = tuple(self.columns)  # a copy no caller can write to
        if set(map(type, columns)) - {int}:  # numpy integers, or no integers at all
            for c in columns:  # an unsigned numpy integer holds no sign (and numpy is loaded)
                if type(c) is not int and (not is_integer(c) or isinstance(c, np.unsignedinteger)):
                    raise ValueError(f"columns must be signed integers, got {type(c).__name__}")
            columns = tuple(map(int, columns))
        d = len(columns)
        if sorted(map(abs, columns)) != list(range(1, d + 1)):
            raise ValueError(f"columns must hold each of +-1, ..., +-{d} once: a signed permutation")
        object.__setattr__(self, "columns", columns)

    def __repr__(self) -> str:  # numpy's summary above 1000 columns: the first and last three
        c = self.columns
        shown = repr(c) if len(c) <= 1000 else f"({', '.join(map(str, c[:3] + ('...',) + c[-3:]))})"
        return f"AntilinearOperator(columns={shown}, conjugates={self.conjugates})"

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        d = len(self.columns)
        if d > MAX_DENSE_DIM:
            raise ValueError(f"an operator's matrix has dimension at most {MAX_DENSE_DIM}, got {d}")
        columns = np.array(self.columns, dtype=np.int64)
        matrix = np.zeros((d, d), dtype=np.int64)
        matrix[np.arange(d), np.abs(columns) - 1] = np.sign(columns)
        matrix.flags.writeable = False
        return matrix

    def compose(self, other: "AntilinearOperator") -> "AntilinearOperator":
        a, b = self.columns, other.columns
        if len(a) != len(b):
            raise ValueError(f"cannot compose dimensions {len(a)} and {len(b)}")
        return AntilinearOperator(tuple(b[c - 1] if c > 0 else -b[-c - 1] for c in a),
                                  self.conjugates ^ other.conjugates)


class RepresentationTriple(Record):
    """The (parity, time reversal, total inversion) operators of one family.

    ``row`` is the family index 1..4.  Family 1 acts on the bare spin space;
    families 2-4 act on the doubled space with the r = 0 block first.
    ``reversal_sign`` and ``inversion_sign`` are the expected squares
    eps_R and eps_T.
    """

    row: int
    twice_j: int
    parity: AntilinearOperator
    time_reversal: AntilinearOperator
    total_inversion: AntilinearOperator
    reversal_sign: int
    inversion_sign: int

    @property
    def doubled(self) -> bool:
        return self.row != 1

    @property
    def dim(self) -> int:
        return (self.twice_j + 1) * (2 if self.doubled else 1)


def build_representation(row: int, twice_j: int) -> RepresentationTriple:
    """Construct the family ``row`` (1..4) at spin j = twice_j / 2.

    With (s_R, s_T) the family's signs relative to (-1)^(2j): family 1
    (s_R = s_T = +1) needs no doubling and has Sigma = I, R = T = C
    (conjugating).  Families 2-4 double the space and place C in
    off-diagonal blocks, R = [[0, C], [s_R C, 0]], T = [[0, C], [s_T C, 0]]
    and Sigma = diag(I, s_R s_T I), so that R^2 = eps_R I, T^2 = eps_T I and
    T = Sigma R with eps_R = s_R (-1)^(2j), eps_T = s_T (-1)^(2j).  Each
    operator is built as its signed columns, in O(d).
    """
    twice_j = _check_twice_j(twice_j)
    row = _check_row(row)
    s_r, s_t = _FAMILY_SIGNS[row]
    c = _reversal_columns(twice_j)
    d = twice_j + 1
    if row == 1:
        sigma, r_cols, t_cols = range(1, d + 1), c, c
    else:
        sigma = (*range(1, d + 1), *(s_r * s_t * k for k in range(d + 1, 2 * d + 1)))
        upper = tuple(x + d if x > 0 else x - d for x in c)  # C in the second block column
        r_cols, t_cols = ((*upper, *(s * x for x in c)) for s in (s_r, s_t))
    base_sign = (-1) ** twice_j
    return RepresentationTriple(
        row=row, twice_j=twice_j,
        parity=AntilinearOperator(sigma, False),
        time_reversal=AntilinearOperator(r_cols, True),
        total_inversion=AntilinearOperator(t_cols, True),
        reversal_sign=s_r * base_sign, inversion_sign=s_t * base_sign,
    )
