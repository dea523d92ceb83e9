"""Spin matrices, antilinear operator algebra, and the four symmetry families.

The extended spacetime symmetry group adds a parity inversion ``Sigma``
(unitary), a time reversal ``R`` (antiunitary) and a total inversion
``T = Sigma R`` (antiunitary) to the usual representations.  Consistency of
the group multiplication only fixes ``R^2 = eps_R I`` and ``T^2 = eps_T I``
up to signs, and exactly four sign families exist for each spin j.  The
first family acts on the bare (2j+1)-dimensional spin space; the other
three double it, with a two-valued index r = 0, 1 labelling the sheets.

Every Sigma, R and T is a signed permutation, one +-1 in each row and each
column (Wigner's co-representations), held by :class:`AntilinearOperator`
as its rows' signed columns.  The checks hold each spin matrix J_i as its
bands, so every product is an O(d) gather and no d x d matrix is formed.
2j goes up to ``MAX_TWICE_J`` = 65535; dense matrices stop at 2j =
``MAX_DENSE_TWICE_J`` = 511, and an operator's at ``MAX_DENSE_DIM`` = 1024.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

from .core import DEFAULT_POLE, ResonancePole, energy_window, is_integer, np, resonance_s_matrix

ROWS = (1, 2, 3, 4)
# Relative signs (eps_R, eps_T) / (-1)^(2j) of each family (Wigner, Group
# Theory, ch. 26); every Sigma, R and T below is derived from them.
_FAMILY_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}
# Largest accepted 2j.  The checks' arrays grow as O(d): row 4 at 2j = 65535
# (d = 131072) runs in well under a second and about 100 MiB.
MAX_TWICE_J = 65535
# Largest 2j of time_reversal_matrix and spin_matrices, and largest dimension of an
# operator's matrix: a doubled family's at 2j = 511, 8 MiB of int64.
MAX_DENSE_TWICE_J = 511
MAX_DENSE_DIM = 2 * (MAX_DENSE_TWICE_J + 1)
# Point counts of the conjugation check's grids; the momentum count is odd,
# so the symmetric grid holds p = 0 and p -> -p is an exact index reversal.
_MOMENTUM_POINTS = 201
_ENERGY_POINTS = 1000


def _check_twice_j(twice_j: int, cap: int = MAX_TWICE_J) -> int:
    if not is_integer(twice_j) or twice_j < 0:
        raise ValueError(f"twice_j must be a nonnegative integer, got {twice_j!r}")
    if twice_j > cap:
        dense = "" if cap == MAX_TWICE_J else " for a dense matrix"
        raise ValueError(f"twice_j must be at most {cap}{dense}, got {twice_j}")
    return int(twice_j)


def _reversal_columns(twice_j: int, diagonal: bool = False) -> np.ndarray:
    """The signed columns (see :class:`AntilinearOperator`) of C: (-1)^(j+mu)
    at column -mu of row mu, or at column mu when ``diagonal``."""
    k = np.arange(twice_j + 1, dtype=np.int64)  # (j + mu) is the ascending index
    return (-1) ** k * ((k + 1) if diagonal else (twice_j + 1 - k))


def time_reversal_matrix(twice_j: int, diagonal: bool = False) -> np.ndarray:
    """Single-sheet time-reversal matrix C for spin j = twice_j / 2.

    Rows and columns are indexed by the magnetic quantum number mu running
    from -j to +j in ascending order.  By default the nonzero entries sit on
    the anti-diagonal, C[mu, -mu] = (-1)^(j+mu), which is the convention
    consistent with the sign formulas of the four symmetry families: it
    gives C conj(C) = (-1)^(2j) I, hence R^2 = -I for half-integer spin.
    ``diagonal=True`` keeps the entries at C[mu, mu] instead; that variant
    squares to +I for every j and is retained only to demonstrate its
    inconsistency with the half-integer sign requirement.

    Returns an integer matrix of shape (2j+1, 2j+1), for 2j up to
    ``MAX_DENSE_TWICE_J``.
    """
    columns = _reversal_columns(_check_twice_j(twice_j, MAX_DENSE_TWICE_J), diagonal)
    return AntilinearOperator(columns, True).matrix.copy()


def _ladder(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -j, ..., +j ascending, and <m+1|J_+|m> = sqrt(j(j+1) - m(m+1))
    for each m but the last."""
    j = twice_j / 2.0
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    return m, np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))


def spin_matrices(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (J_x, J_y, J_z) for spin j = twice_j / 2.

    Built from the standard ladder construction in the ascending m basis:
    J_z = diag(-j, ..., +j) and <m+1|J_+|m> = sqrt(j(j+1) - m(m+1)).  The
    three matrices are Hermitian and satisfy [J_x, J_y] = i J_z cyclically.
    Dense, so 2j is at most ``MAX_DENSE_TWICE_J``.
    """
    twice_j = _check_twice_j(twice_j, MAX_DENSE_TWICE_J)
    m, ladder = _ladder(twice_j)
    d = twice_j + 1
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((d, d), dtype=complex)
    jplus[np.arange(1, d), np.arange(d - 1)] = ladder
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return jx, jy, jz


@dataclass(frozen=True, eq=False)
class AntilinearOperator:
    """A signed permutation, with or without a complex conjugation.

    Row i holds its one nonzero s_i = +-1 in column p_i: ``columns[i] =
    s_i (p_i + 1)``, and anything but a signed permutation of 1..d raises
    ValueError.  ``apply(v)`` is s_i (conj v)[p_i] and, the signs being real,
    ``compose`` gives A B's columns sign(a) * b[|a| - 1] and the XOR of the
    flags; both are O(d) gathers.  ``matrix`` is built on its first read, up
    to dimension ``MAX_DENSE_DIM``, and :meth:`from_matrix` reads one back.
    """

    columns: np.ndarray
    conjugates: bool

    def __post_init__(self) -> None:
        columns = np.array(self.columns)  # a copy no caller can write to
        if columns.ndim != 1 or columns.dtype.kind != "i":
            raise ValueError(f"columns must be a 1-D signed integer array, "
                             f"got {columns.ndim}-D {columns.dtype}")
        d = len(columns)  # a 0 or a |column| beyond d leaves one of 1..d without a count of 1
        if (np.bincount(np.abs(columns), minlength=d + 1)[1:] != 1).any():
            raise ValueError(f"columns must hold each of +-1, ..., +-{d} once: a signed permutation")
        object.__setattr__(self, "columns", columns.astype(np.int64, copy=False))
        self.columns.flags.writeable = False

    @classmethod
    def from_matrix(cls, matrix, conjugates: bool) -> "AntilinearOperator":
        """The operator of a square signed-permutation matrix, M[i, p_i] = s_i."""
        m = np.asarray(matrix)
        if m.ndim == 2 and m.shape[0] == m.shape[1]:
            rows, cols = np.nonzero(m)
            signs = m[rows, cols]
            if np.array_equal(rows, np.arange(len(m))) and np.isin(signs, (-1, 1)).all():
                return cls(signs.real.astype(np.int64) * (cols + 1), conjugates)
        raise ValueError(f"matrix of shape {m.shape} is not a square signed permutation matrix")

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        d = len(self.columns)
        if d > MAX_DENSE_DIM:
            raise ValueError(f"an operator's matrix has dimension at most {MAX_DENSE_DIM}, got {d}")
        matrix = np.zeros((d, d), dtype=np.int64)
        matrix[np.arange(d), np.abs(self.columns) - 1] = np.sign(self.columns)
        matrix.flags.writeable = False
        return matrix

    def apply(self, vector) -> np.ndarray:
        v = np.asarray(vector)
        if v.shape != self.columns.shape:
            raise ValueError(f"a vector of shape {v.shape} does not fit dimension {len(self.columns)}")
        return np.sign(self.columns) * (np.conj(v) if self.conjugates else v)[np.abs(self.columns) - 1]

    def compose(self, other: "AntilinearOperator") -> "AntilinearOperator":
        a, b = self.columns, other.columns
        if len(a) != len(b):
            raise ValueError(f"cannot compose dimensions {len(a)} and {len(b)}")
        return AntilinearOperator(np.sign(a) * b[np.abs(a) - 1], self.conjugates ^ other.conjugates)


@dataclass(frozen=True, eq=False)
class RepresentationTriple:
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
    if not is_integer(row) or row not in ROWS:
        raise ValueError(f"row must be one of {ROWS}, got {row!r}")
    s_r, s_t = _FAMILY_SIGNS[row]
    c = _reversal_columns(twice_j)
    d = twice_j + 1
    if row == 1:
        sigma, r_cols, t_cols = np.arange(1, d + 1, dtype=np.int64), c, c
    else:
        sigma = np.arange(1, 2 * d + 1, dtype=np.int64)
        sigma[d:] *= s_r * s_t
        upper = c + np.sign(c) * d  # C in the second block column
        r_cols, t_cols = (np.concatenate([upper, s * c]) for s in (s_r, s_t))
    base_sign = (-1) ** twice_j
    return RepresentationTriple(
        row=int(row), twice_j=twice_j,
        parity=AntilinearOperator(sigma, False),
        time_reversal=AntilinearOperator(r_cols, True),
        total_inversion=AntilinearOperator(t_cols, True),
        reversal_sign=s_r * base_sign, inversion_sign=s_t * base_sign,
    )


def _operator(rep: RepresentationTriple, name: str) -> AntilinearOperator:
    """``rep``'s operator ``name``, after a check that it acts on rep.dim dimensions."""
    op = getattr(rep, name)
    if len(op.columns) != rep.dim:
        raise ValueError(f"{name} must be a {rep.dim}x{rep.dim} signed permutation matrix")
    return op


def _square_scalar(op: AntilinearOperator) -> int | None:
    """The s with A^2 = s I, or None if the square is no multiple of I."""
    square = op.compose(op).columns
    s = int(np.sign(square[0]))
    return s if np.array_equal(square, s * np.arange(1, len(square) + 1)) else None


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    expected: str
    observed: str


@dataclass(frozen=True)
class RelationReport:
    """Outcome of the exact group-relation checks for one family."""

    row: int
    twice_j: int
    checks: tuple[RelationCheck, ...]
    commutation_sign: int | None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "twice_j": self.twice_j,
            "checks": [asdict(c) for c in self.checks],
            "commutation_sign": self.commutation_sign,
            "all_passed": self.all_passed,
        }


def verify_group_relations(rep: RepresentationTriple) -> RelationReport:
    """Check the defining relations of a family with exact integer arithmetic.

    Verifies Sigma^2 = I, R^2 = eps_R I, T^2 = eps_T I and T = Sigma R, and
    records the sign s in Sigma R = s R Sigma (the relative order of parity
    and time reversal is physically immaterial, so the sign is reported
    rather than asserted).  Every product is an exact O(d) integer gather,
    :meth:`AntilinearOperator.compose`.

    Raises ValueError, naming the operator, if Sigma, R or T does not act on
    the family's d dimensions.  A relation that fails between signed
    permutations becomes a report entry, not an exception.
    """
    sigma, r, t = (_operator(rep, name) for name in ("parity", "time_reversal", "total_inversion"))
    checks = []
    for name, a, sign in (("parity_squared", sigma, 1),
                          ("time_reversal_squared", r, rep.reversal_sign),
                          ("total_inversion_squared", t, rep.inversion_sign)):
        s = _square_scalar(a)
        checks.append(RelationCheck(name, s == sign, f"{sign:+d} * I", f"{s} * I"))

    sigma_r = sigma.compose(r)
    same = np.array_equal(sigma_r.columns, t.columns) and sigma_r.conjugates == t.conjugates
    checks.append(RelationCheck(
        "total_inversion_is_parity_then_reversal", same,
        "T == Sigma o R", "equal" if same else "different"))

    r_sigma = r.compose(sigma)
    if np.array_equal(sigma_r.columns, r_sigma.columns):
        comm_sign = 1
    elif np.array_equal(sigma_r.columns, -r_sigma.columns):
        comm_sign = -1
    else:
        comm_sign = None
    checks.append(RelationCheck(
        "parity_reversal_commute_up_to_sign", comm_sign is not None,
        "Sigma o R == +/- R o Sigma", f"sign {comm_sign}"))

    return RelationReport(rep.row, rep.twice_j, tuple(checks), comm_sign)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float


@dataclass(frozen=True)
class ConjugationReport:
    row: int
    twice_j: int
    entries: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "row": self.row,
            "twice_j": self.twice_j,
            "entries": [asdict(e) for e in self.entries],
            "all_passed": self.all_passed,
        }


def reversed_wavefunction(psi) -> np.ndarray:
    """Time-reversal action on a wavefunction sampled on a grid symmetric
    about zero: psi(p) -> conj(psi(-p)), an exact index reversal."""
    return np.conj(np.asarray(psi)[::-1])


def _grid_expectation(weights, psi) -> float:
    """Riemann-sum expectation of a multiplication operator on a uniform
    grid; the grid spacing cancels in the normalized ratio."""
    density = np.abs(np.asarray(psi)) ** 2
    return float(np.sum(np.asarray(weights) * density) / np.sum(density))


def _angular_momentum_flip(r: AntilinearOperator, twice_j: int, sheets: int) -> float:
    """max |R J_i R^-1 + J_i| over i = x, y, z: each nonzero J_i[x, y] = v
    moves to (a, b) = (p^-1 x, p^-1 y) as s_a s_b conj(v) and meets at most
    one entry of J_i there, so each sum is the dense one's, bit for bit."""
    m, ladder = _ladder(_check_twice_j(twice_j))
    d, k, half = twice_j + 1, np.arange(twice_j), 0.5 * ladder
    perm, sign = np.abs(r.columns) - 1, np.sign(r.columns)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    dim, dev = sheets * d, 0.0
    bands = (np.concatenate([k + 1, k]), np.concatenate([k, k + 1]))  # below, above the diagonal
    for rows, cols, vals in ((*bands, np.concatenate([half, half])),              # J_x
                             (*bands, np.concatenate([-1j * half, 1j * half])),  # J_y
                             (np.arange(d), np.arange(d), m)):                   # J_z
        # the entries of J_i embedded block-diagonally over the sheets
        rows, cols = (np.concatenate([x + sheet * d for sheet in range(sheets)]) for x in (rows, cols))
        vals = np.tile(vals, sheets)
        a, b = inverse[rows], inverse[cols]
        mapped = sign[a] * sign[b] * (np.conj(vals) if r.conjugates else vals)
        keys = np.concatenate([a * dim + b, rows * dim + cols])
        order = np.argsort(keys, kind="stable")  # R J R^-1's term first, as in the dense sum
        keys, terms = keys[order], np.concatenate([mapped, vals])[order]
        sums = np.add.reduceat(terms, np.flatnonzero(np.diff(keys, prepend=-1)))
        dev = max(dev, float(np.max(np.abs(sums), initial=0.0)))
    return dev


def check_conjugation_identities(rep: RepresentationTriple,
                                 pole: ResonancePole = DEFAULT_POLE) -> ConjugationReport:
    """Numerically check the conjugation identities of time reversal.

    Three groups of checks, reported with their maximal deviations:

    * angular momentum flips sign, R J_i R^-1 = -J_i, with the spin
      matrices embedded block-diagonally when the family is doubled
      (tolerance 1e-12).  R must be a signed permutation, R[i, p_i] = s_i,
      so R^-1 = R^T and (R conj(J) R^-1)[a, b] = s_a s_b conj(J)[p_a, p_b].
      J_z is diagonal and J_x, J_y have one band on each side of it, so each
      of their O(d) nonzeros is moved to its new place and added to J_i's
      entry there, with no d x d matrix; a time reversal of another
      dimension raises ValueError;
    * on a symmetric grid of 201 momenta over [-10, 10], with a unit-width
      Gaussian packet centred at p = 2, R: psi(p) -> conj(psi(-p)) flips
      the expectation of the momentum multiplication operator and leaves
      the kinetic energy p^2/2m (m = 1) invariant (tolerance 1e-10);
    * the rank-one resonance S-matrix of ``pole`` (default E_R = 1.0,
      Gamma = 0.2) satisfies |S| = 1 and conj(S) = S^-1, the reciprocity
      relation, on 1000 energies over E_R +- 25 Gamma (tolerance 1e-12);
      a window whose bounds or span overflow a double raises ValueError.
    """
    e_min, e_max = energy_window(pole)
    dev = _angular_momentum_flip(_operator(rep, "time_reversal"), rep.twice_j, 2 if rep.doubled else 1)
    entries = [IdentityCheck("angular_momentum_flip", dev <= 1e-12, dev, 1e-12)]

    p = np.linspace(-10.0, 10.0, _MOMENTUM_POINTS)
    psi = np.exp(-((p - 2.0) ** 2) / 2.0).astype(complex)
    psi_rev = reversed_wavefunction(psi)
    p_before = _grid_expectation(p, psi)
    p_after = _grid_expectation(p, psi_rev)
    dev = abs(p_after + p_before)
    entries.append(IdentityCheck("momentum_expectation_flip", dev <= 1e-10, dev, 1e-10))

    kinetic = 0.5 * p**2
    k_before = _grid_expectation(kinetic, psi)
    k_after = _grid_expectation(kinetic, psi_rev)
    dev = abs(k_after - k_before)
    entries.append(IdentityCheck("kinetic_energy_invariance", dev <= 1e-10, dev, 1e-10))

    s = resonance_s_matrix(pole, np.linspace(e_min, e_max, _ENERGY_POINTS))
    dev = float(np.max(np.abs(np.abs(s) - 1.0)))
    entries.append(IdentityCheck("s_matrix_unitarity", dev <= 1e-12, dev, 1e-12))
    dev = float(np.max(np.abs(np.conj(s) - 1.0 / s)))
    entries.append(IdentityCheck("s_matrix_reciprocity", dev <= 1e-12, dev, 1e-12))

    return ConjugationReport(rep.row, rep.twice_j, tuple(entries))
