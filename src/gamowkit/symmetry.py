"""Spin matrices, antilinear operator algebra, and the four symmetry families.

The extended spacetime symmetry group adds a parity inversion ``Sigma``
(unitary), a time reversal ``R`` (antiunitary) and a total inversion
``T = Sigma R`` (antiunitary) to the usual representations.  Consistency of
the group multiplication only fixes ``R^2 = eps_R I`` and ``T^2 = eps_T I``
up to signs, and exactly four sign families exist for each spin j.  The
first family acts on the bare (2j+1)-dimensional spin space; the other
three double it, with a two-valued index r = 0, 1 labelling the sheets.

Every Sigma, R and T is a signed permutation, one +-1 in each row and each
column (Wigner's co-representations).  The checks read each matrix once as
its rows' signed columns; a product of two such operators is then an O(d)
integer gather, and no dense product is formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .core import DEFAULT_POLE, ResonancePole, energy_window, is_integer, np, resonance_s_matrix

ROWS = (1, 2, 3, 4)
# Relative signs (eps_R, eps_T) / (-1)^(2j) of each family (Wigner, Group
# Theory, ch. 26); every Sigma, R and T below is derived from them.
_FAMILY_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}
# Largest accepted 2j: the dense d x d complex spin matrices of the
# conjugation check bound the size.  The relation checks read each dense
# operator once and then multiply with O(d) gathers.
MAX_TWICE_J = 511
# Point counts of the conjugation check's grids; the momentum count is odd,
# so the symmetric grid holds p = 0 and p -> -p is an exact index reversal.
_MOMENTUM_POINTS = 201
_ENERGY_POINTS = 1000


def _check_twice_j(twice_j: int) -> int:
    if not is_integer(twice_j) or twice_j < 0:
        raise ValueError(f"twice_j must be a nonnegative integer, got {twice_j!r}")
    if twice_j > MAX_TWICE_J:
        raise ValueError(f"twice_j must be at most {MAX_TWICE_J}, got {twice_j}")
    return int(twice_j)


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

    Returns an integer matrix of shape (2j+1, 2j+1).
    """
    twice_j = _check_twice_j(twice_j)
    d = twice_j + 1
    c = np.zeros((d, d), dtype=np.int64)
    # (j + mu) equals the ascending row index, so the signs alternate from +1.
    signs = (-1) ** np.arange(d, dtype=np.int64)
    if diagonal:
        c[np.arange(d), np.arange(d)] = signs
    else:
        c[np.arange(d), d - 1 - np.arange(d)] = signs
    return c


def spin_matrices(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular momentum matrices (J_x, J_y, J_z) for spin j = twice_j / 2.

    Built from the standard ladder construction in the ascending m basis:
    J_z = diag(-j, ..., +j) and <m+1|J_+|m> = sqrt(j(j+1) - m(m+1)).  The
    three matrices are Hermitian and satisfy [J_x, J_y] = i J_z cyclically.
    """
    twice_j = _check_twice_j(twice_j)
    j = twice_j / 2.0
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    d = twice_j + 1
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((d, d), dtype=complex)
    jplus[np.arange(1, d), np.arange(d - 1)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return jx, jy, jz


@dataclass(frozen=True, eq=False)
class AntilinearOperator:
    """A matrix together with an optional complex conjugation.

    ``apply(v)`` is ``matrix @ conj(v)`` when ``conjugates`` is set and
    ``matrix @ v`` otherwise.  Composition tracks the conjugation through
    the left factor: (A o B).matrix = A.matrix @ conj(B.matrix) if A
    conjugates, and the conjugation flags combine by XOR.
    """

    matrix: np.ndarray
    conjugates: bool

    def apply(self, vector) -> np.ndarray:
        v = np.asarray(vector)
        return self.matrix @ (np.conj(v) if self.conjugates else v)

    def compose(self, other: "AntilinearOperator") -> "AntilinearOperator":
        right = np.conj(other.matrix) if self.conjugates else other.matrix
        return AntilinearOperator(self.matrix @ right, self.conjugates ^ other.conjugates)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_unitary(self) -> bool:
        m = np.asarray(self.matrix, dtype=complex)
        return bool(np.max(np.abs(m @ m.conj().T - np.eye(self.dim))) <= 1e-12)

    def is_antiunitary(self) -> bool:
        return self.conjugates and self.is_unitary()


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
    T = Sigma R with eps_R = s_R (-1)^(2j), eps_T = s_T (-1)^(2j).
    """
    twice_j = _check_twice_j(twice_j)
    if not is_integer(row) or row not in ROWS:
        raise ValueError(f"row must be one of {ROWS}, got {row!r}")
    s_r, s_t = _FAMILY_SIGNS[row]
    c = time_reversal_matrix(twice_j)
    eye = np.eye(twice_j + 1, dtype=np.int64)
    if row == 1:
        sigma, r_mat, t_mat = eye, c, c
    else:
        sigma = np.kron(np.diag([1, s_r * s_t]), eye)
        r_mat = np.kron([[0, 1], [s_r, 0]], c)
        t_mat = np.kron([[0, 1], [s_t, 0]], c)
    base_sign = (-1) ** twice_j
    return RepresentationTriple(
        row=row, twice_j=twice_j,
        parity=AntilinearOperator(sigma, False),
        time_reversal=AntilinearOperator(r_mat, True),
        total_inversion=AntilinearOperator(t_mat, True),
        reversal_sign=s_r * base_sign, inversion_sign=s_t * base_sign,
    )


def _signed_columns(name: str, op: AntilinearOperator, dim: int) -> np.ndarray:
    """Each row's signed, 1-based column a[i] = s_i (p_i + 1) of an operator
    whose matrix is a dim x dim signed permutation, A[i, p_i] = s_i.

    A product is then a gather, (A B)'s columns are sign(a) * b[|a| - 1],
    conjugation leaves the real signs alone, and s I is a == s (1, ..., dim).
    Any other matrix raises ValueError naming the operator.
    """
    m = op.matrix
    if m.shape == (dim, dim):
        rows, cols = np.nonzero(m)
        signs = m[rows, cols]
        if (np.array_equal(rows, np.arange(dim)) and np.isin(signs, (-1, 1)).all()
                and (np.bincount(cols, minlength=dim) == 1).all()):
            return signs.real.astype(np.int64) * (cols + 1)
    raise ValueError(f"{name} must be a {dim}x{dim} signed permutation matrix")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The signed columns of A B, from those of A and of B."""
    return np.sign(a) * b[np.abs(a) - 1]


def _square_scalar(a: np.ndarray) -> int | None:
    """The s with A^2 = s I, or None if the square is no multiple of I."""
    square = _product(a, a)
    s = int(np.sign(square[0]))
    return s if np.array_equal(square, s * np.arange(1, len(a) + 1)) else None


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
    rather than asserted).  Each operator is read once as a signed
    permutation, and every product is an exact O(d) integer gather.

    Raises ValueError, naming the operator, if Sigma, R or T is not a d x d
    signed permutation matrix.  A relation that fails between signed
    permutations becomes a report entry, not an exception.
    """
    sigma, r, t = (_signed_columns(name, getattr(rep, name), rep.dim)
                   for name in ("parity", "time_reversal", "total_inversion"))
    checks = []
    for name, a, sign in (("parity_squared", sigma, 1),
                          ("time_reversal_squared", r, rep.reversal_sign),
                          ("total_inversion_squared", t, rep.inversion_sign)):
        s = _square_scalar(a)
        checks.append(RelationCheck(name, s == sign, f"{sign:+d} * I", f"{s} * I"))

    sigma_r = _product(sigma, r)
    conjugates = rep.parity.conjugates ^ rep.time_reversal.conjugates
    same = np.array_equal(sigma_r, t) and conjugates == rep.total_inversion.conjugates
    checks.append(RelationCheck(
        "total_inversion_is_parity_then_reversal", same,
        "T == Sigma o R", "equal" if same else "different"))

    r_sigma = _product(r, sigma)
    if np.array_equal(sigma_r, r_sigma):
        comm_sign = 1
    elif np.array_equal(sigma_r, -r_sigma):
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


def check_conjugation_identities(rep: RepresentationTriple,
                                 pole: ResonancePole = DEFAULT_POLE) -> ConjugationReport:
    """Numerically check the conjugation identities of time reversal.

    Three groups of checks, reported with their maximal deviations:

    * angular momentum flips sign, R J_i R^-1 = -J_i, with the spin
      matrices embedded block-diagonally when the family is doubled
      (tolerance 1e-12).  R must be a signed permutation, R[i, p_i] = s_i,
      so R^-1 = R^T and R conj(J) R^-1 = s s^T * conj(J)[p][:, p], a gather;
      any other time reversal raises ValueError;
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
    entries = []

    r = _signed_columns("time_reversal", rep.time_reversal, rep.dim)
    perm, sign_outer = np.abs(r) - 1, np.outer(np.sign(r), np.sign(r))
    dev = 0.0
    sheets = np.eye(2 if rep.doubled else 1)
    for j_i in (np.kron(sheets, m) for m in spin_matrices(rep.twice_j)):
        mapped = np.conj(j_i) if rep.time_reversal.conjugates else j_i
        conjugated = sign_outer * mapped[np.ix_(perm, perm)]
        dev = max(dev, float(np.max(np.abs(conjugated + j_i))))
    entries.append(IdentityCheck("angular_momentum_flip", dev <= 1e-12, dev, 1e-12))

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
