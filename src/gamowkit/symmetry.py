"""Antilinear operator algebra and the four symmetry families.

The extended spacetime symmetry group adds a parity inversion ``Sigma``
(unitary), a time reversal ``R`` (antiunitary) and a total inversion
``T = Sigma R`` (antiunitary) to the usual representations.  Consistency of
the group multiplication only fixes ``R^2 = eps_R I`` and ``T^2 = eps_T I``
up to signs, and exactly four sign families exist for each spin j.  The
first family acts on the bare (2j+1)-dimensional spin space; the other
three double it, with a two-valued index r = 0, 1 labelling the sheets.

Every Sigma, R and T is a signed permutation, one +-1 in each row and each
column (Wigner's co-representations), held by :class:`AntilinearOperator`
as its rows' signed columns, a tuple of ints.  The checks hold each spin
matrix J_i as its bands, so every product is an O(d) integer gather, and
their grids are Python floats: checking a family never loads numpy.  2j goes
up to ``MAX_TWICE_J`` = 65535; an operator's matrix, ``time_reversal_matrix``
included, stops at dimension ``MAX_DENSE_DIM`` = 1024.
"""

from __future__ import annotations

import functools
import math
import operator

from .core import (DEFAULT_POLE, ROWS, Record, ResonancePole, energy_window, is_integer, np,
                   require_complex, resonance_s_matrix)
from .grid import linspace_points

__all__ = ["AntilinearOperator", "build_representation", "check_conjugation_identities",
           "reversed_wavefunction", "time_reversal_matrix", "verify_group_relations"]

# Relative signs (eps_R, eps_T) / (-1)^(2j) of each family (Wigner, Group
# Theory, ch. 26); every Sigma, R and T below is derived from them.
_FAMILY_SIGNS = {1: (1, 1), 2: (-1, 1), 3: (1, -1), 4: (-1, -1)}
# Largest accepted 2j.  The checks' tuples and lists grow as O(d): row 4 at
# 2j = 65535 (d = 131072) runs in well under a second and about 50 MiB.
MAX_TWICE_J = 65535
# Largest dimension of an operator's matrix, time_reversal_matrix's included:
# a doubled family's at 2j = 511, 8 MiB of int64.
MAX_DENSE_DIM = 1024
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


def _checked(rep: RepresentationTriple, *names: str) -> tuple:
    """``rep``'s row, twice_j and two signs as ints, then its operators ``names``, all checked."""
    if not isinstance(rep, RepresentationTriple):
        raise ValueError(f"rep must be a RepresentationTriple, got {rep!r}")
    fields = [_check_row(rep.row), _check_twice_j(rep.twice_j)]
    for field in ("reversal_sign", "inversion_sign"):
        sign = getattr(rep, field)
        if not is_integer(sign) or sign not in (1, -1):
            raise ValueError(f"{field} must be +1 or -1, got {sign!r}")
        fields.append(int(sign))
    for name in names:
        op = getattr(rep, name)
        if not isinstance(op, AntilinearOperator):
            raise ValueError(f"{name} must be an AntilinearOperator, got {type(op).__name__}")
        if len(op.columns) != rep.dim:
            raise ValueError(f"{name} must be a {rep.dim}x{rep.dim} signed permutation matrix")
        fields.append(op)
    return tuple(fields)


def _scalar(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """The s with A = s B, for A and B as their signed columns, or None if there is none."""
    return 1 if a == b else -1 if a == tuple(-c for c in b) else None


def _square_scalar(op: AntilinearOperator) -> int | None:
    """The s with A^2 = s I, or None if the square is no multiple of I."""
    return _scalar(op.compose(op).columns, tuple(range(1, len(op.columns) + 1)))


class RelationCheck(Record):
    name: str
    passed: bool
    expected: str
    observed: str


class RelationReport(Record):
    """Outcome of the exact group-relation checks for one family."""

    row: int
    twice_j: int
    checks: tuple[RelationCheck, ...]
    commutation_sign: int | None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        checks = [dict(vars(check)) for check in self.checks]  # each one's vars: its fields
        return {**vars(self), "checks": checks, "all_passed": self.all_passed}


def verify_group_relations(rep: RepresentationTriple) -> RelationReport:
    """Check the defining relations of a family with exact integer arithmetic.

    Verifies Sigma^2 = I, R^2 = eps_R I, T^2 = eps_T I and T = Sigma R, and
    records the sign s in Sigma R = s R Sigma (the relative order of parity
    and time reversal is physically immaterial, so the sign is reported
    rather than asserted).  Every product is an exact O(d) integer gather,
    :meth:`AntilinearOperator.compose`.

    Raises ValueError, naming the field, if a field of rep is out of range or
    Sigma, R or T is no AntilinearOperator on the family's d dimensions.  A
    relation that fails between them becomes a report entry, not an exception.
    """
    row, twice_j, eps_r, eps_t, sigma, r, t = _checked(rep, "parity", "time_reversal",
                                                       "total_inversion")
    checks = []
    for name, a, sign in (("parity_squared", sigma, 1),
                          ("time_reversal_squared", r, eps_r),
                          ("total_inversion_squared", t, eps_t)):
        s = _square_scalar(a)
        checks.append(RelationCheck(name, s == sign, f"{sign:+d} * I", f"{s} * I"))

    sigma_r = sigma.compose(r)
    same = sigma_r == t
    checks.append(RelationCheck(
        "total_inversion_is_parity_then_reversal", same,
        "T == Sigma o R", "equal" if same else "different"))

    comm_sign = _scalar(sigma_r.columns, r.compose(sigma).columns)
    checks.append(RelationCheck(
        "parity_reversal_commute_up_to_sign", comm_sign is not None,
        "Sigma o R == +/- R o Sigma", f"sign {comm_sign}"))

    return RelationReport(row, twice_j, tuple(checks), comm_sign)


class IdentityCheck(Record):
    name: str
    passed: bool
    max_deviation: float
    tolerance: float


class ConjugationReport(Record):
    row: int
    twice_j: int
    entries: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        entries = [dict(vars(entry)) for entry in self.entries]  # each one's vars: its fields
        return {**vars(self), "entries": entries, "all_passed": self.all_passed}


def reversed_wavefunction(psi) -> list[complex]:
    """Time-reversal action on a wavefunction sampled on a grid symmetric
    about zero: psi(p) -> conj(psi(-p)), an exact index reversal; psi holds finite numbers."""
    try:
        entries = reversed(psi)
    except TypeError:  # a number, a generator, a set
        raise ValueError(f"psi must be a sequence of numbers, got {psi!r}") from None
    return [require_complex("an entry of psi", z).conjugate() for z in entries]


def _grid_expectation(weights, psi) -> float:
    """Riemann-sum expectation of a multiplication operator on a uniform
    grid; the grid spacing cancels in the normalized ratio.  Summed with
    math.fsum, correctly rounded on every Python."""
    density = [abs(z) * abs(z) for z in psi]
    return math.fsum(map(operator.mul, weights, density)) / math.fsum(density)


def _angular_momentum_flip(r: AntilinearOperator, twice_j: int) -> float:
    """max |R J_i R^-1 + J_i| over i = x, y, z, bit for bit the dense sum, where
    (R conj(J) R^-1)[a, b] = s_a s_b conj(J)[p_a, p_b] and J_i is block-diagonal
    over the sheets.  J_z is diagonal, and R maps the diagonal onto itself.  J_x
    and J_y hold h_k at (k, k+1) and (k+1, k), times 1 and 1, or i and -i: they
    are Hermitian, so one pass over the upper band suffices.  It adds each
    entry's partner J(p_a, p_b), a band entry or 0, and takes |J| of each entry
    whose image leaves the band."""
    d = twice_j + 1
    j = twice_j / 2.0
    m = [(2 * k - twice_j) / 2.0 for k in range(d)]  # m = -j, ..., +j
    # half of <m+1|J_+|m> = sqrt(j(j+1) - m(m+1)), for each m but the last
    half = [0.5 * math.sqrt(j * (j + 1) - x * (x + 1)) for x in m[:-1]]
    columns = r.columns
    perm = [abs(c) - 1 for c in columns]
    dev = max(abs(m[p % d] + m[a % d]) for a, p in enumerate(perm))  # J_z
    y_sign = -1 if r.conjugates else 1  # conj(i h) = -i h
    inverse = [0] * len(perm)
    for a, p in enumerate(perm):
        inverse[p] = a
    for base in range(0, len(perm), d):  # J_x and J_y at (a, a+1) = (base + k, base + k + 1)
        for h, pa, pb, ca, cb, ia, ib in zip(half, perm[base:], perm[base + 1:], columns[base:],
                                             columns[base + 1:], inverse[base:], inverse[base + 1:]):
            if pb == pa + 1 and pb % d:  # J_x = h', J_y = i h' at (pa, pb)
                x = y = half[pa % d]
            elif pa == pb + 1 and pa % d:  # J_x = h', J_y = -i h'
                x, y = half[pb % d], -half[pb % d]
            else:
                x = y = 0.0
            sign = 1 if (ca > 0) == (cb > 0) else -1
            dev = max(dev, abs(sign * x + h), abs(sign * y_sign * y + h))
            if abs(ia - ib) != 1 or max(ia, ib) % d == 0:  # (a, a+1) moves out of the band
                dev = max(dev, h)
    return dev


def check_conjugation_identities(rep: RepresentationTriple,
                                 pole: ResonancePole = DEFAULT_POLE) -> ConjugationReport:
    """Numerically check the conjugation identities of time reversal.

    Three groups of checks, reported with their maximal deviations:

    * angular momentum flips sign, R J_i R^-1 = -J_i, with the spin
      matrices embedded block-diagonally when the family is doubled
      (tolerance 1e-12).  R must be a signed permutation, R[i, p_i] = s_i,
      so R^-1 = R^T and (R conj(J) R^-1)[a, b] = s_a s_b conj(J)[p_a, p_b].
      J_z is diagonal and J_x, J_y have one band on each side of it, so the
      sums are taken band-wise in O(d), bit for bit the dense ones, with no
      d x d matrix; rep raises ValueError as in ``verify_group_relations``;
    * on a symmetric grid of 201 momenta over [-10, 10], with a unit-width
      Gaussian packet centred at p = 2, R: psi(p) -> conj(psi(-p)) flips
      the expectation of the momentum multiplication operator and leaves
      the kinetic energy p^2/2m (m = 1) invariant (tolerance 1e-10);
    * the rank-one resonance S-matrix of ``pole`` (default E_R = 1.0,
      Gamma = 0.2) satisfies |S| = 1 and conj(S) = S^-1, the reciprocity
      relation, on 1000 energies over E_R +- 25 Gamma (tolerance 1e-12);
      a window whose bounds or span overflow a double raises ValueError.

    The grids are Python floats, ``np.linspace``'s bit for bit (``linspace_points``),
    summed by ``math.fsum``, correctly rounded on every Python: no check loads numpy.
    """
    e_min, e_max = energy_window(pole)
    row, twice_j, _, _, r = _checked(rep, "time_reversal")
    p = linspace_points(-10.0, 10.0, _MOMENTUM_POINTS, range(_MOMENTUM_POINTS))
    psi = [complex(math.exp(-((x - 2.0) * (x - 2.0)) / 2.0)) for x in p]
    psi_rev = reversed_wavefunction(psi)
    kinetic = [0.5 * (x * x) for x in p]
    s = [resonance_s_matrix(pole, e)
         for e in linspace_points(e_min, e_max, _ENERGY_POINTS, range(_ENERGY_POINTS))]
    identities = (  # (name, deviation, tolerance), each passing at deviation <= tolerance
        ("angular_momentum_flip", _angular_momentum_flip(r, twice_j), 1e-12),
        ("momentum_expectation_flip",
         abs(_grid_expectation(p, psi_rev) + _grid_expectation(p, psi)), 1e-10),
        ("kinetic_energy_invariance",
         abs(_grid_expectation(kinetic, psi_rev) - _grid_expectation(kinetic, psi)), 1e-10),
        ("s_matrix_unitarity", max(abs(abs(z) - 1.0) for z in s), 1e-12),
        ("s_matrix_reciprocity", max(abs(z.conjugate() - 1.0 / z) for z in s), 1e-12),
    )
    entries = tuple(IdentityCheck(name, dev <= tol, dev, tol) for name, dev, tol in identities)
    return ConjugationReport(row, twice_j, entries)
