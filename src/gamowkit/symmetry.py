"""Spin matrices, antilinear operator algebra, and the four symmetry families.

The extended spacetime symmetry group adds a parity inversion ``Sigma``
(unitary), a time reversal ``R`` (antiunitary) and a total inversion
``T = Sigma R`` (antiunitary) to the usual representations.  Consistency of
the group multiplication only fixes ``R^2 = eps_R I`` and ``T^2 = eps_T I``
up to signs, and exactly four sign families exist for each spin j.  The
first family acts on the bare (2j+1)-dimensional spin space; the other
three double it, with a two-valued index r = 0, 1 labelling the sheets.

All operator matrices built here are integral, so the group relations are
verified with exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ResonancePole, resonance_s_matrix

ROWS = (1, 2, 3, 4)


def _check_twice_j(twice_j: int) -> int:
    if isinstance(twice_j, bool) or not isinstance(twice_j, (int, np.integer)) or twice_j < 0:
        raise ValueError(f"twice_j must be a nonnegative integer, got {twice_j!r}")
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
    for i in range(d - 1):
        jplus[i + 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
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

    def __matmul__(self, other: "AntilinearOperator") -> "AntilinearOperator":
        return self.compose(other)

    def inverse(self) -> "AntilinearOperator":
        mat = np.conj(self.matrix) if self.conjugates else self.matrix
        return AntilinearOperator(np.linalg.inv(mat), self.conjugates)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_unitary(self, tol: float = 1e-12) -> bool:
        m = np.asarray(self.matrix, dtype=complex)
        return bool(np.max(np.abs(m @ m.conj().T - np.eye(self.dim))) <= tol)

    def is_antiunitary(self, tol: float = 1e-12) -> bool:
        return self.conjugates and self.is_unitary(tol)

    @classmethod
    def identity(cls, dim: int) -> "AntilinearOperator":
        return cls(np.eye(dim, dtype=np.int64), False)


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
    doubled: bool

    @property
    def dim(self) -> int:
        return (self.twice_j + 1) * (2 if self.doubled else 1)


def build_representation(row: int, twice_j: int) -> RepresentationTriple:
    """Construct the family ``row`` (1..4) at spin j = twice_j / 2.

    Family 1: no doubling, Sigma = I, R = T = C (conjugating), with
    eps_R = eps_T = (-1)^(2j).  Families 2-4 double the space and place C in
    off-diagonal blocks; their signs differ from family 1 in the pattern
    (-,+), (+,-), (-,-) for (eps_R, eps_T) relative to (-1)^(2j).
    """
    twice_j = _check_twice_j(twice_j)
    if row not in ROWS:
        raise ValueError(f"row must be one of {ROWS}, got {row!r}")
    base_sign = (-1) ** twice_j
    c = time_reversal_matrix(twice_j)
    d = twice_j + 1
    eye = np.eye(d, dtype=np.int64)
    zero = np.zeros((d, d), dtype=np.int64)

    if row == 1:
        return RepresentationTriple(
            row=1, twice_j=twice_j,
            parity=AntilinearOperator(eye, False),
            time_reversal=AntilinearOperator(c, True),
            total_inversion=AntilinearOperator(c, True),
            reversal_sign=base_sign, inversion_sign=base_sign,
            doubled=False,
        )

    sigma_split = np.block([[eye, zero], [zero, -eye]])
    sigma_full = np.block([[eye, zero], [zero, eye]])
    r_antisym = np.block([[zero, c], [-c, zero]])
    r_sym = np.block([[zero, c], [c, zero]])

    if row == 2:
        sigma, r_mat, t_mat = sigma_split, r_antisym, r_sym
        eps_r, eps_t = -base_sign, base_sign
    elif row == 3:
        sigma, r_mat, t_mat = sigma_split, r_sym, r_antisym
        eps_r, eps_t = base_sign, -base_sign
    else:
        sigma, r_mat, t_mat = sigma_full, r_antisym, r_antisym
        eps_r, eps_t = -base_sign, -base_sign

    return RepresentationTriple(
        row=row, twice_j=twice_j,
        parity=AntilinearOperator(sigma, False),
        time_reversal=AntilinearOperator(r_mat, True),
        total_inversion=AntilinearOperator(t_mat, True),
        reversal_sign=eps_r, inversion_sign=eps_t,
        doubled=True,
    )


def scalar_multiple_of_identity(matrix: np.ndarray) -> int | None:
    """The integer s with matrix == s*I, or None if there is no such s."""
    d = matrix.shape[0]
    s = matrix[0, 0]
    if np.array_equal(matrix, s * np.eye(d, dtype=matrix.dtype)):
        return int(s)
    return None


@dataclass(frozen=True)
class RelationCheck:
    name: str
    passed: bool
    expected: str
    observed: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "expected": self.expected, "observed": self.observed}


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
            "checks": [c.to_dict() for c in self.checks],
            "commutation_sign": self.commutation_sign,
            "all_passed": self.all_passed,
        }


def verify_group_relations(rep: RepresentationTriple) -> RelationReport:
    """Check the defining relations of a family with exact integer arithmetic.

    Verifies Sigma^2 = I, R^2 = eps_R I, T^2 = eps_T I and T = Sigma R, and
    records the sign s in Sigma R = s R Sigma (the relative order of parity
    and time reversal is physically immaterial, so the sign is reported
    rather than asserted).  Failures become report entries, not exceptions.
    """
    checks = []

    sigma_sq = rep.parity.compose(rep.parity)
    s = scalar_multiple_of_identity(sigma_sq.matrix)
    checks.append(RelationCheck(
        "parity_squared", s == 1 and not sigma_sq.conjugates, "+1 * I", f"{s} * I"))

    r_sq = rep.time_reversal.compose(rep.time_reversal)
    s = scalar_multiple_of_identity(r_sq.matrix)
    checks.append(RelationCheck(
        "time_reversal_squared", s == rep.reversal_sign and not r_sq.conjugates,
        f"{rep.reversal_sign:+d} * I", f"{s} * I"))

    t_sq = rep.total_inversion.compose(rep.total_inversion)
    s = scalar_multiple_of_identity(t_sq.matrix)
    checks.append(RelationCheck(
        "total_inversion_squared", s == rep.inversion_sign and not t_sq.conjugates,
        f"{rep.inversion_sign:+d} * I", f"{s} * I"))

    sigma_r = rep.parity.compose(rep.time_reversal)
    same = (np.array_equal(sigma_r.matrix, rep.total_inversion.matrix)
            and sigma_r.conjugates == rep.total_inversion.conjugates)
    checks.append(RelationCheck(
        "total_inversion_is_parity_then_reversal", same,
        "T == Sigma o R", "equal" if same else "different"))

    r_sigma = rep.time_reversal.compose(rep.parity)
    if np.array_equal(sigma_r.matrix, r_sigma.matrix):
        comm_sign = 1
    elif np.array_equal(sigma_r.matrix, -r_sigma.matrix):
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

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "max_deviation": self.max_deviation, "tolerance": self.tolerance}


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
            "entries": [e.to_dict() for e in self.entries],
            "all_passed": self.all_passed,
        }


def _embedded_spin_matrices(rep: RepresentationTriple) -> tuple[np.ndarray, ...]:
    """Spin matrices acting identically on both sheets of a doubled space."""
    mats = spin_matrices(rep.twice_j)
    if not rep.doubled:
        return mats
    d = rep.twice_j + 1
    zero = np.zeros((d, d), dtype=complex)
    return tuple(np.block([[m, zero], [zero, m]]) for m in mats)


def reversed_wavefunction(psi) -> np.ndarray:
    """Time-reversal action on a wavefunction sampled on a grid symmetric
    about zero: psi(p) -> conj(psi(-p)), an exact index reversal."""
    return np.conj(np.asarray(psi)[::-1])


def grid_expectation(weights, psi) -> float:
    """Riemann-sum expectation of a multiplication operator on a uniform
    grid; the grid spacing cancels in the normalized ratio."""
    density = np.abs(np.asarray(psi)) ** 2
    return float(np.sum(np.asarray(weights) * density) / np.sum(density))


def check_conjugation_identities(
    rep: RepresentationTriple,
    pole: ResonancePole | None = None,
    *,
    momentum_extent: float = 10.0,
    momentum_points: int = 201,
    packet_center: float = 2.0,
    packet_width: float = 1.0,
    energy_points: int = 1000,
) -> ConjugationReport:
    """Numerically check the conjugation identities of time reversal.

    Three groups of checks, reported with their maximal deviations:

    * angular momentum flips sign, R J_i R^-1 = -J_i, with the spin
      matrices embedded block-diagonally when the family is doubled
      (tolerance 1e-12);
    * on a symmetric odd momentum grid, R: psi(p) -> conj(psi(-p)) flips
      the expectation of the momentum multiplication operator and leaves
      the kinetic energy p^2/2m (m = 1) invariant (tolerance 1e-10);
    * the rank-one resonance S-matrix on the real axis satisfies |S| = 1
      and conj(S) = S^-1, the reciprocity relation (tolerance 1e-12).
    """
    if pole is None:
        pole = ResonancePole(1.0, 0.2)
    if momentum_points % 2 == 0:
        raise ValueError("momentum grid needs an odd point count so p -> -p is exact")
    entries = []

    r_op = AntilinearOperator(rep.time_reversal.matrix.astype(complex),
                              rep.time_reversal.conjugates)
    r_inv = r_op.inverse()
    dev = 0.0
    for j_i in _embedded_spin_matrices(rep):
        conjugated = r_op.compose(AntilinearOperator(j_i, False)).compose(r_inv)
        dev = max(dev, float(np.max(np.abs(conjugated.matrix + j_i))))
    entries.append(IdentityCheck("angular_momentum_flip", dev <= 1e-12, dev, 1e-12))

    p = np.linspace(-momentum_extent, momentum_extent, momentum_points)
    psi = np.exp(-((p - packet_center) ** 2) / (2.0 * packet_width**2)).astype(complex)
    psi_rev = reversed_wavefunction(psi)
    p_before = grid_expectation(p, psi)
    p_after = grid_expectation(p, psi_rev)
    dev = abs(p_after + p_before)
    entries.append(IdentityCheck("momentum_expectation_flip", dev <= 1e-10, dev, 1e-10))

    kinetic = 0.5 * p**2
    k_before = grid_expectation(kinetic, psi)
    k_after = grid_expectation(kinetic, psi_rev)
    dev = abs(k_after - k_before)
    entries.append(IdentityCheck("kinetic_energy_invariance", dev <= 1e-10, dev, 1e-10))

    energies = np.linspace(pole.energy - 25.0 * pole.width,
                           pole.energy + 25.0 * pole.width, energy_points)
    s = resonance_s_matrix(pole, energies)
    dev = float(np.max(np.abs(np.abs(s) - 1.0)))
    entries.append(IdentityCheck("s_matrix_unitarity", dev <= 1e-12, dev, 1e-12))
    dev = float(np.max(np.abs(np.conj(s) - 1.0 / s)))
    entries.append(IdentityCheck("s_matrix_reciprocity", dev <= 1e-12, dev, 1e-12))

    return ConjugationReport(rep.row, rep.twice_j, tuple(entries))
