"""Conjugation-identity checks of the four symmetry families, with their group-relation checks.

The extended spacetime symmetry group adds a parity inversion ``Sigma``
(unitary), a time reversal ``R`` (antiunitary) and a total inversion
``T = Sigma R`` (antiunitary) to the usual representations.  Consistency of
the group multiplication only fixes ``R^2 = eps_R I`` and ``T^2 = eps_T I``
up to signs, and exactly four sign families exist for each spin j.  The
first family acts on the bare (2j+1)-dimensional spin space; the other
three double it, with a two-valued index r = 0, 1 labelling the sheets.

Every Sigma, R and T is a signed permutation, built in ``operators`` (with
its limits on 2j and on a matrix's dimension) as an :class:`AntilinearOperator`
and imported here; ``verify_group_relations`` and its records are in
``relations`` and imported here too.  The conjugation checks hold each spin
matrix J_i as its bands, so every product is an O(d) integer gather, and their
grids are Python floats: checking a family never loads numpy.
"""

from __future__ import annotations

import math
import operator

from .core import (DEFAULT_POLE, ROWS, Record, ResonancePole, energy_window, require_complex,
                   s_matrix)
from .grid import linspace_points
from .operators import (AntilinearOperator, RepresentationTriple, _check_row, _check_twice_j,
                        build_representation, time_reversal_matrix)
from .relations import RelationCheck, RelationReport, _checked, _Report, verify_group_relations

__all__ = ["AntilinearOperator", "build_representation", "check_conjugation_identities",
           "reversed_wavefunction", "time_reversal_matrix", "verify_group_relations"]

# Point counts of the conjugation check's grids; the momentum count is odd,
# so the symmetric grid holds p = 0 and p -> -p is an exact index reversal.
_MOMENTUM_POINTS = 201
_ENERGY_POINTS = 1000


class IdentityCheck(Record):
    name: str
    passed: bool
    max_deviation: float
    tolerance: float


class ConjugationReport(_Report):
    _CHECKS = "entries"
    row: int
    twice_j: int
    entries: tuple[IdentityCheck, ...]


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
    s = list(map(s_matrix(pole),
                 linspace_points(e_min, e_max, _ENERGY_POINTS, range(_ENERGY_POINTS))))
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
