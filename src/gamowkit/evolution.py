"""Half-domain semigroup evolution of Gamow states and the unitary contrast.

Each canonical state is governed by exactly one of eight evolution branches.
A branch multiplies the bracket by

    exp(i * phase_sign * E_R * t) * exp(growth_sign * (Gamma/2) * t)

and is defined only on one temporal half-domain; asking for the factor at a
time on the wrong side raises :class:`DomainViolationError`, which is how
the semigroup's lack of an inverse across t = 0 is enforced.  t = 0 belongs
to every branch and returns the identity factor.

For contrast, :func:`group_evolve` implements ordinary unitary evolution
``exp(-i H t) v`` for a finite Hermitian matrix, which composes and inverts
for all real times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Arrow, GamowState, Kind, ResonancePole, TimeDomain, canonical_time_domain,
                   require_finite)

DEFAULT_DIM_CAP = 64


class DomainViolationError(ValueError):
    """A time outside a branch's temporal half-domain was requested."""


class NonHermitianError(ValueError):
    """The supplied generator is not Hermitian within tolerance."""


@dataclass(frozen=True)
class EvolutionBranch:
    """One of the eight semigroup formulas.

    ``label`` names the branch ("4a", "4b", "5a", "5b", "10", "11", "12",
    "13"); ``phase_sign`` multiplies i*E_R*t in the exponent and
    ``growth_sign`` multiplies (Gamma/2)*t.
    """

    label: str
    phase_sign: int
    growth_sign: int
    domain: TimeDomain

    def factor(self, pole: ResonancePole, t):
        """The bare evolution factor at a time t (a complex) or at every time
        of an array t (an array), with no domain check."""
        t = np.asarray(t, dtype=float)
        exponent = np.empty(t.shape, dtype=complex)  # parts set apart, as complex(x, y) keeps -0.0
        exponent.real = self.growth_sign * 0.5 * pole.width * t
        exponent.imag = self.phase_sign * pole.energy * t
        np.exp(exponent, out=exponent)
        return exponent if exponent.ndim else complex(exponent)

    def checked_times(self, t) -> np.ndarray:
        """A time or an array of times as floats, after the one finiteness
        and half-domain check of the package."""
        times = require_finite("t", np.asarray(t, dtype=float))
        inside = self.domain.contains(times)
        if not inside.all():
            raise DomainViolationError(
                f"t={times[~inside][0]} lies outside the {self.domain.half.value} half-domain of "
                f"branch {self.label}; semigroup evolution has no inverse across t=0")
        return times


def _branch(label: str, phase_sign: int, growth_sign: int, kind: Kind, regime: int) -> EvolutionBranch:
    return EvolutionBranch(label, phase_sign, growth_sign, canonical_time_domain(kind, regime))


_PREP = Arrow.PREPARATION_REGISTRATION
_EXC = Arrow.EXCITATION_DEEXCITATION

# The sign/domain pattern of the eight formulas, keyed by the state labels.
# Growing states always carry growth_sign +1 on t<=0, decaying states -1 on
# t>=0; the phase sign depends on the arrow convention because of the
# picture split between the two conventions.
BRANCHES: dict[tuple[Arrow, Kind, int], EvolutionBranch] = {
    (_PREP, Kind.GROWING, 0): _branch("4a", -1, +1, Kind.GROWING, 0),
    (_PREP, Kind.DECAYING, 0): _branch("4b", -1, -1, Kind.DECAYING, 0),
    (_PREP, Kind.DECAYING, 1): _branch("10", +1, -1, Kind.DECAYING, 1),
    (_PREP, Kind.GROWING, 1): _branch("11", +1, +1, Kind.GROWING, 1),
    (_EXC, Kind.GROWING, 0): _branch("12", +1, +1, Kind.GROWING, 0),
    (_EXC, Kind.DECAYING, 0): _branch("5b", -1, -1, Kind.DECAYING, 0),
    (_EXC, Kind.DECAYING, 1): _branch("13", -1, -1, Kind.DECAYING, 1),
    (_EXC, Kind.GROWING, 1): _branch("5a", +1, +1, Kind.GROWING, 1),
}

BRANCH_LABELS = tuple(sorted(b.label for b in BRANCHES.values()))

_BY_LABEL = {b.label: b for b in BRANCHES.values()}


def branch_for(state: GamowState) -> EvolutionBranch:
    """The unique branch governing a canonical state."""
    return BRANCHES[(state.arrow, state.kind, state.regime)]


def branch_by_label(label: str) -> EvolutionBranch:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(
            f"unknown branch label {label!r}; expected one of {', '.join(BRANCH_LABELS)}"
        ) from None


def evolve(state: GamowState, t: float) -> complex:
    """Evolve a state's bracket amplitude by time t along its branch.

    Parameters
    ----------
    state : GamowState
        A canonical state; its branch fixes signs and half-domain.
    t : float
        Time inside the branch's half-domain (t = 0 always allowed).

    Returns
    -------
    complex
        exp(i*phase_sign*E_R*t) * exp(growth_sign*(Gamma/2)*t) * amplitude.

    Raises
    ------
    ValueError
        If t is NaN or infinite.
    DomainViolationError
        If t lies outside the half-domain: the semigroup has no inverse,
        so evolution never crosses t = 0.
    """
    branch = branch_for(state)
    return branch.factor(state.pole, branch.checked_times(t)) * state.amplitude


def survival_probability(state: GamowState, t: float) -> float:
    """|evolved amplitude|^2 / |amplitude|^2 for a decaying state.

    Equals exp(-Gamma*t) on the decaying branches.  Domain rules are the
    same as for :func:`evolve`.
    """
    if state.kind is not Kind.DECAYING:
        raise ValueError("survival probability is defined for decaying states only")
    branch = branch_for(state)
    return math.exp(branch.growth_sign * state.pole.width * float(branch.checked_times(t)))


def group_evolve(hamiltonian, t: float, vector, *, max_dim: int = DEFAULT_DIM_CAP,
                 hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Unitary group evolution exp(-i H t) v by spectral decomposition.

    Unlike the semigroup branches this is defined for every real t and
    satisfies U(t1) U(t2) = U(t1 + t2) and U(t) U(-t) = I.

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian matrix of dimension at most ``max_dim``.
    t : float
        Any real time.
    vector : array_like
        Vector to evolve.

    Raises
    ------
    NonHermitianError
        If max |H - H^dagger| exceeds ``hermiticity_tol``.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be a square matrix, got shape {h.shape}")
    if h.shape[0] > max_dim:
        raise ValueError(f"dimension {h.shape[0]} exceeds the configured cap {max_dim}")
    deviation = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if deviation > hermiticity_tol:
        raise NonHermitianError(
            f"hamiltonian is not Hermitian: max |H - H^dagger| = {deviation:.3e}"
        )
    v = np.asarray(vector, dtype=complex)
    if v.shape != (h.shape[0],):
        raise ValueError(f"vector shape {v.shape} does not match dimension {h.shape[0]}")
    eigvals, eigvecs = np.linalg.eigh(h)
    return eigvecs @ (np.exp(-1j * eigvals * t) * (eigvecs.conj().T @ v))
