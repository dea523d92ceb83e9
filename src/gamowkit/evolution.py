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

import cmath
import math
from dataclasses import dataclass

from .core import (Arrow, GamowState, Kind, ResonancePole, TimeDomain, canonical_time_domain, np,
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
        of an array t (an array), with no domain or phase check."""
        if isinstance(t, (int, float)):
            # cmath gives the array path's bits, and raises where numpy gives inf or nan;
            # float() parts overflow to inf without the warning numpy scalars print
            try:
                return cmath.exp(complex(self.growth_sign * 0.5 * float(pole.width) * t,
                                         self.phase_sign * float(pole.energy) * t))
            except (OverflowError, ValueError):
                pass
        t = np.asarray(t, dtype=float)
        exponent = np.empty(t.shape, dtype=complex)  # parts set apart, as complex(x, y) keeps -0.0
        # On the domain the real part overflows only toward -inf, where exp gives exactly 0.
        with np.errstate(over="ignore"):
            exponent.real = self.growth_sign * 0.5 * pole.width * t
            exponent.imag = self.phase_sign * pole.energy * t
        np.exp(exponent, out=exponent)
        return exponent if exponent.ndim else complex(exponent)

    def checked_times(self, t):
        """A time as a float, or an array of times as a float array, after
        the one finiteness and half-domain check of the package."""
        t = require_finite("t", t)
        if isinstance(t, (int, float)):
            times = outside = float(t)  # a Python float: no array for one time
            if self.domain.contains(times):
                return times
        else:
            times = np.asarray(t, dtype=float)
            inside = self.domain.contains(times)
            if inside.all():
                return times
            outside = times[~inside][0]
        raise DomainViolationError(
            f"t={outside} lies outside the {self.domain.half.value} half-domain of "
            f"branch {self.label}; semigroup evolution has no inverse across t=0")


_PREP = Arrow.PREPARATION_REGISTRATION
_EXC = Arrow.EXCITATION_DEEXCITATION

# The label and phase sign of each of the eight formulas, keyed by the state
# labels; the phase sign depends on the arrow convention because of the
# picture split between the two conventions.  Growing states always carry
# growth_sign +1, decaying states -1, on their kind's half-domain.
BRANCHES: dict[tuple[Arrow, Kind, int], EvolutionBranch] = {
    (arrow, kind, regime): EvolutionBranch(label, phase_sign, +1 if kind is Kind.GROWING else -1,
                                           canonical_time_domain(kind, regime))
    for label, phase_sign, arrow, kind, regime in (
        ("4a", -1, _PREP, Kind.GROWING, 0),
        ("4b", -1, _PREP, Kind.DECAYING, 0),
        ("10", +1, _PREP, Kind.DECAYING, 1),
        ("11", +1, _PREP, Kind.GROWING, 1),
        ("12", +1, _EXC, Kind.GROWING, 0),
        ("5b", -1, _EXC, Kind.DECAYING, 0),
        ("13", -1, _EXC, Kind.DECAYING, 1),
        ("5a", +1, _EXC, Kind.GROWING, 1),
    )
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


def evolve(state: GamowState, t):
    """Evolve a state's bracket amplitude along its branch by a time t (a
    complex) or by every time of an array t (a complex array).

    Parameters
    ----------
    state : GamowState
        A canonical state; its branch fixes signs and half-domain.
    t : float or array_like
        Times inside the branch's half-domain (t = 0 always allowed).

    Returns
    -------
    complex or numpy.ndarray
        exp(i*phase_sign*E_R*t) * exp(growth_sign*(Gamma/2)*t) * amplitude.

    Raises
    ------
    ValueError
        If a time is NaN or infinite, or the phase E_R * t overflows a
        double at the largest |t|.
    DomainViolationError
        If a time lies outside the half-domain (checked first): the
        semigroup has no inverse, so evolution never crosses t = 0.
    """
    branch = branch_for(state)
    times = branch.checked_times(t)
    longest = times if isinstance(times, float) else float(np.max(np.abs(times), initial=0.0))
    # Python floats overflow to inf without the warning numpy scalars print
    require_finite("E_R * t", float(state.pole.energy) * longest)
    factor = branch.factor(state.pole, times)
    factor *= state.amplitude  # in place for a grid: one grid-sized array fewer at peak RSS
    return factor


def survival_probability(state: GamowState, t):
    """|evolved amplitude|^2 / |amplitude|^2 for a decaying state at a time
    t (a float) or at every time of an array t (an array).

    Equals exp(-Gamma*t) on the decaying branches.  Domain rules are the
    same as for :func:`evolve`.
    """
    if state.kind is not Kind.DECAYING:
        raise ValueError("survival probability is defined for decaying states only")
    branch = branch_for(state)
    times = branch.checked_times(t)
    rate = branch.growth_sign * float(state.pole.width)
    if isinstance(times, float):
        return math.exp(rate * times)
    with np.errstate(over="ignore"):  # -inf on the domain, where exp gives exactly 0
        return np.exp(rate * times)


def group_evolve(hamiltonian, t: float, vector) -> np.ndarray:
    """Unitary group evolution exp(-i H t) v by spectral decomposition.

    Unlike the semigroup branches this is defined for every real t and
    satisfies U(t1) U(t2) = U(t1 + t2) and U(t) U(-t) = I.

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian matrix of dimension at most ``DEFAULT_DIM_CAP``.
    t : float
        Any real time.
    vector : array_like
        Vector to evolve.

    Raises
    ------
    NonHermitianError
        If max |H - H^dagger| exceeds 1e-10.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be a square matrix, got shape {h.shape}")
    if h.shape[0] > DEFAULT_DIM_CAP:
        raise ValueError(f"dimension {h.shape[0]} exceeds the cap {DEFAULT_DIM_CAP}")
    deviation = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if deviation > 1e-10:
        raise NonHermitianError(
            f"hamiltonian is not Hermitian: max |H - H^dagger| = {deviation:.3e}"
        )
    v = np.asarray(vector, dtype=complex)
    if v.shape != (h.shape[0],):
        raise ValueError(f"vector shape {v.shape} does not match dimension {h.shape[0]}")
    eigvals, eigvecs = np.linalg.eigh(h)
    return eigvecs @ (np.exp(-1j * eigvals * t) * (eigvecs.conj().T @ v))
