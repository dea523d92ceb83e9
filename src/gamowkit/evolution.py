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

from .core import (Arrow, GamowState, Kind, Orientation, Record, ResonancePole,
                   canonical_time_domain, np, require_array, require_finite, require_number)

__all__ = ["BRANCHES", "DomainViolationError", "NonHermitianError", "branch_for", "evolve",
           "group_evolve", "survival_probability"]

DEFAULT_DIM_CAP = 64


class DomainViolationError(ValueError):
    """A time outside a branch's temporal half-domain was requested."""


class NonHermitianError(ValueError):
    """The supplied generator is not Hermitian within tolerance."""


class EvolutionBranch(Record):
    """One of the eight semigroup formulas.

    ``label`` is the paper's equation number; ``phase_sign`` multiplies
    i*E_R*t in the exponent and ``growth_sign`` multiplies (Gamma/2)*t.
    """

    label: str
    phase_sign: int
    growth_sign: int
    domain: Orientation

    def scalar_factor(self, pole: ResonancePole):
        """The bare evolution factor as a function of one float time, with its coefficients
        computed once; it raises OverflowError or ValueError where numpy gives inf or nan."""
        growth, phase = self.growth_sign * 0.5 * pole.width, self.phase_sign * pole.energy
        return lambda t: cmath.exp(complex(growth * t, phase * t))

    def factor(self, pole: ResonancePole, t):
        """The bare evolution factor at a time t (a complex) or at every time
        of an array t (an array), with no domain or phase check."""
        if isinstance(t, (int, float)):
            try:  # cmath gives the array path's bits; a numpy float64 would warn of overflow
                return self.scalar_factor(pole)(float(t))
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
        """A time as a Python float, or times as a float array, after the one
        finiteness and half-domain check of the package.  Only times that are
        not one real number load numpy."""
        times = outside = require_finite("t", t)
        if isinstance(times, float):
            if self.domain.contains(times):
                return times
        else:
            inside = self.domain.contains(times)
            if inside.all():
                return times
            outside = times[~inside][0]
        raise DomainViolationError(
            f"t={outside} lies outside the {self.domain.half.value} half-domain of "
            f"branch {self.label}; semigroup evolution has no inverse across t=0")

    def evolvable_times(self, pole: ResonancePole, t):
        """t after :meth:`checked_times`, then the check that the phase
        E_R * t fits a double at the largest |t|: every check of :func:`evolve`."""
        times = self.checked_times(t)
        if isinstance(times, float):
            longest = abs(times)
        else:  # min and max, not abs: no second grid-sized array
            longest = float(max(-times.min(initial=0.0), times.max(initial=0.0)))
        require_finite("E_R * t", pole.energy * longest)
        return times


def _with_partners(regime_0: dict) -> dict[tuple[Arrow, Kind, int], EvolutionBranch]:
    branches = {}
    for arrow, formulas in regime_0.items():
        partners = {}
        for label, phase_sign, kind, partner in formulas:
            growth_sign, domain = (+1 if kind is Kind.GROWING else -1), canonical_time_domain(kind, 0)
            branches[(arrow, kind, 0)] = EvolutionBranch(label, phase_sign, growth_sign, domain)
            partners[(arrow, kind.flipped(), 1)] = EvolutionBranch(
                partner, -phase_sign, -growth_sign, domain.reflected())
        branches.update(partners)  # an arrow's r = 1 rows follow its r = 0 rows
    return branches


_PREP = Arrow.PREPARATION_REGISTRATION
_EXC = Arrow.EXCITATION_DEEXCITATION

# Each arrow's two r = 0 formulas: (the paper's equation number, phase sign, kind,
# the r = 1 partner's number).  The phase sign depends on the arrow through the
# picture split between the conventions.  Time reversal, evolve(R s, -t) =
# evolve(s, t), gives each partner both signs flipped on the reflected half-domain.
BRANCHES = _with_partners({
    _PREP: (("4a", -1, Kind.GROWING, "10"), ("4b", -1, Kind.DECAYING, "11")),
    _EXC: (("12", +1, Kind.GROWING, "13"), ("5b", -1, Kind.DECAYING, "5a")),
})


def branch_for(state: GamowState) -> EvolutionBranch:
    """The unique branch governing a canonical state."""
    if not isinstance(state, GamowState):
        raise ValueError(f"state must be a GamowState, got {state!r}")
    return BRANCHES[(state.arrow, state.kind, state.regime)]


def evolve(state: GamowState, t):
    """exp(i*phase_sign*E_R*t) * exp(growth_sign*(Gamma/2)*t) * amplitude on the
    state's branch, at a time t (a complex) or at every time of an array t (an array).

    Raises DomainViolationError, checked first, if a time lies outside the
    branch's half-domain (t = 0 is always inside): the semigroup has no
    inverse, so evolution never crosses t = 0.  Raises ValueError if a time
    is NaN or infinite, or the phase E_R * t overflows a double at the largest |t|.
    """
    branch = branch_for(state)
    factor = branch.factor(state.pole, branch.evolvable_times(state.pole, t))
    factor *= state.amplitude  # in place for a grid: one grid-sized array fewer at peak RSS
    return factor


def survival_probability(state: GamowState, t):
    """|evolved amplitude|^2 / |amplitude|^2 for a decaying state at a time
    t (a float) or at every time of an array t (an array).

    Equals exp(-Gamma*t) on the decaying branches.  Domain rules are the
    same as for :func:`evolve`.
    """
    branch = branch_for(state)
    if state.kind is not Kind.DECAYING:
        raise ValueError("state must be decaying for a survival probability, got a growing one")
    times = branch.checked_times(t)
    rate = branch.growth_sign * state.pole.width
    if isinstance(times, float):
        return math.exp(rate * times)
    with np.errstate(over="ignore"):  # -inf on the domain, where exp gives exactly 0
        return np.exp(rate * times)


def group_evolve(hamiltonian, t: float, vector) -> np.ndarray:
    """Unitary group evolution exp(-i H t) v by spectral decomposition.

    Unlike the semigroup branches this is defined for every real t and
    satisfies U(t1) U(t2) = U(t1 + t2) and U(t) U(-t) = I.  H must be a
    Hermitian matrix of dimension at most ``DEFAULT_DIM_CAP``.

    Raises NonHermitianError if max |H - H^dagger| exceeds 1e-10, and
    ValueError if t is not a finite real number, an entry of H or v is not
    a finite number, or a phase eigenvalue * t overflows a double.
    """
    t = require_number("t", t)
    h, v = require_array("hamiltonian", hamiltonian), require_array("vector", vector)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"hamiltonian must be a square matrix, got shape {h.shape}")
    if h.shape[0] > DEFAULT_DIM_CAP:
        raise ValueError(f"hamiltonian dimension {h.shape[0]} exceeds the cap {DEFAULT_DIM_CAP}")
    for name, value in (("hamiltonian", h), ("vector", v)):
        require_finite(name, value.real)
        require_finite(name, value.imag)
    h, v = h.astype(complex), v.astype(complex)
    deviation = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if deviation > 1e-10:
        raise NonHermitianError(
            f"hamiltonian is not Hermitian: max |H - H^dagger| = {deviation:.3e}"
        )
    if v.shape != (h.shape[0],):
        raise ValueError(f"vector shape {v.shape} does not match dimension {h.shape[0]}")
    eigvals, eigvecs = np.linalg.eigh(h)
    # Python floats overflow to inf without the warning numpy scalars print
    phase = float(np.max(np.abs(eigvals), initial=0.0)) * abs(t)
    require_finite("eigenvalue * t", phase)
    return eigvecs @ (np.exp(-1j * eigvals * t) * (eigvecs.conj().T @ v))
