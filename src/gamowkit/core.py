"""Resonance poles, Gamow state labels, and temporal half-domains.

A resonance of energy ``E_R`` and width ``Gamma > 0`` owns a conjugate pair
of complex energies, ``E_R - i*Gamma/2`` (decaying) and ``E_R + i*Gamma/2``
(growing).  A :class:`GamowState` is a bookkeeping record for a generalized
eigenvector attached to one of those poles: which half-plane function space
its bracket lives in, whether it plays the part of a state, an observable,
an excitation or a de-excitation, which regime ``r = 0, 1`` of the doubled
representation space it belongs to, and which time-arrow convention is in
force.  Everything here is a label; no function-space machinery is
represented.  All types are immutable values and all functions are pure.

Natural units with hbar = 1 are used throughout: energies are in one
arbitrary unit and times in its inverse.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace


class _Numpy:
    """numpy, imported on first attribute access: the label algebra (tables,
    cross-identification, argument checks) never needs it."""

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)  # later accesses skip __getattr__
        return value


np = _Numpy()


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not a count or an index."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_finite(name: str, value):
    """``value`` if it is real and all of it is finite, else a ValueError
    naming the input.  An int or a float is checked without numpy."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{name} must be finite, got an integer of "
                             f"{value.bit_length()} bits") from None
        raise ValueError(f"{name} must be finite, got {value}")
    values = np.asarray(value)
    if values.dtype.kind not in "iuf":  # a bool, complex, string or object
        raise ValueError(f"{name} must be real, got {value!r}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0]}")
    return value


class Kind(enum.Enum):
    """Which member of the conjugate pole pair a Gamow state carries."""

    GROWING = "growing"    # pole at energy + i*width/2
    DECAYING = "decaying"  # pole at energy - i*width/2

    def flipped(self) -> "Kind":
        return Kind.DECAYING if self is Kind.GROWING else Kind.GROWING


class HalfPlane(enum.Enum):
    """Upper (+) or lower (-) half-plane label of the bracket's function space."""

    PLUS = "plus"
    MINUS = "minus"

    def flipped(self) -> "HalfPlane":
        return HalfPlane.MINUS if self is HalfPlane.PLUS else HalfPlane.PLUS


class Arrow(enum.Enum):
    """The two time-arrow conventions.

    ``PREPARATION_REGISTRATION`` is the laboratory arrow: states must be
    prepared (t <= 0) before observables can be registered (t >= 0); states
    evolve in the Schroedinger picture while observables evolve in the
    Heisenberg picture.  ``EXCITATION_DEEXCITATION`` is the more general
    arrow: excitations happen before t = 0 and de-excitations after, with
    only the Schroedinger picture in use.
    """

    PREPARATION_REGISTRATION = "preparation_registration"
    EXCITATION_DEEXCITATION = "excitation_deexcitation"


class Role(enum.Enum):
    STATE = "state"
    OBSERVABLE = "observable"
    EXCITATION = "excitation"
    DEEXCITATION = "deexcitation"


class TimeHalf(enum.Enum):
    """Temporal half-domain; t = 0 belongs to both halves."""

    NONNEG = "t>=0"
    NONPOS = "t<=0"

    def flipped(self) -> "TimeHalf":
        return TimeHalf.NONPOS if self is TimeHalf.NONNEG else TimeHalf.NONNEG

    def contains(self, t: float) -> bool:
        return t >= 0.0 if self is TimeHalf.NONNEG else t <= 0.0


class Orientation(enum.Enum):
    """Reading direction of a half-domain, as annotated in the state tables."""

    TOWARD_PLUS_INF = "0->inf"
    TOWARD_ZERO_FROM_MINUS_INF = "-inf->0"
    TOWARD_ZERO_FROM_PLUS_INF = "0<-inf"
    TOWARD_MINUS_INF = "-inf<-0"


# The reading direction of each half-domain in each regime: r=0 reads it
# forward in time, r=1 backward.
_ORIENTATION = {
    (TimeHalf.NONNEG, 0): Orientation.TOWARD_PLUS_INF,
    (TimeHalf.NONNEG, 1): Orientation.TOWARD_ZERO_FROM_PLUS_INF,
    (TimeHalf.NONPOS, 0): Orientation.TOWARD_ZERO_FROM_MINUS_INF,
    (TimeHalf.NONPOS, 1): Orientation.TOWARD_MINUS_INF,
}
_HALF_AND_REGIME = {orientation: key for key, orientation in _ORIENTATION.items()}


@dataclass(frozen=True)
class TimeDomain:
    """A temporal half-domain together with its reading direction."""

    half: TimeHalf
    orientation: Orientation

    def __post_init__(self) -> None:
        if not isinstance(self.half, TimeHalf):
            raise ValueError(f"half must be a TimeHalf, got {self.half!r}")
        if not isinstance(self.orientation, Orientation):
            raise ValueError(f"orientation must be an Orientation, got {self.orientation!r}")
        if _HALF_AND_REGIME[self.orientation][0] is not self.half:
            raise ValueError(
                f"orientation {self.orientation.value!r} does not lie in the "
                f"{self.half.value!r} half-domain"
            )

    def contains(self, t: float) -> bool:
        return self.half.contains(t)

    def reflected(self) -> "TimeDomain":
        """The image of this domain under t -> -t: the other half, read in the
        other regime's direction."""
        half, regime = _HALF_AND_REGIME[self.orientation]
        return TimeDomain(half.flipped(), _ORIENTATION[(half.flipped(), 1 - regime)])


@dataclass(frozen=True)
class ResonancePole:
    """A resonance with real energy ``energy`` and strictly positive ``width``.

    Parameters
    ----------
    energy : float
        Resonance energy E_R.  Any finite real value is accepted; positivity
        is a physical typicality, not a structural requirement.
    width : float
        Resonance width Gamma, the inverse lifetime.  Must be finite and > 0.
    """

    energy: float
    width: float

    def __post_init__(self) -> None:
        require_finite("resonance energy", self.energy)
        if not require_finite("resonance width", self.width) > 0.0:
            raise ValueError(f"resonance width must be positive, got {self.width}")

    @property
    def decaying_pole(self) -> complex:
        """Pole in the lower half-plane, energy - i*width/2."""
        return complex(self.energy, -0.5 * self.width)

    @property
    def growing_pole(self) -> complex:
        """Pole in the upper half-plane, energy + i*width/2."""
        return complex(self.energy, +0.5 * self.width)

    def eigenvalue(self, kind: Kind) -> complex:
        return self.growing_pole if kind is Kind.GROWING else self.decaying_pole


# The pole used wherever a caller gives none, the CLI's included.
DEFAULT_POLE = ResonancePole(1.0, 0.2)


def energy_window(pole: ResonancePole) -> tuple[float, float]:
    """E_R -+ 25*Gamma, the energy grid around a resonance wherever a caller
    gives none, after a check that its bounds and span are finite."""
    half = 25.0 * float(pole.width)  # Python floats overflow to inf without numpy's warning
    e_min, e_max = float(pole.energy) - half, float(pole.energy) + half
    for bound in (e_min, e_max):
        require_finite("energy window E_R +- 25*Gamma", bound)
    require_finite("energy window span", e_max - e_min)
    return e_min, e_max


# Half-plane, role and bra are fixed by (arrow, kind): time reversal flips
# kind and half-plane together, so the pairing is the same in both regimes.
_CANONICAL_LABELS = {
    (Arrow.PREPARATION_REGISTRATION, Kind.GROWING): (HalfPlane.MINUS, Role.STATE, "phi"),
    (Arrow.PREPARATION_REGISTRATION, Kind.DECAYING): (HalfPlane.PLUS, Role.OBSERVABLE, "psi"),
    (Arrow.EXCITATION_DEEXCITATION, Kind.GROWING): (HalfPlane.PLUS, Role.EXCITATION, "phi_+"),
    (Arrow.EXCITATION_DEEXCITATION, Kind.DECAYING): (HalfPlane.MINUS, Role.DEEXCITATION, "phi_-"),
}


def canonical_time_domain(kind: Kind, regime: int) -> TimeDomain:
    """Half-domain and reading direction governing a (kind, regime) pair:
    growing states live on t <= 0, decaying states on t >= 0."""
    half = TimeHalf.NONPOS if kind is Kind.GROWING else TimeHalf.NONNEG
    return TimeDomain(half, _ORIENTATION[(half, regime)])


@dataclass(frozen=True)
class GamowState:
    """One generalized eigenvector, keyed by (arrow, kind, regime).

    The half-plane, role, bracket and time domain are derived from that key,
    so only canonical label combinations exist; the regime must be 0 or 1.
    """

    pole: ResonancePole
    kind: Kind
    regime: int
    arrow: Arrow
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not is_integer(self.regime) or self.regime not in (0, 1):
            raise ValueError(f"regime must be 0 or 1, got {self.regime}")
        if (self.arrow, self.kind) not in _CANONICAL_LABELS:
            raise ValueError(f"no canonical state for arrow={self.arrow!r} and kind={self.kind!r}")

    @property
    def half_plane(self) -> HalfPlane:
        return _CANONICAL_LABELS[(self.arrow, self.kind)][0]

    @property
    def role(self) -> Role:
        return _CANONICAL_LABELS[(self.arrow, self.kind)][1]

    @property
    def time_domain(self) -> TimeDomain:
        """The half-domain and reading direction governing this state."""
        return canonical_time_domain(self.kind, self.regime)

    @property
    def complex_energy(self) -> complex:
        return self.pole.eigenvalue(self.kind)

    @property
    def bracket(self) -> str:
        """ASCII descriptor of the bracket, e.g. ``<psi,r=1|Z_R,r=1>``."""
        bra = _CANONICAL_LABELS[(self.arrow, self.kind)][2]
        ket = "Z_R*" if self.kind is Kind.GROWING else "Z_R"
        return f"<{bra},r={self.regime}|{ket},r={self.regime}>"

    def with_amplitude(self, amplitude: complex) -> "GamowState":
        return replace(self, amplitude=complex(amplitude))


def canonical_state(arrow: Arrow, kind: Kind, regime: int, pole: ResonancePole,
                    amplitude: complex = 1.0 + 0.0j) -> GamowState:
    """Build the canonical Gamow state for (arrow, kind, regime).

    Parameters
    ----------
    arrow : Arrow
        Time-arrow convention.
    kind : Kind
        GROWING attaches the upper pole, DECAYING the lower one.
    regime : int
        0 for the laboratory regime, 1 for its time-reversed partner.
    pole : ResonancePole
        The resonance the state belongs to.
    amplitude : complex, optional
        Bracket amplitude; defaults to 1.

    Returns
    -------
    GamowState
        The unique state with the canonical half-plane, role, and
        time-domain assignment for those labels.
    """
    return GamowState(pole, kind, regime, arrow, complex(amplitude))


def resonance_s_matrix(pole: ResonancePole, energies) -> np.ndarray:
    """Rank-one resonance S-matrix values on a real energy grid.

    S(E) = (E - z*) / (E - z) with z the lower-half-plane pole.  On the real
    axis numerator and denominator are complex conjugates, so |S(E)| = 1 and
    conj(S) = 1/S.
    """
    e = require_finite("energies", np.asarray(energies, dtype=float))
    return (e - pole.growing_pole) / (e - pole.decaying_pole)
