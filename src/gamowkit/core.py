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
from dataclasses import dataclass

import numpy as np


def require_finite(name: str, value):
    """``value`` if all of it is finite, else a ValueError naming the input."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {np.asarray(value)[~finite][0]}")
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


class Picture(enum.Enum):
    SCHROEDINGER_HEISENBERG_MIXED = "schroedinger_heisenberg_mixed"
    SCHROEDINGER_ONLY = "schroedinger_only"


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

    @property
    def picture(self) -> Picture:
        if self is Arrow.PREPARATION_REGISTRATION:
            return Picture.SCHROEDINGER_HEISENBERG_MIXED
        return Picture.SCHROEDINGER_ONLY


class Role(enum.Enum):
    STATE = "state"
    OBSERVABLE = "observable"
    EXCITATION = "excitation"
    DEEXCITATION = "deexcitation"


# Role partners swapped by time reversal within each arrow convention.
_ROLE_SWAP = {
    Role.STATE: Role.OBSERVABLE,
    Role.OBSERVABLE: Role.STATE,
    Role.EXCITATION: Role.DEEXCITATION,
    Role.DEEXCITATION: Role.EXCITATION,
}


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


_ALLOWED_ORIENTATIONS = {
    TimeHalf.NONNEG: {Orientation.TOWARD_PLUS_INF, Orientation.TOWARD_ZERO_FROM_PLUS_INF},
    TimeHalf.NONPOS: {Orientation.TOWARD_ZERO_FROM_MINUS_INF, Orientation.TOWARD_MINUS_INF},
}

# t -> -t maps each reading path onto its mirror image.
_REFLECTED_ORIENTATION = {
    Orientation.TOWARD_ZERO_FROM_MINUS_INF: Orientation.TOWARD_ZERO_FROM_PLUS_INF,
    Orientation.TOWARD_ZERO_FROM_PLUS_INF: Orientation.TOWARD_ZERO_FROM_MINUS_INF,
    Orientation.TOWARD_PLUS_INF: Orientation.TOWARD_MINUS_INF,
    Orientation.TOWARD_MINUS_INF: Orientation.TOWARD_PLUS_INF,
}


@dataclass(frozen=True)
class TimeDomain:
    """A temporal half-domain together with its reading direction."""

    half: TimeHalf
    orientation: Orientation

    def __post_init__(self) -> None:
        if self.orientation not in _ALLOWED_ORIENTATIONS[self.half]:
            raise ValueError(
                f"orientation {self.orientation.value!r} does not lie in the "
                f"{self.half.value!r} half-domain"
            )

    def contains(self, t: float) -> bool:
        return self.half.contains(t)

    def reflected(self) -> "TimeDomain":
        """The image of this domain under t -> -t."""
        return TimeDomain(self.half.flipped(), _REFLECTED_ORIENTATION[self.orientation])


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


# Half-plane and role are fixed by (arrow, kind): time reversal flips kind
# and half-plane together, so the pairing is the same in both regimes.
_CANONICAL_LABELS = {
    (Arrow.PREPARATION_REGISTRATION, Kind.GROWING): (HalfPlane.MINUS, Role.STATE),
    (Arrow.PREPARATION_REGISTRATION, Kind.DECAYING): (HalfPlane.PLUS, Role.OBSERVABLE),
    (Arrow.EXCITATION_DEEXCITATION, Kind.GROWING): (HalfPlane.PLUS, Role.EXCITATION),
    (Arrow.EXCITATION_DEEXCITATION, Kind.DECAYING): (HalfPlane.MINUS, Role.DEEXCITATION),
}

# Growing states live on t <= 0, decaying states on t >= 0; the regime
# decides whether the half-domain is read forward (r=0) or backward (r=1).
_CANONICAL_DOMAIN = {
    (Kind.GROWING, 0): TimeDomain(TimeHalf.NONPOS, Orientation.TOWARD_ZERO_FROM_MINUS_INF),
    (Kind.GROWING, 1): TimeDomain(TimeHalf.NONPOS, Orientation.TOWARD_MINUS_INF),
    (Kind.DECAYING, 0): TimeDomain(TimeHalf.NONNEG, Orientation.TOWARD_PLUS_INF),
    (Kind.DECAYING, 1): TimeDomain(TimeHalf.NONNEG, Orientation.TOWARD_ZERO_FROM_PLUS_INF),
}


def canonical_time_domain(kind: Kind, regime: int) -> TimeDomain:
    """Half-domain and reading direction governing a (kind, regime) pair."""
    if regime not in (0, 1):
        raise ValueError(f"regime must be 0 or 1, got {regime}")
    return _CANONICAL_DOMAIN[(kind, regime)]


@dataclass(frozen=True)
class GamowState:
    """One generalized eigenvector with all of its bookkeeping labels.

    Only canonical label combinations are constructible: the half-plane and
    role must match the (arrow, kind) pairing and the regime must be 0 or 1.
    Use :func:`canonical_state` rather than filling the labels by hand.
    """

    pole: ResonancePole
    kind: Kind
    half_plane: HalfPlane
    regime: int
    arrow: Arrow
    role: Role
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.regime not in (0, 1):
            raise ValueError(f"regime must be 0 or 1, got {self.regime}")
        expected = _CANONICAL_LABELS[(self.arrow, self.kind)]
        if (self.half_plane, self.role) != expected:
            raise ValueError(
                f"{self.arrow.value}/{self.kind.value} states carry "
                f"half_plane={expected[0].value!r} and role={expected[1].value!r}; "
                f"got ({self.half_plane.value!r}, {self.role.value!r})"
            )

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
        if self.arrow is Arrow.PREPARATION_REGISTRATION:
            bra = "phi" if self.half_plane is HalfPlane.MINUS else "psi"
        else:
            bra = "phi_+" if self.half_plane is HalfPlane.PLUS else "phi_-"
        ket = "Z_R*" if self.kind is Kind.GROWING else "Z_R"
        return f"<{bra},r={self.regime}|{ket},r={self.regime}>"

    def with_amplitude(self, amplitude: complex) -> "GamowState":
        return GamowState(
            pole=self.pole,
            kind=self.kind,
            half_plane=self.half_plane,
            regime=self.regime,
            arrow=self.arrow,
            role=self.role,
            amplitude=complex(amplitude),
        )


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
    half_plane, role = _CANONICAL_LABELS[(arrow, kind)]
    return GamowState(
        pole=pole,
        kind=kind,
        half_plane=half_plane,
        regime=regime,
        arrow=arrow,
        role=role,
        amplitude=complex(amplitude),
    )


def swapped_role(role: Role) -> Role:
    """The role partner exchanged by time reversal (state <-> observable,
    excitation <-> de-excitation)."""
    return _ROLE_SWAP[role]


def resonance_s_matrix(pole: ResonancePole, energies) -> np.ndarray:
    """Rank-one resonance S-matrix values on a real energy grid.

    S(E) = (E - z*) / (E - z) with z the lower-half-plane pole.  On the real
    axis numerator and denominator are complex conjugates, so |S(E)| = 1 and
    conj(S) = 1/S.
    """
    e = np.asarray(energies, dtype=float)
    return (e - pole.growing_pole) / (e - pole.decaying_pole)
