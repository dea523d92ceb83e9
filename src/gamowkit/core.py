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

__all__ = ["Arrow", "GamowState", "HalfPlane", "Kind", "Orientation", "ResonancePole", "Role",
           "TimeHalf", "canonical_state", "resonance_s_matrix"]


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
    """A real ``value`` as a Python float, or as a float array if it is not one number, after a
    check that all of it is finite, else a ValueError naming it.  Ints and floats skip numpy."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{name} must be finite, got an integer of "
                             f"{value.bit_length()} bits") from None
        raise ValueError(f"{name} must be finite, got {value}")
    values = require_array(name, value)
    if values.dtype.kind not in "iuf":  # a bool, complex, string or object
        raise ValueError(f"{name} must be real, got {value!r}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {values[~finite][0]}")
    return float(values) if values.ndim == 0 else values.astype(float, copy=False)


def require_array(name: str, value):
    """``np.asarray(value)``, after a check that a nested sequence is not ragged and holds no
    bool that numpy promoted to a number, else a ValueError naming it: numpy's own message
    names no input.  An ndarray's dtype already says whether it holds bools."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular array, got a ragged sequence") from None
    if array.ndim and array.dtype.kind in "iufc" and not isinstance(value, np.ndarray):
        if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(value, dtype=object).flat)):
            raise ValueError(f"{name} must hold numbers, got a bool among them")
    return array


def require_number(name: str, value) -> float:
    """``value`` as a Python float after :func:`require_finite`; a grid is a ValueError."""
    value = require_finite(name, value)
    if type(value) is not float:
        raise ValueError(f"{name} must be one number, got an array of shape {value.shape}")
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


class Orientation(enum.Enum):
    """Reading direction of a half-domain, as annotated in the state tables, with the half
    it reads and its regime: r=0 reads the half forward in time, r=1 backward."""

    TOWARD_PLUS_INF = ("0->inf", TimeHalf.NONNEG, 0)
    TOWARD_ZERO_FROM_MINUS_INF = ("-inf->0", TimeHalf.NONPOS, 0)
    TOWARD_ZERO_FROM_PLUS_INF = ("0<-inf", TimeHalf.NONNEG, 1)
    TOWARD_MINUS_INF = ("-inf<-0", TimeHalf.NONPOS, 1)

    def __new__(cls, value: str, half: TimeHalf, regime: int):
        member = object.__new__(cls)
        member._value_, member.half, member.regime = value, half, regime
        return member

    def contains(self, t: float) -> bool:
        return t >= 0.0 if self.half is TimeHalf.NONNEG else t <= 0.0

    def reflected(self) -> "Orientation":
        """The image of this domain under t -> -t: the other half, read in the
        other regime's direction."""
        return _ORIENTATION[(self.half.flipped(), 1 - self.regime)]


_ORIENTATION = {(orientation.half, orientation.regime): orientation for orientation in Orientation}


class Record:
    """A frozen value whose fields are its class body's annotations, in order; a class
    attribute is a field's default.  Built by position or by name, then ``__post_init__``
    if the class has one; equal and hashed by its fields."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)  # the names alone: each annotation is a string
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        names, defaults = self._fields, self._defaults
        values = dict(zip(names, args), **kwargs)  # a field given twice or a value too many is lost
        if len(values) < len(args) + len(kwargs) or {*values, *defaults} != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        self.__dict__.update({name: values.get(name, defaults.get(name)) for name in names})
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ResonancePole(Record):
    """A resonance with real energy E_R and width Gamma, the inverse lifetime.

    Any finite E_R is accepted; positivity is a physical typicality, not a
    structural requirement.  Gamma must be finite, with Gamma/2 > 0.
    """

    energy: float
    width: float

    def __post_init__(self) -> None:
        for name in ("energy", "width"):  # as Python floats, which warn of no overflow
            object.__setattr__(self, name, require_number(f"resonance {name}", getattr(self, name)))
        if not self.width > 0.0:
            raise ValueError(f"resonance width must be positive, got {self.width}")
        if not 0.5 * self.width > 0.0:  # else both poles would sit on the real axis
            raise ValueError(f"resonance width {self.width} is too small: Gamma/2 rounds to 0")

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


def require_pole(pole) -> ResonancePole:
    """``pole`` after a check that it is a ResonancePole, else a ValueError naming it."""
    if not isinstance(pole, ResonancePole):
        raise ValueError(f"pole must be a ResonancePole, got {pole!r}")
    return pole


def require_complex(name: str, value) -> complex:
    """``value`` as a Python complex after a check that it is a finite number, else a
    ValueError naming it; math, not numpy: the label commands never load it."""
    if not isinstance(value, numbers.Complex) or isinstance(value, bool):
        raise ValueError(f"{name} must be a complex number, got {value!r}")
    try:
        value = complex(value)
    except OverflowError:  # an int or a fraction beyond the float range
        raise ValueError(f"{name} must be finite, got {type(value).__name__} "
                         f"beyond the double range") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


# The pole used wherever a caller gives none, the CLI's included.
DEFAULT_POLE = ResonancePole(1.0, 0.2)
# The rows of the four parity / time-reversal / total-inversion families.
ROWS = (1, 2, 3, 4)
# Each identified branch's factor match and note.  Recorded, not derived: 5a's sign
# pattern (+1, +1, t<=0, -inf<-0) equals 11's as 5b's equals 4b's, yet 5a names none.
CROSS_IDENTIFIED = {
    "5a": dict(matches_factor_of=None, note="identified with the time-reversed regime once "
               "laboratory preparations are read as a special case of excitations"),
    "5b": dict(matches_factor_of="4b", note="identified with the laboratory regime; its "
               "factor carries the same sign pattern as branch 4b"),
}


def energy_window(pole: ResonancePole) -> tuple[float, float]:
    """E_R -+ 25*Gamma, the energy grid around a resonance wherever a caller
    gives none, after a check that its bounds and span are finite."""
    half = 25.0 * require_pole(pole).width
    e_min, e_max = pole.energy - half, pole.energy + half
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


def canonical_time_domain(kind: Kind, regime: int) -> Orientation:
    """Half-domain and reading direction governing a (kind, regime) pair:
    growing states live on t <= 0, decaying states on t >= 0."""
    half = TimeHalf.NONPOS if kind is Kind.GROWING else TimeHalf.NONNEG
    return _ORIENTATION[(half, regime)]


class GamowState(Record):
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
        require_pole(self.pole)
        if not is_integer(self.regime) or self.regime not in (0, 1):
            raise ValueError(f"regime must be 0 or 1, got {self.regime}")
        if not (isinstance(self.arrow, Arrow) and isinstance(self.kind, Kind)):
            raise ValueError(f"no canonical state for arrow={self.arrow!r} and kind={self.kind!r}")
        object.__setattr__(self, "amplitude", require_complex("amplitude", self.amplitude))

    @property
    def half_plane(self) -> HalfPlane:
        return _CANONICAL_LABELS[(self.arrow, self.kind)][0]

    @property
    def role(self) -> Role:
        return _CANONICAL_LABELS[(self.arrow, self.kind)][1]

    @property
    def time_domain(self) -> Orientation:
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


def canonical_state(arrow: Arrow, kind: Kind, regime: int, pole: ResonancePole,
                    amplitude: complex = 1.0 + 0.0j) -> GamowState:
    """The unique Gamow state of ``pole`` with the canonical half-plane, role
    and time domain for (arrow, kind, regime): GROWING attaches the upper
    pole, DECAYING the lower one; regime 0 is the laboratory regime, 1 its
    time-reversed partner.
    """
    return GamowState(pole, kind, regime, arrow, amplitude)


def s_matrix(pole: ResonancePole):
    """After the pole check, the S-matrix of ``resonance_s_matrix`` as an unchecked function
    of a real energy (a float, without numpy) or of a float array."""
    z_star, z = require_pole(pole).growing_pole, pole.decaying_pole
    return lambda e: (e - z_star) / (e - z)


def resonance_s_matrix(pole: ResonancePole, energies):
    """Rank-one resonance S-matrix at a real energy (a complex, without
    numpy) or at every energy of a grid (a complex array).

    S(E) = (E - z*) / (E - z) with z the lower-half-plane pole.  On the real
    axis numerator and denominator are complex conjugates, so |S(E)| = 1 and
    conj(S) = 1/S.
    """
    return s_matrix(pole)(require_finite("energies", energies))
