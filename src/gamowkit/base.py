"""The lazy numpy, the argument checks and the record base that the other modules build on.

``np`` imports numpy on first use; each ``require_*`` check returns its argument
converted or raises a ValueError naming it.  ``core`` imports every name back.
"""

from __future__ import annotations

import math
import numbers


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
