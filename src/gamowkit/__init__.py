"""gamowkit: resonance states, half-domain semigroup evolution, and the
extended spacetime symmetry families.

The package models growing and decaying Gamow states as labelled values
attached to the conjugate pole pair of a resonance, evolves them with the
eight half-domain semigroup branches (with strict no-inverse enforcement),
builds the four co-representation families of parity / time reversal /
total inversion for arbitrary spin, and derives the summary tables of how
states transform under time reversal in both time-arrow conventions.
"""

from .core import *
from .evolution import *
from .scenarios import *
from .symmetry import *
from .transform import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *evolution.__all__, *scenarios.__all__, *symmetry.__all__,
           *transform.__all__]
