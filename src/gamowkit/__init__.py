"""gamowkit: resonance states, half-domain semigroup evolution, and the
extended spacetime symmetry families.  Importing it loads none of its
modules: a module's name loads that module; any other name, the five exporting ones.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("core", "evolution", "scenarios", "symmetry", "transform")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    exports = {export: getattr(module, export)
               for module in map(__getattr__, _MODULES) for export in module.__all__}
    globals().update(exports, __all__=list(exports))  # each module's names, in their order
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
