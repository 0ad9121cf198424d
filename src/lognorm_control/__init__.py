"""Logarithmic-norm tools for linear time-varying systems.

The package computes logarithmic norms (matrix measures) of matrices,
classifies stability of linear time-varying systems through integral
conditions on the logarithmic norm of the closed-loop matrix, synthesizes
a robust adaptive state-feedback gain that cancels the symmetric part of
the plant, and simulates the closed loop to check the resulting bounds.

Each module's ``__all__`` is republished on use (PEP 562), uncached; in
``_MODULES``, config precedes sim, so loading a config never imports sim.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("linalg", "expr", "system", "synthesis", "analysis", "config",
            "presets", "sim")


def __getattr__(name):
    names = [*_MODULES, "report"]  # what ``import *`` binds
    if name in names:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    for m in _MODULES:
        module = importlib.import_module(f".{m}", __name__)
        if name in module.__all__:
            return getattr(module, name)
        names += module.__all__
    if name == "__all__":
        return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
