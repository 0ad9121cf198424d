"""Logarithmic-norm tools for linear time-varying systems.

The package computes logarithmic norms (matrix measures) of matrices,
classifies stability of linear time-varying systems through integral
conditions on the logarithmic norm of the closed-loop matrix, synthesizes
a robust adaptive state-feedback gain that cancels the symmetric part of
the plant, and simulates the closed loop to check the resulting bounds.

The public names are each module's ``__all__``, republished here.
"""

from .linalg import *  # noqa: F401,F403
from .expr import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403
from .synthesis import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .presets import *  # noqa: F401,F403

__version__ = "0.1.0"
