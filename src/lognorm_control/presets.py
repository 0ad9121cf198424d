"""A bundled worked scenario.

A two-state plant whose known part grows without bound, with a vanishing-
influence uncertainty, and a disturbance that grows like ``t^{11/4}`` yet
is dominated by the adaptive gain's robust margin.  It exercises every
part of the pipeline: the closed loop contracts at the rate
``max(-1 - t (t^6+1)^{1/2}, -1 - t^{1/2} (t^6+1)^{1/2})`` even though
plant, uncertainty and disturbance are all unbounded in time.
"""

from __future__ import annotations

from .config import LoadedConfig, load_config
from .system import ControllerSpec, SystemSpec

__all__ = ["example_config", "example_system"]


def example_config() -> dict:
    """The scenario as a plain config document (see :mod:`.config`)."""
    return {
        "n": 2,
        "t0": 0.0,
        "x0": [-5.0, 2.0],
        "norm": "two",
        "A": [["t", "sin(t)"],
              ["t^(1/2)", "1"]],
        "Delta": [["1/(1+t^2)", "t"],
                  ["-t", "0"]],
        "B": [[1.0, 0.0],
              [0.0, 1.0]],
        "omega": ["t^(11/4)*cos(x1)", "1"],
        "omega_bound": "(t^(11/2)+1)^(1/2)",
        "controller": {
            "lambda": [-1.0, -1.0],
            "gamma": ["-t*(t^6+1)^(1/2)", "-t^(1/2)*(t^6+1)^(1/2)"],
        },
        "horizon": 10.0,
        "tol": 1e-8,
    }


def example_loaded() -> LoadedConfig:
    return load_config(example_config())


def example_system() -> tuple[SystemSpec, ControllerSpec]:
    """The scenario with its controller already synthesized."""
    cfg = example_loaded()
    return cfg.spec, cfg.controller.build(cfg.spec)
