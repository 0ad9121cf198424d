import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lognorm_control.presets import example_system

# deterministic property testing: same examples on every run
settings.register_profile(
    "det", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("det")


@pytest.fixture(scope="session")
def example():
    """The built-in demonstration system with its synthesized controller,
    shared read-only across the whole run (synthesis is not free)."""
    return example_system()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# a fast-rotating plant with a weak symmetric part, a decaying uncertainty
# and a state-dependent disturbance: the accuracy-bound counterpart of the
# stiff built-in example
OSCILLATOR_CONFIG = {
    "n": 2, "t0": 0.0, "x0": [1.2, -0.7], "norm": "two",
    "A": [["0.1500*cos(t)", "-0.2000+22.5000*(1+0.5*sin(0.9000*t))"],
          ["-0.2000-22.5000*(1+0.5*sin(0.9000*t))", "0.1000"]],
    "Delta": [["0.3000*exp(-t)", "-0.1000*exp(-t)"],
              ["0.2000*exp(-t)", "-0.4000*exp(-t)"]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "omega": ["0.1*sin(x2)", "0.1*sin(x1)"],
    "omega_bound": "0.1500",
    "controller": {"lambda": [-0.2, -0.2], "gamma": "auto", "margin": 0.02},
    "horizon": 20.0, "tol": 1e-8,
}


@pytest.fixture(scope="session")
def oscillator():
    """OSCILLATOR_CONFIG with its synthesized controller."""
    from lognorm_control.config import load_config
    cfg = load_config(OSCILLATOR_CONFIG)
    return cfg.spec, cfg.controller.build(cfg.spec)


def plant8_config(seed: int = 8, T: float = 2.0) -> dict:
    """A seeded n = 8 plant: sinusoidal entries, a decaying uncertainty,
    a near-identity B and a state-dependent disturbance."""
    n = 8
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(-1.0, 1.0, (2, n, n)).round(4)
    w = rng.uniform(0.5, 2.0, (n, n)).round(4)
    d = rng.uniform(-0.5, 0.5, (n, n)).round(4)
    B = (np.eye(n) + 0.1 * rng.standard_normal((n, n))).round(4)
    return {
        "n": n, "t0": 0.0, "x0": rng.uniform(-1.0, 1.0, n).round(4).tolist(),
        "norm": "two",
        "A": [[f"{a[i, j]}*sin({w[i, j]}*t)+{c[i, j]}" for j in range(n)]
              for i in range(n)],
        "Delta": [[f"{d[i, j]}/(1+t^2)" for j in range(n)] for i in range(n)],
        "B": B.tolist(),
        "omega": [f"0.1*sin(x{(i + 1) % n + 1})" for i in range(n)],
        "controller": {"lambda": [-1.0] * n, "gamma": "auto"},
        "horizon": T, "tol": 1e-8,
    }


@pytest.fixture(scope="session")
def plant8():
    """plant8_config() with its synthesized controller."""
    from lognorm_control.config import load_config
    cfg = load_config(plant8_config())
    return cfg.spec, cfg.controller.build(cfg.spec)


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's problem generators, ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def osc1_0(workloads):
    """Config 0 of ``bench/workloads.py``'s oscillator workload, seed 1
    (osc1-0), with its synthesized controller; its horizon is 20."""
    from lognorm_control.config import load_config
    cfg = load_config(workloads.oscillator_problems(1)[0].config)
    return cfg.spec, cfg.controller.build(cfg.spec)
