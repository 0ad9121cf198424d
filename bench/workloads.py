"""Workloads of the pipeline benchmark: generators, references and checks.

A workload turns the ``--seed`` argument into problem configs (the JSON
documents the CLI reads with ``--config``); the package sees only those
files.  Every report a command prints is checked against expectations
and references that share no code with the package, and the checks run
outside the timed region.

Each workload loads a different layer and bypasses another, so that a
change to one layer shows on one workload and leaves another unchanged.
The layer split quoted for each workload is the traced run's share of
one pipeline (synthesize, classify, simulate, verify) measured on a
2-vCPU x86-64 host with Python 3.11.7 and numpy 2.4.6, BLAS threads
pinned to 1; the package source measured is the one this benchmark was
added on top of.  Times quoted are normalised to the reference probe
speed (see run.py).

``bundled``
    Recipe: ``presets.example_config()`` unchanged, i.e. the paper's
    n = 2 scenario with T = 10, the state-dependent disturbance
    ``t^(11/4) cos(x1)`` and the explicit gamma of the paper.  The seed
    is accepted and ignored: there is one problem.  ``simulate`` writes
    the default 1001-point trace.
    Why: the stiff case.  DP5 is pinned at h * |mu| ~ 1.1 for 6,696
    accepted and 7 rejected steps, so ``simulate`` is the bulk of the
    pipeline; linear algebra is only 2x2.  A stiffness-aware integrator
    or a fused closed-loop evaluator shows here; batched 8x8 linear
    algebra barely does.  ``verify`` covers 2.15 of the 10 time units.
    Checks: the CSV states match ``tests/data/repro_golden.json`` (an
    independent fixed-step RK4 run) to a sup-difference of 1e-5, the
    norm tail is non-increasing, ``classify`` reports UAS and ``verify``
    exits 0 with the sandwich passed.
    Split: ``simulate`` is ~73 % of the pipeline (1.45 of 2.0 s).  Inside
    it the closed-loop evaluator takes 42 %, the stepper's own arithmetic
    25 %, the compiled disturbance 10 % and the 2x2 lognorm 19 %;
    ``classify`` and ``verify`` are ~60 % lognorm, ~20 % closed loop.

``plants-n8``
    Recipe: one plant per run with n = 8 and T = 5, drawn from the seed:
    ``A[i][j] = a*sin(w*t)+c`` with a, c ~ U(-1, 1) and w ~ U(0.5, 2);
    ``Delta[i][j] = d/(1+t^2)`` with d ~ U(-0.5, 0.5); ``B = I + 0.2 N``
    with N standard normal, redrawn until cond(B) < 10; x0 ~ U(-1, 1);
    lambda = -1, gamma ``auto`` (margin 1, no disturbance, so
    gamma = -(1 + t)).  Every number is rounded to four decimals so the
    config text states it exactly.  ``simulate`` writes 51 points.
    Why: the linear-algebra case.  The plant is non-stiff (~100 steps,
    h * |mu| <= 0.7 with h capped at 0.1), while every lognorm is an 8x8
    symmetric eigenvalue problem, so the two-norm lognorm is ~90 % of
    ``classify``, ``simulate`` and ``verify`` and the stepper is nearly
    idle.  Batched or numpy linear
    algebra and vectorised quadrature show here; a new stepper does
    not.  n = 16 is left out: one pipeline takes minutes there.
    Checks: every CSV row matches a scipy ``solve_ivp`` integration of
    ``A_skew + diag(lambda + gamma) + Delta`` built from the drawn
    numbers; all verdicts are supported, exit codes 0, strongest UAS.
    Split: the lognorm (~10.4k calls at ~2 ms) is 92 % of ``classify``,
    81 % of ``simulate`` and 90 % of ``verify``; the closed-loop evaluator
    most of the rest.  ``classify`` ~7.4 s, ``simulate`` ~1.9 s,
    ``verify`` ~11 s; ``verify`` covers ~60 % of the horizon.
    Not in BENCHMARK.json: one pipeline takes ~20 s (~25 s of wall time
    on the host above), so a run holds one or two samples of each
    command, and a third workload's runs would not fit the time the
    benchmark is given.  Run it by name.

``oscillator``
    Recipe: six n = 2 plants per run with T = 20: the skew part
    ``a*(1+0.5*sin(f*t))`` with a = 22.5 and f ~ U(0.5, 1.5);
    a weak symmetric part ``s1*cos(t)``, ``s2``, ``s3`` with
    s ~ U(-0.3, 0.3); ``Delta = d*exp(-t)`` with d ~ U(-0.5, 0.5); the
    disturbance ``0.1*sin(x_other)`` with envelope 0.15; lambda = -0.2;
    gamma ``auto`` with margin 0.02; x0 ~ U(-2, 2).  ``simulate`` writes
    the default 1001 points.  The step count and the cost of ``verify``
    grow with a (``verify`` takes ~1 s at a = 16 and ~2 s at a = 29), so
    a is the same for every plant: the medians over a run's plants then
    do not depend on which a values a seed drew.
    Why: the same stepper and evaluator as ``bundled`` in the other
    regime.  DP5 is accuracy-bound here (~3.6k steps, none rejected,
    h * |mu| < 0.02), and ``verify`` integrates Phi over the
    whole horizon.  A change that helps stiff runs but costs non-stiff ones
    shows up here as a regression.
    Checks: as for ``plants-n8``, with the disturbance in the reference.
    Split: ``simulate`` and ``verify`` ~46 % each of a ~2.8 s pipeline.
    ``simulate`` is 33 % closed loop, 17 % stepper, 6 % disturbance and
    38 % lognorm (the envelope integrals over 1000 cells); ``verify`` is
    53 % closed loop, 33 % stepper and 11 % lognorm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = Path("tests") / "data" / "repro_golden.json"
GOLDEN_SUP = 1e-5     # the acceptance gate of the bundled scenario
REFERENCE_REL = 1e-6  # package DP5 (tol 1e-8) against a tight scipy run


@dataclass
class Problem:
    """One generated input: the config document, the numbers it was drawn
    from, and (filled in lazily) the reference trajectory."""
    name: str
    config: dict
    params: dict = field(default_factory=dict)
    reference: object = None


def _num(v: float) -> str:
    return f"{v:.4f}"


def _draw(rng, low, high, shape=None):
    return np.round(rng.uniform(low, high, shape), 4)


# ---------------------------------------------------------------------------
# generators

def bundled_problems(seed: int) -> list[Problem]:
    from lognorm_control.presets import example_config
    return [Problem("bundled", example_config())]


def plants_n8_problems(seed: int, n: int = 8, T: float = 5.0) -> list[Problem]:
    rng = np.random.default_rng([seed, 8])
    a = _draw(rng, -1.0, 1.0, (n, n))
    w = _draw(rng, 0.5, 2.0, (n, n))
    c = _draw(rng, -1.0, 1.0, (n, n))
    d = _draw(rng, -0.5, 0.5, (n, n))
    while True:
        B = np.round(np.eye(n) + 0.2 * rng.standard_normal((n, n)), 4)
        if np.linalg.cond(B) < 10.0:
            break
    x0 = _draw(rng, -1.0, 1.0, n)
    lam = -1.0
    cfg = {
        "n": n, "t0": 0.0, "x0": x0.tolist(), "norm": "two",
        "A": [[f"{_num(a[i, j])}*sin({_num(w[i, j])}*t)+{_num(c[i, j])}"
               for j in range(n)] for i in range(n)],
        "Delta": [[f"{_num(d[i, j])}/(1+t^2)" for j in range(n)]
                  for i in range(n)],
        "B": B.tolist(),
        "controller": {"lambda": [lam] * n, "gamma": "auto"},
        "horizon": T, "tol": 1e-8,
    }
    params = {"a": a, "w": w, "c": c, "d": d, "lam": lam, "margin": 1.0,
              "x0": x0, "T": T}
    return [Problem(f"plant{seed}", cfg, params)]


def oscillator_problems(seed: int, count: int = 6, T: float = 20.0,
                        a: float = 22.5) -> list[Problem]:
    rng = np.random.default_rng([seed, 2])
    problems = []
    for k in range(count):
        f = float(_draw(rng, 0.5, 1.5))
        s = _draw(rng, -0.3, 0.3, 3)
        d = _draw(rng, -0.5, 0.5, (2, 2))
        x0 = _draw(rng, -2.0, 2.0, 2)
        lam, margin, bound = -0.2, 0.02, 0.15
        skew = f"{_num(a)}*(1+0.5*sin({_num(f)}*t))"
        cfg = {
            "n": 2, "t0": 0.0, "x0": x0.tolist(), "norm": "two",
            "A": [[f"{_num(s[0])}*cos(t)", f"{_num(s[1])}+{skew}"],
                  [f"{_num(s[1])}-{skew}", _num(s[2])]],
            "Delta": [[f"{_num(d[i, j])}*exp(-t)" for j in range(2)]
                      for i in range(2)],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "omega": ["0.1*sin(x2)", "0.1*sin(x1)"],
            "omega_bound": _num(bound),
            "controller": {"lambda": [lam, lam], "gamma": "auto",
                           "margin": margin},
            "horizon": T, "tol": 1e-8,
        }
        params = {"a": a, "f": f, "d": d, "lam": lam,
                  "margin": margin, "bound": bound, "x0": x0, "T": T}
        problems.append(Problem(f"osc{seed}-{k}", cfg, params))
    return problems


# ---------------------------------------------------------------------------
# references (independent of the package)

def _plants_n8_rhs(p):
    a, w, c, d, lam = p["a"], p["w"], p["c"], p["d"], p["lam"]

    def rhs(t, x):
        A = a * np.sin(w * t) + c
        gamma = -p["margin"] * (1.0 + t)
        M = 0.5 * (A - A.T) + np.diag(np.full(len(x), lam + gamma)) \
            + d / (1.0 + t * t)
        return M @ x
    return rhs


def _oscillator_rhs(p):
    a, f, d, lam = p["a"], p["f"], p["d"], p["lam"]

    def rhs(t, x):
        sk = a * (1.0 + 0.5 * math.sin(f * t))
        rate = lam - p["margin"] * (1.0 + t) * (1.0 + p["bound"])
        e = math.exp(-t)
        return np.array([
            (rate + d[0, 0] * e) * x[0] + (sk + d[0, 1] * e) * x[1]
            + 0.1 * math.sin(x[1]),
            (-sk + d[1, 0] * e) * x[0] + (rate + d[1, 1] * e) * x[1]
            + 0.1 * math.sin(x[0]),
        ])
    return rhs


def _reference(make_rhs):
    """States on ``times`` from a tight scipy integration of the closed
    loop that ``make_rhs`` writes out from a problem's drawn numbers."""
    def solve(problem, times):
        from scipy.integrate import solve_ivp
        p = problem.params
        sol = solve_ivp(make_rhs(p), (0.0, p["T"]), p["x0"], method="DOP853",
                        t_eval=times, rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.y.T
    return solve


def _golden_states(problem, times):
    doc = json.loads(GOLDEN.read_text())
    golden_t = np.array(doc["times"])
    if len(golden_t) != len(times) or np.abs(golden_t - times).max() > 1e-12:
        raise ValueError("simulate grid does not match the golden grid")
    return np.array(doc["states"])


# ---------------------------------------------------------------------------
# checks

def read_trace_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Times and states of a simulate CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in fh if line.strip()])
    n = sum(1 for h in header if h.startswith("x_"))
    return rows[:, 0], rows[:, 1:1 + n]


def check_report(workload: "Workload", problem: Problem, command: str,
                 rc: int, stdout: str, states=None) -> list[str]:
    """Problems with one command's output; empty when it is correct.

    ``states`` is ``(times, x)`` read from the simulate CSV.
    """
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    bad = []
    try:
        _check_fields(workload, problem, command, rep, states, bad)
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"output is not as expected: {exc!r}")
    return bad


def _check_fields(workload, problem, command, rep, states, bad):
    if command == "synthesize":
        for key in ("c1", "c2", "c3"):
            if rep[key]["verdict"] != "supported":
                bad.append(f"{key} is {rep[key]['verdict']}")
    elif command == "classify":
        if rep["strongest"] != "UAS":
            bad.append(f"strongest is {rep['strongest']}, expected UAS")
    elif command == "simulate":
        if rep["tail_nonincreasing"] is not True:
            bad.append("norm tail is increasing")
        if states is None:
            bad.append("the trace CSV is missing or unreadable")
            return
        times, x = states
        if problem.reference is None:
            problem.reference = workload.reference(problem, times)
        diff = float(np.abs(x - problem.reference).max())
        limit = workload.state_tolerance(problem.reference)
        if not diff <= limit:
            bad.append(f"states differ from the reference by {diff:.3g} "
                       f"(limit {limit:.3g})")
    elif command == "verify":
        if rep["sandwich"]["passed"] is not True:
            bad.append("sandwich check failed")
        for key in ("A1", "A2", "A3", "A4", "C3"):
            if rep[key]["verdict"] != "supported":
                bad.append(f"{key} is {rep[key]['verdict']}")


@dataclass(frozen=True)
class Workload:
    name: str
    problems: object      # seed -> list[Problem]
    reference: object     # (Problem, times) -> states
    state_tolerance: object  # reference states -> allowed sup-difference
    points: int           # simulate --points


def _relative(ref):
    return REFERENCE_REL * (1.0 + float(np.abs(ref).max()))


WORKLOADS = {
    "bundled": Workload(
        "bundled", bundled_problems, _golden_states,
        lambda ref: GOLDEN_SUP, 1001),
    "plants-n8": Workload(
        "plants-n8", plants_n8_problems,
        _reference(_plants_n8_rhs), _relative, 51),
    "oscillator": Workload(
        "oscillator", oscillator_problems,
        _reference(_oscillator_rhs), _relative, 1001),
}
