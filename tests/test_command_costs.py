"""What a command builds: only what it reads, once, freed when it returns.

Each command here runs in process through ``cli.main`` on the bundled
scenario and on the first oscillator config of the benchmark's seed 1.
The counts are exact, so a command that starts to build (or generate
code for) something it does not read shows without timing anything.
"""

import contextlib
import gc
import importlib.util
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lognorm_control
from lognorm_control import cli, expr, synthesis
from lognorm_control.config import load_config
from lognorm_control.expr import Bin, Lit
from lognorm_control.presets import example_config
from lognorm_control.system import closed_loop_function

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = str(Path(lognorm_control.__file__).resolve().parent)
COMMANDS = ("synthesize", "classify", "simulate", "verify")


def _oscillator_config():
    """Config 0 of ``bench/workloads.py``'s oscillator workload, seed 1."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.oscillator_problems(1)[0].config


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    paths = {}
    for name, doc in (("bundled", example_config()),
                      ("oscillator", _oscillator_config())):
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _run(command, config):
    argv = [command, "--config", str(config)]
    if command == "simulate":
        argv += ["--out", str(config.with_suffix(".csv"))]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _made_by_package(obj) -> bool:
    """A grid, an expression node, an evaluator or any other object of a
    package class; an argparse object; or a function whose code is the
    package's, generated code included."""
    module = type(obj).__module__ or ""
    if module.startswith("lognorm_control") or module == "argparse":
        return True
    if isinstance(obj, types.FunctionType):
        code = obj.__code__.co_filename
        return (code.startswith(PACKAGE)
                or obj.__globals__.get("_nonfinite") is expr._nonfinite)
    return False


@pytest.mark.parametrize("workload", ["bundled", "oscillator"])
@pytest.mark.parametrize("command", COMMANDS)
def test_commands_leave_no_cyclic_garbage(configs, workload, command):
    # what a command builds is freed by reference counting when it
    # returns: the cyclic collector finds none of it.  The parser is
    # built once per process (argparse's formatters form cycles then),
    # so a first command builds it here
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["lognorm", "[[0, 1], [1, 0]]"])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _run(command, configs[workload]) == 0
        gc.collect()
        ours = [repr(o)[:80] for o in gc.garbage if _made_by_package(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert ours == []


@pytest.mark.parametrize("workload, counts", [
    ("bundled", {"synthesize": 5, "classify": 6, "simulate": 3,
                 "verify": 11}),
    ("oscillator", {"synthesize": 5, "classify": 5, "simulate": 3,
                    "verify": 11}),
])
def test_code_generated_per_command(configs, monkeypatch, workload, counts):
    # one compile per generated function a command runs: classify and
    # simulate never build the gain K, so neither K's code nor the
    # symmetric part's and the rates' scalar code its spot check runs
    # is made.  A grid batched both below and from expr._ARRAY_MIN
    # times compiles its scalar and its array function.  The checks
    # evaluate gamma and the envelope with the checked interpreter, so
    # none of these is compiled: bundled's explicit gamma entries in
    # _reject_vanishing_gamma (2 in every command), the envelope and
    # the gamma entries in verify_c2 (synthesize: bundled 3, oscillator
    # 3, its auto gamma twice) and the envelope in check_A3 (verify: 1)
    made = []
    original = expr._lambda

    def counting(params, body):
        made.append(params)
        return original(params, body)
    monkeypatch.setattr(expr, "_lambda", counting)
    got = {}
    for command in COMMANDS:
        made.clear()
        assert _run(command, configs[workload]) == 0
        got[command] = len(made)
    assert got == counts


def test_a_large_batch_runs_only_the_array_function(monkeypatch):
    # a batch of the oscillator's fused loop as large as Phi's runs the
    # generated array function once and never the scalar one
    cfg = load_config(_oscillator_config())
    ctrl = cfg.controller.build(cfg.spec)
    calls = []
    original = expr._lambda

    def counting(params, body):
        fn = original(params, body)
        return lambda t, _x=None: calls.append(type(t)) or fn(t, _x)
    monkeypatch.setattr(expr, "_lambda", counting)
    F = closed_loop_function(cfg.spec, ctrl, include_delta=True)
    ts = np.linspace(cfg.spec.t0, cfg.horizon, 512)
    got = F(ts)
    assert calls == [np.ndarray]
    assert got.tobytes() == np.array([F(t) for t in ts]).tobytes()


@pytest.mark.parametrize("workload", ["bundled", "oscillator"])
def test_spot_check_runs_where_the_gain_is_read(configs, monkeypatch,
                                               workload):
    calls = []
    original = synthesis._spot_check_gain

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(synthesis, "_spot_check_gain", counting)
    got = {}
    for command in COMMANDS:
        calls.clear()
        assert _run(command, configs[workload]) == 0
        got[command] = len(calls)
    assert got == {"synthesize": 1, "classify": 0, "simulate": 0,
                   "verify": 1}


def test_a_wrong_gain_fails_where_it_is_read(configs, monkeypatch):
    # every entry of K off by 1e-3: synthesize prints K and verify's C3
    # checks it, so both fail the spot check as before; classify and
    # simulate evaluate the closed loop and never build K
    original = synthesis._dot_row
    monkeypatch.setattr(synthesis, "_dot_row", lambda c, e: Bin(
        "+", original(c, e), Lit(1e-3)))
    for command in ("synthesize", "verify"):
        with pytest.raises(AssertionError,
                           match=r"^gain identity violated at t=0\.1: "
                                 r"max error 1\.\d+e-03$"):
            _run(command, configs["bundled"])
    for command in ("classify", "simulate"):
        assert _run(command, configs["bundled"]) == 0


def test_an_unevaluable_gain_leaves_classify_and_simulate_to_the_loop(
        tmp_path, capsys):
    # A, hence K, exists only on [0, 0.05], before the first probe time
    # of the spot check: synthesize still fails it, while classify and
    # simulate report the closed loop's own failure
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "n": 2, "t0": 0.0, "x0": [1.0, -0.5], "norm": "two",
        "A": [["sqrt(0.05-t)", "1"], ["0", "-1"]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "controller": {"lambda": [-1.0, -1.0], "gamma": "auto"},
        "horizon": 1.0, "tol": 1e-8}))
    assert cli.main(["synthesize", "--config", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: could not evaluate the gain at any probe time\n"
    assert cli.main(["classify", "--config", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["entries"]["AS"]["note"].startswith(
        "could not evaluate the closed loop: entry (1,1): sqrt of negative "
        "value")
    assert cli.main(["simulate", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: expression evaluation failed at t=0.05")


def test_verify_batches_the_fused_loop(configs, monkeypatch):
    # the fused loop is a compiled grid, which batches by construction:
    # Phi and the sandwich take it without scalar probe calls, and its
    # dimension comes from a batch
    scalar = []
    modules = [m for m in (cli, lognorm_control.analysis, lognorm_control.sim)
               if hasattr(m, "closed_loop_function")]
    original = lognorm_control.system.closed_loop_function

    def counting(spec, ctrl=None, include_delta=False):
        fn = original(spec, ctrl, include_delta)
        if not include_delta:
            return fn

        def wrapper(t, x=None):
            if not (hasattr(t, "ndim") and t.ndim):
                scalar.append(t)
            return fn(t, x)
        wrapper.__wrapped__ = fn
        return wrapper
    for m in modules:
        monkeypatch.setattr(m, "closed_loop_function", counting)
    for workload in ("bundled", "oscillator"):
        assert _run("verify", configs[workload]) == 0
    assert scalar == []


@pytest.mark.parametrize("workload, counts", [
    ("bundled", {"classify": [961, 1053, 2493],
                 "verify": [349, 941, 961, 1141, 1141]}),
    ("oscillator", {"classify": [537, 1025, 533],
                    "verify": [133, 801, 537, 513, 513]}),
])
def test_quadrature_evaluations_per_command(configs, monkeypatch, workload,
                                            counts):
    # the integrand evaluations of every cumulative_integral a command
    # runs, in call order: classify's A1, its J and its UNSTABLE doubling
    # test; verify's Phi horizon, sandwich, A1, A4 and C3.  A quadrature
    # that starts to refine more (or less) shows here without timing
    evals = []
    original = lognorm_control.analysis.cumulative_integral

    def counting(f, grid, tol=1e-9):
        out = original(f, grid, tol)
        evals.append(out[2])
        return out
    for m in (lognorm_control.analysis, cli, lognorm_control.sim):
        monkeypatch.setattr(m, "cumulative_integral", counting)
    got = {}
    for command in ("classify", "verify"):
        evals.clear()
        assert _run(command, configs[workload]) == 0
        got[command] = list(evals)
    assert got == counts


@pytest.mark.parametrize("workload, counts", [
    ("bundled", (614, 7, 390, 4623)),
    ("oscillator", (3598, 0, 3598, 21589)),
])
def test_steps_per_simulate(configs, monkeypatch, workload, counts):
    # simulate's accepted and rejected steps, the accepted ones DP5 took
    # before the switch to RODAS4, and the right-hand-side calls the
    # stepper makes, counted through sim._integrate as the benchmark's
    # tracer counts them.  A change that moves a step shows here
    sim = lognorm_control.sim
    original = sim._integrate
    got = []

    def counting(f, *args, **kwargs):
        calls = [0]

        def rhs(*a, **k):
            calls[0] += 1
            return f(*a, **k)
        _, steps, rejected, explicit = out = original(rhs, *args, **kwargs)
        got.append((len(steps), rejected, explicit, calls[0]))
        return out
    monkeypatch.setattr(sim, "_integrate", counting)
    assert _run("simulate", configs[workload]) == 0
    assert got == [counts]


@pytest.mark.parametrize("workload", ["bundled", "oscillator"])
def test_one_quadrature_per_log_norm_pair(configs, monkeypatch, workload):
    # simulate's envelopes, the sandwich and the Phi horizon each integrate
    # mu[M] and mu[-M] as one two-component integrand: one
    # cumulative_integral per site, and one closed-loop batch per
    # refinement level of it
    sim = lognorm_control.sim
    loop_calls = [0]
    quads = []  # (module, integrand calls, closed-loop calls during it)
    original_loop = lognorm_control.system.closed_loop_function
    original_quad = lognorm_control.analysis.cumulative_integral

    def counting_loop(spec, ctrl=None, include_delta=False):
        fn = original_loop(spec, ctrl, include_delta)

        def wrapper(t, x=None):
            loop_calls[0] += 1
            return fn(t, x)
        wrapper.__wrapped__ = fn
        return wrapper

    def counting_quad(module):
        def quad(f, grid, tol=1e-9):
            calls, before = [0], loop_calls[0]

            def g(ts):
                calls[0] += 1
                return f(ts)
            out = original_quad(g, grid, tol)
            quads.append((module, out[0].shape[0], calls[0],
                          loop_calls[0] - before))
            return out
        return quad
    for m in (cli, sim):
        monkeypatch.setattr(m, "closed_loop_function", counting_loop)
        monkeypatch.setattr(m, "cumulative_integral",
                            counting_quad(m.__name__.split(".")[-1]))
    assert _run("simulate", configs[workload]) == 0
    assert _run("verify", configs[workload]) == 0
    # simulate's envelopes; verify's Phi horizon, then its sandwich
    assert [q[:2] for q in quads] == [("sim", 2), ("cli", 2), ("sim", 2)]
    assert all(calls == loops for _, _, calls, loops in quads)
