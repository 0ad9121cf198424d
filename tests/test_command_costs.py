"""What a command builds: only what it reads, once, freed when it returns.

Each command here runs in process through ``cli.main`` on the bundled
scenario and on the first oscillator config of the benchmark's seed 1.
The counts are exact, so a command that starts to build (or generate
code for) something it does not read shows without timing anything.
"""

import contextlib
import dataclasses
import gc
import io
import json
import types
from pathlib import Path

import numpy as np
import pytest

import lognorm_control
from lognorm_control import cli, expr, synthesis
from lognorm_control.config import load_config
from lognorm_control.expr import Bin, Lit, MatrixFunction
from lognorm_control.presets import example_config
from lognorm_control.system import ControllerSpec, closed_loop_function
from snapshot_outputs import _built_configs, _workloads

PACKAGE = str(Path(lognorm_control.__file__).resolve().parent)
COMMANDS = ("synthesize", "classify", "simulate", "verify")


def _bench_configs(workload, seed):
    """The configs of ``bench/workloads.py``'s ``workload`` at ``seed``."""
    return [p.config for p in _workloads().WORKLOADS[workload].problems(seed)]


def _oscillator_config():
    """Config 0 of the benchmark's oscillator workload, seed 1."""
    return _bench_configs("oscillator", 1)[0]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    paths = {}
    # the disturbance ladder's rungs s = 1 and 1e9 (see snapshot_outputs)
    ladder = {name: doc for name, doc, _ in _built_configs()}
    for name, doc in (("bundled", example_config()),
                      ("bundled-norm-one", {**example_config(),
                                            "norm": "one"}),
                      ("oscillator", _oscillator_config()),
                      ("ladder-1", ladder["ladder-1"]),
                      ("ladder-1e9", ladder["ladder-1e+09"])):
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
    ("bundled", {"synthesize": 4, "classify": 6, "simulate": 4,
                 "verify": 10}),
    ("oscillator", {"synthesize": 4, "classify": 5, "simulate": 3,
                    "verify": 10}),
])
def test_code_generated_per_command(configs, monkeypatch, workload, counts):
    # one compile per generated function a command runs: classify and
    # simulate never evaluate the gain K, so the code of its inner grid
    # (adaptive part plus gamma) is not made; C3's 32 samples in
    # synthesize and verify make it once, with A's and the rates' scalar
    # code.  A grid batched both below and from expr._ARRAY_MIN
    # times compiles its scalar and its array function.  Bundled's
    # simulate switches to RODAS4, which makes the scalar code of the
    # loop's derivative grid; the oscillator's never switches.  The checks
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


class _GainRead(Exception):
    pass


def _raise_gain_read(ctrl):
    raise _GainRead


@pytest.mark.parametrize("workload", ["bundled", "oscillator"])
def test_the_gain_is_evaluated_only_where_it_is_read(configs, monkeypatch,
                                                     workload):
    # a gain that raises when read: C3 in synthesize and verify reads it,
    # while classify and simulate evaluate the closed loop and never K
    monkeypatch.setattr(ControllerSpec, "K", property(_raise_gain_read))
    for command in ("synthesize", "verify"):
        with pytest.raises(_GainRead):
            _run(command, configs[workload])
    for command in ("classify", "simulate"):
        assert _run(command, configs[workload]) == 0


def _off_by_1e3(ctrl, part):
    """``ctrl`` with every entry of ``B_inv`` or of the adaptive part
    1e-3 larger."""
    if part == "B_inv":
        return dataclasses.replace(ctrl, B_inv=ctrl.B_inv + 1e-3)
    rows = [[Bin("+", e, Lit(1e-3)) for e in row]
            for row in ctrl.adaptive_part.entries]
    return dataclasses.replace(ctrl, adaptive_part=MatrixFunction(rows))


def test_a_wrong_gain_fails_where_it_is_read(configs, monkeypatch, capsys):
    # B_inv or the adaptive part off by 1e-3: synthesize prints them and
    # verify's C3 checks K through them, so C3 asks to check the gain in
    # both; classify and simulate evaluate the closed loop and never K
    for part in ("B_inv", "adaptive_part"):
        monkeypatch.setattr(
            "lognorm_control.cli.synthesize",
            lambda *args: _off_by_1e3(synthesis.synthesize(*args), part))
        for command, key, rc in (("synthesize", "c3", 0),
                                 ("verify", "C3", 1)):
            assert cli.main([command, "--config",
                             str(configs["bundled"])]) == rc
            c3 = json.loads(capsys.readouterr().out)[key]
            assert c3["verdict"] == "inconclusive"
            assert c3["note"].endswith("check the gain")
        for command in ("classify", "simulate"):
            assert _run(command, configs["bundled"]) == 0


def test_an_unevaluable_gain_leaves_classify_and_simulate_to_the_loop(
        tmp_path, capsys):
    # A, hence K, exists only on [0, 0.05]: synthesize's C3 cannot
    # evaluate A at its samples and says so, while classify and
    # simulate report the closed loop's own failure
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "n": 2, "t0": 0.0, "x0": [1.0, -0.5], "norm": "two",
        "A": [["sqrt(0.05-t)", "1"], ["0", "-1"]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "controller": {"lambda": [-1.0, -1.0], "gamma": "auto"},
        "horizon": 1.0, "tol": 1e-8}))
    assert cli.main(["synthesize", "--config", str(path)]) == 0
    c3 = json.loads(capsys.readouterr().out)["c3"]
    assert c3["verdict"] == "inconclusive"
    assert c3["note"].startswith(
        "could not evaluate A: entry (1,1): sqrt of negative value")
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


def _quadrature_evals(monkeypatch, command, config):
    """The exit code of ``command`` and the integrand evaluations of every
    cumulative_integral it runs, in call order."""
    evals = []
    original = lognorm_control.analysis.cumulative_integral

    def counting(f, grid, tol=1e-9):
        out = original(f, grid, tol)
        evals.append(out[2])
        return out
    with monkeypatch.context() as mp:
        for m in (lognorm_control.analysis, cli, lognorm_control.sim):
            mp.setattr(m, "cumulative_integral", counting)
        return _run(command, config), evals


@pytest.mark.parametrize("workload, counts", [
    ("bundled", {"classify": [961, 553, 669],
                 "verify": [349, 941, 961, 553]}),
    ("oscillator", {"classify": [537, 513, 533],
                    "verify": [133, 801, 537, 513]}),
    ("ladder-1", {"classify": [961, 513, 513],
                  "verify": [141, 801, 961, 513]}),
    ("ladder-1e9", {"classify": [961, 513, 513],
                    "verify": [325, 801, 961, 513]}),
])
def test_quadrature_evaluations_per_command(configs, monkeypatch, workload,
                                            counts):
    # the integrand evaluations of every cumulative_integral a command
    # runs, in call order: classify's A1 and its AS and UNSTABLE doubling
    # tests (S, US and UAS read AS's J); verify's Phi horizon, sandwich,
    # A1 and A4, whose quadrature C3 takes, as Gamma has the closed
    # loop's mu_2 bits at its nodes.  A quadrature that starts to refine
    # more (or less) shows here without timing.  The ladder's rungs s = 1
    # and 1e9 (disturbance times s) cost the same: the relative floor
    # keeps a large integrand from refining to the rounding-noise rule
    got = {}
    for command in ("classify", "verify"):
        rc, got[command] = _quadrature_evals(monkeypatch, command,
                                             configs[workload])
        assert rc == 0
    assert got == counts


def _as_and_a4(capsys, path):
    """The AS entry of ``classify`` and the A4 and C3 entries of
    ``verify`` on the config at ``path``."""
    cli.main(["classify", "--config", str(path)])
    as_ = json.loads(capsys.readouterr().out)["entries"]["AS"]
    cli.main(["verify", "--config", str(path)])
    doc = json.loads(capsys.readouterr().out)
    return as_, doc["A4"], doc["C3"]


@pytest.mark.parametrize("workload, seed", [
    ("bundled", 1), ("oscillator", 1), ("plants-n8", 1)])
def test_classify_as_is_verify_a4(tmp_path, capsys, workload, seed):
    # one decay test per integral: classify's AS takes A4's quadrature
    # and slack, so J, J_half, the error and the verdict are A4's bits,
    # and C3 takes them too under the two-norm
    for i, doc in enumerate(_bench_configs(workload, seed)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        entries = _as_and_a4(capsys, path)
        for key in ("J", "J_half", "quad_error"):
            assert len({repr(e["measured"][key]) for e in entries}) == 1
        assert {e["verdict"] for e in entries} == {"supported"}


# Gamma = -1 + 2e-8 t, which turns positive only at t = 5e7
SLOW_DECAY = {
    "n": 2, "t0": 0.0, "x0": [1.0, -0.5], "norm": "two",
    "A": [["0", "1"], ["-1", "0"]], "B": [[1.0, 0.0], [0.0, 1.0]],
    "controller": {"lambda": [-1.0, -1.0], "gamma": ["2e-8*t", "2e-8*t"]},
    "horizon": 10.0}


def test_classify_as_is_inconclusive_where_a4_is(tmp_path, capsys):
    # on T = 10, J(T) misses 2 J(T/2) by 5e-7, which the doubling test's
    # slack does not cover, so AS reads "too slowly" as A4 and C3 do
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(SLOW_DECAY))
    as_, a4, c3 = _as_and_a4(capsys, path)
    for ev in (as_, a4, c3):
        assert ev["verdict"] == "inconclusive"
        assert ev["note"].endswith("too slowly for the doubling test")
        assert ev["measured"]["J"] == as_["measured"]["J"]


@pytest.mark.parametrize("amplitude, note", [
    (1e3, "too slowly for the doubling test"),
    (1e6, "quadrature did not converge")])
def test_a_swing_in_the_rate_keeps_a_slow_decay_inconclusive(
        tmp_path, capsys, amplitude, note):
    # a cos(2 pi t) added to the rate leaves J(10) and J(5) as they are
    # but makes int |mu| ~ 0.64 a: the error floor follows |J|, not the
    # swing, so the slack stays below the 5e-7 doubling miss; at a = 1e6
    # resolving the swing to that floor takes more than the evaluation cap
    doc = json.loads(json.dumps(SLOW_DECAY))
    doc["controller"]["gamma"] = [f"2e-8*t + {amplitude:g}*cos(2*pi*t)"] * 2
    path = tmp_path / "swing.json"
    path.write_text(json.dumps(doc))
    for ev in _as_and_a4(capsys, path):
        assert ev["verdict"] == "inconclusive"
        assert ev["note"].endswith(note)


def test_classify_supports_no_member_whose_implied_ones_are_not(tmp_path,
                                                               capsys):
    # UAS implies AS: where AS is inconclusive, so is UAS, whatever its
    # own sampled rate says, and the strongest supported member is US
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(SLOW_DECAY))
    rc = cli.main(["classify", "--config", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert (rc, doc["strongest"]) == (1, "US")
    verdicts = {k: e["verdict"] for k, e in doc["entries"].items()}
    assert verdicts == {"S": "supported", "US": "supported",
                        "AS": "inconclusive", "UAS": "inconclusive",
                        "UNSTABLE": "refuted"}
    assert doc["entries"]["UAS"]["note"] == ("uniform decay rate alpha = 1; "
                                             "AS not supported")


def test_verify_integrates_c3_under_another_norm(configs, monkeypatch):
    # under mu_1 the closed loop's rate is not Gamma, so C3 runs its own
    # quadrature after A4's: five in all (A1 stays inconclusive, exit 1)
    rc, evals = _quadrature_evals(monkeypatch, "verify",
                                  configs["bundled-norm-one"])
    assert (rc, evals) == (1, [377, 981, 261, 681, 553])


def test_commands_in_one_process_repeat_their_bytes(configs):
    # the same inputs give the same bits: nothing a command leaves behind
    # (such as a quadrature verify's C3 took from A4) reaches the next
    def output(command, workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([command, "--config", str(configs[workload])])
        return out.getvalue()
    first = output("verify", "bundled")
    output("synthesize", "bundled")
    output("verify", "oscillator")
    assert output("verify", "bundled") == first


@pytest.mark.parametrize("workload, counts", [
    ("bundled", (614, 7, 390, 3727)),
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
    assert [q[:2] for q in quads] == [("sim", 2), ("sim", 2), ("sim", 2)]
    assert all(calls == loops for _, _, calls, loops in quads)
