"""The benchmark's layer tracer still finds every binding it patches.

``bench/tracer.py`` wraps package functions from outside and refuses to
run (``RuntimeError``) when a binding it needs is gone, so a refactor
that renames or drops one breaks ``bench/run.py --trace 1``.  These tests
install the tracer on the loaded package and restore it; a simulate run
under the tracer must count every right-hand side and keep its bits.
"""

import importlib.util
import sys
from pathlib import Path

import lognorm_control.cli  # noqa: F401  (loads every package module)
from lognorm_control import sim

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every callable reachable as a package module attribute, plus the
    two ``compiled`` methods the tracer patches on classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "lognorm_control" or name.startswith("lognorm_control."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    expr = sys.modules["lognorm_control.expr"]
    out[("MatrixFunction", "compiled")] = expr.MatrixFunction.compiled
    out[("VectorFunction", "compiled")] = expr.VectorFunction.compiled
    return out


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    before = _bindings()
    restore = tracer.Tracer().install()  # raises RuntimeError on a miss
    try:
        during = _bindings()
        # every module the tracer requires holds a wrapper while installed
        for attr, modules in tracer.REQUIRED.items():
            for m in modules:
                key = (f"lognorm_control.{m}", attr)
                assert during[key] is not before[key], key
        assert during[("MatrixFunction", "compiled")] is not \
            before[("MatrixFunction", "compiled")]
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_simulate_counts_every_rhs_call(example):
    # the tracer counts the right-hand sides sim._integrate is handed
    # through a (*args, **kwargs) wrapper: a stepper that bypasses f, or
    # whose output row does not pass through that wrapper, changes the
    # count or the states.  4,623 is the bundled scenario's count.
    spec, ctrl = example
    plain = sim.simulate(spec, ctrl, T=10.0)
    tracer = _load_tracer().Tracer()
    restore = tracer.install()
    try:
        traced = sim.simulate(spec, ctrl, T=10.0)
    finally:
        restore()
    rhs = sum(n for (_, name), (n, _) in tracer.hot.items()
              if name == "sim.rhs")
    assert rhs == 4623
    assert traced.states.tobytes() == plain.states.tobytes()
    assert traced.step_sizes.tobytes() == plain.step_sizes.tobytes()


def test_package_names_follow_their_modules_through_restore():
    # the package resolves a name on use: while the tracer is installed it
    # gives the module's wrapper, and after restore the original again.  A
    # name the package kept from the installed state would stay wrapped
    import lognorm_control
    modules = [sys.modules[f"lognorm_control.{m}"]
               for m in lognorm_control._MODULES]
    original = lognorm_control.lognorm
    restore = _load_tracer().Tracer().install()
    try:
        assert lognorm_control.lognorm is not original
        for module in modules:
            for name in module.__all__:
                assert getattr(lognorm_control, name) is getattr(module, name)
    finally:
        restore()
    assert lognorm_control.lognorm is original
    for module in modules:
        for name in module.__all__:
            assert getattr(lognorm_control, name) is getattr(module, name)
