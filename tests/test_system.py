"""Problem-definition data model and closed-loop assembly."""

import dataclasses
import re

import numpy as np
import pytest

import oracles
from lognorm_control import sim
from lognorm_control.analysis import check_A2_A4, classify_stability
from lognorm_control.expr import (
    EvalError,
    VectorFunction,
    eval_expr,
    parse,
    parse_matrix,
    parse_vector,
)
from lognorm_control.linalg import lognorm
from lognorm_control.synthesis import ExplicitGamma, synthesize
from lognorm_control.system import (
    SystemSpec,
    closed_loop_function,
    closed_loop_matrix,
)


def make_spec(**over):
    kw = dict(
        n=2,
        A=parse_matrix([["t", "sin(t)"], ["t^(1/2)", "1"]], ("t",)),
        B=np.eye(2),
        t0=0.0,
        x0=np.array([-5.0, 2.0]),
    )
    kw.update(over)
    return SystemSpec(**kw)


def test_spec_defaults():
    s = make_spec()
    assert s.norm == "two"
    assert s.Delta is None and s.omega is None and s.omega_bound is None


def test_spec_dimension_checks():
    with pytest.raises(ValueError):
        make_spec(x0=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        make_spec(B=np.eye(3))
    with pytest.raises(ValueError):
        make_spec(A=parse_matrix([["t"] * 3] * 3, ("t",)))
    with pytest.raises(ValueError):
        make_spec(Delta=parse_matrix([["0"] * 3] * 3, ("t",)))
    with pytest.raises(ValueError):
        make_spec(omega=parse_vector(["1", "1", "1"], ("t",)))


def test_spec_rejects_state_dependent_plant():
    A = parse_matrix([["x1", "0"], ["0", "1"]], ("t", "x1", "x2"))
    with pytest.raises(ValueError):
        make_spec(A=A)


def test_spec_rejects_nonfinite_t0():
    with pytest.raises(ValueError):
        make_spec(t0=float("nan"))


def test_spec_omega_may_depend_on_state():
    w = parse_vector(["t^(11/4)*cos(x1)", "1"], ("t", "x1", "x2"))
    s = make_spec(omega=w, omega_bound=parse("(t^(11/2)+1)^(1/2)", ("t",)))
    assert s.omega is w


def test_spec_omega_bound_is_time_only():
    w = parse_vector(["1", "1"], ("t",))
    with pytest.raises(ValueError):
        make_spec(omega=w, omega_bound=parse("x1", ("t", "x1", "x2")))


# ---------------------------------------------------------------------------
# closed-loop assembly

def test_closed_loop_zero_gain_is_plant():
    s = make_spec(Delta=parse_matrix([["1", "0"], ["0", "1"]], ("t",)))
    t = 0.7
    got = closed_loop_matrix(s, None, t)
    assert np.allclose(got, s.A(t), atol=0.0)
    got_d = closed_loop_matrix(s, None, t, include_delta=True)
    assert np.allclose(got_d, s.A(t) + np.eye(2), atol=1e-15)


def test_closed_loop_rejects_time_before_start():
    s = make_spec(t0=1.0)
    with pytest.raises(ValueError):
        closed_loop_matrix(s, None, 0.5)


def test_closed_loop_example_at_zero(example):
    spec, ctrl = example
    # at t = 0 the gain cancels the symmetric part and the skew part
    # vanishes, leaving diag(lambda + gamma(0)) = diag(-1, -1)
    got = closed_loop_matrix(spec, ctrl, 0.0)
    assert np.allclose(got, np.diag([-1.0, -1.0]), atol=1e-12)


def test_closed_loop_cancellation():
    # symmetric plant, gamma = -lambda: the gain reduces to K = -A and
    # the loop closes to the zero matrix
    from lognorm_control.synthesis import ExplicitGamma, synthesize
    s = make_spec(A=parse_matrix([["t", "1"], ["1", "0"]], ("t",)))
    ctrl = synthesize(s, lam=np.array([-1.0, -1.0]),
                      rule=ExplicitGamma((parse("1"), parse("1"))))
    for t in (0.0, 0.8, 2.5):
        assert np.allclose(closed_loop_matrix(s, ctrl, t),
                           np.zeros((2, 2)), atol=1e-12)
        assert np.allclose(ctrl.K(t), -s.A(t), atol=1e-12)


def test_closed_loop_function_negate_and_delta(example):
    # the instability test negates at the call site
    spec, ctrl = example
    f = closed_loop_function(spec, ctrl)
    fd = closed_loop_function(spec, ctrl, include_delta=True)
    t = 2.0
    assert np.array_equal(-fd(t), -(f(t) + spec.Delta(t)))
    assert np.allclose(fd(t) - f(t), spec.Delta(t), atol=1e-14)


SYSTEMS = ["example", "oscillator", "plant8"]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("include_delta, negate",
                         [(False, False), (True, False), (True, True),
                          (False, True)])
def test_closed_loop_function_batch_bitwise(system, include_delta, negate,
                                            request):
    spec, ctrl = request.getfixturevalue(system)
    ts = np.linspace(spec.t0, spec.t0 + 10.0, 101)
    sign = -1.0 if negate else 1.0
    for c in (ctrl, None):
        f = closed_loop_function(spec, c, include_delta=include_delta)
        assert np.array_equal(sign * f(ts), np.array([sign * f(t) for t in ts]))


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("include_delta", [False, True])
def test_closed_loop_function_matches_reference(system, include_delta,
                                                request):
    # the structured loop A_skew + diag(lam + gamma) [+ Delta] against the
    # checked A + B K [+ Delta]; they round the skew entries differently
    spec, ctrl = request.getfixturevalue(system)
    ts = spec.t0 + np.array([0.0, 0.3, 1.1, 2.9, 7.6])
    for c in (ctrl, None):
        f = closed_loop_function(spec, c, include_delta=include_delta)
        ref = np.array([closed_loop_matrix(spec, c, float(t), include_delta)
                        for t in ts])
        tol = 1e-14 * (1.0 + np.abs(ref).max(axis=(1, 2)))
        batch = f(ts)
        for k, t in enumerate(ts):
            assert np.abs(f(float(t)) - ref[k]).max() <= tol[k]
            assert np.abs(batch[k] - ref[k]).max() <= tol[k]


def test_closed_loop_function_rejects_foreign_controller(example):
    # the structured loop holds only for the plant the gain was built for
    spec, ctrl = example
    assert make_spec().A == spec.A  # the same plant, parsed again
    for other in (make_spec(B=2.0 * np.eye(2)),
                  make_spec(A=parse_matrix([["t", "0"], ["0", "1"]], ("t",)))):
        with pytest.raises(ValueError, match="different plant"):
            closed_loop_function(other, ctrl)


@pytest.mark.parametrize("A, t_bad, entry", [
    ([["sqrt(1-t)", "0"], ["0", "0-1"]], 1.5, "entry (1,1): sqrt of negative"),
    ([["1/(t-5)", "0"], ["0", "0-1"]], 5.0, "entry (1,1): division by zero"),
    ([["0-1", "0"], ["0", "exp(800*t)"]], 1.0, "entry (2,2): overflow in exp"),
    ([["0-1", "0"], ["sqrt(1-t)", "0-1"]], 1.5, "entry (2,1): sqrt of negative"),
])
def test_closed_loop_function_keeps_the_plant_domain(A, t_bad, entry):
    # no entry of A + B K exists where an entry of A does not, diagonal
    # ones included: the structured loop raises A + B K's error there
    spec = make_spec(A=parse_matrix(A, ("t",)))
    ctrl = synthesize(spec)
    f = closed_loop_function(spec, ctrl)
    with pytest.raises(EvalError, match=re.escape(entry)) as want:
        closed_loop_matrix(spec, ctrl, t_bad)
    for t in (t_bad, np.array([0.5, t_bad, t_bad + 1.0])):
        with pytest.raises(EvalError) as got:
            f(t)
        assert str(got.value) == str(want.value)
    assert f(0.5).shape == (2, 2)


def unfused(spec, ctrl):
    """The loop and Delta as two compiled grids, added as arrays: the
    loop first, A's error where the loop fails, then Delta.  An array of
    times is the stack of the scalar calls, so it fails as the first
    failing one does."""
    S = (spec.A if ctrl is None else ctrl.closed_loop).compiled()
    A, D = spec.A.compiled(), spec.Delta.compiled()

    def M(t):
        if isinstance(t, np.ndarray):
            return np.array([M(s) for s in t.tolist()])
        try:
            v = S(t)
        except EvalError:
            A(t)
            raise
        return v + D(t)
    return M


@pytest.mark.parametrize("system", SYSTEMS)
def test_fused_delta_is_the_sum_bit_for_bit(system, request):
    spec, ctrl = request.getfixturevalue(system)
    ts = spec.t0 + np.array([0.0, 0.3, 1.1, 2.9, 7.6])
    for c in (ctrl, None):
        f = closed_loop_function(spec, c, include_delta=True)
        ref = unfused(spec, c)
        assert f(ts).tobytes() == ref(ts).tobytes()
        for t in ts:
            assert f(float(t)).tobytes() == ref(float(t)).tobytes()
        # one fused grid per controller and plant
        assert closed_loop_function(spec, c, include_delta=True) is f


def _error_text(fn, t):
    with pytest.raises(EvalError) as exc:
        fn(t)
    return str(exc.value)


@pytest.mark.parametrize("A, Delta, cases", [
    # Delta alone fails, at t = 1
    ([["t", "0"], ["0", "0-1"]], [["0", "0"], ["1/(t-1)", "0"]],
     [(1.0, "entry (2,1): division by zero"),
      (np.array([0.5, 1.0, 1.5]), "entry (2,1): division by zero")]),
    # A fails from t = 2, Delta at t = 1: a batch over both fails as its
    # first failing time, t = 1, does
    ([["sqrt(2-t)", "0"], ["0", "0-1"]], [["1/(t-1)", "0"], ["0", "0"]],
     [(1.0, "entry (1,1): division by zero"),
      (3.0, "entry (1,1): sqrt of negative value -1"),
      (np.array([0.5, 1.0, 3.0]), "entry (1,1): division by zero")]),
])
def test_fused_delta_raises_the_unfused_error(A, Delta, cases):
    spec = make_spec(A=parse_matrix(A, ("t",)),
                     Delta=parse_matrix(Delta, ("t",)))
    for c in (synthesize(spec), None):
        f = closed_loop_function(spec, c, include_delta=True)
        ref = unfused(spec, c)
        for t, text in cases:
            assert _error_text(f, t) == _error_text(ref, t)
            assert text in _error_text(f, t)


def test_fused_delta_raises_where_the_sum_overflows():
    # the loop and Delta finite, their sum not: the fused grid's checked
    # evaluator raises at that entry, as for any checked intermediate
    spec = make_spec(A=parse_matrix([["0-1", "1.5e308*t"], ["0", "0-1"]]),
                     Delta=parse_matrix([["0", "1.5e308"], ["0", "0"]]))
    f = closed_loop_function(spec, None, include_delta=True)
    assert f(0.0)[0, 1] == 1.5e308
    for t in (0.5, 1.0, np.array([0.0, 0.5, 1.0])):
        assert _error_text(f, t) == \
            "entry (1,2): non-finite result in addition"


def _first_scalar_error(fn, ts, *x):
    """str() of the first scalar call of ``fn`` in ``ts`` that raises."""
    for t in ts.tolist():
        try:
            fn(t, *x)
        except EvalError as exc:
            return str(exc)
    return None


def staggered_plant():
    """gamma_1 fails from t = 1, Delta from 1.5, A from 2, omega from 2.5."""
    spec = make_spec(A=parse_matrix([["sqrt(2-t)", "0"], ["0", "0-1"]]),
                     Delta=parse_matrix([["0", "0"], ["sqrt(1.5-t)", "0"]]),
                     omega=parse_vector(["x1", "sqrt(2.5-t)"],
                                        ("t", "x1", "x2")))
    gamma = (parse("0-sqrt(1-t)"), parse("0-1"))
    return spec, synthesize(spec, rule=ExplicitGamma(gamma)), gamma


def test_a_batch_fails_as_its_first_failing_scalar_call():
    spec, ctrl, gamma = staggered_plant()
    grids = {f"loop ctrl={c is not None} delta={d}":
             (closed_loop_function(spec, c, include_delta=d), ())
             for c in (ctrl, None) for d in (False, True)}
    grids["rates"] = (ctrl.rates.compiled(), ())
    grids["omega"] = (spec.omega.compiled(), ([0.3, -0.2],))
    grids["one entry"] = (VectorFunction([gamma[0]]).compiled(), ())
    batches = ([0.5, 1.25, 3.0], [0.5, 1.75, 2.25], [3.0, 1.25],
               [0.5, 2.25, 1.75, 1.25], [2.75, 0.5], [0.5, 1.75, 2.75])
    for name, (fn, x) in grids.items():
        for ts in map(np.array, batches):
            want = _first_scalar_error(fn, ts, *x)
            if want is None:
                assert fn(ts, *x).shape[0] == len(ts), name
                continue
            with pytest.raises(EvalError) as got:
                fn(ts, *x)
            assert str(got.value) == want, (name, ts)
    # a one-entry grid does not name its entry
    with pytest.raises(EvalError) as want:
        eval_expr(gamma[0], t=1.25)
    assert _first_scalar_error(grids["one entry"][0],
                               np.array([1.25])) == str(want.value)


def _first_level_nodes(t0, T, cells):
    """The nodes adaptive Simpson evaluates first: grid and midpoints."""
    grid = np.linspace(t0, T, cells + 1)
    x = np.empty(2 * cells + 1)
    x[0::2] = grid
    x[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return x


def test_evidence_notes_name_the_first_failing_time():
    # gamma fails from t = 1, A from t = 2: the notes name gamma's failure
    # at the first quadrature node past 1, not A's past 2
    spec, ctrl, _ = staggered_plant()
    spec = dataclasses.replace(spec, Delta=None, omega=None)
    f = closed_loop_function(spec, ctrl)
    want = _first_scalar_error(f, _first_level_nodes(0.0, 10.0, 256))
    assert "sqrt of negative value -0.015625" in want
    note = classify_stability(spec, ctrl, T=10.0).entries["AS"].note
    assert note == f"could not evaluate the closed loop: {want}"
    want = _first_scalar_error(f, _first_level_nodes(0.0, 10.0, 128))
    assert check_A2_A4(spec, ctrl, 10.0)[1].note == (
        f"could not evaluate: {want}")


def test_fused_delta_keeps_the_simulation_error(example, monkeypatch):
    # Delta is undefined past t = 1: the simulation stops where it would
    # with the loop and Delta evaluated separately, with the same error
    spec, ctrl = example
    spec = dataclasses.replace(
        spec, Delta=parse_matrix([["0", "sqrt(1-t)"], ["0", "0"]], ("t",)))
    runs = {}
    for name in ("fused", "unfused"):
        with pytest.raises(sim.NumericalError) as exc:
            sim.simulate(spec, ctrl, T=2.0)
        runs[name] = str(exc.value)
        monkeypatch.setattr(sim, "closed_loop_function",
                            lambda spec, ctrl, **_: unfused(spec, ctrl))
    assert runs["fused"] == runs["unfused"]
    assert "entry (1,2): sqrt of negative" in runs["fused"]


@pytest.mark.parametrize("system", ["example", "plant8"])
def test_gamma_max_accepts_time_arrays(system, request):
    _, ctrl = request.getfixturevalue(system)
    g = ctrl.gamma_max()
    ts = np.linspace(0.0, 10.0, 33)
    assert np.array_equal(g(ts), [g(t) for t in ts])


@pytest.mark.parametrize("system", SYSTEMS)
def test_gamma_max_matches_componentwise_reference(system, request):
    # the batched rates against a per-component, per-time loop on the
    # checked evaluator: same additions, same max order, same bits
    spec, ctrl = request.getfixturevalue(system)
    g = ctrl.gamma_max()
    ts = np.linspace(spec.t0, spec.t0 + 10.0, 65)
    want = [oracles.gamma_max_ref(ctrl, float(t)) for t in ts]
    assert np.array_equal(g(ts), want)
    assert all(g(float(t)) == w for t, w in zip(ts, want))


def test_closed_loop_mu_identity_on_samples(example):
    spec, ctrl = example
    gmax = ctrl.gamma_max()
    f = closed_loop_function(spec, ctrl)
    for t in np.linspace(0.0, 5.0, 40):
        assert lognorm(f(float(t)), "two") == pytest.approx(
            gmax(float(t)), rel=1e-9, abs=1e-9)


def test_controller_spec_shape(example):
    spec, ctrl = example
    assert ctrl.n == 2
    assert len(ctrl.lam) == 2 and len(ctrl.gamma) == 2
    assert np.allclose(ctrl.B_inv, np.eye(2), atol=0.0)
