"""Integrator accuracy, transition matrices and the two-sided norm bounds."""

import contextlib
import csv
import importlib.util
import itertools
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from lognorm_control import cli, sim
from lognorm_control.analysis import integrate
from lognorm_control.expr import EvalError, parse_matrix, parse_vector
from lognorm_control.linalg import lognorm
from lognorm_control.sim import (
    NumericalError,
    StiffnessError,
    convergence_report,
    fundamental_matrix,
    simulate,
    verify_sandwich,
    write_trace_csv,
)
from lognorm_control.synthesis import synthesize
from lognorm_control.system import SystemSpec, closed_loop_function


def make_spec(A, x0=(1.0, 0.0), **over):
    kw = dict(n=2, A=parse_matrix(A, ("t",)), B=np.eye(2), t0=0.0,
              x0=np.array(x0, dtype=float))
    kw.update(over)
    return SystemSpec(**kw)


DECAY = [["0-1", "0"], ["0", "0-1"]]
WOBBLE = [["0-1", "sin(t)"], ["cos(t)", "0-2"]]


def wobble_rhs(t, x):
    return np.array([[-1.0, math.sin(t)], [math.cos(t), -2.0]]) @ x


# ---------------------------------------------------------------------------
# the initial value solver

def test_simulate_exponential_decay_golden():
    tr = simulate(make_spec(DECAY), None, T=1.0, tol=1e-10)
    assert tr.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert tr.states[-1][1] == 0.0
    assert tr.times[0] == 0.0 and tr.times[-1] == 1.0
    assert len(tr.times) == 1001
    assert tr.norm_kind == "two"


def test_simulate_matches_rk4_oracle():
    s = make_spec(WOBBLE, x0=(1.0, -1.0))
    _, ref = oracles.rk4_solve(wobble_rhs, 0.0, np.array([1.0, -1.0]),
                               5.0, 200_000)
    tr = simulate(s, None, T=5.0, tol=1e-10, n_out=2)
    assert np.linalg.norm(tr.states[-1] - ref[-1]) < 1e-9


def test_integrator_order_at_least_four():
    # cap h_max so the error is step-limited, then halve it twice
    s = make_spec(WOBBLE, x0=(1.0, -1.0))
    _, ref = oracles.rk4_solve(wobble_rhs, 0.0, np.array([1.0, -1.0]),
                               5.0, 200_000)
    errs = []
    for h in (0.2, 0.1, 0.05):
        tr = simulate(s, None, T=5.0, tol=1e6, h_min=1e-9, h_max=h, n_out=2)
        errs.append(np.linalg.norm(tr.states[-1] - ref[-1]))
    assert errs[0] / errs[1] > 10.0
    assert errs[1] / errs[2] > 10.0
    assert errs[0] / errs[2] > 256.0  # order >= 4 over a quartered step


def test_dense_output_accuracy():
    s = make_spec(WOBBLE, x0=(1.0, -1.0))
    n = 50_000
    times, ref = oracles.rk4_solve(wobble_rhs, 0.0, np.array([1.0, -1.0]),
                                   5.0, n)
    tr = simulate(s, None, grid=times[:: n // 100], tol=1e-10)
    worst = np.max(np.abs(tr.states - ref[:: n // 100]))
    assert worst < 1e-8


def test_output_grid_is_honoured():
    g = np.linspace(0.0, 1.0, 7)
    tr = simulate(make_spec(DECAY), None, grid=g)
    assert np.array_equal(tr.times, g)
    # a grid that skips the start is allowed; states still line up
    tr2 = simulate(make_spec(DECAY), None, grid=[0.5, 1.0], tol=1e-10)
    assert tr2.states[0][0] == pytest.approx(math.exp(-0.5), abs=1e-9)


@pytest.mark.parametrize("name, T", [("example", 10.0), ("osc1_0", 20.0)])
def test_output_rows_do_not_depend_on_the_grid(request, name, T):
    # the grid only selects where the dense output is evaluated: a row is
    # the same bits however many other points its step, or the run, has.
    # The example hands over to RODAS4 at t ~ 4.32, osc1-0 stays on DP5
    spec, ctrl = request.getfixturevalue(name)
    G = np.linspace(spec.t0, T, 1001)
    full = simulate(spec, ctrl, T, grid=G)
    # five points inside the longest step of each stepper, and their
    # middle ones alone
    ends = list(itertools.accumulate(full.step_sizes.tolist(),
                                     initial=spec.t0))
    h = full.step_sizes
    steps = [int(np.argmax(part)) + start for part, start in (
        (h[:full.n_explicit], 0), (h[full.n_explicit:], full.n_explicit))
        if len(part)]
    assert len(steps) == (2 if name == "example" else 1)
    inner = np.array([[ends[i] + (ends[i + 1] - ends[i]) * frac
                       for frac in (0.1, 0.3, 0.5, 0.7, 0.9)] for i in steps])
    grids = [G, G[::7], G[::100], np.union1d(G[::100], inner),
             np.union1d(G[::100], inner[:, 2])]
    runs = [full] + [simulate(spec, ctrl, T, grid=g) for g in grids[1:]]
    for g, tr in zip(grids, runs):
        assert tr.step_sizes.tobytes() == full.step_sizes.tobytes()
        for g2, tr2 in zip(grids, runs):
            _, i, j = np.intersect1d(g, g2, return_indices=True)
            assert tr.states[i].tobytes() == tr2.states[j].tobytes()
    assert len(np.intersect1d(grids[3], grids[4])) == 11 + len(steps)


@pytest.mark.parametrize("interp", [sim._dp5_dense, sim._rodas_dense])
def test_interpolants_round_columns_as_floats(rng, interp):
    # a run evaluates each interpolant once, theta and h as columns; each
    # row must be the bits of the call with floats, point by point
    m, n = 64, 3
    th, h = rng.uniform(0.0, 1.0, m), rng.uniform(1e-4, 0.5, m)
    scale = 10.0 ** rng.integers(-8, 8, (m, 1))
    data = rng.standard_normal((5, m, n)) * scale
    columns = interp(th[:, None], h[:, None], *data)
    for i in range(m):
        row = interp(float(th[i]), float(h[i]), *data[:, i])
        assert columns[i].tobytes() == row.tobytes()


def test_simulate_validations():
    s = make_spec(DECAY)
    with pytest.raises(ValueError, match="must exceed t0"):
        simulate(s, None, T=0.0)
    with pytest.raises(ValueError, match="be finite"):
        simulate(s, None, T=math.inf)
    with pytest.raises(ValueError, match="n_out"):
        simulate(s, None, T=1.0, n_out=1)
    with pytest.raises(ValueError, match="h_min"):
        simulate(s, None, T=1.0, h_min=0.5, h_max=0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        simulate(s, None, grid=[0.0, 1.0, 0.5])


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_simulate_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be"):
        simulate(make_spec(DECAY), None, T=1.0, tol=tol)


def test_simulate_rejects_a_grid_of_fewer_than_two_points():
    # the trace's envelopes integrate between grid points
    for grid in ([0.0], []):
        with pytest.raises(ValueError, match="at least 2 points"):
            simulate(make_spec(DECAY), None, T=1.0, grid=grid)


def test_simulate_rejects_an_infinite_horizon_before_the_grid():
    # no RuntimeWarning from building a grid out to inf first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="be finite"):
            simulate(make_spec(DECAY), None, T=math.inf)


def test_simulate_is_bitwise_reproducible(example):
    spec, ctrl = example
    a = simulate(spec, ctrl, T=10.0)
    b = simulate(spec, ctrl, T=10.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.bound_upper, b.bound_upper)
    assert np.array_equal(a.bound_lower, b.bound_lower)
    assert a.n_rejected == b.n_rejected


def test_mu_column_matches_direct_evaluation(example):
    spec, ctrl = example
    tr = simulate(spec, ctrl, T=10.0)
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    for k in (0, 137, 500, 1000):
        assert tr.mu_cl[k] == lognorm(cl(float(tr.times[k])), spec.norm)


def test_homogeneous_bounds_contain_norm():
    # no disturbance: ||x0|| e^{J-} <= ||x(t)|| <= ||x0|| e^{J+}
    tr = simulate(make_spec(WOBBLE, x0=(1.0, -1.0)), None, T=5.0, tol=1e-10)
    assert np.all(tr.norms <= tr.bound_upper * (1.0 + 1e-8) + 1e-12)
    assert np.all(tr.norms >= tr.bound_lower * (1.0 - 1e-8) - 1e-12)
    assert tr.bound_upper[0] == tr.norms[0]


def test_constant_coefficient_bounds_are_tight():
    tr = simulate(make_spec(DECAY), None, T=2.0, tol=1e-10)
    decay = np.exp(-tr.times)
    assert np.max(np.abs(tr.bound_upper - decay)) < 1e-8
    assert np.max(np.abs(tr.bound_lower - decay)) < 1e-8


def test_example_final_norm(example):
    spec, ctrl = example
    tr = simulate(spec, ctrl, T=10.0, tol=1e-8)
    assert np.linalg.norm(tr.states[-1]) == pytest.approx(0.05614105,
                                                          abs=1e-6)


def test_stiffness_abort_reports_location(oscillator):
    # a pin by accuracy, not stability: the oscillator's DP5 steps fail
    # the error test at h_min = 0.02 with |mu| h ~ 0.002
    spec, ctrl = oscillator
    with pytest.raises(StiffnessError, match="consecutive attempts near t=") \
            as exc:
        simulate(spec, ctrl, T=20.0, tol=1e-8, h_min=0.02)
    assert "mu" in str(exc.value) and "stiff" not in str(exc.value)
    assert exc.value.h == 0.02
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    assert exc.value.mu == lognorm(cl(exc.value.t), spec.norm)
    assert abs(exc.value.mu) * exc.value.h < 0.01


STIFF = [["0-1000", "0"], ["0", "0-1"]]


def test_pinned_step_after_the_switch():
    # stiff from the start, so DP5 hands over to RODAS4 early; from t = 1
    # a fast forcing needs steps below h_min
    omega = parse_vector(["cos(t)", "max(t-1,0)*sin(400*t)"],
                         ("t", "x1", "x2"))
    s = make_spec(STIFF, x0=(1e-3, 1.0), omega=omega)
    tr = simulate(s, None, T=0.9, h_min=1e-3)
    assert tr.n_explicit < len(tr.step_sizes)
    with pytest.raises(StiffnessError) as exc:
        simulate(s, None, T=2.0, h_min=1e-3)
    assert 0.9 < exc.value.t < 1.1
    assert exc.value.h == 1e-3 and exc.value.mu == -1.0


def test_stiff_long_horizon_completes(example):
    # the input that used to pin DP5 at h_min: RODAS4 takes the stiff
    # tail, and the run ends on the slow manifold
    spec, ctrl = example
    tr = simulate(spec, ctrl, T=50.0, tol=1e-8, h_min=1e-3)
    ref = oracles.repro_slow_manifold(50.0)
    assert np.linalg.norm(tr.states[-1] - ref) <= 1e-8 * np.linalg.norm(ref)
    assert tr.n_explicit < len(tr.step_sizes) < 2000


@pytest.mark.parametrize("T", [10.0, 15.0])
def test_example_steps_after_the_switch(example, T):
    # DP5 alone needs 6,696 steps to T = 10 and ~46k to T = 15
    spec, ctrl = example
    tr = simulate(spec, ctrl, T=T)
    assert len(tr.step_sizes) <= 1000
    switch = spec.t0 + tr.step_sizes[:tr.n_explicit].sum()
    assert 3.0 < switch < 5.0


def test_rodas4_order_conditions():
    # the transformed coefficients, mapped back to the classical
    # Rosenbrock form, meet the eight order-4 conditions (Hairer & Wanner
    # IV.7, Table 7.1); the embedded solution meets the first four
    g = sim._GAMMA
    A, C = np.zeros((6, 6)), np.zeros((6, 6))
    for i in range(1, 6):
        A[i, :i], C[i, :i] = sim._RA[i], sim._RG[i]
    G = np.linalg.inv(np.eye(6) / g - C)
    alpha = A @ G
    beta = alpha + G - np.diag(np.diag(G))
    a, b_ = alpha.sum(1), beta.sum(1)
    assert np.allclose(a, [0.0, *sim._RT[2:], 1.0], atol=1e-14)
    assert np.allclose(G.sum(1), sim._RD, atol=1e-14)
    m = np.append(sim._RA[5], 1.0)  # y1 = y + sum_j m_j U_j
    for w, n_conds in ((m @ G, 8), ((m - np.eye(6)[5]) @ G, 4)):
        conds = [w.sum() - 1, w @ b_ - (0.5 - g), w @ a ** 2 - 1 / 3,
                 w @ beta @ b_ - (1 / 6 - g + g * g),
                 w @ a ** 3 - 1 / 4, w @ (a * (alpha @ b_)) - (1 / 8 - g / 3),
                 w @ beta @ a ** 2 - (1 / 12 - g / 3),
                 w @ beta @ beta @ b_ - (1 / 24 - g / 2 + 1.5 * g * g - g ** 3)]
        assert np.allclose(conds[:n_conds], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# convergence summaries

def test_convergence_report_pure_decay():
    # on a 2-point grid the rate is fitted through both points, not one
    for n_out in (1001, 2):
        tr = simulate(make_spec(DECAY), None, T=5.0, tol=1e-10, n_out=n_out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cr = convergence_report(tr)
        assert cr.fitted_rate == pytest.approx(-1.0, abs=0.05)
        assert cr.tail_nonincreasing
        assert cr.final_norm == pytest.approx(math.exp(-5.0), rel=1e-6)
        assert cr.max_norm == 1.0


def test_convergence_report_constant_state():
    tr = simulate(make_spec([["0", "0"], ["0", "0"]]), None, T=5.0)
    cr = convergence_report(tr)
    assert cr.fitted_rate == pytest.approx(0.0, abs=1e-9)
    assert cr.tail_nonincreasing


# ---------------------------------------------------------------------------
# transition matrices and the two-sided estimate

def test_fundamental_matrix_diagonal_golden():
    tt = fundamental_matrix(lambda t: np.diag([-1.0, -2.0]), 0.0, 2.0,
                            tol=1e-10)
    assert np.allclose(tt.phis[0], np.eye(2), atol=0.0)
    P = tt.phis[-1]
    assert P[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-8)
    assert P[1, 1] == pytest.approx(math.exp(-4.0), abs=1e-8)
    assert P[0, 1] == 0.0 and P[1, 0] == 0.0


def test_fundamental_matrix_rotation():
    F = parse_matrix([["0", "1"], ["0-1", "0"]], ("t",))
    tt = fundamental_matrix(F, 0.0, math.pi / 2.0, tol=1e-10)
    assert np.allclose(tt.phis[-1], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-8)
    for P in tt.phis:
        assert abs(np.linalg.norm(P, 2) - 1.0) < 1e-8


def test_fundamental_matrix_on_a_horizon_below_one_sub_step():
    # 200 cells of 5e-12 each: every cell is still one Magnus sub-step
    expm = pytest.importorskip("scipy.linalg").expm
    F = np.array([[-1.0, 2.0], [-3.0, 0.5]])
    tt = fundamental_matrix(lambda t: F, 0.0, 1e-9)
    assert len(tt.step_sizes) == 200
    assert np.abs(tt.phis[-1] - expm(F * 1e-9)).max() <= 1e-12


def test_sandwich_constant_diagonal():
    F = lambda t: np.diag([-1.0, -2.0])
    rep = verify_sandwich(fundamental_matrix(F, 0.0, 2.0, tol=1e-10), F, "two")
    assert rep.passed
    assert rep.n_pairs == 20
    # slowest mode saturates the upper estimate
    assert 0.0 <= rep.worst_upper_margin < 1e-5
    assert rep.worst_lower_margin > 0.0
    assert rep.notes == []


def test_sandwich_slack_follows_the_trace_tolerance():
    # mu_2[-F] = 2, so J-(s) = 2 s and a pair's slack adds
    # log1p(16 tol (e^{2 tau} + e^{2 t})) to the base, tol the trace's
    F = lambda t: np.diag([-1.0, -2.0])
    tt = fundamental_matrix(F, 0.0, 2.0, tol=1e-12)
    assert tt.tol == 1e-12
    rep = verify_sandwich(tt, F, "two")
    for p in rep.pairs:
        noise = 16e-12 * (math.exp(2.0 * p["tau"]) + math.exp(2.0 * p["t"]))
        assert p["slack"] - rep.slack == pytest.approx(math.log1p(noise),
                                                       rel=1e-6)


def test_sandwich_rotation_is_tight_both_sides():
    F = lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]])
    rep = verify_sandwich(fundamental_matrix(F, 0.0, 5.0, tol=1e-10), F, "two")
    assert rep.passed
    assert rep.worst_upper_margin < 1e-4
    assert rep.worst_lower_margin < 1e-4


def test_sandwich_example_closed_loop(example):
    spec, ctrl = example
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    tt = fundamental_matrix(cl, 0.0, 2.0, tol=1e-10)
    rep = verify_sandwich(tt, cl, spec.norm)
    assert rep.passed
    assert rep.worst_upper_margin > 0.0
    assert rep.p4_worst_margin > 0.0


def test_sandwich_random_ltv(rng):
    # smooth sinusoidal 3x3 systems; the estimate must hold in every norm
    for kind in ("one", "two", "inf"):
        for _ in range(4):
            C = rng.uniform(-0.6, 0.6, size=(3, 3, 3))
            w = rng.uniform(0.5, 3.0, size=2)

            def F(t, C=C, w=w):
                return C[0] + C[1] * math.sin(w[0] * t) \
                    + C[2] * math.cos(w[1] * t)

            tt = fundamental_matrix(F, 0.0, 5.0, tol=1e-8)
            rep = verify_sandwich(tt, F, kind)
            assert rep.passed, (kind, rep.worst_upper_margin,
                                rep.worst_lower_margin)


@pytest.mark.parametrize("n_out, pairs", [(2, 1), (3, 3), (5, 10)])
def test_sandwich_short_trace_returns(n_out, pairs):
    # fewer grid points than the 20 requested pairs allow: every pair is
    # checked once and the call returns
    F = parse_matrix(WOBBLE, ("t",)).compiled()
    tt = fundamental_matrix(F, 0.0, 1.0, n_out=n_out)
    done = []
    worker = threading.Thread(
        target=lambda: done.append(verify_sandwich(tt, F)), daemon=True)
    worker.start()
    worker.join(timeout=20.0)
    assert not worker.is_alive(), "verify_sandwich did not return"
    assert done[0].passed
    assert done[0].n_pairs == pairs
    assert len({(p["tau"], p["t"]) for p in done[0].pairs}) == pairs


@pytest.mark.parametrize("T, tol, n_out, match", [
    (0.0, 1e-8, 201, "must exceed t0"), (math.inf, 1e-8, 201, "be finite"),
    (1.0, 0.0, 201, "tol must be"), (1.0, math.inf, 201, "tol must be"),
    (1.0, 1e-8, 1, "n_out")])
def test_fundamental_matrix_validations(T, tol, n_out, match):
    F = parse_matrix(DECAY, ("t",)).compiled()
    with pytest.raises(ValueError, match=match):
        fundamental_matrix(F, 0.0, T, tol=tol, n_out=n_out)


def test_sandwich_notes_a_numerically_singular_phi():
    # exp(-400 t) underflows, so Phi(tau) cannot be inverted from there
    F = parse_matrix([["0-400", "0"], ["0", "0-1"]], ("t",)).compiled()
    rep = verify_sandwich(fundamental_matrix(F, 0.0, 5.0), F, "two")
    assert not rep.passed
    assert rep.notes[0] == ("Phi(1.925) is numerically singular; the "
                            "transition norm could not be formed (horizon "
                            "too long for float64)")


def test_sandwich_pair_records(rng):
    F = lambda t: np.diag([-1.0, -2.0])
    rep = verify_sandwich(fundamental_matrix(F, 0.0, 2.0), F, "two")
    assert len(rep.pairs) == 20
    keys = {"t", "tau", "log_transition_norm", "int_mu_upper",
            "int_mu_lower", "upper_margin", "lower_margin", "slack"}
    for p in rep.pairs:
        assert set(p.keys()) == keys
        assert p["tau"] < p["t"]
        assert p["slack"] >= rep.slack


def _oscillators():
    """The benchmark's 12 oscillator plants of seeds 1-2 as (params,
    config), from bench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return [(p.params, p.config) for seed in (1, 2)
            for p in mod.oscillator_problems(seed)]


def _closed_loop(config):
    from lognorm_control.config import load_config
    cfg = load_config(config)
    return closed_loop_function(cfg.spec, cfg.controller.build(cfg.spec),
                                include_delta=True)


def _phi_ref(M, t0, times):
    """Phi' = M(t) Phi on ``times`` by scipy's DOP853 at rtol 1e-13;
    ``M`` may return a stack (k, n, n) of independent systems."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    shape = np.shape(M(t0))
    sol = solve_ivp(lambda t, y: (M(t) @ y.reshape(shape)).ravel(),
                    (t0, times[-1]), np.broadcast_to(
                        np.eye(shape[-1]), shape).ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-16, t_eval=times)
    assert sol.success
    return sol.y.T.reshape(len(times), *shape)


def _max_rel_error(phis, ref):
    return float((np.abs(phis - ref).max(axis=(-2, -1))
                  / np.abs(ref).max(axis=(-2, -1))).max())


def test_expm_matches_scipy():
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(11)
    # 1-norms from 1e-4 to 1e3: Pade 13 alone up to theta_13 = 5.37, then
    # with 1 to 8 squarings
    norms = np.geomspace(1e-4, 1e3, 22)
    assert (norms < sim._THETA_13).sum() == 15
    for n in range(1, 17):
        A = rng.standard_normal((len(norms), n, n))
        A *= (norms / np.abs(A).sum(axis=1).max(axis=1))[:, None, None]
        with np.errstate(over="ignore"):
            got = sim._expm(A)
        for Ai, Ei, nrm in zip(A, got, norms):
            with np.errstate(over="ignore"):
                ref = expm(Ai)
                # a matrix's bits do not depend on the stack around it
                assert sim._expm(Ai[None])[0].tobytes() == Ei.tobytes()
            scale = np.abs(ref).max()
            if not 0.0 < scale < math.inf:  # exp(+-1e3) for n = 1
                continue
            err = np.abs(Ei - ref).max() / scale
            assert err <= 2e-13 * max(1.0, nrm), (n, nrm, err)
    assert np.abs(sim._expm(np.zeros((1, 3, 3)))[0] - np.eye(3)).max() \
        <= 2.3e-16


def test_phi_matches_dop853_on_the_bundled_scenario(example):
    spec, ctrl = example
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    T_phi = cli._phi_horizon(spec, ctrl, spec.t0, 10.0)
    tt = fundamental_matrix(cl, spec.t0, T_phi, tol=1e-10)
    ref = _phi_ref(oracles.repro_closed_loop, spec.t0, tt.times)
    assert 2.1 < T_phi < 2.2
    assert _max_rel_error(tt.phis, ref) <= 1e-8


def test_phi_matches_dop853_on_the_oscillator_plants():
    # the 12 closed loops A_skew + diag(rate) + Delta written out from the
    # drawn numbers, integrated as one stack
    plants = _oscillators()
    p = {k: np.array([q[k] for q, _ in plants])
         for k in ("a", "f", "d", "lam", "margin", "bound")}
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def M(t):
        sk = p["a"] * (1.0 + 0.5 * np.sin(p["f"] * t))
        rate = p["lam"] - p["margin"] * (1.0 + t) * (1.0 + p["bound"])
        return (sk[:, None, None] * J + rate[:, None, None] * np.eye(2)
                + p["d"] * math.exp(-t))

    phis = [fundamental_matrix(_closed_loop(c), 0.0, 20.0, tol=1e-10).phis
            for _, c in plants]
    ref = _phi_ref(M, 0.0, np.linspace(0.0, 20.0, 201))
    assert _max_rel_error(np.stack(phis, axis=1), ref) <= 1e-8


def test_phi_matches_dop853_on_plant8(plant8):
    spec, ctrl = plant8
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    tt = fundamental_matrix(cl, spec.t0, 2.0, tol=1e-10)
    ref = _phi_ref(cl, spec.t0, tt.times)
    assert _max_rel_error(tt.phis, ref) <= 1e-8


def test_phi_sub_step_and_evaluation_counts():
    # a deterministic guard in place of wall time: oscillator seed-1
    # plant 0 to T = 20 at tol 1e-10 takes 1,842 sub-steps and 10,255
    # evaluation times (a DP5 integration of Phi needs 9,092 steps and
    # 45k+ evaluation times)
    F = _closed_loop(_oscillators()[0][1])
    times = []

    def counted(t):
        times.append(np.size(t))
        return F(t)

    tt = fundamental_matrix(counted, 0.0, 20.0, tol=1e-10)
    assert len(tt.step_sizes) <= 2500
    assert sum(times) <= 12_000


def test_phi_failures_are_located():
    # a pole no sub-step above the floor resolves
    pole = lambda t: np.diag([1.0 / (t - 0.5013) ** 2, -1.0])
    with pytest.raises(StiffnessError, match="cannot be halved") as exc:
        fundamental_matrix(pole, 0.0, 1.0, tol=1e-10)
    # the earliest sub-step that fails at the floor, just before the pole
    assert 0.5012 < exc.value.t < 0.5013 and exc.value.h < 2e-9
    # an oscillation no sub-step resolves anywhere: the sub-step budget
    # (2^22 / n^2) stops the refinement before its third level
    fast = lambda t: math.sin(1e12 * t) * np.eye(8)
    with pytest.raises(StiffnessError, match="more than 65536 sub-steps"
                       ) as exc:
        fundamental_matrix(fast, 0.0, 1.0, tol=1e-10)
    assert exc.value.t == 0.0
    # a non-finite matrix, and a product past float64's range
    inf = lambda t: np.diag([math.inf if t >= 0.5 else 0.0, -1.0])
    with pytest.raises(NumericalError, match="generator became non-finite"
                       ) as exc:
        fundamental_matrix(inf, 0.0, 1.0)
    assert str(exc.value).endswith("at t=0.5")  # the sub-step from 0.5
    with pytest.raises(NumericalError, match="non-finite at t=1.42"):
        fundamental_matrix(lambda t: np.diag([500.0, 0.0]), 0.0, 2.0)


def test_liouville_identity(rng):
    # log|det Phi(T)| equals the integral of the trace
    C = rng.uniform(-0.5, 0.5, size=(3, 3, 3))

    def F(t):
        return C[0] + C[1] * math.sin(t) + C[2] * math.cos(2.0 * t)

    tt = fundamental_matrix(F, 0.0, 5.0, tol=1e-10)
    sign, logdet = np.linalg.slogdet(tt.phis[-1])
    q = integrate(lambda t: float(np.trace(F(t))), 0.0, 5.0, tol=1e-12)
    assert sign == 1.0
    assert abs(logdet - q.value) < 1e-6


# ---------------------------------------------------------------------------
# traces on disk

def test_trace_csv_round_trip(tmp_path):
    tr = simulate(make_spec(WOBBLE, x0=(1.0, -1.0)), None, T=1.0, n_out=9)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "norm_x", "mu_cl",
                       "bound_upper", "bound_lower"]
    assert len(rows) == 10
    cols = [tr.times, tr.states[:, 0], tr.states[:, 1], tr.norms,
            tr.mu_cl, tr.bound_upper, tr.bound_lower]
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row):
            assert float(cell) == cols[j][i]  # 17 digits round trip


def test_trace_csv_bytes_match_csv_writer(tmp_path):
    # the one-pass writer against the csv.writer it replaced, on the
    # values whose text is special
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
               1.7976931348623157e308, 0.1, -2.5e-7]
    tr = simulate(make_spec(WOBBLE, x0=(1.0, -1.0)), None, T=1.0,
                  n_out=len(special))
    for name in ("times", "norms", "mu_cl", "bound_upper", "bound_lower"):
        setattr(tr, name, np.roll(special, len(name)))
    tr.states = np.column_stack([special, special[::-1]])
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_1", "x_2", "norm_x", "mu_cl", "bound_upper",
                    "bound_lower"])
        for i in range(len(special)):
            row = [tr.times[i], *tr.states[i], tr.norms[i], tr.mu_cl[i],
                   tr.bound_upper[i], tr.bound_lower[i]]
            w.writerow([f"{v:.17g}" for v in row])
    assert path.read_bytes() == ref.read_bytes()
    assert b"-inf" in ref.read_bytes() and b",-0," in ref.read_bytes()


# ---------------------------------------------------------------------------
# the stage-batched stepper against the stage-by-stage path

@contextlib.contextmanager
def stage_by_stage():
    """The stepper's matrix evaluator refuses arrays of times, so every
    attempt is redone stage by stage: each stage evaluates its matrix
    through the right-hand side, one at a time, and RODAS4 takes its
    Jacobian's M(t) from one scalar call."""
    integrate_ = sim._integrate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_integrate", lambda f, *a, M, **kw:
                   integrate_(f, *a, M=scalar_only(M), **kw))
        yield


def scalar_only(F):
    def G(t):
        if np.ndim(t):
            raise TypeError("scalar times only")
        return F(t)
    return G


def test_traces_share_no_memory(example):
    # the steppers' scratch rows never leak into a trace: every array of
    # two runs on one spec is its own, and the second run leaves the
    # first's bytes as they were
    spec, ctrl = example
    first = simulate(spec, ctrl, T=10.0)
    kept = {k: v.tobytes() for k, v in vars(first).items()
            if isinstance(v, np.ndarray)}
    second = simulate(spec, ctrl, T=10.0)
    assert 0 < first.n_explicit < len(first.step_sizes)  # both steppers
    arrays = [(i, k, v) for i, tr in enumerate((first, second))
              for k, v in vars(tr).items() if isinstance(v, np.ndarray)]
    assert {k for _, k, _ in arrays} >= {"states", "norms", "step_sizes"}
    for a, (i, k, u) in enumerate(arrays):
        for j, m, v in arrays[a + 1:]:
            assert not np.shares_memory(u, v), (i, k, j, m)
    assert {k: v.tobytes() for k, v in vars(first).items()
            if isinstance(v, np.ndarray)} == kept
    assert second.states.tobytes() == kept["states"]


@pytest.mark.parametrize("name, T, T_phi", [("example", 10.0, 2.0),
                                            ("oscillator", 20.0, 5.0),
                                            ("plant8", 2.0, 2.0)])
def test_stage_batched_stepper_is_bitwise(request, name, T, T_phi):
    spec, ctrl = request.getfixturevalue(name)
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    tr = simulate(spec, ctrl, T=T)
    tt = fundamental_matrix(cl, spec.t0, T_phi, tol=1e-9)
    with stage_by_stage():
        ref = simulate(spec, ctrl, T=T)
    # Phi does not step: its stacked levels against F's scalar calls
    ref_tt = fundamental_matrix(scalar_only(cl), spec.t0, T_phi, tol=1e-9)
    # only the stiff example hands over from DP5 to RODAS4
    assert (tr.n_explicit < len(tr.step_sizes)) == (name == "example")
    assert tr.states.tobytes() == ref.states.tobytes()
    assert tr.step_sizes.tobytes() == ref.step_sizes.tobytes()
    assert tr.n_rejected == ref.n_rejected
    assert tr.n_explicit == ref.n_explicit
    assert tt.phis.tobytes() == ref_tt.phis.tobytes()
    assert tt.step_sizes.tobytes() == ref_tt.step_sizes.tobytes()
    assert tt.n_rejected == ref_tt.n_rejected


@pytest.mark.parametrize("name", ["example", "oscillator", "plant8"])
def test_batching_F_matches_scalar_only_F(request, name):
    spec, ctrl = request.getfixturevalue(name)
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    G = scalar_only(cl)
    ts = np.linspace(spec.t0, 2.0, 7)
    stacked = np.array([cl(t) for t in ts])
    assert sim._stack(cl, ts).tobytes() == stacked.tobytes()
    assert sim._stack(G, ts).tobytes() == stacked.tobytes()
    tt = fundamental_matrix(cl, spec.t0, 2.0, tol=1e-9)
    ref = fundamental_matrix(G, spec.t0, 2.0, tol=1e-9)
    assert tt.phis.tobytes() == ref.phis.tobytes()
    assert tt.step_sizes.tobytes() == ref.step_sizes.tobytes()
    # the sandwich integrates mu over batches of F or of stacked calls
    assert verify_sandwich(tt, cl, spec.norm).to_json() == \
        verify_sandwich(tt, G, spec.norm).to_json()


def test_one_batched_evaluation_per_attempt():
    # a wrapper naming a compiled grid as __wrapped__ batches: one F call
    # per refinement level, after one batch of t0 for n; each sub-step
    # tried, accepted or cut, costs its five node times.  Without
    # __wrapped__ the same wrapper gets only scalar calls: F(t0) for n,
    # then five per sub-step.
    F = parse_matrix(WOBBLE, ("t",)).compiled()
    calls = {"scalar": 0}
    batches = []

    def counted(t):
        if np.ndim(t):
            batches.append(np.array(t))
        else:
            calls["scalar"] += 1
        return F(t)

    tt = fundamental_matrix(counted, 0.0, 5.0, tol=1e-10)
    attempts = len(tt.step_sizes) + tt.n_rejected
    assert batches == [] and calls == {"scalar": 1 + 5 * attempts}
    calls["scalar"] = 0
    counted.__wrapped__ = F
    batched = fundamental_matrix(counted, 0.0, 5.0, tol=1e-10)
    assert batched.phis.tobytes() == tt.phis.tobytes()
    assert calls == {"scalar": 0}
    assert batches[0].tolist() == [0.0]
    levels = batches[1:]
    assert tt.n_rejected > 0 and len(levels) >= 2
    assert sum(map(len, levels)) == 5 * attempts
    for ts in levels:  # ascending node times within a level
        assert (np.diff(ts) > 0).all()
    assert len(tt.step_sizes) > len(tt.times) - 1
    assert tt.step_sizes.sum() == pytest.approx(5.0, rel=1e-14)


def count_calls(fn):
    """Run ``fn()`` with the stepper's right-hand side and matrix
    evaluator counted; returns its result, the length of each batched
    matrix call (0 for a scalar call) and the number of right-hand-side
    calls after each (the first entry counts those before any)."""
    log = [[None, 0]]
    integrate_ = sim._integrate

    def counting(f, *a, M, **kw):
        def g(*args):
            log[-1][1] += 1
            return f(*args)

        def N(t):
            log.append([len(t) if np.ndim(t) else 0, 0])
            return M(t)
        return integrate_(g, *a, M=N, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_integrate", counting)
        return fn(), [b for b, _ in log[1:]], [c for _, c in log]


def test_one_batched_evaluation_per_attempt_after_the_switch(example):
    # DP5 attempts batch their 5 stage times and make 6 RHS calls; RODAS4
    # attempts batch 6 times (t, t + dt and the 4 stage times) and make
    # 1 (f_t) + 5 (stages) RHS calls, plus n + 1 for the differenced
    # Jacobian of the disturbance, plus 1 (f(t + h, y_new)) if accepted
    spec, ctrl = example
    tr, batches, rhs = count_calls(
        lambda: simulate(spec, ctrl, T=10.0))
    n_dp5 = batches.count(5)
    assert batches == [5] * n_dp5 + [6] * (len(batches) - n_dp5)
    assert len(batches) == len(tr.step_sizes) + tr.n_rejected
    assert rhs[0] == 1 and rhs[1:n_dp5 + 1] == [6] * n_dp5
    per_attempt = 6 + spec.n + 1
    after = rhs[n_dp5 + 1:]
    assert set(after) <= {per_attempt, per_attempt + 1}
    assert after.count(per_attempt + 1) == len(tr.step_sizes) - tr.n_explicit
    assert after[-1] == per_attempt + 1  # the last attempt is accepted
    assert 0 < tr.n_explicit < len(tr.step_sizes)


def test_fundamental_matrix_after_the_switch_matches_radau(example):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    spec, ctrl = example
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    tt = fundamental_matrix(cl, spec.t0, 5.0, tol=1e-8)
    M = oracles.repro_closed_loop
    ref = solve_ivp(lambda t, y: (M(t) @ y.reshape(2, 2)).ravel(),
                    (spec.t0, 5.0), np.eye(2).ravel(), method="Radau",
                    rtol=1e-10, atol=1e-16, t_eval=tt.times,
                    jac=lambda t, y: np.kron(M(t), np.eye(2)))
    err = np.abs(tt.phis - ref.y.T.reshape(-1, 2, 2)).max(axis=(1, 2))
    # the two-node companion of the error estimate sees the quadrature
    # error at the sqrt(t) corner of M at t = 0, so the first sub-steps
    # shrink until it is resolved
    assert err.max() < 1e-8
    rep = verify_sandwich(tt, cl, spec.norm)
    assert rep.passed and rep.notes == []


SQRT_A = [["sqrt(1-t)", "0"], ["0", "0-1"]]


def _failure(fn):
    with pytest.raises(NumericalError) as exc:
        fn()
    return str(exc.value), type(exc.value.__cause__)


def test_domain_error_matches_stage_by_stage():
    s = make_spec(SQRT_A)
    F = s.A.compiled()
    calls = (lambda: simulate(s, None, T=2.0),
             lambda: fundamental_matrix(F, 0.0, 2.0))
    got = [_failure(c) for c in calls]
    with stage_by_stage():
        want = [_failure(c) for c in calls]
    assert got == want
    for msg, _ in got:
        t = float(msg.split("failed at t=")[1].split(":")[0])
        assert 1.0 <= t < 1.1 and "entry (1,1): sqrt of negative" in msg


def test_sandwich_names_the_time_the_loop_fails():
    # Phi of a loop defined on [0, 2], checked against one undefined past
    # t = 1; and a loop defined nowhere fails at t0, not at its probe
    tt = fundamental_matrix(parse_matrix(DECAY, ("t",)).compiled(), 0.0, 2.0)
    F = make_spec(SQRT_A).A.compiled()
    msg, cause = _failure(lambda: verify_sandwich(tt, F, "two"))
    t = float(msg.split("failed at t=")[1].split(":")[0])
    assert 1.0 <= t < 1.1 and "entry (1,1): sqrt of negative" in msg
    assert cause is EvalError
    nowhere = parse_matrix([["sqrt(0-1-t)", "0"], ["0", "0"]],
                           ("t",)).compiled()
    msg, _ = _failure(lambda: fundamental_matrix(nowhere, 0.0, 1.0))
    assert msg.startswith("expression evaluation failed at t=0: ")


@pytest.mark.parametrize("a22, omega, entry", [
    ("sqrt(1-t)", None, "entry (2,2)"),
    ("0-1", ["0", "0*sqrt(1-t)"], "entry 2")])
def test_domain_error_after_the_switch_matches_stage_by_stage(a22, omega,
                                                              entry):
    # stiff, so RODAS4 has taken over well before the domain ends at t = 1
    s = make_spec([["0-1000", "0"], ["0", a22]], x0=(1.0, 1.0),
                  omega=omega and parse_vector(omega, ("t", "x1", "x2")))
    calls = [lambda: simulate(s, None, T=2.0)]
    if omega is None:
        F = s.A.compiled()
        calls.append(lambda: fundamental_matrix(F, 0.0, 2.0))
    tr = simulate(s, None, T=0.9)
    assert tr.n_explicit < len(tr.step_sizes)
    got = [_failure(c) for c in calls]
    with stage_by_stage():
        want = [_failure(c) for c in calls]
    assert got == want
    for msg, _ in got:
        t = float(msg.split("failed at t=")[1].split(":")[0])
        assert 1.0 <= t < 1.1 and f"{entry}: sqrt of negative" in msg


def test_controlled_simulation_stops_where_the_plant_is_undefined():
    # A + B K does not exist past t = 1, with the gain as without it
    s = make_spec(SQRT_A)
    run = lambda: simulate(s, synthesize(s), T=2.0)
    msg, cause = _failure(run)
    with stage_by_stage():
        assert _failure(run) == (msg, cause)
    t = float(msg.split("failed at t=")[1].split(":")[0])
    assert 1.0 <= t < 1.1 and "entry (1,1): sqrt of negative" in msg


def test_disturbance_failing_first_in_the_step_is_reported():
    # the first step spans [0, 0.02]; M fails from its third stage
    # (t = 0.016), omega already at its second (t = 0.006)
    A = [["0*sqrt(0.01-t)", "0"], ["0", "0"]]
    omega = parse_vector(["0*sqrt(0.005-t)", "0"], ("t", "x1", "x2"))
    only_M = make_spec(A)
    both = make_spec(A, omega=omega)
    m_msg, _ = _failure(lambda: simulate(only_M, None, T=1.0))
    msg, cause = _failure(lambda: simulate(both, None, T=1.0))
    assert m_msg.startswith("expression evaluation failed at t=0.016: "
                            "entry (1,1)")
    assert msg.startswith("expression evaluation failed at t=0.006: entry 1:")
    with stage_by_stage():
        assert _failure(lambda: simulate(both, None, T=1.0)) == (msg, cause)


def error_ref(tol, y, y_new, err_vec):
    """The step's (finite, err) decided entry by entry."""
    if np.isfinite(y_new).all() and np.isfinite(err_vec).all():
        return True, float(np.linalg.norm(err_vec)) / (
            tol * (1.0 + float(np.linalg.norm(y))))
    return False, math.inf


@pytest.mark.parametrize("y_new, err_vec", [
    ([1.0, 2.0], [1e-9, -2e-9]),
    ([math.inf, 2.0], [1e-9, -2e-9]),
    ([1.0, -math.inf], [1e-9, -2e-9]),
    ([math.nan, 2.0], [1e-9, -2e-9]),
    ([1.0, 2.0], [math.inf, 0.0]),
    ([1.0, 2.0], [0.0, math.nan]),
    ([1e308, 1e308], [1e-9, -2e-9]),  # finite, its sum overflows
    ([1e200, 2.0], [1e200, -1e200]),  # finite, the squares overflow
    ([1e200, math.nan], [1e200, 0.0]),
    ([1.0, 2.0], [1e200, math.inf]),
])
def test_step_error_decides_finiteness_entry_by_entry(y_new, err_vec):
    y = np.array([0.5, -1.5])
    y_new, err_vec = np.array(y_new), np.array(err_vec)
    # squaring a 1e200 entry overflows, and numpy warns that it did
    overflows = bool((np.abs(err_vec) == 1e200).any())
    with (pytest.warns(RuntimeWarning, match="overflow") if overflows
          else contextlib.nullcontext()):
        got = sim._error(1e-8, y, y_new, err_vec)
        want = error_ref(1e-8, y, y_new, err_vec)
    assert got[0] == want[0]
    assert got[1] == want[1]  # bit for bit, inf included
