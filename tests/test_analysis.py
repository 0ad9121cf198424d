"""Quadrature, the A1-A4 evidence checks and the stability classifier."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lognorm_control import analysis
from lognorm_control.analysis import (
    Evidence,
    check_A1,
    check_A2_A4,
    check_A3,
    classify_stability,
    cumulative_integral,
    integrate,
    integrate_mu,
)
from lognorm_control.expr import parse, parse_matrix, parse_vector
from lognorm_control.linalg import (
    Weighted,
    lognorm,
    lognorm_pair,
    lyapunov_solve,
    symmetric_eigen_max,
)
from lognorm_control.synthesis import ExplicitGamma, synthesize
from lognorm_control.system import SystemSpec, closed_loop_function


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


ZERO_A = [["0", "0"], ["0", "0"]]


# ---------------------------------------------------------------------------
# adaptive quadrature

def test_integrate_exact_on_cubics():
    r = integrate(lambda t: t ** 3 - 2.0 * t, 0.0, 2.0)
    assert r.value == 0.0
    assert r.converged
    assert r.evals == 5  # one panel suffices


def test_integrate_sin_golden():
    r = integrate(math.sin, 0.0, math.pi, tol=1e-10)
    assert r.value == pytest.approx(2.0, abs=1e-10)
    assert abs(r.value - 2.0) <= 10.0 * max(r.est_error, 1e-15)


def test_integrate_error_estimate_honest(rng):
    # random smooth integrands against a dense trapezoid rule
    for _ in range(20):
        c = rng.uniform(-2.0, 2.0, size=3)
        w = float(rng.uniform(0.5, 4.0))

        def f(t, c=c, w=w):
            return c[0] * np.sin(w * t) + c[1] * t ** 2 + c[2] * np.exp(-t)

        r = integrate(f, 0.0, 3.0, tol=1e-9)
        ref = oracles.trapezoid_ref(f, 0.0, 3.0, n=200_001)
        assert r.converged
        assert abs(r.value - ref) < 1e-7


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.0, float("nan")),
                                  (0.0, float("inf"))])
def test_integrate_rejects_bad_bounds(a, b):
    with pytest.raises(ValueError, match="bounds"):
        integrate(lambda t: t, a, b)


def test_cumulative_integral_sqrt_endpoint():
    # integrand with infinite slope at 0; per-cell subdivision absorbs it
    grid = np.linspace(0.0, 1.0, 11)
    vals, err, _, ok = cumulative_integral(np.sqrt, grid)
    assert ok
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(2.0 / 3.0, abs=5e-9)
    assert err < 1e-7


def test_cumulative_integral_decreasing_for_negative_integrand():
    grid = np.linspace(0.0, 5.0, 101)
    vals, _, _, ok = cumulative_integral(lambda t: -(1.0 + t), grid)
    assert ok
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] == pytest.approx(-17.5, rel=1e-10)


@pytest.mark.parametrize("grid", [[0.0], [0.0, 1.0, 1.0], [1.0, 0.0],
                                  [0.0, float("inf")], [0.0, float("nan")]])
def test_cumulative_integral_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="grid"):
        cumulative_integral(lambda t: t, grid)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_quadrature_rejects_bad_tolerances(tol):
    # nan used to split every panel of cumulative_integral down to the
    # depth cap; inf accepted every panel at once
    with pytest.raises(ValueError, match="tol"):
        cumulative_integral(lambda t: t, [0.0, 1.0], tol)
    with pytest.raises(ValueError, match="tol"):
        integrate(lambda t: t, 0.0, 1.0, tol)


def _closed_loop_mu(system, negate=False):
    spec, ctrl = system
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    sign = -1.0 if negate else 1.0
    return lambda ts: lognorm(sign * cl(ts), "two")


@pytest.mark.parametrize("case", ["smooth", "sqrt", "bundled", "bundled-neg",
                                  "oscillator"])
def test_cumulative_integral_matches_recursive_reference(case, example,
                                                         oscillator):
    # the level-synchronous quadrature against the depth-first recursion
    # it replaced: same panels, so the same values and convergence, and
    # evals lower by exactly the interior grid nodes it shares
    grid, tol = np.linspace(0.0, 10.0, 257), 1e-10
    if case == "smooth":
        f, grid = (lambda t: np.sin(3.0 * t) + t * t), np.linspace(0, 5, 17)
    elif case == "sqrt":
        f, grid, tol = np.sqrt, np.linspace(0.0, 1.0, 11), 1e-9
    elif case == "oscillator":
        f, grid = _closed_loop_mu(oscillator), np.linspace(0.0, 20.0, 201)
    else:
        f = _closed_loop_mu(example, negate=case == "bundled-neg")
    vals, err, evals, ok = cumulative_integral(f, grid, tol)
    ref_vals, ref_err, ref_evals, ref_ok = oracles.cumulative_simpson_ref(
        lambda t: f(np.array([t]))[0], grid, tol)
    assert ok == ref_ok
    assert evals == ref_evals - (len(grid) - 2)
    assert np.all(np.abs(vals - ref_vals) <= 1e-13 * (1.0 + np.abs(ref_vals)))
    assert err == pytest.approx(ref_err, rel=1e-12)


@pytest.mark.parametrize("case", ["bundled", "oscillator"])
def test_pair_quadrature_matches_recursive_reference(case, example,
                                                     oscillator):
    # mu[M] and mu[-M] as one integrand: a panel is accepted when both
    # components pass, in the level-synchronous quadrature and in the
    # depth-first recursion alike
    spec, ctrl = example if case == "bundled" else oscillator
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    grid = np.linspace(0.0, 10.0 if case == "bundled" else 20.0, 201)
    f = lambda ts: lognorm_pair(cl(ts), "two")  # noqa: E731
    vals, err, evals, ok = cumulative_integral(f, grid, 1e-10)
    ref_vals, ref_err, ref_evals, ref_ok = oracles.cumulative_simpson_ref(
        lambda t: lognorm_pair(cl(t), "two"), grid, 1e-10)
    assert vals.shape == ref_vals.shape == (2, len(grid))
    assert ok == ref_ok
    assert evals == ref_evals - (len(grid) - 2)
    assert np.all(np.abs(vals - ref_vals) <= 1e-13 * (1.0 + np.abs(ref_vals)))
    assert err == pytest.approx(ref_err, rel=1e-12)


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_one_component_integrand_reproduces_the_scalar_call(tol, example):
    cl = closed_loop_function(*example, include_delta=True)
    f = lambda ts: lognorm(cl(ts), "two")  # noqa: E731
    grid = np.linspace(0.0, 10.0, 101)
    vals, err, evals, ok = cumulative_integral(f, grid, tol)
    vec = cumulative_integral(lambda ts: f(ts)[None], grid, tol)
    assert vec[0].shape == (1, len(grid)) and vec[1].shape == (1,)
    assert vec[0][0].tobytes() == vals.tobytes()
    assert vec[1][0] == err and isinstance(err, float)
    assert vec[2:] == (evals, ok)


def test_vector_integrand_shape_must_hold_across_levels():
    calls = []

    def f(ts):  # two components at first, then one
        calls.append(len(ts))
        return np.stack((ts, ts)) if len(calls) == 1 else ts * ts
    with pytest.raises(ValueError, match="shape"):
        cumulative_integral(f, [0.0, 1.0], 1e-9)


@pytest.mark.parametrize("components", [None, 2])
def test_overflowing_running_sum_names_its_grid_point(components):
    # every cell is finite (1e308) but the second one's running sum is not
    def f(x):
        v = np.full(x.shape, 1e307)
        return v if components is None else np.stack([v] * components)
    with pytest.raises(ValueError, match="cumulative integral overflows at "
                                         r"grid point 20\.0"):
        cumulative_integral(f, [0.0, 10.0, 20.0], 1e-9)


def test_cumulative_integral_names_nonfinite_node():
    # a grid node, then a node of the first refinement level
    with pytest.raises(ValueError, match=r"non-finite value at 0\.5"):
        cumulative_integral(lambda t: np.where(t == 0.5, np.inf, t),
                            np.linspace(0, 1, 3))
    with pytest.raises(ValueError, match=r"non-finite value at 0\.375"):
        cumulative_integral(lambda t: np.where(t == 0.375, np.nan, t),
                            np.linspace(0, 1, 3))


def _simpson_outcome(f, grid, tol, float_panels, max_evals=None):
    """Bits of ``_simpson``'s result, or its ValueError's text, and of the
    nodes of each call of ``f``, with levels of at most ``float_panels``
    panels run on Python floats (and ``max_evals`` for ``_MAX_EVALS``)."""
    calls = []

    def logged(t):
        calls.append(t.tobytes())
        return f(t)
    saved = analysis._FLOAT_PANELS, analysis._MAX_EVALS
    analysis._FLOAT_PANELS = float_panels
    analysis._MAX_EVALS = max_evals or saved[1]
    try:
        with np.errstate(all="ignore"):
            value, err, evals, ok = analysis._simpson(logged, grid, tol)
    except ValueError as exc:
        return str(exc), calls
    finally:
        analysis._FLOAT_PANELS, analysis._MAX_EVALS = saved
    return value.tobytes(), np.asarray(err).tobytes(), evals, ok, calls


@settings(max_examples=75)
@example(lo=0.0, widths=[1.0], at_node=False, where=0.3, p=0.5, gap=None,
         offset=1e9, wave=True, spike=None, two=False, log_tol=-9.0,
         max_evals=None)
@given(lo=st.floats(-3.0, 3.0),
       widths=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
       at_node=st.booleans(), where=st.floats(0.0, 1.0),
       p=st.sampled_from([-0.3, 0.3, 0.5, 1.5, 2.5]),
       gap=st.sampled_from([None, 1e-3, 1e-12]),
       offset=st.sampled_from([0.0, 1e9]), wave=st.booleans(),
       spike=st.one_of(st.none(), st.floats(0.0, 1.0)),
       two=st.booleans(), log_tol=st.floats(-9.0, -3.0),
       max_evals=st.sampled_from([None, 60, 400]))
def test_float_levels_keep_the_array_levels_bits(lo, widths, at_node, where,
                                                  p, gap, offset, wave, spike,
                                                  two, log_tol, max_evals):
    # |t - c|^p singular at a grid node (the endpoint of a cell) or inside
    # one reaches MAX_DEPTH there for a small tol (for any tol if p < 0);
    # a second singular point a gap past c makes the pending panels
    # narrow and widen again; an offset of 1e9 makes the relative floor
    # set the tolerance, unless it is a wave of one period over the grid,
    # whose integral, and so floor, is about 0 on one cell: there the
    # rounding-noise rule accepts panels (the example).  A negative p at
    # a node is a non-finite value, a spike of 1e308 overflows the panels
    # whose nodes find it, and a cap of 60 or 400 evaluations stops the
    # quadrature early.  All-array levels, all-float levels from the first
    # refinement on, and a crossover between them call f on the same
    # nodes and agree on every bit, count and error text.  ~1 s: the float
    # levels cost ~5 us per panel (tol stays above 1e-9, or the panel
    # counts grow past 1e4)
    grid = lo + np.concatenate(([0.0], np.cumsum(widths)))
    span = grid[-1] - grid[0]
    c = (grid[round(where * (len(grid) - 1))] if at_node
         else grid[0] + where * span)

    def f(t):
        v = offset * (np.sin(2.0 * np.pi * (t - grid[0]) / span) if wave
                      else 1.0) + np.abs(t - c) ** p
        if gap is not None:
            v = v + np.abs(t - c - gap) ** p
        if spike is not None:
            v = v + np.where(np.abs(t - grid[0] - spike * span) < 0.01,
                             1e308, 0.0)
        return np.stack([v, np.cos(t) * v]) if two else v
    outcomes = [_simpson_outcome(f, grid, 10.0 ** log_tol, n, max_evals)
                for n in (0, 3, 10 ** 9)]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_quadrature_cost_does_not_grow_with_the_integrand_scale():
    # s |t - 0.3|^2.5 at tol 1e-9: from s = 1e6 on, TOL_REL |int f|
    # sets every cell's tolerance, so a larger scale refines the same
    # panels, not on down to the rounding-noise rule or MAX_DEPTH
    grid, counts = np.linspace(0.0, 1.0, 5), {}
    for s in (1.0, 1e6, 1e15, 1e300):
        vals, err, counts[s], ok = cumulative_integral(
            lambda t: s * np.abs(t - 0.3) ** 2.5, grid, 1e-9)
        exact = s * (np.sign(grid - 0.3) * np.abs(grid - 0.3) ** 3.5
                     + 0.3 ** 3.5) / 3.5
        assert ok and np.abs(vals - exact).max() <= err
    assert counts == {1.0: 97, 1e6: 461, 1e15: 461, 1e300: 461}


def test_a_quadrature_stops_at_the_evaluation_cap(monkeypatch):
    # sin(300 t) - 1 on doubling_evidence's grid needs ~2e5 evaluations
    # to converge: under the cap the quadrature accepts its pending panels
    # unconverged, and the doubling test reads that as inconclusive
    f = lambda t: np.sin(300.0 * t) - 1.0  # noqa: E731
    grid, tol = np.linspace(0.0, 10.0, 129), 1e-8 / 128
    _, _, evals, ok = cumulative_integral(f, grid, tol)
    assert not ok and evals <= analysis._MAX_EVALS
    ev = analysis.doubling_evidence("A4", f, 0.0, 10.0, 1e-8,
                                    analysis._decay_notes("int f"))
    assert ev.verdict == "inconclusive"
    assert ev.note == "quadrature did not converge"
    monkeypatch.setattr(analysis, "_MAX_EVALS", 10 ** 6)
    _, _, evals, ok = cumulative_integral(f, grid, tol)
    assert ok and evals > 10 ** 5


def test_the_evaluation_cap_forces_only_a_level_that_splits():
    # 30,000 cells of cos: the first refinement takes the count to
    # 120,001, past the cap, but accepts every panel, so nothing is forced
    _, _, evals, ok = cumulative_integral(np.cos, np.linspace(0, 1, 30001),
                                          1e-9)
    assert ok and evals == 120_001 > analysis._MAX_EVALS


_OVERFLOWING_QUADRATURES = """
import resource
import numpy as np
from lognorm_control.analysis import classify_stability, cumulative_integral
from lognorm_control.expr import parse_matrix
from lognorm_control.system import SystemSpec
# a regression splits every panel down to depth 40: fail here, not the host
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
spec = SystemSpec(n=2, A=parse_matrix([["0-1", "1.5e308*t"], ["0", "0-1"]]),
                  B=np.eye(2), t0=0.0, x0=np.array([1.0, 1.0]))
for run in (lambda: cumulative_integral(lambda x: np.full(x.shape, 1e308),
                                        [0.0, 1.0], 1e-9),
            lambda: classify_stability(spec, T=1.0)):
    try:
        run()
    except ValueError as exc:
        print(exc)
"""


def test_an_overflowing_quadrature_names_its_panel():
    # finite integrand values near 1e308 whose Simpson estimates
    # overflow, directly and through the closed loop's mu integral
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _OVERFLOWING_QUADRATURES],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "quadrature overflows on the panel from 0.0",
        "quadrature overflows on the panel from 0.3984375"]


def test_integrate_mu_matches_arctan(example):
    spec, _ = example
    q = integrate_mu(spec.Delta, "two", 0.0, 10.0, tol=1e-10)
    assert q.converged
    assert q.value == pytest.approx(math.atan(10.0), abs=1e-8)


def test_integrate_mu_zero_matrix():
    F = parse_matrix(ZERO_A, ("t",))
    assert integrate_mu(F, "two", 0.0, 7.0).value == 0.0


@pytest.mark.parametrize("kind", ["one", "two", "inf"])
def test_integrate_mu_constant_diagonal(kind):
    F = parse_matrix([["0-1", "0"], ["0", "0-1"]], ("t",))
    q = integrate_mu(F, kind, 0.0, 5.0)
    assert q.value == pytest.approx(-5.0, rel=1e-10)


def test_integrate_mu_one_and_inf_goldens():
    F = parse_matrix([["0-2", "1"], ["0", "0-3"]], ("t",))
    assert integrate_mu(F, "one", 0.0, 2.0).value == pytest.approx(-4.0,
                                                                   rel=1e-10)
    assert integrate_mu(F, "inf", 0.0, 2.0).value == pytest.approx(-2.0,
                                                                   rel=1e-10)


def test_integrate_mu_weighted():
    # H = diag(4, 1) rescales the similarity so mu_H = 1 identically
    F = parse_matrix([["0-1", "0"], ["8", "0-1"]], ("t",))
    q = integrate_mu(F, Weighted(np.diag([4.0, 1.0])), 0.0, 1.0)
    assert q.value == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# evidence checks

def test_a1_supported_on_example(example):
    spec, _ = example
    e = check_A1(spec, 1e4)
    assert e.verdict == "supported"
    assert e.measured["I"] == pytest.approx(math.atan(1e4), abs=1e-8)
    assert e.measured["tail"] == pytest.approx(1e-4, rel=1e-2)
    assert e.measured["quad_error"] <= 1e-8


def test_a1_matches_the_closed_form_of_a_decaying_uncertainty():
    # mu_2(diag(e^-t, 0)) = e^-t, so I = e^-t0 - e^-T; from t0 = 1, so the
    # grid's grading starts off the origin
    s = make_spec(A=parse_matrix(ZERO_A, ("t",)), t0=1.0,
                  Delta=parse_matrix([["exp(0-t)", "0"], ["0", "0"]], ("t",)))
    e = check_A1(s, 1.0 + 1e4)
    assert e.verdict == "supported"
    assert e.measured["quad_error"] <= 1e-8
    assert abs(e.measured["I"] - math.exp(-1.0)) <= e.measured["quad_error"]
    assert e.measured["I_half"] == pytest.approx(math.exp(-1.0), abs=1e-9)
    with pytest.raises(ValueError, match="must exceed t0"):
        check_A1(s, 0.5)


def test_a1_quadrature_is_graded_toward_t0(example, monkeypatch):
    # two half-span cells took 2,173 evaluations on the example; cells
    # graded geometrically from t0 need at most half of them
    spec, _ = example
    evals = []
    original = analysis.cumulative_integral

    def counting(f, grid, tol=1e-9):
        out = original(f, grid, tol)
        evals.append(out[2])
        return out
    monkeypatch.setattr(analysis, "cumulative_integral", counting)
    assert check_A1(spec, 1e4).verdict == "supported"
    assert len(evals) == 1 and evals[0] <= 2173 // 2


def test_a1_trivial_without_uncertainty():
    e = check_A1(make_spec(), 100.0)
    assert e.verdict == "supported"
    assert e.measured == {"I": 0.0}
    assert "no uncertainty" in e.note


def test_a1_inconclusive_for_growing_integral():
    s = make_spec(Delta=parse_matrix([["1", "0"], ["0", "0"]], ("t",)))
    e = check_A1(s, 1e4)
    assert e.verdict == "inconclusive"
    assert e.measured["tail"] == pytest.approx(5000.0, rel=1e-6)
    assert "not settled" in e.note


def test_a1_inconclusive_where_the_uncertainty_is_undefined():
    # sqrt(5-t) has no value past t = 5, inside the A1 horizon
    s = make_spec(Delta=parse_matrix([["sqrt(5-t)", "0"], ["0", "0"]],
                                     ("t",)))
    e = check_A1(s, 10.0)
    assert e.verdict == "inconclusive"
    assert e.measured == {}
    assert e.note.startswith("could not evaluate the uncertainty: "
                             "entry (1,1)")


# a step from 0 to 1 at t = 1.1: no panel across it meets its error share
JUMP = "min(1, max(0, 1e300*(t-1.1)))"


def test_a1_and_a4_inconclusive_where_the_quadrature_does_not_converge():
    a1 = check_A1(make_spec(Delta=parse_matrix([[JUMP, "0"], ["0", "0"]],
                                               ("t",))), 10.0)
    _, a4 = check_A2_A4(make_spec(A=parse_matrix(
        [[f"-1+0.5*{JUMP}", "0"], ["0", "-2"]], ("t",))), None, 10.0)
    for ev in (a1, a4):
        assert ev.verdict == "inconclusive"
        assert ev.note == "quadrature did not converge"
    assert a1.measured["I"] == pytest.approx(8.9, rel=1e-12)
    assert a4.measured["J"] == pytest.approx(-5.55, rel=1e-12)


def test_a2_a4_supported_on_example(example):
    spec, ctrl = example
    a2, a4 = check_A2_A4(spec, ctrl, 10.0)
    assert a2.verdict == "supported"
    assert a2.measured["sup_mu_window"] < 0.0
    assert a4.verdict == "supported"
    assert a4.measured["J"] < -10.0
    assert a4.measured["J_half"] < 0.0


def test_closed_loop_checks_inconclusive_where_the_plant_is_undefined():
    # A(1,1) = sqrt(1-t) has no value on the trailing windows past t = 1,
    # so neither has A + B K: no closed-loop evidence can be supported
    s = make_spec(A=parse_matrix([["sqrt(1-t)", "0"], ["0", "0-1"]], ("t",)),
                  omega_bound=parse("exp(0-t)"))
    c = synthesize(s)
    for T in (2.0, 10.0):
        for ev in (*check_A2_A4(s, c, T), check_A3(s, c, T)):
            assert ev.verdict == "inconclusive"
            assert ev.note.startswith("could not evaluate: entry (1,1)")
    rep = classify_stability(s, c, T=10.0)
    assert {e.verdict for e in rep.entries.values()} == {"inconclusive"}


def test_a2_a4_refuted_for_positive_rate():
    z = make_spec(A=parse_matrix(ZERO_A, ("t",)))
    c = synthesize(z, lam=np.array([-0.5, -0.5]),
                   rule=ExplicitGamma((parse("1"), parse("1"))))
    a2, a4 = check_A2_A4(z, c, 10.0)
    assert a2.verdict == "refuted"
    assert a2.measured["sup_mu_window"] == pytest.approx(0.5, rel=1e-10)
    assert a4.verdict == "refuted"
    assert a4.measured["J"] == pytest.approx(5.0, rel=1e-8)


def test_a2_a4_open_loop_example_diverges(example):
    spec, _ = example
    a2, a4 = check_A2_A4(spec, None, 10.0)
    assert a2.verdict == "refuted"
    assert a4.verdict == "refuted"


def test_a2_inconclusive_where_mu_changes_sign_on_the_window():
    # mu = max(sin(t), -1) takes both signs on the window [8, 10]
    s = make_spec(A=parse_matrix([["sin(t)", "0"], ["0", "-1"]], ("t",)))
    a2, _ = check_A2_A4(s, None, 10.0)
    assert a2.verdict == "inconclusive"
    assert a2.note == "mu changes sign on the trailing window"
    assert a2.measured["sup_mu_window"] > 0.0 > a2.measured["inf_mu_window"]


def test_a3_supported_on_example(example):
    spec, ctrl = example
    e = check_A3(spec, ctrl, 1e3)
    assert e.verdict == "supported"
    assert e.measured["ratio_end"] < 0.05
    assert e.measured["ratio_end"] < e.measured["ratio_start"]


def test_a3_trivial_without_envelope():
    e = check_A3(make_spec(), None, 10.0)
    assert e.verdict == "supported"
    assert "no disturbance envelope" in e.note


def test_a3_refuted_for_growing_ratio():
    s = make_spec(omega=parse_vector(["t^2", "0"], ("t",)),
                  omega_bound=parse("t^2"))
    c = synthesize(s, rule=ExplicitGamma((parse("0-1"), parse("0-1"))))
    e = check_A3(s, c, 100.0)
    assert e.verdict == "refuted"
    assert e.measured["ratio_end"] > e.measured["ratio_start"]


def test_a3_samples_a_tail_through_zero_uniformly():
    # the tail [-72.5, 10] of [-100, 10] crosses zero, so it has no
    # geometric grid: 65 equal steps instead
    assert analysis.tail_grid(-100.0, 10.0).tolist() == \
        np.linspace(-72.5, 10.0, 65).tolist()
    s = make_spec(A=parse_matrix([["0-1", "0"], ["0", "0-1"]], ("t",)),
                  t0=-100.0, omega_bound=parse("1/(t+200)"))
    e = check_A3(s, None, 10.0)  # |mu| = 1, so the ratio is the envelope
    assert e.verdict == "supported"
    assert e.measured["ratio_start"] == 1.0 / 127.5
    assert e.measured["ratio_end"] == 1.0 / 210.0


def test_a3_needs_a_horizon_past_t0(example):
    spec, ctrl = example
    with pytest.raises(ValueError, match="horizon too short"):
        check_A3(spec, ctrl, spec.t0)


def test_a3_inconclusive_where_mu_vanishes():
    s = make_spec(A=parse_matrix(ZERO_A, ("t",)),
                  omega=parse_vector(["1", "1"], ("t",)),
                  omega_bound=parse("1"))
    c = synthesize(s, lam=np.array([-1.0, -1.0]),
                   rule=ExplicitGamma((parse("1"), parse("1"))))
    e = check_A3(s, c, 10.0)
    assert e.verdict == "inconclusive"
    assert "mu vanishes at sample t=" in e.note


@pytest.mark.parametrize("which", ["A4", "AS", "UNSTABLE"])
def test_doubling_test_inconclusive_when_decreasing_too_slowly(which):
    # the tested rate is -1/(1+t)^2 (UNSTABLE tests the negated loop), so
    # J(10) = -10/11 against 2 J(5) = -5/3: decreasing, but not doubling
    rate = "1/(1+t)^2" if which == "UNSTABLE" else "-1/(1+t)^2"
    s = make_spec(A=parse_matrix([[rate, "0"], ["0", rate]], ("t",)))
    ev = (check_A2_A4(s, None, 10.0)[1] if which == "A4"
          else classify_stability(s, None, T=10.0).entries[which])
    assert ev.verdict == "inconclusive"
    assert "too slowly for the doubling test" in ev.note
    assert ev.measured["J"] == pytest.approx(-10.0 / 11.0, rel=1e-6)
    assert ev.measured["J_half"] == pytest.approx(-5.0 / 6.0, rel=1e-6)


# ---------------------------------------------------------------------------
# the classifier

def test_classify_example_is_uas(example):
    spec, ctrl = example
    rep = classify_stability(spec, ctrl, T=10.0)
    assert rep.strongest == "UAS"
    assert rep.entries["UAS"].measured["alpha"] == 1.0
    verdicts = {k: e.verdict for k, e in rep.entries.items()}
    assert verdicts == {"S": "supported", "US": "supported",
                        "AS": "supported", "UAS": "supported",
                        "UNSTABLE": "refuted"}
    assert rep.a1.verdict == "supported"
    assert rep.entries["UNSTABLE"].measured["J"] > 0.0


def test_classify_unstable_diagonal():
    rep = classify_stability(make_spec(A=parse_matrix([["1", "0"],
                                                       ["0", "1"]], ("t",))),
                             None, T=10.0)
    assert rep.strongest == "UNSTABLE"
    assert all(e.verdict == "refuted" for k, e in rep.entries.items()
               if k != "UNSTABLE")


def test_classify_skew_rotation_is_us():
    rep = classify_stability(make_spec(A=parse_matrix([["0", "1"],
                                                       ["0-1", "0"]],
                                                      ("t",))),
                             None, T=10.0)
    assert rep.strongest == "US"
    assert rep.entries["US"].measured["sup_mu"] == 0.0
    assert rep.entries["AS"].verdict == "refuted"
    assert rep.entries["UNSTABLE"].verdict == "refuted"


def test_classify_as_without_a_uniform_rate():
    # mu = -t/(1+t): int mu -> -inf, but sup mu = mu(t0) = 0
    s = make_spec(A=parse_matrix([["-t/(1+t)", "0"], ["0", "-1"]], ("t",)))
    rep = classify_stability(s, None, T=10.0)
    assert rep.strongest == "AS"
    assert rep.entries["AS"].verdict == "supported"
    uas = rep.entries["UAS"]
    assert uas.verdict == "inconclusive"
    assert uas.note == "no uniform negative bound for mu on the sampled grid"
    assert uas.measured["alpha"] == 0.0


def test_classify_constant_hurwitz_alpha():
    A = np.array([[-2.0, 1.0], [0.0, -1.0]])
    rep = classify_stability(make_spec(A=parse_matrix([["0-2", "1"],
                                                       ["0", "0-1"]],
                                                      ("t",))),
                             None, T=10.0)
    assert rep.strongest == "UAS"
    want = -oracles.lognorm_ref(A, "two")
    assert rep.entries["UAS"].measured["alpha"] == pytest.approx(want,
                                                                 rel=1e-12)


def test_classify_weighted_norm_recovers_decay():
    # mu_2 of this Hurwitz matrix is positive, so the plain two-norm
    # refutes every certificate; the Lyapunov weighting restores UAS
    rows = [["0-1", "4"], ["0", "0-2"]]
    A = np.array([[-1.0, 4.0], [0.0, -2.0]])
    plain = classify_stability(make_spec(A=parse_matrix(rows, ("t",))),
                               None, T=10.0)
    assert plain.strongest is None
    H = lyapunov_solve(A)
    rep = classify_stability(make_spec(A=parse_matrix(rows, ("t",)),
                                       norm=Weighted(H)), None, T=10.0)
    assert rep.strongest == "UAS"
    assert rep.norm == "weighted"
    want = 1.0 / symmetric_eigen_max(H)
    assert rep.entries["UAS"].measured["alpha"] == pytest.approx(want,
                                                                 rel=1e-12)


def test_classify_gate_downgrades_without_a1():
    s = make_spec(A=parse_matrix([["0-1", "0"], ["0", "0-1"]], ("t",)),
                  Delta=parse_matrix([["1", "0"], ["0", "0"]], ("t",)))
    rep = classify_stability(s, None, T=10.0)
    assert rep.a1.verdict == "inconclusive"
    assert rep.strongest is None
    assert all(e.verdict == "inconclusive" for e in rep.entries.values())
    assert "downgraded" in rep.note


def test_classify_gate_keeps_an_inconclusive_entry_as_it_is():
    # as test_classify_as_without_a_uniform_rate, with A1 not supported
    s = make_spec(A=parse_matrix([["-t/(1+t)", "0"], ["0", "-1"]], ("t",)),
                  Delta=parse_matrix([["1", "0"], ["0", "0"]], ("t",)))
    rep = classify_stability(s, None, T=10.0)
    assert rep.entries["UAS"].note == ("no uniform negative bound for mu on "
                                       "the sampled grid")
    assert rep.entries["AS"].note == ("int mu diverges to -inf (doubling "
                                      "test); A1 not supported")
    assert all(e.verdict == "inconclusive" for e in rep.entries.values())


def test_classify_default_horizon(example):
    spec, ctrl = example
    assert classify_stability(spec, ctrl).T == 10.0


def test_classify_deterministic(example):
    spec, ctrl = example
    a = classify_stability(spec, ctrl, T=10.0).to_json()
    b = classify_stability(spec, ctrl, T=10.0).to_json()
    assert a == b


def test_report_serialization_round_trip(example):
    spec, ctrl = example
    rep = classify_stability(spec, ctrl, T=10.0)
    d = rep.to_dict()
    assert sorted(d.keys()) == ["A1", "T", "entries", "norm", "note",
                                "strongest"]
    assert json.loads(rep.to_json()) == d
    assert sorted(d["A1"].keys()) == ["id", "measured", "note", "verdict"]


def test_heuristic_thresholds():
    assert analysis.TAIL_ABS == 1e-6 and analysis.RATIO_LIMIT == 0.05
    assert analysis.PER_DECADE == 64 and analysis.WINDOW_POINTS == 129


def test_evidence_shape():
    e = Evidence(id="A1", verdict="supported", measured={"I": 1.0})
    assert e.note == ""
    assert e.to_dict() == {"id": "A1", "verdict": "supported",
                           "measured": {"I": 1.0}, "note": ""}
