"""Gain construction, sym/skew splitting and the c1-c3 evidence checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lognorm_control import synthesis
from lognorm_control.analysis import tail_grid
from lognorm_control.config import load_config
from lognorm_control.expr import (
    Bin,
    EvalError,
    Lit,
    MatrixFunction,
    VectorFunction,
    eval_expr,
    format_expr,
    parse,
    parse_matrix,
    parse_vector,
)
from lognorm_control.linalg import SingularMatrixError, lognorm
from lognorm_control.synthesis import (
    AutoGamma,
    ExplicitGamma,
    auto_gamma,
    decompose_sym_skew,
    synthesize,
    verify_c2,
    verify_c3,
)
from lognorm_control.system import SystemSpec, closed_loop_matrix


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


def scalar(e):
    """``e`` compiled as a one-entry grid of t: ``fn(t) -> float``."""
    fn = VectorFunction([e]).compiled()
    return lambda t: fn(t)[0]


GAMMA_X = (parse("0-t*(t^6+1)^(1/2)"), parse("0-t^(1/2)*(t^6+1)^(1/2)"))


# ---------------------------------------------------------------------------
# symmetric / skew decomposition

def test_decompose_reconstructs(rng):
    A = make_spec().A
    sym, skew = decompose_sym_skew(A)
    for t in rng.uniform(0.0, 10.0, size=100):
        t = float(t)
        S, W = sym(t), skew(t)
        assert np.max(np.abs(S - S.T)) < 1e-12
        assert np.max(np.abs(W + W.T)) < 1e-12
        assert np.max(np.abs(S + W - A(t))) < 1e-12


def test_decompose_known_entries():
    sym, skew = decompose_sym_skew(make_spec().A)
    # off-diagonal of the symmetric part is (t^(1/2) + sin t)/2
    f = scalar(sym.entries[0][1])
    for t in (0.0, 0.5, 2.0):
        assert f(t) == pytest.approx(0.5 * (math.sqrt(t) + math.sin(t)),
                                     rel=1e-15, abs=1e-15)
    # mirror entries share the same expression object, symmetric bitwise
    assert sym.entries[0][1] is sym.entries[1][0]


def test_decompose_symmetric_input_has_zero_skew():
    F = parse_matrix([["t", "1"], ["1", "0"]], ("t",))
    _, skew = decompose_sym_skew(F)
    for t in (0.0, 1.0, 3.0):
        assert np.allclose(skew(t), np.zeros((2, 2)), atol=1e-15)


def test_decompose_skew_input_has_zero_sym():
    F = parse_matrix([["0", "1"], ["-1", "0"]], ("t",))
    sym, skew = decompose_sym_skew(F)
    for t in (0.0, 2.0):
        assert np.allclose(sym(t), np.zeros((2, 2)), atol=1e-15)
        assert np.allclose(skew(t), F(t), atol=1e-15)


# ---------------------------------------------------------------------------
# the automatic gamma rule

def test_auto_gamma_without_envelope():
    g = auto_gamma(None, 1.0, 0.0)
    for t in (0.0, 1.0, 9.0):
        assert eval_expr(g, t=t) == pytest.approx(-(1.0 + t), rel=1e-15)


def test_auto_gamma_zero_envelope_matches_fallback():
    g = auto_gamma(parse("0"), 1.0, 0.0)
    for t in (0.0, 2.0, 9.0):
        assert eval_expr(g, t=t) == pytest.approx(-(1.0 + t), rel=1e-15)


def test_auto_gamma_unit_envelope():
    g = auto_gamma(parse("1"), 1.0, 0.0)
    for t in (0.0, 1.0, 4.0):
        assert eval_expr(g, t=t) == pytest.approx(-2.0 * (1.0 + t),
                                                  rel=1e-15)


def test_auto_gamma_respects_margin_and_t0():
    g = auto_gamma(None, 2.5, 1.0)
    assert eval_expr(g, t=1.0) == pytest.approx(-2.5, rel=1e-15)
    assert eval_expr(g, t=3.0) == pytest.approx(-2.5 * 3.0, rel=1e-15)


def test_auto_gamma_ratio_bound_random_envelopes(rng):
    # for any polynomial envelope w >= 0, w/|gamma| <= 1/(1 + t - t0)
    for _ in range(40):
        coeffs = rng.uniform(0.0, 3.0, size=4)
        text = "+".join(f"{c:.6f}*t^{k}" for k, c in enumerate(coeffs))
        w = parse(text)
        g = auto_gamma(w, 1.0, 0.0)
        wf, gf = scalar(w), scalar(g)
        for t in np.linspace(0.0, 20.0, 41):
            t = float(t)
            r = wf(t) / abs(gf(t))
            assert r <= 1.0 / (1.0 + t) + 1e-12


def test_auto_gamma_cubic_envelope_ratio_at_nine():
    g = auto_gamma(parse("t^3"), 1.0, 0.0)
    gf = scalar(g)
    r = 9.0 ** 3 / abs(gf(9.0))
    assert r <= 0.1 + 1e-12


# ---------------------------------------------------------------------------
# gain synthesis

def test_synthesize_example_gain_identity(example):
    spec, ctrl = example
    sym, _ = decompose_sym_skew(spec.A)
    lam = np.asarray(ctrl.lam)
    for t in np.linspace(0.0, 10.0, 20):
        t = float(t)
        gam = np.array([eval_expr(g, t=t) for g in ctrl.gamma])
        want = -sym(t) + np.diag(lam) + np.diag(gam)  # B = I here
        assert np.max(np.abs(ctrl.K(t) - want)) < 1e-10


def test_synthesize_example_k_at_zero(example):
    spec, ctrl = example
    # -A_sym(0) + diag(-1,-1) + diag(0,0)
    assert np.allclose(ctrl.K(0.0), [[-1.0, 0.0], [0.0, -2.0]], atol=1e-12)


def test_synthesize_zero_plant():
    s = make_spec(A=parse_matrix([["0", "0"], ["0", "0"]], ("t",)))
    ctrl = synthesize(s, lam=np.array([-1.0, -2.0]),
                      rule=ExplicitGamma((parse("0-1"), parse("0-1"))))
    for t in (0.0, 1.0, 5.0):
        assert np.allclose(ctrl.K(t), np.diag([-2.0, -3.0]), atol=1e-12)


def test_synthesize_scaling_through_b(example):
    spec, _ = example
    halved = make_spec(A=spec.A, B=2.0 * np.eye(2), Delta=spec.Delta,
                       omega=spec.omega, omega_bound=spec.omega_bound)
    c1 = synthesize(make_spec(A=spec.A), rule=ExplicitGamma(GAMMA_X))
    c2 = synthesize(halved, rule=ExplicitGamma(GAMMA_X))
    for t in (0.0, 0.7, 3.0):
        assert np.allclose(c2.K(t), 0.5 * c1.K(t), atol=1e-12)


def test_gain_negates_a_row_of_a_minus_one_coefficient():
    # B^-1 = diag(-1, 1): the gain's first row is that of the gain for
    # B = I, negated exactly
    flip = synthesize(make_spec(B=np.diag([-1.0, 1.0])),
                      rule=ExplicitGamma(GAMMA_X))
    plain = synthesize(make_spec(), rule=ExplicitGamma(GAMMA_X))
    for t in (0.0, 0.7, 3.0):
        K = plain.K(t)
        assert flip.K(t).tolist() == [(-K[0]).tolist(), K[1].tolist()]


@given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([2, 8, 16]))
@settings(max_examples=12)
def test_gain_product_keeps_the_synthesis_identity(workloads, seed, n):
    # plants drawn as the benchmark's plants-n8 are (B = I + 0.2 N, cond
    # < 10): B K(t) = -A_sym(t) + diag(rates(t)) at seven probe times,
    # and a batch of times, below and from expr._ARRAY_MIN, gives the
    # scalar values bit for bit
    cfg = load_config(workloads.plants_n8_problems(seed, n)[0].config)
    spec, ctrl = cfg.spec, cfg.controller.build(cfg.spec)
    sym = decompose_sym_skew(spec.A)[0]
    ts = spec.t0 + np.array([0.1, 0.37, 0.9, 1.7, 3.1, 6.4, 9.9])
    for t in ts:
        target = np.diag(ctrl.rates(t)) - sym(t)
        err = np.abs(spec.B @ ctrl.K(t) - target).max()
        assert err <= 1e-10 * (1.0 + np.abs(target).max())
    for batch in (ts, np.linspace(spec.t0, spec.t0 + 10.0, 64)):
        assert ctrl.K(batch).tobytes() == \
            np.array([ctrl.K(t) for t in batch]).tobytes()


def test_synthesize_default_lambda_is_minus_one():
    ctrl = synthesize(make_spec(), rule=ExplicitGamma(GAMMA_X))
    assert np.allclose(ctrl.lam, [-1.0, -1.0], atol=0.0)


def test_synthesize_rejects_singular_b():
    s = make_spec(B=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="not invertible"):
        synthesize(s)


def test_synthesize_rejects_nonnegative_lambda():
    with pytest.raises(ValueError, match="negative"):
        synthesize(make_spec(), lam=np.array([-1.0, 0.0]))


def test_synthesize_rejects_vanishing_gamma_with_envelope():
    s = make_spec(omega=parse_vector(["1", "1"], ("t",)),
                  omega_bound=parse("1"))
    with pytest.raises(ValueError):
        synthesize(s, rule=ExplicitGamma((parse("0"), parse("0"))))


def test_synthesize_gamma_length_check():
    with pytest.raises(ValueError):
        synthesize(make_spec(), rule=ExplicitGamma((parse("0-1"),)))


def test_synthesized_k_round_trips_through_parser(example):
    # the printed factored form, B_inv, adaptive_part and gamma, gives
    # back the gain bit for bit
    _, ctrl = example
    adaptive = parse_matrix(ctrl.adaptive_part.formatted(), ("t",))
    gamma = [parse(format_expr(g)) for g in ctrl.gamma]
    for t in (0.0, 0.9, 4.2):
        inner = adaptive(t) + np.diag([eval_expr(g, t=t) for g in gamma])
        assert np.array_equal(ctrl.B_inv @ inner, ctrl.K(t))


# ---------------------------------------------------------------------------
# independence of the two controller parts

def test_delta_perturbation_leaves_k_identical(example):
    spec, ctrl = example
    perturbed = make_spec(A=spec.A,
                          Delta=parse_matrix([["t^2", "1"], ["1", "t"]],
                                             ("t",)),
                          omega=spec.omega, omega_bound=spec.omega_bound)
    ctrl2 = synthesize(perturbed, lam=np.asarray(ctrl.lam),
                       rule=ExplicitGamma(tuple(ctrl.gamma)))
    assert ctrl2.adaptive_part.formatted() == ctrl.adaptive_part.formatted()
    assert np.array_equal(ctrl2.B_inv, ctrl.B_inv)
    assert ctrl2.gamma == ctrl.gamma
    for t in (0.0, 0.9, 4.2):
        assert np.array_equal(ctrl2.K(t), ctrl.K(t))


def test_envelope_change_touches_only_robust_part(example):
    spec, ctrl = example
    changed = make_spec(A=spec.A, Delta=spec.Delta, omega=spec.omega,
                        omega_bound=parse("t^8+5"))
    ctrl2 = synthesize(changed, lam=np.asarray(ctrl.lam), rule=AutoGamma())
    assert ctrl2.adaptive_part.formatted() == ctrl.adaptive_part.formatted()
    assert [format_expr(g) for g in ctrl2.gamma] != \
        [format_expr(g) for g in ctrl.gamma]


# ---------------------------------------------------------------------------
# c2 / c3 evidence

def test_c2_supported_on_example(example):
    _, ctrl = example
    rep = verify_c2(ctrl, 1e3)
    assert rep.verdict == "supported"
    assert rep.measured["ratio_end"] < 0.05


def test_c2_trivial_without_envelope():
    ctrl = synthesize(make_spec(), rule=ExplicitGamma(GAMMA_X))
    assert verify_c2(ctrl, 10.0).verdict == "supported"


def test_c2_refuted_for_growing_ratio():
    s = make_spec(omega=parse_vector(["t^2", "0"], ("t",)),
                  omega_bound=parse("t^2"))
    ctrl = synthesize(s, rule=ExplicitGamma((parse("0-1"), parse("0-1"))))
    assert verify_c2(ctrl, 100.0).verdict == "refuted"


def test_c2_inconclusive_when_ratio_does_not_settle():
    # r = 1/2 at every sample: not below the limit, not growing past 1
    s = make_spec(omega=parse_vector(["1", "0"], ("t",)),
                  omega_bound=parse("1"))
    ctrl = synthesize(s, rule=ExplicitGamma((parse("-2"), parse("-2"))))
    rep = verify_c2(ctrl, 100.0)
    assert rep.verdict == "inconclusive"
    assert rep.measured["ratio_end"] == 0.5
    assert all(p["decreasing"] for p in rep.measured["per_component"])


def test_c2_reports_each_components_first_failure():
    # the envelope fails beyond t = 50 and gamma 2 already at the first
    # tail sample t = 25: each component reports what fails first for it
    s = make_spec(omega=parse_vector(["0", "0"], ("t",)),
                  omega_bound=parse("sqrt(50-t)"))
    g2 = parse("-sqrt(20-t)")
    ctrl = synthesize(s, rule=ExplicitGamma((parse("-1"), g2)))
    grid = tail_grid(0.0, 100.0)
    with pytest.raises(EvalError) as w_err:
        eval_expr(s.omega_bound, t=float(grid[grid > 50.0][0]))
    with pytest.raises(EvalError) as g_err:
        eval_expr(g2, t=float(grid[0]))
    rep = verify_c2(ctrl, 100.0)
    assert rep.verdict == "inconclusive"
    assert rep.measured["per_component"] == [
        {"component": 1, "error": str(w_err.value)},
        {"component": 2, "error": str(g_err.value)}]


def test_c3_supported_on_example(example):
    _, ctrl = example
    ev = verify_c3(ctrl, 10.0)
    assert ev.verdict == "supported"
    assert ev.measured["identity_max_rel_err"] < 1e-9
    # on [0, 1] the running maximum is the first component's rate
    gmax = ctrl.gamma_max()
    for t in (0.1, 0.5, 0.9):
        assert gmax(t) == pytest.approx(-1.0 - t * math.sqrt(t ** 6 + 1.0),
                                        rel=1e-12)


def test_c3_identity_checks_the_printed_gain(example):
    # the sampled identity runs on A + B K through K = B_inv @ inner: a
    # printed part that is off by 1e-3 in one entry no longer gives
    # mu_2 = Gamma, while the closed loop and Gamma stay as they were
    _, ctrl = example
    rows = [list(row) for row in ctrl.adaptive_part.entries]
    rows[0][0] = Bin("+", rows[0][0], Lit(1e-3))
    for bad in (dataclasses.replace(ctrl, adaptive_part=MatrixFunction(rows)),
                dataclasses.replace(ctrl, B_inv=ctrl.B_inv + np.diag(
                    [1e-3, 0.0]))):
        ev = verify_c3(bad, 10.0)
        assert ev.verdict == "inconclusive" and "check the gain" in ev.note
        assert ev.measured["identity_max_rel_err"] > 1e-5


def test_c3_inconclusive_where_gamma_is_undefined():
    # gamma_1 = -sqrt(3-t), hence the gain, does not exist on (3, 10]:
    # C3 says why instead of raising
    ctrl = synthesize(make_spec(), lam=np.array([-1.0, -1.0]),
                      rule=ExplicitGamma((parse("-sqrt(3-t)"),
                                          parse("-1-t"))))
    ev = verify_c3(ctrl, 10.0)
    assert ev.verdict == "inconclusive" and ev.measured == {}
    assert ev.note.startswith("could not evaluate Gamma: entry 1: sqrt "
                              "of negative value")


def test_c3_inconclusive_where_the_gain_is_undefined():
    # A, hence K and the closed loop, does not exist past t = 0.5 while
    # Gamma does: the samples past it make C3 inconclusive, not supported
    spec = make_spec(A=parse_matrix([["sqrt(0.5-t)", "1"], ["0", "-1"]]))
    ev = verify_c3(synthesize(spec), 1.0)
    assert ev.verdict == "inconclusive" and ev.measured == {}
    assert ev.note.startswith("could not evaluate A: entry (1,1): "
                              "sqrt of negative value")


def test_c3_identity_is_one_batch(example, monkeypatch):
    # the 32 sample times go through lognorm as one stack; where the gain
    # fails past t = 3, no sample is checked on its own
    shapes = []

    def counting(M, kind):
        shapes.append(np.shape(M))
        return lognorm(M, kind)
    monkeypatch.setattr(synthesis, "lognorm", counting)
    _, ctrl = example
    assert verify_c3(ctrl, 10.0).verdict == "supported"
    assert shapes == [(32, 2, 2)]
    shapes.clear()
    ctrl = synthesize(make_spec(), lam=np.array([-1.0, -1.0]),
                      rule=ExplicitGamma((parse("-sqrt(3-t)"),
                                          parse("-1-t"))))
    assert verify_c3(ctrl, 10.0).verdict == "inconclusive"
    assert shapes == []


def test_c3_constant_gamma_supported():
    ctrl = synthesize(make_spec(), lam=np.array([-1.0, -2.0]),
                      rule=ExplicitGamma((parse("0"), parse("0"))))
    ev = verify_c3(ctrl, 10.0)
    assert ev.verdict == "supported"
    assert ev.measured["J"] == pytest.approx(-10.0, rel=1e-6)


def test_c3_refuted_for_positive_gamma():
    ctrl = synthesize(make_spec(A=parse_matrix([["0", "0"], ["0", "0"]],
                                               ("t",))),
                      lam=np.array([-1.0, -1.0]),
                      rule=ExplicitGamma((parse("2"), parse("2"))))
    assert verify_c3(ctrl, 10.0).verdict == "refuted"


def test_c3_inconclusive_when_decreasing_too_slowly():
    # Gamma = -1/(1+t)^2: J(10) = -10/11 against 2 J(5) = -5/3
    ctrl = synthesize(make_spec(A=parse_matrix([["0", "0"], ["0", "0"]],
                                               ("t",))),
                      lam=np.array([-1.0, -1.0]),
                      rule=ExplicitGamma((parse("1-1/(1+t)^2"),) * 2))
    ev = verify_c3(ctrl, 10.0)
    assert ev.verdict == "inconclusive"
    assert "too slowly for the doubling test" in ev.note
    assert ev.measured["J"] == pytest.approx(-10.0 / 11.0, rel=1e-6)
    assert ev.measured["J_half"] == pytest.approx(-5.0 / 6.0, rel=1e-6)


def test_closed_loop_identity_random_controllers(rng):
    # mu_2 of the loop equals max(lambda_i + gamma_i) no matter the skew
    for _ in range(15):
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        A = parse_matrix([[f"{a:.4f}*t", f"{b:.4f}"],
                          [f"{c:.4f}*sin(t)", f"{d:.4f}"]], ("t",))
        s = make_spec(A=A)
        lam = -rng.uniform(0.5, 3.0, size=2)
        ctrl = synthesize(s, lam=lam, rule=ExplicitGamma(
            (parse("0-t"), parse("0-2*t"))))
        gmax = ctrl.gamma_max()
        for t in rng.uniform(0.0, 5.0, size=10):
            t = float(t)
            got = lognorm(closed_loop_matrix(s, ctrl, t), "two")
            assert got == pytest.approx(gmax(t), rel=1e-9, abs=1e-9)
