"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``[C#] PASS/FAIL`` line with the measured
quantity before asserting, so the run log doubles as a scorecard.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from lognorm_control.analysis import classify_stability, integrate, integrate_mu
from lognorm_control.expr import parse_matrix
from lognorm_control.linalg import (
    Weighted,
    frobenius,
    induced_norm,
    lognorm,
    lognorm_limit,
    lyapunov_solve,
    symmetric_eigen_max,
)
from lognorm_control.presets import example_system
from lognorm_control.sim import fundamental_matrix, simulate, verify_sandwich
from lognorm_control.synthesis import AutoGamma, synthesize
from lognorm_control.system import SystemSpec
from lognorm_control.expr import parse

DATA = Path(__file__).resolve().parent / "data"

KINDS = ("one", "two", "inf")


@pytest.fixture()
def report(capfd):
    # bypass capture so the scorecard shows up in the run log
    def emit(cid, ok, detail):
        with capfd.disabled():
            print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} - {detail}",
                  end="", flush=True)
    return emit


def make_spec(A_rows, **over):
    kw = dict(n=2, A=parse_matrix(A_rows, ("t",)), B=np.eye(2), t0=0.0,
              x0=np.array([1.0, 1.0]))
    kw.update(over)
    return SystemSpec(**kw)


def test_c1_table_of_golden_lognorms(report):
    mats = {
        "A1": np.array([[-11.0, 10.0], [2.0, -3.0]]),
        "A2": np.array([[-11.0, 2.0], [10.0, -3.0]]),
        "A3": np.array([[-1.0, 3.0], [-3.0, -2.0]]),
    }
    mu2_ab = 0.5 * (-14.0 + math.sqrt(208.0))
    want = {
        "A1": (7.0, mu2_ab, -1.0),
        "A2": (-1.0, mu2_ab, 7.0),
        "A3": (2.0, -1.0, 2.0),
    }
    t0 = time.perf_counter()
    got = {k: tuple(lognorm(M, kind) for kind in KINDS)
           for k, M in mats.items()}
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for k in mats:
        for g, w in zip(got[k], want[k]):
            tol = 1e-3 if abs(w - round(w)) > 1e-9 else 1e-12
            worst = max(worst, abs(g - w) - tol)
    ok = worst <= 0.0 and elapsed < 1.0
    report("C1", ok, f"nine golden mu values, {elapsed * 1e3:.1f} ms")
    assert ok


def test_c2_uncertainty_integral_settles(report):
    spec, _ = example_system()
    t0 = time.perf_counter()
    q = integrate_mu(spec.Delta, "two", 0.0, 1e4, tol=1e-8)
    elapsed = time.perf_counter() - t0
    err_arctan = abs(q.value - math.atan(1e4))
    err_half_pi = abs(q.value - math.pi / 2.0)
    ok = err_arctan <= 1e-4 and err_half_pi <= 2e-4 and elapsed < 5.0
    report("C2", ok, f"I={q.value:.8f}, |I-arctan|={err_arctan:.2e}, "
           f"{elapsed:.2f} s")
    assert ok


def test_c3_closed_loop_rate_identity(report):
    spec, ctrl = example_system()
    gmax = ctrl.gamma_max()

    def reference(t):
        env = math.sqrt(t ** 6 + 1.0)
        return -1.0 - (t if t <= 1.0 else math.sqrt(t)) * env

    worst = 0.0
    for t in np.linspace(0.0, 5.0, 100):
        t = float(t)
        M = spec.A(t) + spec.B @ ctrl.K(t)
        worst = max(worst, abs(lognorm(M, "two") - reference(t)),
                    abs(gmax(t) - reference(t)))
    ok = worst <= 1e-9
    report("C3", ok, f"max |mu_2 - piecewise rate| = {worst:.2e} "
           "over 100 samples")
    assert ok


def test_c4_end_to_end_reproduction(report):
    golden = json.loads((DATA / "repro_golden.json").read_text())
    spec, ctrl = example_system()
    t0 = time.perf_counter()
    tr = simulate(spec, ctrl, T=10.0, tol=1e-8, n_out=1001)
    elapsed = time.perf_counter() - t0
    final = float(np.linalg.norm(tr.states[-1]))
    tail = tr.norms[tr.times >= 5.0]
    tail_ok = bool(np.all(np.diff(tail) <= 1e-12))
    sup = float(np.max(np.abs(tr.states - np.array(golden["states"]))))
    # By t = 10 the closed-loop rate (~ -1e4) holds x on the slow manifold
    # M(t) x + omega(t, x) = 0, where x1 ~ t^(-5/4); the level there is
    # 0.05614 and drops below 0.05 only near t = 11.  Dropping x' costs a
    # relative (5/4)/(t |m11|) ~ 1.3e-5, well inside the 1e-4 gate.
    level = float(np.linalg.norm(oracles.repro_slow_manifold(10.0)))
    gap = abs(final / level - 1.0)
    level_ok = gap <= 1e-4
    ok = level_ok and tail_ok and sup <= 1e-5 and elapsed < 60.0
    report("C4", ok, f"final norm {final:.6f} (slow manifold {level:.6f}, "
           f"rel gap {gap:.2e}), oracle sup diff {sup:.2e}, "
           f"tail nonincreasing {tail_ok}, {elapsed:.1f} s")
    assert tail_ok
    assert sup <= 1e-5
    assert elapsed < 60.0
    assert level_ok, (
        f"final norm {final:.6f} is {gap:.2e} off the slow-manifold level "
        f"{level:.6f} at t = 10 (gate 1e-4)")


def test_c5_sandwich_inequality(report):
    rng = np.random.default_rng(101)
    worst = -1.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        M = oracles.random_matrix(rng, n, scale=float(rng.uniform(0.2, 5.0)))
        kind = KINDS[int(rng.integers(3))]
        nm, mu = induced_norm(M, kind), lognorm(M, kind)
        worst = max(worst, mu - nm, -nm - mu)
    ok = worst <= 1e-10
    report("C5.sandwich", ok, f"200 cases, worst excess {worst:.2e}")
    assert ok


def test_c5_subadditivity_and_lipschitz(report):
    rng = np.random.default_rng(102)
    worst = -1.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = oracles.random_matrix(rng, n, scale=2.0)
        B = oracles.random_matrix(rng, n, scale=2.0)
        kind = KINDS[int(rng.integers(3))]
        sub = lognorm(A + B, kind) - lognorm(A, kind) - lognorm(B, kind)
        lip = abs(lognorm(A, kind) - lognorm(B, kind)) \
            - induced_norm(A - B, kind)
        worst = max(worst, sub, lip)
    ok = worst <= 1e-10
    report("C5.subadd", ok, f"200 cases, worst excess {worst:.2e}")
    assert ok


def test_c5_limit_definition_convergence(report):
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        M = oracles.random_matrix(rng, n, scale=float(rng.uniform(0.2, 5.0)))
        kind = KINDS[int(rng.integers(3))]
        worst = max(worst, abs(lognorm_limit(M, kind, h=1e-7)
                               - lognorm(M, kind)))
    ok = worst <= 1e-5
    report("C5.limit", ok, f"200 cases at h=1e-7, worst gap {worst:.2e}")
    assert ok


def test_c5_two_norm_skew_blindness(report):
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        A = oracles.random_matrix(rng, n, scale=3.0)
        U = oracles.random_matrix(rng, n, scale=3.0)
        S = U - U.T
        worst = max(worst, abs(lognorm(A + S, "two") - lognorm(A, "two")))
    ok = worst <= 1e-9
    report("C5.skew", ok, f"200 cases, worst shift {worst:.2e}")
    assert ok


def test_c5_coppel_sandwich_random_ltv(report):
    rng = np.random.default_rng(105)
    checked = 0
    all_ok = True
    for i in range(25):
        n = int(rng.integers(2, 4))
        C = rng.uniform(-0.6, 0.6, size=(3, n, n))
        w = rng.uniform(0.5, 3.0, size=2)

        def F(t, C=C, w=w):
            return C[0] + C[1] * math.sin(w[0] * t) \
                + C[2] * math.cos(w[1] * t)

        tt = fundamental_matrix(F, 0.0, 5.0, tol=1e-8)
        rep = verify_sandwich(tt, F, KINDS[i % 3])
        checked += 2 * len(rep.pairs)  # upper and lower per pair
        all_ok = all_ok and rep.passed
    ok = all_ok and checked >= 200
    report("C5.coppel", ok, f"{checked} bound checks over 25 systems")
    assert ok


def test_c5_liouville_identity(report):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        C = rng.uniform(-0.8, 0.8, size=(3, 2, 2))
        w = float(rng.uniform(0.5, 3.0))

        def F(t, C=C, w=w):
            return C[0] + C[1] * math.sin(w * t) + C[2] * math.cos(t)

        tt = fundamental_matrix(F, 0.0, 3.0, tol=1e-9, n_out=2)
        sign, logdet = np.linalg.slogdet(tt.phis[-1])
        q = integrate(lambda t: float(np.trace(F(t))), 0.0, 3.0, tol=1e-10)
        worst = max(worst, abs(logdet - q.value))
        assert sign == 1.0
    ok = worst <= 1e-6
    report("C5.liouville", ok, f"200 cases, worst |logdet - int tr| "
           f"= {worst:.2e}")
    assert ok


def test_c6_lyapunov_norm_identity(report):
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = oracles.random_hurwitz(rng, n)
        H = lyapunov_solve(A)
        got = lognorm(A, Weighted(H))
        want = -1.0 / symmetric_eigen_max(H)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-8
    report("C6", ok, f"50 random Hurwitz (n=2..5), worst gap {worst:.2e}")
    assert ok


def _random_entry(rng):
    a, b, c = rng.uniform(-1.5, 1.5, size=3)
    return f"{a:.3f}+{b:.3f}*t+{c:.3f}*sin(t)"


def _random_plant(rng):
    rows = [[_random_entry(rng) for _ in range(2)] for _ in range(2)]
    B = np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2))
    return rows, B


def test_c7_synthesis_independence(report):
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(20):
        rows, B = _random_plant(rng)
        lam = -rng.uniform(0.5, 3.0, size=2)
        d1 = [[_random_entry(rng) for _ in range(2)] for _ in range(2)]
        d2 = [[_random_entry(rng) for _ in range(2)] for _ in range(2)]
        env1, env2 = "t^2+1", "t^4+3"
        base = synthesize(make_spec(rows, B=B,
                                    Delta=parse_matrix(d1, ("t",)),
                                    omega_bound=parse(env1)),
                          lam=lam, rule=AutoGamma())
        # uncertainty plays no part in the gain
        shifted = synthesize(make_spec(rows, B=B,
                                       Delta=parse_matrix(d2, ("t",)),
                                       omega_bound=parse(env1)),
                             lam=lam, rule=AutoGamma())
        ok = ok and shifted.adaptive_part.formatted() == \
            base.adaptive_part.formatted()
        ok = ok and np.array_equal(shifted.B_inv, base.B_inv)
        ok = ok and [str(g) for g in shifted.gamma] == \
            [str(g) for g in base.gamma]
        # a new envelope moves only the diagonal robust action
        relab = synthesize(make_spec(rows, B=B,
                                     Delta=parse_matrix(d1, ("t",)),
                                     omega_bound=parse(env2)),
                           lam=lam, rule=AutoGamma())
        ok = ok and relab.adaptive_part.formatted() == \
            base.adaptive_part.formatted()
        ok = ok and [str(g) for g in relab.gamma] != \
            [str(g) for g in base.gamma]
    report("C7", ok, "20 random specs, structural independence of the "
           "two controller parts")
    assert ok


def test_c8_classifier_sanity(report):
    hur = make_spec([["0-2", "1"], ["0", "0-1"]])
    rep = classify_stability(hur, None, T=10.0)
    mu2 = lognorm(np.array([[-2.0, 1.0], [0.0, -1.0]]), "two")
    alpha = rep.entries["UAS"].measured.get("alpha", float("nan"))
    ok_hur = rep.strongest == "UAS" and mu2 < 0.0 \
        and abs(alpha - (-mu2)) <= 0.05 * (-mu2)

    pos = classify_stability(make_spec([["1", "0"], ["0", "1"]]), None,
                             T=10.0)
    ok_pos = pos.entries["UNSTABLE"].verdict == "supported"

    skw = classify_stability(make_spec([["0", "1"], ["0-1", "0"]]), None,
                             T=10.0)
    ok_skw = skw.entries["US"].verdict == "supported" \
        and skw.entries["AS"].verdict != "supported"

    ok = ok_hur and ok_pos and ok_skw
    report("C8", ok, f"alpha={alpha:.6f} vs -mu2={-mu2:.6f}; "
           f"unstable={ok_pos}; skew US/not-AS={ok_skw}")
    assert ok
