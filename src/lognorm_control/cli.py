"""Command line interface.

Subcommands: ``lognorm`` (pointwise norms of a numeric matrix),
``classify`` (stability taxonomy with evidence), ``synthesize`` (the
adaptive gain and its conditions), ``simulate`` (closed-loop trace to
CSV), ``verify`` (transition-matrix sandwich plus all integral
assumptions) and ``repro-example`` (the bundled scenario end to end).

Exit codes: 0 success / analysis positive, 1 analysis negative, 2 bad
input or config, 3 numerical failure.  All sampling in reports is
deterministically seeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    A1_MIN_HORIZON,
    check_A1,
    check_A2_A4,
    check_A3,
    classify_stability,
    cumulative_integral,
)
from .config import (CONFIG_SCHEMA, ConfigError, _entries, _horizon,
                     _schema_error, gamma_rule, load_config)
from .expr import EvalError, SourceError, format_expr
from .linalg import (
    INF,
    ONE,
    TWO,
    ConvergenceError,
    LinalgError,
    as_matrix,
    induced_norm,
    lognorm,
    lognorm_pair,
)
from .presets import example_loaded
from .report import dumps
from .sim import (
    NumericalError,
    StiffnessError,
    _stack,
    convergence_report,
    fundamental_matrix,
    simulate,
    verify_sandwich,
    write_trace_csv,
)
from .synthesis import synthesize, verify_c2, verify_c3
from .system import closed_loop_function

RATIO_MIN_HORIZON = 1e3  # ratio-limit checks need a long tail
PHI_LOG_CAP = 12.0       # keep transition-norm noise below the slack
PHI_TOL = 1e-10          # local tolerance for the Phi integration


def _load(args, cfg=None):
    """``cfg`` or the ``--config`` file, with ``--horizon`` and ``--tol``."""
    cfg = load_config(args.config) if cfg is None else cfg
    if getattr(args, "horizon", None) is not None:
        cfg.horizon = _horizon(cfg.spec.t0, args.horizon, "--horizon")
    if getattr(args, "tol", None) is not None:
        cfg.tol = args.tol
    return cfg


def _controller(cfg, args):
    """The controller requested by flags, file or config, in that order."""
    lam = None
    rule = None
    if getattr(args, "lam", None) is not None:
        lam = np.array([float(v) for v in _entries(args.lam.split(","),
                                                   cfg.spec.n, "--lambda")])
    if args.gamma is not None or args.margin is not None:
        flags = {"gamma": "auto" if args.gamma in (None, ["auto"])
                 else args.gamma}
        if args.margin is not None:
            flags["margin"] = args.margin
        rule = gamma_rule(flags, cfg.spec.n, "--")
    if getattr(args, "controller", None):
        doc = json.loads(Path(args.controller).read_text())
        # checked as a config's controller section; other keys (such as
        # the rest of synthesize's output) are ignored
        keys = CONFIG_SCHEMA["properties"]["controller"]["properties"]
        if not isinstance(doc, dict):
            raise ConfigError("--controller file must hold a JSON object")
        for key in keys:
            if key in doc and _schema_error(doc[key], keys[key]):
                raise ConfigError(f"--controller file: {key!r} is not a "
                                  f"valid controller.{key}")
        if lam is None and "lambda" in doc:
            lam = np.asarray(_entries(doc["lambda"], cfg.spec.n,
                                      "controller.lambda"), dtype=float)
        if rule is None and ("gamma" in doc or "margin" in doc):
            rule = gamma_rule(doc, cfg.spec.n)
    if lam is None and rule is None:
        if cfg.controller is None:
            return None
        return cfg.controller.build(cfg.spec)
    if rule is None and cfg.controller is not None:
        rule = cfg.controller.rule
    if lam is None and cfg.controller is not None:
        lam = cfg.controller.lam
    return synthesize(cfg.spec, lam, rule)


# ---------------------------------------------------------------------------
# subcommands

def cmd_lognorm(args) -> int:
    text = args.matrix
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            data = json.loads(Path(text).read_text())
        except OSError:
            raise ConfigError(
                f"matrix argument is neither inline JSON nor a readable "
                f"file: {text!r}") from None
    M = as_matrix(data, "matrix")
    if args.norm:
        print(f"mu_{args.norm}={lognorm(M, args.norm):.12g} "
              f"norm_{args.norm}={induced_norm(M, args.norm):.12g}")
    else:
        print(f"mu_1={lognorm(M, ONE):.12g} mu_2={lognorm(M, TWO):.12g} "
              f"mu_inf={lognorm(M, INF):.12g}")
        print(f"norm_1={induced_norm(M, ONE):.12g} "
              f"norm_2={induced_norm(M, TWO):.12g} "
              f"norm_inf={induced_norm(M, INF):.12g}")
    return 0


def cmd_classify(args) -> int:
    cfg = _load(args)
    if args.norm:
        cfg.spec.norm = args.norm
    ctrl = _controller(cfg, args)
    report = classify_stability(cfg.spec, ctrl, T=cfg.horizon,
                                quad_tol=args.quad_tol)
    print(dumps(report.to_dict()))
    return 0 if report.strongest in ("AS", "UAS") else 1


def cmd_synthesize(args) -> int:
    cfg = _load(args)
    ctrl = _controller(cfg, args)
    if ctrl is None:
        raise ConfigError("no controller requested: add a 'controller' "
                          "section to the config or pass --lambda/--gamma")
    spec = cfg.spec
    resid = float(np.abs(spec.B @ ctrl.B_inv - np.eye(spec.n)).max())
    T_ratio = max(cfg.horizon, spec.t0 + RATIO_MIN_HORIZON)
    c2 = verify_c2(ctrl, T_ratio)
    c3 = verify_c3(ctrl, cfg.horizon)
    doc = {
        "lambda": [float(v) for v in ctrl.lam],
        "gamma": [format_expr(g) for g in ctrl.gamma],
        "adaptive_part": ctrl.adaptive_part.formatted(),
        "B_inv": [[float(v) for v in row] for row in ctrl.B_inv],
        "c1": {"verdict": "supported", "residual": resid,
               "note": "B inverted by LU factorization; residual is "
                       "max|B B^-1 - I|"},
        "c2": c2.to_dict(),
        "c3": c3.to_dict(),
    }
    print(dumps(doc))
    return 1 if "refuted" in (c2.verdict, c3.verdict) else 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    ctrl = _controller(cfg, args)
    trace = simulate(cfg.spec, ctrl, T=cfg.horizon, tol=cfg.tol,
                     h_min=args.h_min, n_out=args.points)
    return _print_trace(trace, cfg, args, steps=int(len(trace.step_sizes)),
                        rejected=int(trace.n_rejected))


def _print_trace(trace, cfg, args, **extra) -> int:
    """Write the trace to ``--out`` if given and print its report."""
    if args.out:
        write_trace_csv(trace, args.out)
    doc = convergence_report(trace).to_dict()
    doc.update(T=cfg.horizon, norm=trace.norm_kind, csv=args.out, **extra)
    print(dumps(doc))
    return 0


def _phi_horizon(spec, ctrl, t0: float, T: float) -> float:
    """Largest horizon on which the sandwich check stays meaningful.

    Once |int mu| (either direction) exceeds -log of Phi's tolerance, the
    computed Phi sits at the integrator's absolute noise floor and
    transition norms test noise, not the bound; cap well before that.
    """
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    grid = np.linspace(t0, T, 33)
    # both signs in one quadrature; _stack names the earliest time where
    # the loop fails
    J, _, _, _ = cumulative_integral(
        lambda ts: lognorm_pair(_stack(cl, ts), spec.norm),
        grid, 1e-6)
    mag = np.abs(J).max(axis=0)
    exceed = np.nonzero(mag > PHI_LOG_CAP)[0]
    if len(exceed) == 0:
        return T
    # interpolate the crossing: mag[0] = 0, so i >= 1, and m_hi > cap >= m_lo
    i = int(exceed[0])
    t_lo, t_hi = float(grid[i - 1]), float(grid[i])
    m_lo, m_hi = float(mag[i - 1]), float(mag[i])
    t_cap = t_lo + (PHI_LOG_CAP - m_lo) * (t_hi - t_lo) / (m_hi - m_lo)
    return max(t_cap, math.nextafter(t0, math.inf))  # > t0 if rounded


def cmd_verify(args) -> int:
    cfg = _load(args)
    ctrl = _controller(cfg, args)
    if ctrl is None:
        raise ConfigError("verify requires a controller: add a 'controller' "
                          "section to the config or pass --controller FILE")
    if not (0.0 < args.quad_tol < np.inf):  # before the costly Phi
        raise ValueError("tol must be a positive finite number")
    spec = cfg.spec
    T = cfg.horizon

    T_phi = _phi_horizon(spec, ctrl, spec.t0, T)
    cl = closed_loop_function(spec, ctrl, include_delta=True)
    tt = fundamental_matrix(cl, spec.t0, T_phi, tol=PHI_TOL)
    sandwich = verify_sandwich(tt, cl, spec.norm)

    a1 = check_A1(spec, max(T, spec.t0 + A1_MIN_HORIZON), args.quad_tol)
    share = {}  # A4's quadrature, which C3 takes where Gamma has its bits
    a2, a4 = check_A2_A4(spec, ctrl, T, args.quad_tol, _share=share)
    a3 = check_A3(spec, ctrl, max(T, spec.t0 + RATIO_MIN_HORIZON))
    c3 = verify_c3(ctrl, T, args.quad_tol, _share=share)

    doc = {
        "phi_horizon": T_phi,
        "sandwich": sandwich.to_dict(),
        "A1": a1.to_dict(), "A2": a2.to_dict(), "A3": a3.to_dict(),
        "A4": a4.to_dict(), "C3": c3.to_dict(),
    }
    print(dumps(doc))
    all_supported = all(ev.verdict == "supported"
                        for ev in (a1, a2, a3, a4, c3))
    return 0 if (sandwich.passed and all_supported) else 1


def cmd_repro(args) -> int:
    cfg = _load(args, example_loaded())
    spec = cfg.spec
    ctrl = cfg.controller.build(spec)
    trace = simulate(spec, ctrl, T=cfg.horizon, tol=cfg.tol)
    return _print_trace(trace, cfg, args,
                        final_state=[float(v) for v in trace.states[-1]])


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lognorm-control",
        description="Logarithmic-norm analysis and robust adaptive "
                    "state feedback for linear time-varying systems.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("lognorm",
                       help="logarithmic norms of a constant matrix")
    q.add_argument("matrix",
                   help="matrix as inline JSON (e.g. '[[0,1],[1,0]]') or a "
                        "path to a JSON file")
    q.add_argument("--norm", choices=["one", "two", "inf"])
    q.set_defaults(func=cmd_lognorm)

    def common(sp):
        sp.add_argument("--config", required=True, help="problem JSON file")
        sp.add_argument("--horizon", type=float,
                        help="analysis/simulation horizon (overrides config)")
        sp.add_argument("--lambda", dest="lam",
                        help="comma-separated negative rates, e.g. '-1,-2'")
        sp.add_argument("--gamma", action="append",
                        help="'auto' or one expression per component "
                             "(repeat the flag)")
        sp.add_argument("--margin", type=float,
                        help="margin for --gamma auto")
        sp.add_argument("--controller",
                        help="JSON file with 'lambda' and 'gamma' "
                             "(e.g. the output of synthesize)")

    q = sub.add_parser("classify", help="stability taxonomy with evidence")
    common(q)
    q.add_argument("--norm", choices=["one", "two", "inf"],
                   help="norm override for the analysis")
    q.add_argument("--quad-tol", type=float, default=1e-8)
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("synthesize",
                       help="adaptive gain and its conditions c1-c3")
    common(q)
    q.set_defaults(func=cmd_synthesize)

    q = sub.add_parser("simulate", help="integrate the closed loop to CSV")
    common(q)
    q.add_argument("--tol", type=float, help="local error tolerance")
    q.add_argument("--h-min", type=float, default=1e-9)
    q.add_argument("--points", type=int, default=1001,
                   help="output grid points")
    q.add_argument("--out", help="CSV output path")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("verify",
                       help="transition-matrix sandwich and assumptions "
                            "A1-A4, c3")
    common(q)
    q.add_argument("--quad-tol", type=float, default=1e-8)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("repro-example",
                       help="run the bundled scenario end to end")
    q.add_argument("--horizon", type=float)
    q.add_argument("--tol", type=float)
    q.add_argument("--out", help="CSV output path")
    q.set_defaults(func=cmd_repro)
    return p


_parser = functools.cache(build_parser)  # one parser per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (StiffnessError, NumericalError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, SourceError, EvalError, LinalgError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
