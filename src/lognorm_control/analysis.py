"""Integral conditions on the logarithmic norm, with honest verdicts.

Asymptotic properties of ``x' = M(t) x`` follow from the behaviour of
``J(t) = int_{t0}^{t} mu[M(s)] ds``: bounded above means stable,
``J -> -inf`` means asymptotically stable, a uniform negative slope means
uniform asymptotic stability, and ``int mu[-M] -> -inf`` forces every
solution to grow.  None of these limits can be decided by sampling a
finite horizon, so every check here returns an :class:`Evidence` value
with verdict ``supported``, ``refuted`` or ``inconclusive`` together with
the measured quantities that led to it.  The heuristics (tail tests,
doubling tests, ratio grids, window checks) are deliberately simple and
their thresholds are the module constants below.  One rule with one
quadrature and slack, :func:`doubling_evidence`, judges every ``J -> -inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .expr import EvalError, eval_expr
from .linalg import Weighted, lognorm
from .report import Report
from .system import ControllerSpec, SystemSpec, closed_loop_function

__all__ = [
    "QuadResult",
    "integrate",
    "integrate_mu",
    "cumulative_integral",
    "Evidence",
    "EvidenceReport",
    "check_A1",
    "check_A2_A4",
    "check_A3",
    "classify_stability",
]

# taxonomy, strongest first
VERDICT_ORDER = ("UAS", "AS", "US", "S", "UNSTABLE")

A1_MIN_HORIZON = 1e4  # improper integrals get at least this much horizon
QUAD_TOL = 1e-8  # total error target of each verdict's integral
A1_GRID = np.geomspace(1e-7, 1.0, 64)  # A1's grid, in fractions of the span
MAX_DEPTH = 40  # adaptive Simpson splits a panel at most this often
# The error target is at least TOL_REL |int f|, at any scale of f: in a decay
# test the slack's 4 err <= 4e-10 |J| is 400x 1e-12 (1 + |J|) but 100x below
# the 5e-8 |J| by which a rate of -1 + 2e-8 t on [0, 10] misses doubling.
TOL_REL = 1e-10
_MAX_EVALS = 100_000  # past this a quadrature accepts its pending panels
_FLOAT_PANELS = 4  # from this few pending panels on, a quadrature uses floats
_OVERFLOW = "quadrature overflows on the panel from {!r}"

# Thresholds of the sampled limit heuristics.  A Cauchy tail ``I(T) -
# I(mid)`` below ``max(TAIL_ABS, TAIL_REL * I(T))`` counts as converged; a
# ratio must fall below RATIO_LIMIT at the horizon to count as vanishing;
# ratio tails are sampled geometrically (PER_DECADE points per decade from
# START_FRAC of the span), the trailing window uniformly (WINDOW_POINTS
# over its last WINDOW_FRAC).
TAIL_ABS = 1e-6
TAIL_REL = 0.01
RATIO_LIMIT = 0.05
PER_DECADE = 64
START_FRAC = 0.25
WINDOW_FRAC = 0.2
WINDOW_POINTS = 129


def norm_name(kind) -> str:
    return "weighted" if isinstance(kind, Weighted) else str(kind)


@dataclass(frozen=True)
class QuadResult:
    """Outcome of an adaptive quadrature.

    ``converged=False`` means a panel hit the depth cap, or the quadrature
    the evaluation cap, before meeting its error share; the value is the
    best estimate and ``est_error`` accounts for the unconverged remainder.
    """
    value: float
    est_error: float
    evals: int
    converged: bool


def _pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Interleave two arrays along their last axis: u0, v0, u1, v1, ..."""
    out = np.empty(u.shape[:-1] + (2 * u.shape[-1],))
    out[..., 0::2] = u
    out[..., 1::2] = v
    return out


def _values(f, x: np.ndarray, lead=None) -> np.ndarray:
    """``f(x)``, checked for finiteness and for the shape ``lead +
    x.shape``, ``lead`` () or (c,) as the first call's if None."""
    v = np.asarray(f(x), dtype=float)
    if lead is None:
        lead = v.shape[:-1]
    if v.shape != lead + x.shape or len(lead) > 1:
        raise ValueError(f"integrand returned shape {v.shape} for "
                         f"{len(x)} nodes")
    bad = ~np.isfinite(v)
    if bad.any():
        raise ValueError("integrand returned a non-finite value at "
                         f"{float(x[np.atleast_2d(bad).any(0)][0])!r}")
    return v


def _simpson(f, grid: np.ndarray, tol: float):
    """Adaptive Simpson on every cell of ``grid``, one level at a time.

    Each level evaluates the two new nodes of every pending panel in one
    call ``f(nodes)`` (nodes ascending).  Acceptance follows the
    recursive rule panel by panel: Richardson ``|delta| <= 15 tol``, from
    ``max(tol, TOL_REL |S| / cells)`` (``S`` the first level's estimate
    of ``int f``, per component) halved per split, a panel below its
    rounding noise accepted too, and forced acceptance (unconverged) at
    ``MAX_DEPTH`` or where the panels a level splits would take the next
    past ``_MAX_EVALS``; a panel of c components passes when each does.
    Values and errors are summed in the recursion's order, so the result
    equals the per-cell recursion bit for bit.  Once at most
    ``_FLOAT_PANELS`` panels are pending, the levels run on Python floats
    (:func:`_float_levels`).  An estimate that overflows raises
    ValueError.  Returns ``(cell_values, est_error, evals, converged)``.
    """
    ncell = len(grid) - 1
    x = np.empty(2 * ncell + 1)    # grid nodes and cell midpoints
    x[0::2] = grid
    x[1::2] = 0.5 * (grid[:-1] + grid[1:])
    fx = _values(f, x)
    lead = fx.shape[:-1]
    evals = len(x)
    a, m, b = x[0:-1:2], x[1::2], x[2::2]
    fa, fm, fb = fx[..., 0:-1:2], fx[..., 1::2], fx[..., 2::2]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = np.maximum(tol, np.abs(np.cumsum(  # scaled first: no overflow
        TOL_REL / ncell * whole, axis=-1)[..., -1:]))
    cell = np.arange(ncell)
    levels = []                    # (split panels, value) per level
    leaves = []                    # (left ends, cells, errors) per level
    depth = 0                      # past MAX_DEPTH: forced acceptance
    while len(a) > _FLOAT_PANELS:
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fnew = _values(f, _pair(lm, rm), lead)
        evals += 2 * len(a)
        flm, frm = fnew[..., 0::2], fnew[..., 1::2]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        abs_delta = np.abs(delta)
        if not math.isfinite(abs_delta.max()):  # overflowed: none can pass
            bad = np.atleast_2d(~np.isfinite(delta)).any(0)
            raise ValueError(_OVERFLOW.format(float(a[bad][0])))
        # Richardson: the refined estimate is in error by about delta /
        # 15.  Below the rounding noise of the panel values no further
        # refinement can help, so accept there too.
        noise = 1e-15 * (np.abs(left) + np.abs(right))
        done = abs_delta <= np.maximum(15.0 * tol, noise)
        if lead:
            done = done.all(axis=0)
        nsplit = len(a) - np.count_nonzero(done)
        if depth >= MAX_DEPTH or nsplit and evals + 4 * nsplit > _MAX_EVALS:
            done, depth = np.ones(len(a), dtype=bool), MAX_DEPTH
        s = ~done
        # a component axis is indexed through; plain masks index faster
        ix, iy = ((..., done), (..., s)) if lead else (done, s)
        levels.append((iy, left + right + delta / 15.0))
        leaves.append((a[done], cell[done], abs_delta[ix] / 15.0))
        # split panels become their left and right halves, in order
        a, m, b = _pair(a[s], m[s]), _pair(lm[s], rm[s]), _pair(m[s], b[s])
        fa, fm, fb = (_pair(fa[iy], fm[iy]), _pair(flm[iy], frm[iy]),
                      _pair(fm[iy], fb[iy]))
        whole = _pair(left[iy], right[iy])
        cell = np.repeat(cell[s], 2)
        tol = 0.5 * tol
        depth += 1
    value = np.empty(lead + (0,))
    if len(a):  # a handful of panels: quicker on floats
        value, evals, depth, tail = _float_levels(
            f, lead, list(zip(a.tolist(), m.tolist(), b.tolist(), *(
                zip(*np.atleast_2d(v).tolist()) for v in (fa, fm, fb, whole)),
                cell.tolist())), tol.ravel().tolist(), depth, evals)
        leaves.append(tail)
    # a split panel's value is the sum of its two children's, bottom up
    for split, leaf_value in reversed(levels):
        leaf_value[split] = value[..., 0::2] + value[..., 1::2]
        value = leaf_value
    # errors accumulate leaf by leaf from the left, first within each cell
    # and then over the cells; leaves tile the grid, so sorting by left
    # end restores that order
    leaf_a, leaf_cell, leaf_err = zip(*leaves)
    order = np.argsort(np.concatenate(leaf_a), kind="stable")
    cell_err = np.zeros(lead + (ncell,))
    np.add.at(cell_err, (..., np.concatenate(leaf_cell)[order]),
              np.concatenate(leaf_err, axis=-1)[..., order])
    err = np.cumsum(cell_err, axis=-1)[..., -1]  # adds in order, as above
    return value, err if lead else float(err), evals, depth <= MAX_DEPTH


def _float_levels(f, lead, panels, tol, depth, evals):
    """:func:`_simpson`'s levels from the ``panels`` ``(a, m, b, fa, fm,
    fb, whole, cell)`` on, values tuples and ``tol`` a list over the
    components: the array levels' nodes, operations and order, on floats,
    whose ``+ - * /`` and ``abs`` round as numpy's do.  Returns the
    panels' values, evals, depth and leaves' ``a``, ``cell`` and errors."""
    levels, leaves = [], []
    while panels:
        nodes = [x for a, m, b, *_ in panels
                 for x in (0.5 * (a + m), 0.5 * (m + b))]
        fnew = zip(*np.atleast_2d(_values(f, np.array(nodes), lead)).tolist())
        evals += len(nodes)
        level, split, held = [], [], []
        for lm, rm, (a, m, b, fa, fm, fb, whole, cell) in zip(
                nodes[0::2], nodes[1::2], panels):
            flm, frm = next(fnew), next(fnew)
            left = [(m - a) / 6.0 * (u + 4.0 * v + w)
                    for u, v, w in zip(fa, flm, fm)]
            right = [(b - m) / 6.0 * (u + 4.0 * v + w)
                     for u, v, w in zip(fm, frm, fb)]
            delta = [u + v - w for u, v, w in zip(left, right, whole)]
            if not all(map(math.isfinite, delta)):
                raise ValueError(_OVERFLOW.format(a))
            value = [u + v + d / 15.0 for u, v, d in zip(left, right, delta)]
            leaf = (a, cell, [abs(d) / 15.0 for d in delta])
            if depth >= MAX_DEPTH or all(
                    abs(d) <= max(15.0 * t, 1e-15 * (abs(u) + abs(v)))
                    for d, u, v, t in zip(delta, left, right, tol)):
                level.append(value)
                leaves.append(leaf)
            else:
                held.append((len(level), value, leaf))
                level.append(None)
                split += [(a, lm, m, fa, flm, fm, left, cell),
                          (m, rm, b, fm, frm, fb, right, cell)]
        if split and evals + 2 * len(split) > _MAX_EVALS:  # as MAX_DEPTH
            for i, value, leaf in held:
                level[i] = value
                leaves.append(leaf)
            split, depth = [], MAX_DEPTH
        levels.append(level)
        panels, tol, depth = split, [0.5 * t for t in tol], depth + 1
    value = []  # a split panel's value is the sum of its children's
    for level in reversed(levels):
        kids = iter(value)
        value = [v or [u + w for u, w in zip(next(kids), next(kids))]
                 for v in level]
    a, cell, errs = zip(*leaves)
    columns = lambda rows: np.array(rows).T.reshape(lead + (-1,))
    return columns(value), evals, depth, (np.array(a), np.array(cell),
                                          columns(errs))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-8) -> QuadResult:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    ``f`` takes one float and returns one float.  The error target is
    ``max(tol, TOL_REL |S|)``, ``S`` the first Simpson estimate of ``int
    f``; a panel passes the Richardson test ``|S(fine) - S(coarse)| <= 15
    tol``, the tolerance halved at each split.  Exact for polynomials of
    degree three or less.  Non-finite integrand values raise.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if b < a:
        raise ValueError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be a positive finite number")
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)

    def pointwise(x):
        return np.array([float(f(s)) for s in x.tolist()])

    value, err, evals, ok = _simpson(pointwise, np.array([a, b], dtype=float),
                                     tol)
    return QuadResult(float(value[0]), err, evals, ok)


def integrate_mu(F: Callable[[float], np.ndarray], kind, a: float, b: float,
                 tol: float = 1e-8) -> QuadResult:
    """``int_a^b mu[F(s)] ds`` for a matrix-valued function of time."""
    return integrate(lambda s: lognorm(F(s), kind), a, b, tol)


def cumulative_integral(f: Callable[[np.ndarray], np.ndarray], grid,
                        tol: float = 1e-9):
    """Integrate ``f`` cell by cell over an increasing grid.

    ``f`` is evaluated on arrays: it takes a 1-d array of N nodes and
    returns the N integrand values there, or a (c, N) array of c
    components, such as ``lognorm_pair``'s ``mu[M]`` and ``mu[-M]``.
    Every cell is refined by adaptive Simpson (:func:`_simpson`) to
    ``max(tol, TOL_REL |S| / cells)``, ``S`` the first level's estimate
    of ``int f``, all cells together one level at a time; the first call's
    nodes are the grid nodes and, between them, the cell midpoints.
    Components share their panels: one is accepted when every component
    passes its own test.

    Returns ``(values, est_error, evals, converged)`` with ``values[...,
    k] = int_{grid[0]}^{grid[k]} f`` and ``est_error`` a float, or a (c,
    len(grid)) array and c errors; the total estimated error is roughly
    ``max(tol * cells, TOL_REL |S|)``.  A non-finite integrand value,
    panel estimate or running sum raises ValueError naming the node, the
    panel's left end or the grid point, as do a ``tol`` that is not
    positive and finite and a bad grid.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be a positive finite number")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.isfinite(grid).all() \
            or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be finite and strictly increasing with "
                         ">= 2 points")
    cells, err, evals, ok = _simpson(f, grid, tol)
    out = np.zeros(cells.shape[:-1] + grid.shape)
    with np.errstate(over="ignore"):  # raised below
        np.cumsum(cells, axis=-1, out=out[..., 1:])
    bad = np.atleast_2d(~np.isfinite(out)).any(0)
    if bad.any():
        raise ValueError("the cumulative integral overflows at grid point "
                         f"{float(grid[bad.argmax()])!r}")
    return out, err, evals, ok


# ---------------------------------------------------------------------------
# evidence

def tail_grid(t0: float, T: float) -> np.ndarray:
    """Geometric grid over the trailing span ``[t0 + START_FRAC (T - t0),
    T]``, PER_DECADE points per decade; falls back to uniform when the
    span crosses zero."""
    start = t0 + START_FRAC * (T - t0)
    if not (T > start):
        raise ValueError("horizon too short for a tail grid")
    if start > 0.0:
        decades = math.log10(T / start)
        npts = max(17, int(PER_DECADE * decades) + 1)
        return np.geomspace(start, T, npts)
    return np.linspace(start, T, 65)


@dataclass(frozen=True)
class Evidence(Report):
    """One checked condition: what was measured and what it suggests.

    ``verdict`` is 'supported', 'refuted' or 'inconclusive'.  A supported
    verdict is sampled evidence, not a proof; refuted means the data
    plainly contradicts the condition; anything murky stays inconclusive.
    """
    id: str
    verdict: str
    measured: dict = field(default_factory=dict)
    note: str = ""


def _judge(id_: str, measured: dict, supported, refuted,
           notes: dict) -> Evidence:
    """Evidence ``id_``: 'supported' if ``supported``, else 'refuted' if
    ``refuted``, else 'inconclusive', with the note ``notes[verdict]``."""
    verdict = ("supported" if supported else "refuted" if refuted
               else "inconclusive")
    return Evidence(id_, verdict, measured, notes[verdict])


def _downgrade(ev: Evidence, reason: str) -> Evidence:
    if ev.verdict == "inconclusive":
        return ev
    return Evidence(ev.id, "inconclusive", ev.measured,
                    (ev.note + "; " if ev.note else "") + reason)


def check_A1(spec: SystemSpec, T: float) -> Evidence:
    """Absolute integrability of the uncertainty's logarithmic norm:
    ``int_{t0}^{inf} |mu[Delta(s)]| ds < inf``.

    Checked by comparing the integral at the horizon against the integral
    at the midpoint (Cauchy tail), both from one cumulative quadrature on
    ``t0``, the midpoint, ``T`` and ``t0 + (T - t0) A1_GRID``, each cell to
    ``QUAD_TOL / cells``: the geometric cells are short near ``t0``, where
    an integrable ``|mu[Delta]|`` has its mass.  ``Delta`` absent is
    trivially supported with integral zero.  Never refuted: a heavy tail
    on a finite horizon proves nothing either way.
    """
    if spec.Delta is None:
        return Evidence("A1", "supported", {"I": 0.0},
                        "no uncertainty declared; integral is zero")
    if not (T > spec.t0):
        raise ValueError(f"horizon T={T} must exceed t0={spec.t0}")
    D = spec.Delta.compiled()
    tm = spec.t0 + 0.5 * (T - spec.t0)
    nodes = spec.t0 + (T - spec.t0) * A1_GRID
    grid = np.array(sorted({spec.t0, tm, T, *nodes[nodes < T].tolist()}))
    try:
        vals, err, _, ok = cumulative_integral(
            lambda s: np.abs(lognorm(D(s), spec.norm)), grid,
            QUAD_TOL / (len(grid) - 1))
    except EvalError as exc:
        return Evidence("A1", "inconclusive", {},
                        f"could not evaluate the uncertainty: {exc}")
    I_half, I = float(vals[np.searchsorted(grid, tm)]), float(vals[-1])
    tail = I - I_half
    measured = {"I": I, "I_half": I_half, "tail": tail, "T": T,
                "quad_error": err}
    if not ok:
        return Evidence("A1", "inconclusive", measured,
                        "quadrature did not converge")
    return _judge("A1", measured, tail <= max(TAIL_ABS, TAIL_REL * abs(I)),
                  False, {
                      "supported": f"tail beyond the midpoint is {tail:.3g}",
                      "inconclusive": f"tail {tail:.3g} has not settled by "
                                      f"T={T:g}"})


def _slack(err: float, J: float) -> float:
    """A decay test's allowance for the error ``err`` and rounding."""
    return 4.0 * err + 1e-12 * (1.0 + abs(J))


def doubling_evidence(id_: str, f: Callable[[np.ndarray], np.ndarray],
                      t0: float, T: float, notes: Callable,
                      measured: dict | None = None,
                      failure: str = "could not evaluate",
                      share: dict | None = None) -> Evidence:
    """The doubling test for ``J(t) = int_{t0}^{t} f -> -inf``, from one
    quadrature over 128 equal cells to ``QUAD_TOL / 128`` each: with the
    slack ``4 err + 1e-12 (1 + |J|)``, supported when ``J_half < 0`` and
    ``J <= 2 J_half + slack``, refuted when ``J_half >= 0`` and ``J >=
    J_half - slack``, else (and unconverged) inconclusive.
    ``notes(J_half, J)`` maps each verdict to its note; ``measured``
    holds entries reported beside the integrals; an EvalError gives an
    inconclusive verdict whose note starts with ``failure``.  In
    ``share``, a dict one command holds, the first call keeps its nodes
    (the first 257 are the grid and midpoints), values and quadrature; a
    later one on the same grid takes that quadrature if its
    ``f`` has those bits at those nodes."""
    extra = measured or {}
    # integrate cell by cell so endpoint singularities (sqrt-type plant
    # entries at t0) cannot exhaust the recursion depth of a single panel
    grid = np.linspace(t0, T, 129)
    key, log = (t0, T), []

    def keep(x):  # f, with its nodes and values logged for share
        log.append((x, np.asarray(f(x), dtype=float)))
        return log[-1][1]
    try:
        if share and key in share and _same_bits(f, *share[key][:2]):
            quad = share[key][2]
        else:
            quad = cumulative_integral(f if share is None or key in share
                                       else keep, grid, QUAD_TOL / 128.0)
    except EvalError as exc:
        return Evidence(id_, "inconclusive", extra, f"{failure}: {exc}")
    if log:
        share[key] = (np.concatenate([x for x, _ in log]),
                      np.concatenate([v for _, v in log], axis=-1), quad)
    J_vals, err, _, ok = quad
    J_half, J = float(J_vals[64]), float(J_vals[-1])
    measured = {"J_half": J_half, "J": J, "t_mid": float(grid[64]),
                "quad_error": err, **extra}
    if not ok:
        return Evidence(id_, "inconclusive", measured,
                        "quadrature did not converge")
    slack = _slack(err, J)
    return _judge(id_, measured, J_half < 0.0 and J <= 2.0 * J_half + slack,
                  J_half >= 0.0 and J >= J_half - slack, notes(J_half, J))


def _same_bits(f, nodes: np.ndarray, values: np.ndarray) -> bool:
    """Whether one call ``f(nodes)`` gives ``values`` bit for bit."""
    try:
        mine = np.asarray(f(nodes), dtype=float)
    except EvalError:
        return False
    return mine.shape == values.shape and mine.tobytes() == values.tobytes()


def _decay_notes(description: str) -> Callable:
    """The doubling-test notes of the closed-loop integrals."""
    return lambda J_half, J: {
        "supported": f"{description}: doubling the horizon at least "
                     f"doubles the decay ({J:.6g} <= 2 x {J_half:.6g})",
        "refuted": f"{description}: the integral is not decreasing",
        "inconclusive": f"{description}: decreasing, but too slowly for "
                        "the doubling test"}


def check_A2_A4(spec: SystemSpec, ctrl: ControllerSpec | None, T: float,
                *, _share: dict | None = None):
    """The closed-loop decay assumptions.

    A2: ``mu[A + B K](t)`` is eventually negative; checked on a trailing
    window.  A4: ``int mu[A + B K] -> -inf``; checked by the doubling
    test, its quadrature kept in ``_share``.  Returns ``(a2, a4)``.
    """
    cl = closed_loop_function(spec, ctrl)
    mu = lambda t: lognorm(cl(t), spec.norm)
    window = np.linspace(T - WINDOW_FRAC * (T - spec.t0), T, WINDOW_POINTS)
    try:
        vals = mu(window)
    except EvalError as exc:
        a2 = Evidence("A2", "inconclusive", {}, f"could not evaluate: {exc}")
    else:
        measured = {"sup_mu_window": float(vals.max()),
                    "inf_mu_window": float(vals.min()),
                    "window_start": float(window[0]), "T": T}
        a2 = _judge("A2", measured, vals.max() < 0.0, vals.min() > 0.0, {
            "supported": "mu is negative on the trailing window",
            "refuted": "mu is positive on the whole trailing window",
            "inconclusive": "mu changes sign on the trailing window"})
    a4 = doubling_evidence("A4", mu, spec.t0, T,
                           _decay_notes("int mu of the closed loop"),
                           share=_share)
    return a2, a4


def ratio_tail(w: np.ndarray, m: np.ndarray):
    """The sampled test for ``w(t) / m(t) -> 0`` on a tail grid, the
    ratio being 0 where both vanish and inf where only ``m`` does.
    Supported when it never rises by more than 5 % from one sample to the
    next and ends below RATIO_LIMIT; refuted when it is finite,
    never falls by more than 5 % and ends above 1; else inconclusive.
    Returns ``(ratio, decreasing, verdict)``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(m == 0.0, np.where(w == 0.0, 0.0, np.inf), w / m)
    decreasing = bool((r[1:] <= r[:-1] * 1.05 + 1e-12).all())
    if decreasing and r[-1] < RATIO_LIMIT:
        verdict = "supported"
    elif (np.isfinite(r).all() and r[-1] > 1.0
          and bool((r[1:] >= r[:-1] * 0.95).all())):
        verdict = "refuted"
    else:
        verdict = "inconclusive"
    return r, decreasing, verdict


def check_A3(spec: SystemSpec, ctrl: ControllerSpec | None,
             T: float) -> Evidence:
    """The disturbance envelope is dominated by the closed-loop decay:
    ``omega_bound(t) / |mu[A + B K](t)| -> 0``.

    Sampled on a geometric tail grid; supported when the ratio decreases
    and ends below the threshold.  Trivially supported when no envelope
    is declared.
    """
    if spec.omega_bound is None:
        return Evidence("A3", "supported", {"ratio_end": 0.0},
                        "no disturbance envelope declared; ratio is zero")
    cl = closed_loop_function(spec, ctrl)
    try:
        grid = tail_grid(spec.t0, T)
        w = np.array([eval_expr(spec.omega_bound, t) for t in grid.tolist()])
        m = np.abs(lognorm(cl(grid), spec.norm))
    except EvalError as exc:
        return Evidence("A3", "inconclusive", {}, f"could not evaluate: {exc}")
    r, _, verdict = ratio_tail(w, m)
    measured = {"ratio_start": float(r[0]), "ratio_end": float(r[-1]), "T": T}
    if not np.isfinite(r).all():
        t_bad = float(grid[int(np.nonzero(~np.isfinite(r))[0][0])])
        return Evidence("A3", "inconclusive", measured,
                        f"mu vanishes at sample t={t_bad:g}")
    return Evidence("A3", verdict, measured, {
        "supported": f"ratio decreases to {r[-1]:.3g} at T={T:g}",
        "refuted": "ratio is large and not decreasing",
        "inconclusive": "ratio neither settles below the threshold nor "
                        "clearly grows"}[verdict])


@dataclass(frozen=True)
class EvidenceReport(Report):
    """Classification of a closed loop with the evidence that produced it.

    ``entries`` maps each taxonomy member (S, US, AS, UAS, UNSTABLE) to
    its Evidence; ``strongest`` is the strongest supported member in the
    order UAS > AS > US > S > UNSTABLE, or None when nothing is
    supported.  ``a1`` gates everything: when the uncertainty fails its
    integrability check the taxonomy verdicts are downgraded to
    inconclusive because the conditions no longer transfer to the
    perturbed system.
    """
    norm: str
    T: float
    a1: Evidence
    entries: dict
    strongest: str | None
    note: str = ""

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["A1"] = d.pop("a1")
        return d


def classify_stability(spec: SystemSpec, ctrl: ControllerSpec | None = None,
                       T: float | None = None) -> EvidenceReport:
    """Assess the taxonomy for ``x' = [A + Delta] x + B K x``.

    The four stability members are judged from ``J(t) = int mu[A + B K]``
    (the uncertainty enters only through the A1 gate, since
    ``int mu[A + Delta + B K] <= J + int |mu[Delta]|``), integrated once:
    AS is ``verify``'s A4, and S, US and UAS read its ``J``, error and
    first-level ``mu``.  The UNSTABLE member integrates ``mu[-(A + Delta
    + B K)]``, whose divergence forces every solution of the perturbed
    system to grow.  Deterministic: no randomness anywhere, so two runs
    produce identical reports.
    """
    k = spec.norm
    if T is None:
        T = spec.t0 + 10.0
    if not (T > spec.t0):
        raise ValueError(f"horizon T={T} must exceed t0={spec.t0}")

    a1 = check_A1(spec, max(T, spec.t0 + A1_MIN_HORIZON))

    cl_up = closed_loop_function(spec, ctrl)
    share = {}  # AS's quadrature record, which S, US and UAS read

    # AS: J -> -inf, by A4's doubling test
    entries = {"AS": doubling_evidence(
        "AS", lambda t: lognorm(cl_up(t), k), spec.t0, T,
        lambda J_half, J: {
            "supported": "int mu diverges to -inf (doubling test)",
            "refuted": "int mu is not decreasing",
            "inconclusive": "int mu decreasing, but too slowly for the "
                            "doubling test"},
        failure="could not evaluate the closed loop", share=share)}
    if not share:
        note = entries["AS"].note
        entries = {key: Evidence(key, "inconclusive", {}, note)
                   for key in VERDICT_ORDER}
        return EvidenceReport(norm_name(k), T, a1, entries, None, note)
    nodes, mu, (J, J_err, _, _) = share[spec.t0, T]
    nodes, mu = nodes[:257], mu[:257]  # the first level: grid, midpoints
    widx = int(np.searchsorted(nodes[0::2], T - WINDOW_FRAC * (T - spec.t0)))

    # S: J bounded above.  Window growth of the running sup.
    growth = float(J[widx:].max() - J[:widx + 1].max())
    m = {"J_end": float(J[-1]), "sup_J": float(J.max()),
         "window_growth": growth}
    entries["S"] = _judge(
        "S", m, growth <= max(TAIL_ABS, TAIL_REL * abs(J[-1]))
        + _slack(J_err, float(J[-1])), growth >= 1.0,
        {"supported": "sup of int mu stopped growing",
         "refuted": "int mu is still growing at the horizon",
         "inconclusive": "sup of int mu has not settled"})

    # US: mu <= 0 at every sampled time (sufficient for J(t) - J(tau)
    # bounded over all pairs).  A steadily growing drawup of J refutes.
    sup_mu = float(mu.max())
    drawup = J - np.minimum.accumulate(J)
    dgrowth = float(drawup[widx:].max() - drawup[:widx + 1].max())
    m = {"sup_mu": sup_mu, "max_drawup": float(drawup.max()),
         "drawup_window_growth": dgrowth}
    entries["US"] = _judge(
        "US", m, sup_mu <= 1e-12, dgrowth >= 1.0,
        {"supported": "mu is nonpositive at every sampled time",
         "refuted": "pairwise growth of int mu keeps increasing",
         "inconclusive": "mu is positive somewhere; pairwise growth has not "
                         "clearly diverged either"})

    # UAS: mu <= -alpha at every sampled time for the best alpha > 0;
    # that pins a uniform exponential rate, so report alpha = -sup mu
    alpha = -sup_mu
    m = {"alpha": float(alpha), "sup_mu": sup_mu}
    entries["UAS"] = _judge(
        "UAS", m, alpha > 0.0, entries["AS"].verdict == "refuted",
        {"supported": f"uniform decay rate alpha = {alpha:.6g}",
         "refuted": "int mu is not even decreasing",
         "inconclusive": "no uniform negative bound for mu on the sampled "
                         "grid"})

    # the members nest: UAS => AS => S, UAS => US => S
    for key, implied in ("AS", "S"), ("US", "S"), ("UAS", "AS US"):
        missing = " and ".join(i for i in implied.split()
                               if entries[i].verdict != "supported")
        if missing and entries[key].verdict == "supported":
            entries[key] = _downgrade(entries[key], missing + " not supported")

    # UNSTABLE: int mu[-(A + Delta + B K)] -> -inf
    cl_dn = closed_loop_function(spec, ctrl, include_delta=True)
    entries["UNSTABLE"] = doubling_evidence(
        "UNSTABLE", lambda t: lognorm(-cl_dn(t), k), spec.t0, T,
        _decay_notes("int mu of the negated perturbed loop"))

    note = ""
    if a1.verdict != "supported":
        note = ("uncertainty integrability (A1) is not established; "
                "taxonomy verdicts are downgraded to inconclusive")
        entries = {key: _downgrade(ev, "A1 not supported")
                   for key, ev in entries.items()}

    strongest = next((key for key in VERDICT_ORDER
                      if entries[key].verdict == "supported"), None)
    return EvidenceReport(norm_name(k), float(T), a1, entries, strongest, note)
