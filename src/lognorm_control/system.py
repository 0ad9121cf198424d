"""System and controller descriptions.

A plant is ``x' = [A(t) + Delta(t)] x + B u + omega(t, x)`` started at
``(t0, x0)``: ``A`` the known time-varying part, ``Delta`` an unknown but
bounded-influence uncertainty, ``B`` a constant invertible input matrix
and ``omega`` a disturbance whose norm is dominated by a known scalar
envelope ``omega_bound(t)``.  A controller supplies the state feedback
``u = K(t) x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .expr import (
    Bin,
    Expr,
    MatrixFunction,
    VectorFunction,
    collect_vars,
    state_vars,
)
from .linalg import MAX_DIM, MIN_DIM, LinalgError, as_matrix, as_vector

__all__ = [
    "SystemSpec",
    "ControllerSpec",
    "closed_loop_matrix",
    "closed_loop_function",
]


@dataclass
class SystemSpec:
    """An uncertain linear time-varying plant.

    Attributes
    ----------
    n : state dimension (2..16).
    A : known plant matrix as a MatrixFunction of t.
    B : constant square input matrix.
    t0, x0 : initial time and state.
    Delta : optional uncertainty matrix, a MatrixFunction of t.
    omega : optional disturbance, a VectorFunction of t and x1..xn.
    omega_bound : optional scalar envelope in t with
        ``||omega(t, x)|| <= omega_bound(t)`` along trajectories.
    norm : the vector norm used by default in analyses ('one', 'two',
        'inf' or a Weighted instance).
    """

    n: int
    A: MatrixFunction
    B: np.ndarray
    t0: float
    x0: np.ndarray
    Delta: MatrixFunction | None = None
    omega: VectorFunction | None = None
    omega_bound: Expr | None = None
    norm: object = "two"

    def __post_init__(self):
        if not (MIN_DIM <= self.n <= MAX_DIM):
            raise LinalgError(f"dimension n={self.n} outside supported range "
                              f"{MIN_DIM}..{MAX_DIM}")
        if not isinstance(self.A, MatrixFunction) or self.A.n != self.n:
            raise LinalgError(f"A must be an {self.n}x{self.n} MatrixFunction")
        if self.A.state_dependent:
            raise LinalgError("A may depend on t only")
        self.B = as_matrix(self.B, "control matrix B")
        if self.B.shape[0] != self.n:
            raise LinalgError(f"control matrix B must be {self.n}x{self.n}, "
                              f"got {self.B.shape}")
        self.t0 = float(self.t0)
        if not np.isfinite(self.t0):
            raise LinalgError("t0 must be finite")
        self.x0 = as_vector(self.x0, self.n, "x0")
        if self.Delta is not None:
            if not isinstance(self.Delta, MatrixFunction) or self.Delta.n != self.n:
                raise LinalgError(f"Delta must be an {self.n}x{self.n} MatrixFunction")
            if self.Delta.state_dependent:
                raise LinalgError("Delta may depend on t only")
        if self.omega is not None:
            if not isinstance(self.omega, VectorFunction) or self.omega.n != self.n:
                raise LinalgError(f"omega must have {self.n} components")
            allowed = {"t", *state_vars(self.n)}
            bad = {v for v in self.omega.allowed if v not in allowed}
            if bad:
                raise LinalgError(f"omega uses unknown state variables {sorted(bad)}")
        if self.omega_bound is not None:
            extra = collect_vars(self.omega_bound) - {"t"}
            if extra:
                raise LinalgError(
                    f"omega_bound may depend on t only, found {sorted(extra)}")


@dataclass
class ControllerSpec:
    """A state-feedback gain ``u = K(t) x`` in split form.

    ``B K(t) = -A_sym(t) + diag(lam) + diag(gamma(t))`` by construction:
    the adaptive part cancels the symmetric part of the plant and places
    constant rates ``lam``, the robust part adds the time-varying margins
    ``gamma``.  ``system`` is the plant the gain was synthesized for.

    ``closed_loop`` is ``A + B K`` in that form, ``A_skew(t) + diag(rates)``
    with ``rates = lam + gamma(t)``; it matches :func:`closed_loop_matrix`
    within ``1e-14 * (1 + max|A + B K|)``, not bit for bit.  It fails
    where an entry of ``A`` does: its diagonal is ``rate_i + 0 * A_ii``,
    and its ``domain`` is ``A``, so the error raised there is ``A``'s.

    The gain is ``K(t) = B_inv @ inner(t)`` with ``inner = adaptive_part +
    diag(gamma)``, one grid compiled on first read of :attr:`K`.
    """

    lam: np.ndarray
    gamma: tuple  # tuple[Expr] diagonal entries of the robust part
    adaptive_part: MatrixFunction  # -A_sym(t) + diag(lam)
    B_inv: np.ndarray
    system: SystemSpec
    closed_loop: MatrixFunction  # A_skew + diag(lam + gamma + 0 A_ii), domain A
    rates: VectorFunction  # lam + gamma(t), the closed loop's diagonal

    @property
    def n(self) -> int:
        return len(self.lam)

    @cached_property
    def K(self) -> Callable[[float], np.ndarray]:
        """The gain evaluator ``t -> B_inv @ inner(t)``.  A 1-d array of m
        times gives the (m, n, n) stack, equal bit for bit to stacking the
        scalar results; it fails as ``inner``'s compiled grid does."""
        rows = [list(row) for row in self.adaptive_part.entries]
        for i, g in enumerate(self.gamma):
            rows[i][i] = Bin("+", rows[i][i], g)
        inner, B_inv = MatrixFunction(rows, ("t",)).compiled(), self.B_inv
        return lambda t: B_inv @ inner(t)

    def gamma_max(self) -> Callable[[float], float]:
        """The pointwise closed-loop rate ``Gamma(t) = max_i(lam_i + gamma_i(t))``.

        Positive entries of ``lam + gamma`` mean the controller is not
        contracting at that time.  A 1-d array of times gives the array
        of rates; the n rates are evaluated as one batch either way.
        """
        rates = self.rates.compiled()
        return lambda t: rates(t).max(axis=-1)


def closed_loop_matrix(spec: SystemSpec, ctrl: ControllerSpec | None, t: float,
                       include_delta: bool = False) -> np.ndarray:
    """The closed-loop matrix ``A(t) + B K(t)`` (plus ``Delta(t)`` when
    requested) at a single time ``t >= t0``.

    ``ctrl=None`` means open loop (``K = 0``).  This is the checked
    reference that :func:`closed_loop_function` is tested against.
    """
    if t < spec.t0:
        raise ValueError(f"t={t} is before the initial time t0={spec.t0}")
    M = spec.A(t)
    if ctrl is not None:
        M = M + spec.B @ ctrl.K(t)
    if include_delta and spec.Delta is not None:
        M = M + spec.Delta(t)
    return M


def closed_loop_function(spec: SystemSpec, ctrl: ControllerSpec | None = None,
                         include_delta: bool = False) -> Callable:
    """A compiled evaluator ``t -> A(t) + B K(t) [+ Delta(t)]``.

    Used on hot paths (quadrature, simulation).  With a controller it
    evaluates ``ctrl.closed_loop``, the synthesis form
    ``A_skew(t) + diag(lam + gamma(t))``, and neither ``K`` nor ``B``;
    results match :func:`closed_loop_matrix` within
    ``1e-14 * (1 + max|A + B K|)``.  The loop's domain is the plant, so
    where an entry of ``A`` fails it raises ``A(t)``'s EvalError, as that
    does.  Given a 1-d array of m times the evaluator returns the
    (m, n, n) stack, equal bit for bit to stacking the scalar results,
    and fails as the first failing scalar call in it (see
    :meth:`MatrixFunction.compiled`).

    With ``Delta`` the loop and ``Delta`` are one grid of entrywise sums
    (:meth:`MatrixFunction.plus`), made once per controller and plant, so
    each call runs one generated function and one finiteness check.  Its
    values are those of the loop plus ``Delta(t)`` bit for bit; where it
    fails, the error is ``A``'s or the loop's, else it names the first
    entry where ``Delta`` fails or the sum is not finite.
    """
    return _closed_loop_grid(spec, ctrl, include_delta).compiled()


def _closed_loop_grid(spec, ctrl, include_delta) -> MatrixFunction:
    """The grid :func:`closed_loop_function` compiles."""
    if ctrl is None:
        M = spec.A
    elif ctrl.system.A != spec.A or not np.array_equal(ctrl.system.B, spec.B):
        raise ValueError("the controller was synthesized for a different "
                         "plant (A or B differ)")
    else:
        M = ctrl.closed_loop
    if include_delta and spec.Delta is not None:
        M = M.plus(spec.Delta)
    return M
