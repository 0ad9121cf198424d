"""JSON problem descriptions.

A config file describes one plant, optionally a controller request, and
the analysis defaults.  Matrix-valued data is written as expression
strings (see :mod:`.expr` for the grammar); ``B`` is numeric because the
gain needs its exact inverse.  Validation is strict: unknown keys are
rejected, every dimension must match ``n``, and expression errors are
reported with their entry position and byte offset.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from numbers import Number
from pathlib import Path

import numpy as np

from .expr import (
    Expr,
    MatrixFunction,
    SourceError,
    VectorFunction,
    format_expr,
    parse,
    state_vars,
)
from .linalg import MAX_DIM, MIN_DIM, TWO, LinalgError, Weighted
from .synthesis import AutoGamma, ExplicitGamma, synthesize
from .system import ControllerSpec, SystemSpec

__all__ = ["ConfigError", "load_config", "serialize_config"]

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "lognorm-control problem description",
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "t0", "x0", "A", "B"],
    "properties": {
        "n": {"type": "integer", "minimum": MIN_DIM, "maximum": MAX_DIM},
        "t0": {"type": "number"},
        "x0": {"type": "array", "items": {"type": "number"}},
        "norm": {"enum": ["one", "two", "inf"]},
        "A": {"type": "array",
              "items": {"type": "array", "items": {"type": "string"}}},
        "Delta": {"type": "array",
                  "items": {"type": "array", "items": {"type": "string"}}},
        "B": {"type": "array",
              "items": {"type": "array", "items": {"type": "number"}}},
        "omega": {"type": "array", "items": {"type": "string"}},
        "omega_bound": {"type": "string"},
        "controller": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "array", "items": {"type": "number"}},
                "gamma": {"oneOf": [{"const": "auto"},
                                    {"type": "array",
                                     "items": {"type": "string"}}]},
                "margin": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "horizon": {"type": "number"},
        "tol": {"type": "number", "exclusiveMinimum": 0},
    },
}


_TYPES = dict(integer=int, number=Number, string=str, array=list, object=dict)
_BOUNDS = {"minimum": (operator.lt, "less than the minimum"),
           "maximum": (operator.gt, "greater than the maximum"),
           "exclusiveMinimum": (operator.le,
                                "less than or equal to the minimum")}


def _is(v, t: str) -> bool:  # 2.0 is an integer, a bool is no number
    return not isinstance(v, bool) and (isinstance(v, _TYPES[t]) or (
        t == "integer" and isinstance(v, float) and v.is_integer()))


def _errors(v, s: dict):
    """jsonschema's errors for ``v`` under ``s``, in its order and words:
    (path below ``v``, keyword, type missed, message, errors of each oneOf
    branch), for the keywords CONFIG_SCHEMA uses, with disjoint branches."""
    miss = "type" not in s or not _is(v, s["type"])
    for k, x in s.items():
        bad = ctx = sub = ()
        if k == "type":
            bad = [f"{v!r} is not of type {x!r}"] if miss else ()
        elif k == "items" and isinstance(v, list):
            sub = [(i, _errors(y, x)) for i, y in enumerate(v)]
        elif k == "properties" and isinstance(v, dict):
            sub = [(p, _errors(v[p], x[p])) for p in x if p in v]
        elif k == "enum" and v not in x:
            bad = [f"{v!r} is not one of {x!r}"]
        elif k == "const" and v != x:
            bad = [f"{x!r} was expected"]
        elif k == "oneOf" and all(ctx := [[*_errors(v, o)] for o in x]):
            bad = [f"{v!r} is not valid under any of the given schemas"]
        elif k in _BOUNDS and _is(v, "number") and _BOUNDS[k][0](v, x):
            bad = [f"{v!r} is {_BOUNDS[k][1]} of {x!r}"]
        elif k == "additionalProperties" and isinstance(v, dict) and (
                keys := sorted(v.keys() - s["properties"], key=str)):
            bad = [f"Additional properties are not allowed ({str(keys)[1:-1]} "
                   f"{'was' if len(keys) == 1 else 'were'} unexpected)"]
        elif k == "required" and isinstance(v, dict):
            bad = [f"{p!r} is a required property" for p in x if p not in v]
        for m in bad:
            yield (), k, miss, m, ctx
        for p, es in sub:  # plain loops take half the time of yield from
            for q, *e in es:
                yield ((p, *q), *e)


def _schema_error(v, s: dict = CONFIG_SCHEMA):
    """The JSON path and message of the error among ``v``'s under ``s``
    that jsonschema's best_match (4.26) picks, or None if there is none."""
    relevance = lambda e: (-len(e[0]), e[0], e[1] != "oneOf", e[2])
    best = max(_errors(v, s), key=relevance, default=None)
    path = best[0] if best else ()
    while best and best[4]:  # a oneOf: its branches' likeliest error
        first, *second = sorted(sum(best[4], []), key=relevance)[:2]
        if second and relevance(first) == relevance(second[0]):
            break  # unless two tie
        best, path = first, path + first[0]
    return best and ("$" + "".join(f"[{p}]" if isinstance(p, int) else
                                   f".{p}" for p in path), best[3])


def _plainly_valid(doc: dict) -> bool:
    return _schema_error(doc) is None


class ConfigError(ValueError):
    """A config document that does not describe a valid problem."""


@dataclass
class ControllerConfig:
    """The controller request from a config: rates and a gamma rule."""
    lam: np.ndarray | None
    rule: object  # AutoGamma or ExplicitGamma

    def build(self, spec: SystemSpec) -> ControllerSpec:
        return synthesize(spec, self.lam, self.rule)


@dataclass
class LoadedConfig:
    spec: SystemSpec
    controller: ControllerConfig | None
    horizon: float
    tol: float


def _parse_entry(text, allowed, where: str) -> Expr:
    try:
        return parse(text, allowed)
    except SourceError as exc:
        raise ConfigError(f"{where}: {exc.message} at offset {exc.offset} "
                          f"in {text!r}") from None


def _entries(seq, n: int, name: str):
    if len(seq) != n:
        raise ConfigError(f"{name} must have {n} entries, got {len(seq)}")
    return seq


def _horizon(t0: float, horizon: float, name: str, steps: int = 1024) -> float:
    """``horizon``, if fixed grids of ``steps`` steps from ``t0`` increase."""
    if not np.isfinite(horizon):
        raise ConfigError(f"{name} must be finite")
    if not horizon > t0:
        raise ConfigError(f"{name} must exceed t0={t0}")
    if not (horizon - t0) / steps >= max(np.finfo(float).tiny,
                                         4 * np.spacing(max(abs(t0), horizon))):
        raise ConfigError(f"{name} must exceed t0={t0} by {steps} normal "
                          f"floating-point steps of 4 ulps, got {horizon!r}")
    return horizon


def _parse_square(rows, n: int, allowed, name: str) -> MatrixFunction:
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ConfigError(f"{name} must be {n}x{n} to match n={n}")
    entries = [[_parse_entry(rows[i][j], allowed, f"{name}[{i + 1}][{j + 1}]")
                for j in range(n)] for i in range(n)]
    return MatrixFunction(entries, allowed)


def gamma_rule(c: dict, n: int, where: str = "controller."):
    """The gamma rule of a controller section ``c`` (also of a
    ``--controller`` file and of the command-line flags): ``gamma`` is
    'auto' (the default), whose margin defaults to 1, or one expression in
    t per component, which takes no margin.  Errors name ``where + key``."""
    gamma = c.get("gamma", "auto")
    if gamma == "auto":
        return AutoGamma(margin=float(c.get("margin", 1.0)))
    if "margin" in c:
        raise ConfigError(f"{where}margin only applies to gamma='auto'")
    if not isinstance(gamma, list):
        raise ConfigError(f"{where}gamma must be 'auto' or a list")
    return ExplicitGamma(tuple(
        _parse_entry(s, ("t",), f"{where}gamma[{i + 1}]")
        for i, s in enumerate(_entries(gamma, n, f"{where}gamma"))))


def load_config(source) -> LoadedConfig:
    """Validate and build a problem from a dict, JSON text path or Path.

    Raises ConfigError on any structural or semantic problem; the message
    names the offending key (and for expressions, the byte offset).
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    if error := _schema_error(doc):
        raise ConfigError("config invalid at {}: {}".format(*error))

    n = int(doc["n"])  # JSON Schema's integer admits 2.0
    t0 = float(doc["t0"])
    x0 = _entries(doc["x0"], n, "x0")

    A = _parse_square(doc["A"], n, ("t",), "A")
    Delta = (_parse_square(doc["Delta"], n, ("t",), "Delta")
             if "Delta" in doc else None)

    if len({len(row) for row in doc["B"]}) > 1:  # ragged: no shape
        raise ConfigError(f"B must be {n}x{n} to match n={n}")
    B = np.asarray(doc["B"], dtype=float)
    if B.shape != (n, n):
        raise ConfigError(f"B must be {n}x{n} to match n={n}, got {B.shape}")

    omega = None
    if "omega" in doc:
        allowed = ("t",) + state_vars(n)
        omega = VectorFunction(
            [_parse_entry(s, allowed, f"omega[{i + 1}]")
             for i, s in enumerate(_entries(doc["omega"], n, "omega"))],
            allowed)

    omega_bound = (_parse_entry(doc["omega_bound"], ("t",), "omega_bound")
                   if "omega_bound" in doc else None)

    try:
        spec = SystemSpec(n=n, A=A, B=B, t0=t0, x0=np.asarray(x0, dtype=float),
                          Delta=Delta, omega=omega, omega_bound=omega_bound,
                          norm=doc.get("norm", TWO))
    except LinalgError as exc:
        raise ConfigError(str(exc)) from None

    controller = None
    if "controller" in doc:
        c = doc["controller"]
        lam = (np.asarray(_entries(c["lambda"], n, "controller.lambda"),
                          dtype=float) if "lambda" in c else None)
        controller = ControllerConfig(lam=lam, rule=gamma_rule(c, n))

    horizon = _horizon(t0, float(doc.get("horizon", t0 + 10.0)), "horizon")
    tol = float(doc.get("tol", 1e-8))
    return LoadedConfig(spec=spec, controller=controller,
                        horizon=horizon, tol=tol)


def serialize_config(spec: SystemSpec, controller=None,
                     horizon: float | None = None,
                     tol: float | None = None) -> dict:
    """The inverse of :func:`load_config`: a JSON-ready document.

    ``controller`` may be a ControllerConfig or a ControllerSpec; a
    synthesized controller serializes with its gamma written out
    explicitly.  Weighted analysis norms have no config representation.
    """
    if isinstance(spec.norm, Weighted):
        raise ConfigError("weighted norms have no config representation")
    doc = {
        "n": spec.n,
        "t0": spec.t0,
        "x0": [float(v) for v in spec.x0],
        "norm": str(spec.norm),
        "A": spec.A.formatted(),
        "B": [[float(v) for v in row] for row in spec.B],
    }
    if spec.Delta is not None:
        doc["Delta"] = spec.Delta.formatted()
    if spec.omega is not None:
        doc["omega"] = spec.omega.formatted()
    if spec.omega_bound is not None:
        doc["omega_bound"] = format_expr(spec.omega_bound)
    if isinstance(controller, ControllerSpec):  # synthesized
        controller = ControllerConfig(controller.lam,
                                      ExplicitGamma(controller.gamma))
    if controller is not None:
        c = {}
        if controller.lam is not None:
            c["lambda"] = [float(v) for v in controller.lam]
        if isinstance(controller.rule, AutoGamma):
            c["gamma"] = "auto"
            if controller.rule.margin != 1.0:
                c["margin"] = controller.rule.margin
        else:
            c["gamma"] = [format_expr(g) for g in controller.rule.entries]
        doc["controller"] = c
    if horizon is not None:
        doc["horizon"] = float(horizon)
    if tol is not None:
        doc["tol"] = float(tol)
    return doc
