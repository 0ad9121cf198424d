"""A small expression language for time- and state-dependent matrices.

System data (the plant matrix, uncertainty, disturbance, gain schedules)
is written as strings like ``"t^(1/2)*sin(t)"`` or ``"t^(11/4)*cos(x1)"``,
parsed once into an immutable tree, and evaluated many times.  Grammar::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right associative and binds tighter than unary minus, so
``2^3^2 = 512`` and ``-2^2 = -4``.  Allowed variables are ``t`` and the
state components ``x1 .. xn`` (where permitted); ``pi`` is a constant.
Functions: sin, cos, tan, exp, log, sqrt, abs (one argument) and pow, min,
max (two arguments).

Parse failures raise :class:`SourceError` with a byte offset into the
source.  Domain failures during evaluation (``sqrt`` of a negative value,
``log`` of a non-positive value, division by zero, a negative base raised
to a fractional power, or any non-finite intermediate) raise
:class:`EvalError` pointing at the offending subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "SourceError",
    "EvalError",
    "Expr",
    "Lit",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "parse",
    "parse_matrix",
    "parse_vector",
    "eval_expr",
    "format_expr",
    "collect_vars",
    "MatrixFunction",
    "VectorFunction",
]

FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1,
    "pow": 2, "min": 2, "max": 2,
}

_MAX_DEPTH = 100  # levels an operand nests, plus one (see _Parser.node)


class SourceError(ValueError):
    """A parse failure, carrying the byte offset into the source string."""

    def __init__(self, message: str, source: str = "", offset: int = 0):
        self.message = message
        self.source = source
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class EvalError(ValueError):
    """A numeric domain failure, carrying the offset of the subexpression."""

    def __init__(self, message: str, offset: int = -1):
        self.message = message
        self.offset = offset
        if offset >= 0:
            super().__init__(f"{message} at offset {offset}")
        else:
            super().__init__(message)


class Expr:
    """Base class for expression nodes.  Nodes are immutable; the source
    offset is excluded from equality so that structurally identical trees
    compare equal regardless of where they were parsed."""

    __hash__ = None


@dataclass(frozen=True, eq=True)
class Lit(Expr):
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True, eq=True)
class Var(Expr):
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    operand: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True, eq=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True, eq=True)
class Call(Expr):
    fn: str
    args: tuple
    pos: int = field(default=-1, compare=False)


def state_vars(n: int) -> tuple:
    """Variable names for an n-dimensional state: ('x1', ..., 'xn')."""
    return tuple(f"x{i + 1}" for i in range(n))


# one match per token: a number, an identifier, an operator, or any other
# non-space character, which no token starts with
_TOKEN_RE = re.compile(r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^(),])|(\S)")


def _tokens(text: str) -> list:
    """``(kind, text, byte offset)`` of each token, then ``("end", "",
    len)``: kind is "num", "ident" or "op"; any other non-space character
    raises SourceError."""
    def offset(i):
        return len(text[:i].encode("utf-8"))
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 4:
            raise SourceError(f"unexpected character {m.group()!r}", text,
                              offset(m.start()))
        tokens.append((("num", "ident", "op")[m.lastindex - 1], m.group(),
                       offset(m.start())))
    tokens.append(("end", "", offset(len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed: frozenset):
        self.text = text
        self.allowed = allowed
        self.toks = _tokens(text)
        self.i = 0
        self.depth = 0
        self.height = {} if len(self.toks) > _MAX_DEPTH else None  # see node

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, off: int | None = None):
        """Raise SourceError at ``off``, or at the next token if None."""
        raise SourceError(message, self.text,
                          self.peek()[2] if off is None else off)

    def expect_op(self, ch: str):
        if (tok := self.peek())[0] != "op" or tok[1] != ch:
            self.fail(f"expected {ch!r}")
        return self.next()

    def parse(self) -> Expr:
        if self.peek()[0] == "end":
            self.fail("empty expression")
        e = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing input {text!r}")
        return e

    def expr(self) -> Expr:
        return self.chain("+-", lambda: self.chain("*/", self.unary))

    def chain(self, ops: str, operand: Callable[[], Expr]) -> Expr:
        """``operand (op operand)*``, left associative, ``op`` in ``ops``."""
        e = operand()
        while (tok := self.peek())[0] == "op" and tok[1] in ops:
            e = self.node(Bin(self.next()[1], e, operand(), pos=e.pos), 1)
        return e

    def node(self, e: Expr, link: int = 0) -> Expr:
        """The new operator node ``e``, its height recorded, unless that
        plus the depth it is read at passes the limit: ``a+b+c`` is
        ``(a+b)+c``, so ``a`` sinks under each later ``link`` of a chain.
        Each level takes a token, so none is kept for _MAX_DEPTH or fewer."""
        if self.height is None:
            return e
        kids = (e.left, e.right) if type(e) is Bin else \
            e.args if type(e) is Call else (e.operand,)
        h = self.height[id(e)] = 1 + max(self.height.get(id(k), 0)
                                         for k in kids)
        if self.depth + link + h > _MAX_DEPTH:
            self.fail("expression too deeply nested", kids[-1].pos)
        return e

    def unary(self) -> Expr:
        # every nesting passes through here, so one count bounds recursion
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression too deeply nested")
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.next()
            e = self.unary()
            # fold a negated literal so that "-2" is a single node
            e = (Lit(-e.value, pos=off) if isinstance(e, Lit)
                 else self.node(Neg(e, pos=off)))
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        if (tok := self.peek())[0] != "op" or tok[1] != "^":
            return base
        self.next()
        return self.node(Bin("^", base, self.unary(), pos=base.pos))

    def atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            return Lit(float(text), pos=off)
        if kind == "ident":
            if text == "pi":
                return Lit(math.pi, pos=off)
            if (tok := self.peek())[0] == "op" and tok[1] == "(":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function {text!r}", off)
                self.next()
                args = [self.expr()]
                while (tok := self.peek())[0] == "op" and tok[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    self.fail(f"{text} takes {arity} argument"
                              f"{'s' if arity > 1 else ''}, got {len(args)}",
                              off)
                return self.node(Call(text, tuple(args), pos=off))
            if text in FUNCTIONS:
                self.fail(f"{text} is a function and needs arguments", off)
            if text not in self.allowed:
                self.fail(f"unknown identifier {text!r}", off)
            return Var(text, pos=off)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        self.fail("unexpected end of input" if kind == "end"
                  else f"unexpected {text!r}", off)


def parse(text: str, allowed_vars: Iterable[str] = ("t",)) -> Expr:
    """Parse ``text`` into an expression tree.

    ``allowed_vars`` lists the permitted variable names; anything else
    (apart from ``pi`` and the function names) is rejected with a
    SourceError pointing at the identifier.
    """
    if not isinstance(text, str):
        raise SourceError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(text, frozenset(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# evaluation

def _check_finite(v: float, what: str, pos: int) -> float:
    if not math.isfinite(v):
        raise EvalError(f"non-finite result in {what}", pos)
    return v


def _eval(e: Expr, env: dict) -> float:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        v = env.get(e.name)
        if v is None:
            raise EvalError(f"unbound variable {e.name!r}", e.pos)
        return v
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        op = e.op
        if op == "+":
            return _check_finite(a + b, "addition", e.pos)
        if op == "-":
            return _check_finite(a - b, "subtraction", e.pos)
        if op == "*":
            return _check_finite(a * b, "multiplication", e.pos)
        if op == "/":
            if b == 0.0:
                raise EvalError("division by zero", e.pos)
            return _check_finite(a / b, "division", e.pos)
        return _pow(a, b, e.pos)
    if isinstance(e, Call):
        if e.fn == "_ifless":  # a derivative's kink: only the branch taken
            p, q, r, s = e.args
            return _eval(r if _eval(p, env) < _eval(q, env) else s, env)
        args = [_eval(a, env) for a in e.args]
        return _call(e.fn, args, e.pos)
    raise TypeError(f"not an expression node: {e!r}")


def _pow(a: float, b: float, pos: int) -> float:
    try:
        v = math.pow(a, b)
    except ValueError:
        raise EvalError(
            f"invalid power: base {a:g} with exponent {b:g}", pos) from None
    except OverflowError:
        raise EvalError("overflow in power", pos) from None
    return _check_finite(v, "power", pos)


def _call(fn: str, args: list, pos: int) -> float:
    if fn == "pow":
        return _pow(args[0], args[1], pos)
    if fn == "log" and args[0] <= 0.0:
        raise EvalError(f"log of non-positive value {args[0]:g}", pos)
    if fn == "sqrt" and args[0] < 0.0:
        raise EvalError(f"sqrt of negative value {args[0]:g}", pos)
    try:
        v = _GEN_GLOBALS[fn](*args)  # the generated code's functions
    except OverflowError:
        raise EvalError(f"overflow in {fn}", pos) from None
    except ValueError:
        raise EvalError(f"domain error in {fn}", pos) from None
    return _check_finite(v, fn, pos)


def eval_expr(e: Expr, t: float | None = None, x: Sequence[float] | None = None) -> float:
    """Evaluate an expression at time ``t`` and state ``x``.

    State components bind to ``x1 .. xn``.  Unbound variables and numeric
    domain failures raise EvalError with the source offset.
    """
    return _eval(e, _env(t, x))


def _env(t, x) -> dict:
    """Variable bindings for time ``t`` and state ``x`` (either may be None)."""
    env = {} if t is None else {"t": float(t)}
    if x is not None:
        env.update((f"x{i + 1}", float(xi)) for i, xi in enumerate(x))
    return env


def collect_vars(e: Expr) -> set:
    """The set of variable names appearing in ``e``."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Call):
            stack.extend(node.args)
    return out


# ---------------------------------------------------------------------------
# differentiation

_ZERO, _ONE = Lit(0.0), Lit(1.0)


def derivatives(flat: Sequence[Expr], var: str) -> list:
    """``d e / d var`` of each entry ``e`` of ``flat`` by the rules of
    docs/expression-grammar.md, over the entries' own subtrees: a subtree
    they share (see _dag) has one derivative, which they share in turn."""
    memo = {}  # a node's id -> its derivative, None where it is 0
    return [_derivative(e, var, memo) or _ZERO for e in flat]


def _derivative(e: Expr, v: str, memo: dict) -> Expr | None:
    kind = type(e)
    if kind is Lit or kind is Var:
        return _ONE if kind is Var and e.name == v else None
    if id(e) not in memo:
        a, b = (e.operand,) * 2 if kind is Neg else (e.left, e.right) \
            if kind is Bin else (e.args[0], e.args[-1])
        da, db = _derivative(a, v, memo), _derivative(b, v, memo)
        fn = "-u" if kind is Neg else e.op if kind is Bin else e.fn
        memo[id(e)] = None if da is None is db else \
            _RULES["^" if fn == "pow" else fn](e, a, b, da, db)
    return memo[id(e)]


# e' of e = a op b, fn(a, b) or fn(a) (b is then a), from a' and b' (None
# for 0, not both); min(a, b) is b if b < a, max(a, b) is b if a < b
_RULES = {
    "-u": lambda e, a, b, da, db: _op("-", None, da),
    "+": lambda e, a, b, da, db: _op("+", da, db),
    "-": lambda e, a, b, da, db: _op("-", da, db),
    "*": lambda e, a, b, da, db: _op("+", _op("*", da, b), _op("*", a, db)),
    "/": lambda e, a, b, da, db: _op("/", _op("-", da, _op("*", e, db)), b),
    # a^b (b' log a + b a' / a), or c a^(c - 1) a' with no log a
    "^": lambda e, a, b, da, db: _op("*", e, _op("+", _op(
        "*", db, Call("log", (a,))), _op("*", b, _op("/", da, a))))
    if db is not None else _op("*", Bin("*", b, Bin(
        "^", a, Bin("-", b, _ONE))), da),
    "sin": lambda e, a, b, da, db: _op("*", Call("cos", (a,)), da),
    "cos": lambda e, a, b, da, db: Neg(_op("*", Call("sin", (a,)), da)),
    "tan": lambda e, a, b, da, db: _op("*", Bin("+", _ONE, Bin("*", e, e)),
                                       da),
    "exp": lambda e, a, b, da, db: _op("*", e, da),
    "log": lambda e, a, b, da, db: _op("/", da, a),
    "sqrt": lambda e, a, b, da, db: _op("/", da, Bin("*", Lit(2.0), e)),
    "abs": lambda e, a, b, da, db: _pick(_ZERO, a, da,
                                         _pick(a, _ZERO, Neg(da))),
    "min": lambda e, a, b, da, db: _pick(b, a, db, da),
    "max": lambda e, a, b, da, db: _pick(a, b, db, da),
}


def _op(op: str, a, b):
    """``a op b``, with None standing for 0 (not as a divisor) and a factor
    1 left out; ``_op("-", None, b)`` is ``-b``."""
    if a is None or b is None:
        return (a or b if op == "+" else a or Neg(b)) if op in "+-" else None
    return a if b is _ONE and op in "*/" else b if a is _ONE and op == "*" \
        else Bin(op, a, b)


def _pick(p, q, r, s=None):  # r if p < q else s, None standing for 0
    return None if r is s is None else Call(
        "_ifless", (p, q, r or _ZERO, s or _ZERO))


# ---------------------------------------------------------------------------
# formatting

_PREC_ADD = 1.0
_PREC_MUL = 2.0
_PREC_NEG = 2.5
_PREC_POW = 3.0
_PREC_ATOM = 9.0


def _fmt(e: Expr):
    """Return (text, precedence) so parents can decide on parentheses."""
    if isinstance(e, Lit):
        if e.value < 0 or (e.value == 0.0 and math.copysign(1.0, e.value) < 0):
            return "-" + repr(-e.value), _PREC_NEG
        return repr(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        text, prec = _fmt(e.operand)
        if prec < _PREC_NEG:
            text = f"({text})"
        return "-" + text, _PREC_NEG
    if isinstance(e, Call):
        args = ", ".join(_fmt(a)[0] for a in e.args)
        return f"{e.fn}({args})", _PREC_ATOM
    if isinstance(e, Bin):
        if e.op in "+-":
            prec = _PREC_ADD
        elif e.op in "*/":
            prec = _PREC_MUL
        else:
            prec = _PREC_POW
        lt, lp = _fmt(e.left)
        rt, rp = _fmt(e.right)
        if e.op == "^":
            # right associative: parenthesize an equal-precedence left child
            if lp <= prec:
                lt = f"({lt})"
            if rp < prec:
                rt = f"({rt})"
        else:
            # left associative: parenthesize an equal-precedence right child
            if lp < prec:
                lt = f"({lt})"
            if rp <= prec:
                rt = f"({rt})"
        return f"{lt}{e.op}{rt}", prec
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e: Expr) -> str:
    """Render a tree back to source.  ``parse(format_expr(e))`` reproduces
    ``e`` exactly (offsets aside) and evaluates identically."""
    return _fmt(e)[0]


# ---------------------------------------------------------------------------
# compilation

def _dag(flat: list, subs: dict) -> tuple:
    """The entries ``flat`` as ``(nodes, roots)``.  A node ``[e, operands,
    uses]`` stands for every copy of a subtree other than a literal or a
    variable, in one entry or across entries, keyed by its operator over
    its operands; an operand or a root is a node's index or a leaf's
    source.  One walk, linear in the trees' size, finds them, operands
    first.  ``subs`` maps a variable to the source standing for it."""
    seen, keys, nodes = {}, {}, []

    def walk(e):
        kind = type(e)
        if kind is Lit:
            return f"({e.value!r})"
        if kind is Var:
            return subs.get(e.name, e.name)
        k = seen.get(id(e))
        if k is None:
            if kind is Bin:
                key = (e.op, walk(e.left), walk(e.right))
            else:
                key = (e.fn, *map(walk, e.args)) if kind is Call else \
                    ("-", walk(e.operand))
            n = len(nodes)
            k = seen[id(e)] = keys.setdefault(key, n)
            if k < n:  # a copy: its operands count once, as k's
                for c in key[1:]:
                    if type(c) is int:
                        nodes[c][2] -= 1
            else:
                nodes.append([e, key[1:], 0])
        nodes[k][2] += 1
        return k

    roots = [walk(e) for e in flat]
    del walk  # it refers to itself: no cycle is left for the collector
    return nodes, roots


def _gen(dag: tuple, array: bool) -> str:
    """The body of the scalar or the array function of the entries ``dag``
    (see :meth:`_Grid.compiled`); it matches _eval but leaves the domain
    checks to the caller's fallback path, and computes each node used
    more than once a single time per call, into a temporary, as it does
    one whose source is longer than _LONG characters."""
    nodes, roots = dag
    code, temps = [], []

    def operand(c):  # (node, source, per time, constant)
        return code[c] if type(c) is int else (None, c, c == "t", c[0] == "(")

    for k, (e, kids, uses) in enumerate(nodes):
        src, vec, const = _emit(e, [operand(c) for c in kids], array)
        if uses > 1 or len(src) > _LONG:
            temps.append(f"(_{k} := {src})")
            src = f"_{k}"
        code.append((e, src, vec, const))
    values = f"[{', '.join(operand(c)[1] for c in roots)}]"
    return f"({', '.join(temps)}, {values})[-1]" if temps else values


def _emit(e: Expr, ops: list, array: bool) -> tuple:
    """The source of ``e``, a node over the operands ``ops`` (see _gen's
    ``operand``), and whether it is per time and constant.  The array
    form's ``t`` is the array of times; a value not depending on it is a
    float, computed as in the scalar form."""
    vec, const = ops[0][2] or ops[-1][2], ops[0][3] and ops[-1][3]
    if len(ops) > 2:  # a derivative's _ifless; any() is slow for the rest
        vec, const = any(o[2] for o in ops), all(o[3] for o in ops)
    if isinstance(e, Neg):
        return f"(-{ops[0][1]})", vec, const
    fn = e.fn if isinstance(e, Call) else "pow" if e.op == "^" else None
    if fn is None:
        right = _finite(*ops[1], array) if e.op == "/" else ops[1][1]
        return f"({ops[0][1]}{e.op}{right})", vec, const
    args = [_finite(*o, array) if fn in _ABSORBING else o[1] for o in ops]
    if fn == "_ifless" and not (array and vec):  # only the branch taken
        return f"({args[2]} if {args[0]} < {args[1]} else {args[3]})", \
            vec, const
    args = ", ".join(args)
    if not (array and vec):
        return f"{fn}({args})", vec, const
    if fn in ("abs", "sqrt", "min", "max", "_ifless"):
        return f"_{fn}({args})", vec, const
    return f"_map({fn}, {args})", vec, const


# Python float + - * / overflow to inf silently; numpy's also give inf
# or nan where Python raises (x/0, sqrt(-1)).  An inf or nan operand
# keeps the result non-finite, where the caller's final check sees it,
# except at these positions: a divisor (x/inf = 0), the arguments of min,
# max, pow and a derivative's _ifless (pow(inf, 0) = 1, min(nan, 1) =
# nan but min(1, nan) = 1) and exp's (exp(-inf) = 0).  _finite checks an
# operand there, as the checked evaluator checks every intermediate.
_ABSORBING = frozenset(("min", "max", "pow", "exp", "_ifless"))


def _finite(e, src: str, vec: bool, const: bool, array: bool) -> str:
    """The source of the operand ``e`` (see _emit), raising if non-finite.
    A variable or a literal, negated or not, needs no check (the checked
    evaluator does not check them either), nor does a constant that the
    checked evaluator evaluates, as every intermediate is finite then."""
    while isinstance(e, Neg):
        e = e.operand
    if e is None or isinstance(e, (Lit, Var)):
        return src
    if const:
        try:
            _eval(e, {})
            return src
        except EvalError:
            pass
    check = "_allfinite" if array and vec else "_isfinite"
    return f"(_v if {check}(_v := {src}) else _nonfinite())"


def _nonfinite():
    raise ArithmeticError("non-finite intermediate")


def _map(f: Callable, a, b=None) -> np.ndarray:
    """``f`` at each time, of one or two arguments: an array holds one
    value per time, a float one value for all of them."""
    if b is None:
        return np.fromiter(map(f, a.tolist()), float, len(a))
    m = len(a) if type(a) is np.ndarray else len(b)
    a, b = (v.tolist() if type(v) is np.ndarray else [v] * m for v in (a, b))
    return np.fromiter(map(f, a, b), float, m)


_GEN_GLOBALS = {
    "__builtins__": {},
    "pow": math.pow,
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
    "abs": abs, "min": min, "max": max,
    "_isfinite": math.isfinite, "_nonfinite": _nonfinite,
    # the array form's; min(a, b) is a unless b < a, and max alike
    "_map": _map, "_abs": np.abs, "_sqrt": np.sqrt,
    "_min": lambda a, b: np.where(b < a, b, a),
    "_max": lambda a, b: np.where(b > a, b, a),
    "__ifless": lambda p, q, r, s: np.where(p < q, r, s),
    "_allfinite": lambda v: np.isfinite(v).all(),
}

_ARRAY_MIN = 48  # a batch of fewer times loops the scalar form
# a source nests at most half its length deep; _emit, _finite and _gen add
# at most 3 + 2 levels: within the 200 nested brackets CPython parses
_LONG = 390


def _lambda(params: str, body: str) -> Callable:
    """The generated function ``lambda params: body``."""
    return eval(f"lambda {params}: {body}", dict(_GEN_GLOBALS))


class _Code:
    """Generated code, compiled on first use: ``raw(t, _x)`` lists a grid's
    values at one time, ``run(t, _x)`` its columns at an array of times
    (a float for a column the same at every time)."""

    def __init__(self, flat, subs):
        self.flat, self.subs, self.raw, self.run = flat, subs, None, None

    @cached_property
    def dag(self):
        return _dag(self.flat, self.subs)

    def scalar(self):
        self.raw = _lambda("t, _x=None", _gen(self.dag, False))
        return self.raw

    def array(self):
        self.run = _lambda("t, _x=None", _gen(self.dag, True))
        return self.run


def _evaluator(code: _Code, checked: Callable, shape: tuple) -> Callable:
    """:meth:`_Grid.compiled`'s evaluator; nothing it holds refers to it."""
    ndarray, array, isfinite = np.ndarray, np.array, math.isfinite
    flat = len(shape) == 1  # the list already has a vector's shape

    def fn(t, x=None):
        if type(t) is ndarray and t.ndim:
            return _batch(code, checked, shape, t, x)
        try:
            v = (code.raw or code.scalar())(t, x)
            if isfinite(sum(v)):
                return array(v) if flat else array(v).reshape(shape)
        except Exception:
            pass
        return checked(t, x)

    fn.exact_batches = True  # see sim._stack
    return fn


def _batch(code, checked, shape, ts, x):
    if ts.ndim != 1:
        raise ValueError(f"times must be a scalar or a 1-d array, "
                         f"got shape {ts.shape}")
    try:
        if len(ts) < _ARRAY_MIN:
            # one flat list, finite if its sum is, as on the scalar path
            raw = code.raw or code.scalar()
            v = []
            for t in ts.tolist():
                v += raw(t, x)
            if math.isfinite(sum(v)):
                return np.array(v).reshape((-1,) + shape)
            v = np.array(v)
        else:
            run = code.run or code.array()
            with np.errstate(all="ignore"):
                columns = run(ts, x)
            v = np.empty((len(ts), len(columns)))
            for j, c in enumerate(columns):
                v[:, j] = c
        if np.isfinite(v).all():
            return v.reshape((-1,) + shape)
    except Exception:
        pass
    scalar = _evaluator(code, checked, shape)
    return np.array([scalar(t, x) for t in ts.tolist()])


def _checked(flat, shape, domain, t, x=None) -> np.ndarray:
    """:meth:`_Grid.__call__` of the grid of entries ``flat``."""
    if domain is not None:
        domain(t, x)
    env = _env(t, x)
    out = np.empty(shape)
    for idx, e in zip(np.ndindex(shape), flat):
        try:
            out[idx] = _eval(e, env)
        except EvalError as exc:
            if len(flat) == 1:
                raise
            where = ",".join(str(i + 1) for i in idx)
            if len(idx) > 1:
                where = f"({where})"
            raise EvalError(f"entry {where}: {exc.message}",
                            exc.offset) from None
    return out


class _Grid:
    """Shared machinery for expression-valued matrices and vectors:
    ``entries`` is a nested tuple of expressions of the given ``shape``."""

    def __init__(self, entries, allowed_vars, shape, domain=None):
        self.entries = entries
        self.shape = shape
        self.n = shape[0]
        self.domain = domain
        kind = "matrix" if len(shape) == 2 else "vector"
        for e in self._flat():
            if not isinstance(e, Expr):
                raise SourceError(f"{kind} entry {e!r} is not an expression")
        self.allowed = frozenset(allowed_vars)
        for v in self.allowed:
            if v != "t" and not re.fullmatch(r"x\d+", v):
                raise SourceError(f"allowed variable {v!r} must be 't' or 'x<k>'")
        used = set()
        for e in self._flat():
            used |= collect_vars(e)
        bad = used - self.allowed
        if bad:
            raise SourceError(
                f"variable(s) {sorted(bad)} not allowed here; "
                f"allowed: {sorted(self.allowed)}")
        self.state_dependent = any(v != "t" for v in used)
        self._compiled = None

    def _flat(self):
        raise NotImplementedError

    def __call__(self, t: float, x=None) -> np.ndarray:
        """Evaluate the domain, then every entry, with the checked
        evaluator.  An EvalError names the failing entry, 1-based:
        ``entry (i,j)`` of a matrix, ``entry i`` of a vector; a grid of
        one entry raises its entry's error as it is."""
        return _checked(self._flat(), self.shape, self.domain, t, x)

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    __hash__ = None

    def compiled(self) -> Callable[..., np.ndarray]:
        """A fast evaluator ``f(t[, x]) -> ndarray``, bit-identical to
        :meth:`__call__` and falling back to it on domain failures, so
        that they raise the same EvalError (the domain's, if it fails).

        The generated code lists the entries' values, computing each
        subtree they repeat once; they are finite when their Python sum
        is, and only then become the array.  A sum can overflow with
        every entry finite; that case, too, goes to :meth:`__call__`,
        which returns the same bits.

        ``t`` may also be a 1-d array of m times (with one state ``x`` for
        all of them); the result is then the (m, *shape) stack of the
        values at those times, equal bit for bit to stacking the scalar
        calls.  A batch of fewer than ``_ARRAY_MIN`` times loops the
        scalar code.  A larger one runs its array form once: numpy for
        + - * /, negation, abs and sqrt, which IEEE 754 rounds correctly,
        and ``math`` time by time for the other functions, as numpy's
        may round otherwise (its exp does, on some builds and CPUs).
        Either checks finiteness once; on any failure the batch is redone
        time by time through the scalar path, so it fails exactly as the
        first failing scalar call in it.  The evaluator, made once, holds
        the code, generated and compiled on first use, and
        :meth:`__call__` apart from the grid: no reference cycle.
        """
        if self._compiled is None:
            # state component x<k> is x[k - 1], as in the checked evaluator
            xs = {v: f"_x[{int(v[1:]) - 1}]" for v in self.allowed if v != "t"}
            checked = partial(_checked, self._flat(), self.shape, self.domain)
            self._compiled = _evaluator(_Code(self._flat(), xs), checked,
                                        self.shape)
        return self._compiled


class MatrixFunction(_Grid):
    """A square grid of expressions, evaluated to an n x n array.

    Entries may use ``t`` and, when constructed with state variables in
    ``allowed_vars``, the components ``x1 .. xn``.  ``domain``, if given,
    is a grid, or a grid's compiled evaluator, this one is defined only
    where it is: wherever this grid's evaluation fails, the domain's
    error, if it has one, is the one raised, scalar and batch alike (see
    :meth:`compiled`).  Two instances compare equal when their
    expression trees do.
    """

    def __init__(self, entries, allowed_vars=("t",), domain=None):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise SourceError("matrix of expressions must be square")
        self._sum = None
        super().__init__(entries, allowed_vars, (n, n), domain)

    def _flat(self):
        return [e for row in self.entries for e in row]

    def formatted(self):
        """Entries rendered back to source strings (row major)."""
        return [[format_expr(e) for e in row] for row in self.entries]

    def plus(self, other: MatrixFunction) -> MatrixFunction:
        """``self + other`` as one grid of the entries ``s_ij + o_ij``,
        made once per ``other``.  Python's float ``+`` rounds as numpy's,
        so its values are those of ``self(t) + other(t)`` bit for bit.
        Its domain is this grid's compiled evaluator (the grid caches the
        sum, so holding it would make a cycle): where the sum fails, the
        error is this grid's, its own domain's first, and else that of
        the first failing entry, ``other``'s or a non-finite sum's.
        """
        if other.n != self.n:
            raise SourceError("matrices of a sum must have the same size")
        if self._sum is None or self._sum[0] is not other:
            entries = [[Bin("+", a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)]
            self._sum = other, MatrixFunction(
                entries, self.allowed | other.allowed, domain=self.compiled())
        return self._sum[1]


class VectorFunction(_Grid):
    """A column of expressions, evaluated to a length-n array."""

    def __init__(self, entries, allowed_vars=("t",)):
        entries = tuple(entries)
        if not entries:
            raise SourceError("vector of expressions must not be empty")
        super().__init__(entries, allowed_vars, (len(entries),))

    def _flat(self):
        return list(self.entries)


def parse_matrix(rows, allowed_vars=("t",)) -> MatrixFunction:
    """Parse a square list-of-lists of expression strings."""
    if not isinstance(rows, (list, tuple)):
        raise SourceError("matrix must be a list of rows")
    parsed = []
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise SourceError("matrix rows must be lists of expression strings")
        parsed.append([parse(s, allowed_vars) for s in row])
    return MatrixFunction(parsed, allowed_vars)


def parse_vector(items, allowed_vars=("t",)) -> VectorFunction:
    """Parse a list of expression strings into a VectorFunction."""
    if not isinstance(items, (list, tuple)):
        raise SourceError("vector must be a list of expression strings")
    return VectorFunction([parse(s, allowed_vars) for s in items], allowed_vars)
