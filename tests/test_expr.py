"""Parser, evaluator, formatter and compiler for the expression DSL."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lognorm_control import expr
from lognorm_control.expr import (
    Bin,
    Call,
    EvalError,
    Lit,
    MatrixFunction,
    Neg,
    SourceError,
    Var,
    VectorFunction,
    collect_vars,
    derivatives,
    eval_expr,
    format_expr,
    parse,
    parse_matrix,
    parse_vector,
)


def ev(text, t=None, x=None, allowed=("t", "x1", "x2")):
    return eval_expr(parse(text, allowed), t=t, x=x)


# ---------------------------------------------------------------------------
# evaluation goldens

def test_eval_basic():
    assert ev("t^2 + sin(t)", t=0.0) == 0.0
    assert ev("1/(1+t^2)", t=1.0) == 0.5
    assert ev("t*(t^6+1)^(1/2)", t=1.0) == pytest.approx(math.sqrt(2.0),
                                                         rel=1e-15)
    assert ev("t^(11/4)*cos(x1)", t=1.0, x=[0.0, 0.0]) == 1.0


def test_eval_constants_and_vars():
    assert ev("pi/2") == pytest.approx(math.pi / 2.0, rel=1e-16)
    assert ev("x2", x=[-5.0, 2.0]) == 2.0
    assert ev("pi") == math.pi


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0       # right-associative power
    assert ev("-2^2") == -4.0         # ^ binds tighter than unary minus
    assert ev("6/3/2") == 1.0         # left-associative division
    assert ev("2-3-4") == -5.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2*3^2") == 18.0


def test_functions():
    assert ev("min(3, 2)") == 2.0
    assert ev("max(3, 2)") == 3.0
    assert ev("pow(2, 10)") == 1024.0
    assert ev("abs(-3.5)") == 3.5
    assert ev("sqrt(16)") == 4.0
    assert ev("exp(0)") == 1.0
    assert ev("log(exp(2))") == pytest.approx(2.0, rel=1e-15)
    assert ev("tan(0)") == 0.0


def test_scientific_notation_literals():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0


# ---------------------------------------------------------------------------
# parse errors carry a usable location

@pytest.mark.parametrize("text", [
    "", "   ", "t +", "(t", "t)", "sin", "sin()", "sin(1, 2)",
    "pow(1)", "min(1)", "1 2", "t t", "@", "1..2", "unknownfn(t)",
])
def test_source_errors(text):
    with pytest.raises(SourceError) as ei:
        parse(text, ("t",))
    assert 0 <= ei.value.offset <= len(text)


def test_unknown_variable_offset():
    with pytest.raises(SourceError) as ei:
        parse("t + bogus", ("t",))
    assert ei.value.offset == 4


def test_variable_not_allowed():
    with pytest.raises(SourceError):
        parse("x1", ("t",))
    parse("x1", ("t", "x1"))  # fine when declared


def test_deeply_nested_input_rejected():
    text = "(" * 500 + "t" + ")" * 500
    with pytest.raises(SourceError):
        parse(text, ("t",))


@pytest.mark.parametrize("text", [
    "-" * 986 + "t",
    "^".join(["t"] * 494),
    "sin(" * 141 + "t" + ")" * 141,
], ids=["minus", "power", "call"])
def test_every_kind_of_nesting_counts_toward_the_limit(text):
    # a count that skipped minus signs, exponents or calls would let each
    # of these exhaust the stack (RecursionError) first
    with pytest.raises(SourceError, match="expression too deeply nested"):
        parse(text, ("t",))


def test_nesting_limit():
    with pytest.raises(SourceError) as ei:
        parse("(" * 300 + "t" + ")" * 300, ("t",))
    assert ei.value.offset == 100
    e = parse("sin(" * 99 + "t" + ")" * 99, ("t",))
    assert eval_expr(e, 0.5) == pytest.approx(0.1634013076, rel=1e-9)


def _paren_chains(levels, terms):
    # each pair of parentheses holds a chain whose first operand is the
    # pair inside it, so every chain sinks all the chains within it
    text = "t"
    for _ in range(levels):
        text = "(" + text + "+t" * terms + ")"
    return text


@pytest.mark.parametrize("text, offset", [
    ("+".join(["t"] * 1000), 200),
    ("*".join(["t"] * 1000), 200),
    ("t*" * 60 + "t" + "+t" * 60, 200),
    (_paren_chains(50, 10), 165),
], ids=["sum", "product", "sum-of-product", "chains-in-parentheses"])
def test_a_chain_counts_toward_the_limit(text, offset):
    # a + b + c is (a + b) + c: a chain's first operand sinks a level under
    # each later operator, so a flat chain nests as deep as its length, and
    # chains in parentheses add up.  Counted only on the way down, these
    # nest hundreds of levels deep and exhaust the stack of the recursive
    # tree walkers (RecursionError) or of CPython's parser
    with pytest.raises(SourceError, match="expression too deeply nested") \
            as ei:
        parse(text, ("t",))
    assert ei.value.offset == offset


def _limit_cases():
    # the deepest accepted expressions of each kind, next to one level more
    return [
        ("+".join(["t"] * 100), "+".join(["t"] * 101)),
        ("t*" * 60 + "t" + "+t" * 39, "t*" * 60 + "t" + "+t" * 40),
        (_paren_chains(9, 10) + "+t" * 9, _paren_chains(9, 10) + "+t" * 10),
        ("min(t, " * 99 + "t" + ")" * 99, "min(t, " * 100 + "t" + ")" * 100),
        ("1/(" * 99 + "t" + ")" * 99, "1/(" * 100 + "t" + ")" * 100),
        ("-exp(" * 49 + "t" + ")" * 49, "-exp(" * 50 + "t" + ")" * 50),
        ("t^" * 99 + "t", "t^" * 100 + "t"),
    ]


@pytest.mark.parametrize("text, deeper", _limit_cases(),
                         ids=["sum", "sum-of-product", "chains-in-parentheses",
                              "min", "division", "exp", "power"])
def test_expressions_at_the_limit_run_their_generated_code(monkeypatch, text,
                                                           deeper):
    # every expression the parser accepts compiles: the generator moves
    # a subtree that would nest past CPython's 200 parentheses into a
    # temporary, so no call takes the checked path, scalar or batched
    with pytest.raises(SourceError, match="expression too deeply nested"):
        parse(deeper, ("t",))
    e = parse(text, ("t",))
    ts = np.linspace(0.25, 0.75, expr._ARRAY_MIN)
    want = [eval_expr(e, t) for t in ts.tolist()]

    def checked(*args):
        raise AssertionError("the checked evaluator ran")
    monkeypatch.setattr(expr, "_checked", checked)
    F = MatrixFunction([[e]]).compiled()
    assert F(0.25).tobytes() == np.array([[want[0]]]).tobytes()
    assert F(ts[:3]).tobytes() == np.array(want[:3]).tobytes()
    assert F(ts).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# evaluation errors carry the subexpression offset

def test_eval_domain_errors():
    with pytest.raises(EvalError):
        ev("sqrt(t)", t=-1.0)
    with pytest.raises(EvalError):
        ev("log(t)", t=0.0)
    with pytest.raises(EvalError):
        ev("1/t", t=0.0)
    with pytest.raises(EvalError):
        ev("(-1)^(1/2)")  # fractional power of a negative base
    with pytest.raises(EvalError):
        ev("exp(10000)")  # overflow to inf is reported, not returned


def test_eval_error_offset_points_at_subexpression():
    with pytest.raises(EvalError) as ei:
        ev("1 + sqrt(0-t)", t=5.0)
    assert ei.value.offset == 4


def test_unbound_variable_is_eval_error():
    e = parse("x1", ("t", "x1"))
    with pytest.raises(EvalError):
        eval_expr(e, t=1.0)  # x never supplied


# ---------------------------------------------------------------------------
# structural round trip and the compiled fast path

def _fold_neg(e):
    # the parser folds a unary minus on a literal into the literal
    return Lit(-e.value) if isinstance(e, Lit) else Neg(e)


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0,
              allow_nan=False).map(lambda v: Lit(round(v, 3))),
    st.sampled_from(["t", "x1", "x2"]).map(Var),
    # large enough that a product or a sum overflows to inf
    st.sampled_from([1e200, 1e308]).map(Lit),
)

_tree = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), kids, kids).map(
            lambda o: Bin(o[0], o[1], o[2])),
        kids.map(_fold_neg),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "sqrt",
                                   "abs", "log"]), kids).map(
            lambda o: Call(o[0], (o[1],))),
        st.tuples(st.sampled_from(["min", "max", "pow"]), kids, kids).map(
            lambda o: Call(o[0], (o[1], o[2]))),
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(e=_tree)
def test_format_parse_round_trip_structural(e):
    assert parse(format_expr(e), ("t", "x1", "x2")) == e


def scalar(e):
    """``e`` compiled as a one-entry grid: ``fn(t[, x1, x2]) -> float``."""
    fn = VectorFunction([e], ("t", "x1", "x2")).compiled()
    return lambda t, *x: fn(t, list(x) or None)[0]


@settings(max_examples=150)
@given(e=_tree, t=st.floats(0.1, 5.0), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0),
       ts=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5))
def test_compiled_matches_interpreted_bitwise(e, t, x1, x2, ts):
    fn = scalar(e)
    try:
        want = eval_expr(e, t=t, x=[x1, x2])
    except EvalError:
        with pytest.raises(EvalError):
            fn(t, x1, x2)
    else:
        assert fn(t, x1, x2) == want  # bit-identical, not approximately
    # the batched matrix path over an array of times, against the
    # checked evaluator time by time
    batch = MatrixFunction([[e, Lit(1.0)], [Neg(e), e]],
                           ("t", "x1", "x2")).compiled()
    try:
        want = [eval_expr(e, t=s, x=[x1, x2]) for s in ts]
    except EvalError:
        with pytest.raises(EvalError):
            batch(np.array(ts), [x1, x2])
        return
    got = batch(np.array(ts), [x1, x2])
    assert got.shape == (len(ts), 2, 2)
    assert np.array_equal(got[:, 0, 0], want)
    assert np.array_equal(got[:, 1, 0], np.negative(want))


# a subtree that overflows to inf (for a non-zero tree), at a position
# where /, min, max, pow or exp would turn it back into a finite value
_overflow = st.tuples(_tree, st.sampled_from([1e200, 1e308])).map(
    lambda o: Bin("*", Bin("*", o[0], Lit(o[1])), Lit(o[1])))
_absorbing = st.one_of(
    st.tuples(_tree, _overflow).map(lambda o: Bin("/", o[0], o[1])),
    st.tuples(st.sampled_from(["min", "max", "pow"]), _tree, _overflow,
              st.booleans()).map(
        lambda o: Call(o[0], (o[1], o[2]) if o[3] else (o[2], o[1]))),
    _overflow.map(lambda o: Call("exp", (Neg(o),))),
)


@settings(max_examples=100)
@given(e=_absorbing, t=st.floats(0.1, 5.0), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0))
def test_compiled_matches_interpreted_where_an_overflow_is_absorbed(e, t, x1,
                                                                   x2):
    fn = scalar(e)
    batch = MatrixFunction([[e, Lit(1.0)], [Lit(0.0), e]],
                           ("t", "x1", "x2")).compiled()
    try:
        want = eval_expr(e, t=t, x=[x1, x2])
    except EvalError as exc:
        for run in (lambda: fn(t, x1, x2),
                    lambda: batch(np.array([t, t]), [x1, x2])):
            with pytest.raises(EvalError) as got:
                run()
            assert got.value.offset == exc.offset
    else:
        assert fn(t, x1, x2) == want
        assert np.array_equal(batch(np.array([t]), [x1, x2])[:, 0, 0], [want])


_BIG_BATCH = st.lists(st.floats(0.1, 5.0), min_size=2 * expr._ARRAY_MIN,
                      max_size=4 * expr._ARRAY_MIN)


@settings(max_examples=100)
@given(e=st.one_of(_tree, _absorbing), ts=_BIG_BATCH,
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_array_form_matches_interpreted_bitwise(e, ts, x1, x2):
    # a batch this large runs the array form once; its entries share
    # ``e``, which the generated code computes once per batch.  It equals
    # the checked evaluator time by time, or fails as its first failure
    rows = [[e, Bin("*", e, Var("t"))], [Neg(e), Call("sin", (e,))]]
    batch = MatrixFunction(rows, ("t", "x1", "x2")).compiled()
    want = []
    try:
        for t in ts:
            want.append([eval_expr(f, t=t, x=[x1, x2])
                         for row in rows for f in row])
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            batch(np.array(ts), [x1, x2])
        assert got.value.offset == exc.offset
        return
    got = batch(np.array(ts), [x1, x2])
    assert got.tobytes() == np.array(want).reshape(-1, 2, 2).tobytes()


# ---------------------------------------------------------------------------
# symbolic derivatives

_VARS = ("t", "x1", "x2")


def _gradient_grid(e):
    """The compiled grid of ``e``'s derivatives in t, x1 and x2."""
    return VectorFunction([d for v in _VARS for d in derivatives([e], v)],
                          _VARS).compiled()


def _quotients(e, p, k, h):
    """Difference quotients of the compiled ``e`` in coordinate ``k`` at
    ``p``, each Richardson-extrapolated from the steps h and h / 2:
    central, forward and backward (errors O(h^4), O(h^2) and O(h^2)), and
    the largest intermediate of ``e`` on the stencil, for rounding."""
    f = VectorFunction([e], _VARS).compiled()
    qs = [list(p) for _ in range(5)]
    for q, s in zip(qs, (-h, -h / 2, 0.0, h / 2, h)):
        q[k] += s
    fs = [float(f(q[0], q[1:])[0]) for q in qs]
    nodes, stack = [], [e]
    while stack:  # every subtree of e
        node = stack.pop()
        nodes.append(node)
        stack += ([node.operand] if type(node) is Neg else
                  [node.left, node.right] if type(node) is Bin else
                  list(node.args) if type(node) is Call else [])
    big = max(abs(eval_expr(n, q[0], q[1:])) for q in qs for n in nodes)

    def dq(i, j):
        return (fs[i] - fs[j]) / (qs[i][k] - qs[j][k])
    return ((4 * dq(3, 1) - dq(4, 0)) / 3, 2 * dq(3, 2) - dq(4, 2),
            2 * dq(2, 1) - dq(2, 0)), big


@settings(max_examples=300)
@given(e=_tree, t=st.floats(0.1, 5.0), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0))
@example(e=parse("max(1, sqrt(abs(x1) - abs(x1)))", _VARS), t=1.0, x1=0.5,
         x2=0.0)  # the branch not taken has no derivative
def test_derivatives_match_difference_quotients(e, t, x1, x2):
    # each derivative is within 1e-6 (1 + |d|) + 64 eps S / h of the
    # central quotient of the compiled entry (h = 2^-16 max(1, |p_k|), S
    # its largest intermediate on the stencil), or, at a kink such as
    # min(x1, t) at x1 = t, of the one-sided quotient on the side the
    # evaluator takes.  Where the derivative, the entry on the stencil or
    # a quotient is not finite, there is nothing to compare
    p = [t, x1, x2]
    try:
        grad = _gradient_grid(e)(t, [x1, x2])
    except EvalError:
        return
    for k, d in enumerate(grad.tolist()):
        h = 2.0 ** -16 * max(1.0, abs(p[k]))
        try:
            quotients, big = _quotients(e, p, k, h)
        except EvalError:
            continue
        errors = [abs(d - q) for q in quotients if math.isfinite(q)]
        if errors:
            bound = 1e-6 * (1.0 + abs(d)) + 64 * 2.0 ** -52 * big / h
            assert min(errors) <= bound, (format_expr(e), _VARS[k], d)


@settings(max_examples=100)
@given(e=_tree, ts=st.lists(st.floats(0.1, 5.0), min_size=1,
                            max_size=4 * expr._ARRAY_MIN),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_derivative_batches_equal_their_scalar_calls(e, ts, x1, x2):
    # below and from expr._ARRAY_MIN times, scalar code and array code
    grad = _gradient_grid(e)
    try:
        want = [grad(t, [x1, x2]) for t in ts]
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            grad(np.array(ts), [x1, x2])
        assert str(got.value) == str(exc)
        return
    assert grad(np.array(ts), [x1, x2]).tobytes() == np.array(want).tobytes()


def test_derivative_rules_at_their_corners():
    def d(text, var="t", t=0.0, x1=0.0):
        (de,) = derivatives([parse(text, _VARS)], var)
        return eval_expr(de, t, [x1, 0.0])
    assert d("abs(t)") == 0.0 and d("abs(t)", t=-2.0) == -1.0
    # min and max follow the operand the evaluator picks: a tie takes the
    # first one
    assert (d("min(t, x1)"), d("min(x1, t)"), d("max(t, 2*t)", t=1.0)) == \
        (1.0, 0.0, 2.0)
    # only the branch taken is evaluated: sqrt's derivative at 0 is 1/0
    kink = "max(1, sqrt(abs(x1) - abs(x1)))"
    assert (d(kink, "x1", x1=0.5), d(f"min(2*x1, {kink})", "x1")) == \
        (0.0, 2.0)
    assert d("t^3") == 0.0  # a constant exponent takes no log t
    assert d("t^t", t=1.0) == 1.0
    with pytest.raises(EvalError, match="log of non-positive value 0"):
        d("t^x1", "x1")  # 0^0 is 1, but a variable exponent takes log t
    # a subtree the entries share has one derivative, which they share
    s = parse("sin(t*x1)", _VARS)
    ds, dsquare = derivatives([s, Bin("*", s, s)], "t")
    assert dsquare.left.left is ds and dsquare.right.right is ds
    # the kinks' branches in the array code, bit for bit as time by time
    kinks = parse("abs(t - 2) + min(t, x1)*max(x2, t^2)", _VARS)
    grad = _gradient_grid(kinks)
    ts = np.linspace(0.0, 4.0, 2 * expr._ARRAY_MIN + 1)  # t = 1, 2, 3 too
    want = np.array([grad(t, [1.0, 2.0]) for t in ts])
    assert grad(ts, [1.0, 2.0]).tobytes() == want.tobytes()
    assert want[[0, 24, 48, 72]].tolist() == [
        [1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [4.0, 4.0, 0.0], [7.0, 9.0, 0.0]]
    # an untaken non-finite branch sends the array code's batch to the
    # scalar code, which takes only the branch taken
    assert not _gradient_grid(parse(kink, _VARS))(ts, [0.5, 0.0]).any()


@pytest.mark.parametrize("text, at", [
    ("1/(t*1e200*1e200)", "multiplication at offset 3"),
    ("min(t*1e308*10, 1)", "multiplication at offset 4"),
    ("exp(-(t*1e308*10))", "multiplication at offset 6"),
])
def test_compiled_does_not_absorb_an_overflow(text, at):
    # the intermediate overflows to inf, and /, min and exp would turn it
    # back into a finite value; the checked evaluator raises, so must the
    # compiled one, scalar and batch
    e = parse(text)
    with pytest.raises(EvalError, match=at):
        eval_expr(e, t=1.0)
    with pytest.raises(EvalError, match=at):
        scalar(e)(1.0)
    F = MatrixFunction([[Lit(0.0), e], [Lit(1.0), Lit(2.0)]]).compiled()
    for t in (1.0, np.array([0.5, 1.0])):
        with pytest.raises(EvalError, match=r"entry \(1,2\): .*" + at):
            F(t)


def test_constant_operands_are_not_checked():
    # a constant operand the checked evaluator evaluates is finite; one it
    # cannot is checked, and fails as the checked evaluator does
    assert scalar(parse("pow(t, 1/2)"))(4.0) == 2.0
    with pytest.raises(EvalError, match="multiplication"):
        scalar(parse("exp(-(1e200*1e200))"))(1.0)


def test_entries_whose_sum_overflows_are_not_an_error():
    # every entry is finite, their sum is not: the guard's one false
    # alarm, answered by the checked evaluator with the same bits
    F = MatrixFunction([[Lit(1e308), Lit(1e308)], [Lit(0.0), Var("t")]])
    want = np.array([[1e308, 1e308], [0.0, 3.0]])
    assert F.compiled()(3.0).tobytes() == want.tobytes()
    assert F.compiled()(np.array([3.0, 3.0])).tobytes() == \
        np.array([want, want]).tobytes()


def test_a_vector_evaluates_to_a_new_float64_array():
    # the compiled vector's list of values is already its shape: a new
    # float64 array of shape (n,), the bits of the checked evaluator's
    vf = VectorFunction([parse(s, ("t", "x1", "x2")) for s in
                         ("t^(11/4)*cos(x1)", "1", "x2/3")],
                        ("t", "x1", "x2"))
    f = vf.compiled()
    x = np.array([0.3, -0.7])
    got = f(1.5, x)
    assert got.dtype == np.float64 and got.shape == (3,)
    assert got.tobytes() == vf(1.5, x).tobytes()
    again = f(1.5, x)
    assert again is not got and not np.shares_memory(again, got)
    got[:] = 0.0
    assert again.tobytes() == vf(1.5, x).tobytes()


def test_vector_entries_whose_sum_overflows_are_not_an_error(monkeypatch):
    # the vector counterpart of the matrix case above: every entry is
    # finite, their sum is not, so the call takes the checked path, which
    # gives the bits
    checked = []
    original = expr._checked

    def counting(*args):
        checked.append(args[-2])
        return original(*args)
    monkeypatch.setattr(expr, "_checked", counting)
    f = VectorFunction([Lit(1e308), Lit(1e308), Var("t")]).compiled()
    want = np.array([1e308, 1e308, 3.0])
    assert f(3.0).tobytes() == want.tobytes()
    assert checked == [3.0]
    assert f(np.array([3.0, 3.0])).tobytes() == \
        np.array([want, want]).tobytes()


def test_thousand_random_trees_eval_round_trip():
    # parse(print(tree)) evaluates identically at random points
    rng = np.random.default_rng(99)
    names = ("t", "x1", "x2")
    funcs1 = ["sin", "cos", "tan", "exp", "sqrt", "abs", "log"]
    funcs2 = ["min", "max", "pow"]

    def build(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if rng.random() < 0.5:
                return Lit(float(round(rng.uniform(0.0, 8.0), 3)))
            return Var(str(rng.choice(names)))
        if r < 0.75:
            return Bin(str(rng.choice(list("+-*/^"))),
                       build(depth - 1), build(depth - 1))
        if r < 0.85:
            return _fold_neg(build(depth - 1))
        if r < 0.95:
            return Call(str(rng.choice(funcs1)), (build(depth - 1),))
        return Call(str(rng.choice(funcs2)),
                    (build(depth - 1), build(depth - 1)))

    checked = 0
    for _ in range(1000):
        e = build(4)
        back = parse(format_expr(e), names)
        assert back == e
        for _ in range(10):
            args = (rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0),
                    rng.uniform(-2.0, 2.0))
            try:
                want = eval_expr(e, t=args[0], x=args[1:])
            except EvalError:
                continue
            got = eval_expr(back, t=args[0], x=args[1:])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            checked += 1
    assert checked > 2000  # plenty of evaluable points actually compared


def test_formatter_emits_minimal_parentheses():
    assert format_expr(parse("2+3*4")) == "2.0+3.0*4.0"
    assert format_expr(parse("(2+3)*4")) == "(2.0+3.0)*4.0"
    assert format_expr(parse("2^3^2")) == "2.0^3.0^2.0"
    assert format_expr(parse("(2^3)^2")) == "(2.0^3.0)^2.0"
    assert format_expr(parse("-(t+1)")) == "-(t+1.0)"


def test_collect_vars():
    assert collect_vars(parse("t*sin(x2)+x1", ("t", "x1", "x2"))) == \
        {"t", "x1", "x2"}
    assert collect_vars(parse("1+2")) == set()


# ---------------------------------------------------------------------------
# matrix- and vector-valued functions

def test_eval_matrix_goldens():
    D = parse_matrix([["1/(1+t^2)", "t"], ["-t", "0"]], ("t",))
    assert np.allclose(D(0.0), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    A = parse_matrix([["t", "sin(t)"], ["t^(1/2)", "1"]], ("t",))
    assert np.allclose(A(0.0), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)
    Z = parse_matrix([["0", "0"], ["0", "0"]], ("t",))
    assert np.allclose(Z(3.7), np.zeros((2, 2)), atol=0.0)


def test_eval_matrix_error_location():
    F = parse_matrix([["1", "sqrt(0-t)"], ["0", "1"]], ("t",))
    with pytest.raises(EvalError, match=r"entry \(1,2\)"):
        F(2.0)


def test_matrix_function_must_be_square():
    with pytest.raises(ValueError):
        parse_matrix([["1", "2", "3"], ["4", "5", "6"]], ("t",))


def test_matrix_function_state_dependence():
    F = parse_matrix([["t", "0"], ["0", "t"]], ("t",))
    assert not F.state_dependent
    G = parse_matrix([["x1", "0"], ["0", "t"]], ("t", "x1", "x2"))
    assert G.state_dependent


def test_vector_function_eval_and_error():
    w = parse_vector(["t^(11/4)*cos(x1)", "1"], ("t", "x1", "x2"))
    out = w(1.0, np.array([0.0, 0.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-15)
    bad = parse_vector(["sqrt(0-t)", "1"], ("t",))
    with pytest.raises(EvalError, match="entry 1"):
        bad(2.0)


def test_matrix_function_compiled_matches_interpreted():
    F = parse_matrix([["t*(t^6+1)^(1/2)", "sin(t)"], ["exp(0-t)", "1"]],
                     ("t",))
    fast = F.compiled()
    for t in (0.0, 0.3, 1.0, 2.5, 7.0):
        assert np.array_equal(fast(t), F(t))


def test_matrix_function_batch_matches_scalar_calls():
    F = parse_matrix([["t*(t^6+1)^(1/2)", "sin(t)"], ["exp(0-t)", "1"]],
                     ("t",))
    fast = F.compiled()
    ts = np.linspace(0.0, 7.0, 50)
    got = fast(ts)
    assert got.shape == (50, 2, 2) and got.flags.c_contiguous
    assert np.array_equal(got, np.array([fast(float(t)) for t in ts]))
    assert fast(ts[:0]).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="1-d"):
        fast(ts.reshape(5, 10))


def test_matrix_function_batch_domain_error_is_scalar_error():
    # the batch crosses sqrt's domain at t = 1; it raises what a scalar
    # call at its first failing time (1.25) raises
    F = parse_matrix([["sqrt(1-t)", "0"], ["t", "1"]], ("t",))
    fast = F.compiled()
    with pytest.raises(EvalError) as scalar:
        fast(1.25)
    with pytest.raises(EvalError) as batch:
        fast(np.linspace(0.0, 2.0, 9))
    assert str(batch.value) == str(scalar.value)
    assert "entry (1,1)" in str(batch.value)
    assert np.array_equal(fast(np.linspace(0.0, 1.0, 5))[:, 0, 0],
                          [math.sqrt(1.0 - t) for t in np.linspace(0, 1, 5)])


def test_matrix_function_equality_and_formatting():
    F = parse_matrix([["t", "1"], ["0", "t"]], ("t",))
    G = parse_matrix([["t", "1"], ["0", "t"]], ("t",))
    assert F == G
    assert F.formatted()[0][0] == "t"
    # formatted strings parse back to the same grid
    H = parse_matrix(F.formatted(), ("t",))
    assert H == F


def test_eval_matrix_function_of_t_and_state():
    K = parse_matrix([["x1", "t"], ["0", "x2"]], ("t", "x1", "x2"))
    got = K(2.0, np.array([3.0, 4.0]))
    assert np.allclose(got, [[3.0, 2.0], [0.0, 4.0]], atol=0.0)
