import copy
import math
import operator
import os
import pickle
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hjikit import expr as ex
from hjikit import systems as sy
from reference import EvalError, evaluate


# ---------------------------------------------------------------------------
# reference interpreter: an independent second implementation used as oracle
# ---------------------------------------------------------------------------

def _ref_eval(node, x, u):
    if isinstance(node, ex.Num):
        return node.value
    if isinstance(node, ex.Var):
        return (x if node.kind == "x" else u)[node.index]
    if isinstance(node, ex.Neg):
        return -_ref_eval(node.arg, x, u)
    if isinstance(node, ex.Bin):
        a = _ref_eval(node.lhs, x, u)
        b = _ref_eval(node.rhs, x, u)
        table = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}
        if node.op in table:
            return table[node.op]()
        if b == 0:
            raise ZeroDivisionError
        return a / b
    args = [_ref_eval(a, x, u) for a in node.args]
    if node.fn == "abs":
        return args[0] if args[0] >= 0 else -args[0]
    if node.fn == "sign":
        return (args[0] > 0) - (args[0] < 0)
    if node.fn == "sqrt":
        if args[0] < 0:
            raise ValueError
        return args[0] ** 0.5
    if node.fn == "cbrt":
        v = args[0]
        return (abs(v) ** (1 / 3)) * ((v > 0) - (v < 0))
    if node.fn == "min":
        return args[0] if args[0] <= args[1] else args[1]
    if node.fn == "max":
        return args[0] if args[0] >= args[1] else args[1]
    if node.fn == "pow":
        return abs(args[0]) ** args[1]
    if node.fn == "spow":
        return ((args[0] > 0) - (args[0] < 0)) * abs(args[0]) ** args[1]
    raise AssertionError(node.fn)


def _random_ast(rng, n, m, depth, fns=("abs", "sign", "cbrt", "min", "max")):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.integers(0, 3)
        if pick == 0:
            # the parser renders negation as a Neg node, never a negative literal
            return ex.Num(round(float(rng.uniform(0, 4)), 3))
        if pick == 1 and n:
            return ex.Var("x", int(rng.integers(0, n)))
        if m:
            return ex.Var("u", int(rng.integers(0, m)))
        return ex.Var("x", int(rng.integers(0, n)))
    pick = rng.integers(0, 4)
    if pick == 0:
        return ex.Neg(_random_ast(rng, n, m, depth - 1, fns))
    if pick == 1:
        op = "+-*/"[rng.integers(0, 4)]
        return ex.Bin(op, _random_ast(rng, n, m, depth - 1, fns),
                      _random_ast(rng, n, m, depth - 1, fns))
    fn = fns[rng.integers(0, len(fns))]
    arity = ex.FUNCTION_ARITY[fn]
    return ex.Call(fn, tuple(_random_ast(rng, n, m, depth - 1, fns) for _ in range(arity)))


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------

def test_parse_eval_worked_examples():
    e = ex.parse("abs(x1)*(-x1+abs(x2)+u1)", 2, 2)
    assert evaluate(e, [1, 1], [0, 0]) == 0.0
    assert evaluate(ex.parse("x1", 1, 0), [3.5]) == 3.5
    e2 = ex.parse("3*pow(cbrt(x2),4)*(-x1-x2+u2)", 2, 2)
    assert evaluate(e2, [1, 1], [0, 0]) == pytest.approx(-6.0, abs=1e-14)


def test_eval_examples():
    assert evaluate(ex.parse("sign(x1)", 1, 0), [-2.0]) == -1.0
    assert evaluate(ex.parse("min(u1,max(x1,0))", 1, 1), [5.0], [3.0]) == 3.0
    assert evaluate(ex.parse("pow(cbrt(x1),2)", 1, 0), [-8.0]) == pytest.approx(4.0)


def test_sign_zero_and_abs_ray_linearity():
    assert evaluate(ex.parse("sign(x1)", 1, 0), [0.0]) == 0.0
    e = ex.parse("abs(x1)", 1, 0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, x = rng.uniform(-5, 5, 2)
        assert evaluate(e, [t * x]) == pytest.approx(abs(t) * evaluate(e, [x]))


def test_parse_errors_carry_position():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("", 1, 0)
    with pytest.raises(ex.ExprSyntaxError, match="unexpected"):
        ex.parse("x1 + ", 1, 0)
    with pytest.raises(ex.ExprSyntaxError, match="unknown identifier"):
        ex.parse("y1 + 1", 1, 0)
    with pytest.raises(ex.ExprSyntaxError, match="out of range"):
        ex.parse("x3", 2, 0)
    with pytest.raises(ex.ExprSyntaxError, match="out of range"):
        ex.parse("u1", 1, 0)
    with pytest.raises(ex.ExprSyntaxError, match="argument"):
        ex.parse("min(x1)", 1, 0)
    with pytest.raises(ex.ExprSyntaxError, match="unknown function"):
        ex.parse("sin(x1)", 1, 0)
    # the message and 0-based position of the first bad token the parser reaches
    for src, message, pos in [
        ("x1 ) ?", "unexpected token ')'", 3),
        ("1.2.3*x1", "malformed number '1.2.3'", 0),
        ("..5", "malformed number '..5'", 0),
        (".", "malformed number '.'", 0),
        ("2e", "unexpected token 'e'", 1),
        ("1e+", "unexpected token 'e'", 1),
        ("1.e-3e", "unexpected token 'e'", 5),
        ("1e5x1", "unexpected token 'x1'", 3),
        ("x1 ? 2", "unexpected character '?'", 3),
        ("(x1", "expected ')', got ''", 3),
        ("abs x1", "unknown identifier 'abs'", 0),
        ("x_1", "unknown identifier 'x_1'", 0),
        ("+x1", "unexpected token '+'", 0),
        ("x1,x1", "unexpected token ','", 2),
        ("x1 + ", "unexpected token ''", 5),
        ("x1 * (x1 + ", "unexpected token ''", 11),
        ("max(x1, 2, 3)", "max takes 2 argument(s), got 3", 0),
        (" \t\n", "empty expression", 0),
        # non-ASCII letters and digits are not in the grammar: each fails where it stands
        ("x1²", "unexpected character '²'", 2),
        ("x١", "unexpected character '١'", 1),
        ("١", "unexpected character '١'", 0),
    ]:
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse(src, 1, 0)
        assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos), src


def test_any_unicode_whitespace_separates_tokens():
    ref = ex.parse("x1 + 2*x1", 1, 0)
    for space in ("\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", " "):
        assert ex.parse(f"{space}x1{space}+{space}2{space}*x1{space}", 1, 0) == ref


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="division"):
        evaluate(ex.parse("1/x1", 1, 0), [0.0])
    with pytest.raises(EvalError, match="sqrt"):
        evaluate(ex.parse("sqrt(x1)", 1, 0), [-1.0])


@pytest.mark.parametrize("src, x", [("pow(x1, -1)", 0.0), ("pow(x1, 2000)", 10.0),
                                    ("spow(x1, -1)", 0.0)])
def test_eval_pow_out_of_range_is_an_eval_error(src, x):
    """0 to a negative power and a power past the float range (inf compiled)."""
    e = ex.parse(src, 1, 0)
    with np.errstate(all="ignore"):
        assert not np.isfinite(ex.compile_evaluator(e)(np.array([[x]]), None)[0])
    with pytest.raises(EvalError, match="pow"):
        evaluate(e, [x])


@pytest.mark.parametrize("src", ["sign(x1)", "spow(x1, 2)"])
def test_eval_sign_of_nan_is_nan(src):
    """The reference evaluator gives nan where the compiled tables do."""
    e = ex.parse(src, 1, 0)
    assert math.isnan(ex.compile_evaluator(e)(np.array([[math.nan]]), None)[0])
    assert math.isnan(ex.compile_evaluator(e, ex.SCALAR)([math.nan], ()))
    assert math.isnan(evaluate(e, [math.nan]))


def test_precedence_and_associativity():
    assert evaluate(ex.parse("2+3*4", 0, 0)) == 14.0
    assert evaluate(ex.parse("2-3-4", 0, 0)) == -5.0
    assert evaluate(ex.parse("24/4/2", 0, 0)) == 3.0
    assert evaluate(ex.parse("-2*3", 0, 0)) == -6.0
    assert evaluate(ex.parse("(2+3)*4", 0, 0)) == 20.0


# ---------------------------------------------------------------------------
# round trip and reference agreement
# ---------------------------------------------------------------------------

CORPUS = [
    ("abs(x1)*(-x1+abs(x2)+u1)", 2, 2),
    ("x2*(-x1-abs(x2)+u2)", 2, 2),
    ("3*pow(cbrt(x2),4)*(-x1-x2+u2)", 2, 2),
    ("pow(x1*x2,3) - x1*abs(x1)", 2, 0),
    ("-spow(x1*x2,3) - x2*abs(x2)", 2, 0),
    ("sign(x1)*max(min((abs(x1)-u1)/2, abs(x1)), 0)", 1, 1),
    ("1/(1+x1*x1)", 1, 0),
    ("min(u1,max(x1,0)) - sqrt(abs(x2))", 2, 1),
]


@pytest.mark.parametrize("src,n,m", CORPUS)
def test_pretty_roundtrip_corpus(src, n, m):
    ast = ex.parse(src, n, m)
    assert ex.parse(ex.to_source(ast), n, m) == ast


def test_pretty_roundtrip_random_asts():
    rng = np.random.default_rng(0)
    for _ in range(400):
        ast = _random_ast(rng, 2, 2, 4)
        assert ex.parse(ex.to_source(ast), 2, 2) == ast


def test_equal_subtrees_are_one_node():
    """Nodes are interned: equal subtrees are one object, a literal is keyed by its type
    and repr, and a node lives only while something holds it."""
    e = ex.parse("abs(x1) + abs(x1)", 1, 0)
    assert e.lhs is e.rhs and e.lhs.args[0] is ex.Var("x", 0)
    assert ex.Num(0.0) is not ex.Num(-0.0) and ex.Num(1) is not ex.Num(1.0)
    assert ex.Bin("*", ex.Num(2.0), ex.Var("u", 1)) is ex.parse("2*u2", 1, 2)
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e
    for src, n, m in CORPUS:
        ast = ex.parse(src, n, m)
        assert ex.parse(ex.to_source(ast), n, m) is ast
    rng = np.random.default_rng(0)
    for _ in range(400):
        ast = _random_ast(rng, 2, 2, 4)
        assert ex.parse(ex.to_source(ast), 2, 2) is ast
    e = ex.parse("sign(x2)*x1 - 7.125", 2, 0)
    ex.compile_evaluator(e)
    ref = weakref.ref(e)
    del e
    assert ref() is not None                # the parse and compile caches hold it
    ex.parse.cache_clear()
    ex.compile_evaluator.cache_clear()
    assert ref() is None


# Python's default recursion limit (1000) is in force: no pass over an AST recurses
@pytest.mark.parametrize("src, x, value, slope", [
    (" + ".join(["x1"] * 10_000), 0.5, 5000.0, 10_000.0),
    ("(" * 10_000 + "x1" + ")" * 10_000, -2.0, -2.0, 1.0),
    ("abs(" * 10_000 + "x1" + ")" * 10_000, -2.0, 2.0, -1.0),
    ("-" * 10_000 + "x1", -2.0, -2.0, 1.0),
], ids=["sum", "parentheses", "abs", "negations"])
def test_deep_and_long_expressions(src, x, value, slope):
    e = ex.parse(src, 1, 0)
    X = np.array([[x]])
    assert ex.compile_evaluator(e)(X, None).tolist() == [value]
    assert ex.compile_evaluator(e, ex.SCALAR)([x], ()) == value
    v, lo, hi, dep = ex.compile_evaluator(e, ex.TANGENT)(X, None)
    assert v.tolist() == [value] and lo.tolist() == hi.tolist() == [[slope]] and dep.all()
    assert evaluate(e, [x]) == value
    assert ex.parse(ex.to_source(e), 1, 0) is e


def test_reference_agreement_random():
    """Tree evaluator vs the independent interpreter on 10^4 random ASTs, pow and spow
    among their functions."""
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 10_000:
        ast = _random_ast(rng, 2, 2, 4, ("abs", "sign", "cbrt", "min", "max", "pow", "spow"))
        x = [float(v) for v in rng.uniform(-3, 3, 2)]
        u = [float(v) for v in rng.uniform(-3, 3, 2)]
        try:
            ref = _ref_eval(ast, x, u)
        except (ZeroDivisionError, ValueError, OverflowError):
            with pytest.raises(EvalError):
                evaluate(ast, x, u)
            continue
        if not math.isfinite(ref):
            continue
        got = evaluate(ast, x, u)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
        checked += 1


def test_compiled_matches_tree_eval():
    rng = np.random.default_rng(2)
    for _ in range(300):
        ast = _random_ast(rng, 2, 2, 4)
        fn = ex.compile_evaluator(ast)
        X = rng.uniform(-3, 3, (16, 2))
        U = rng.uniform(-3, 3, (16, 2))
        with np.errstate(all="ignore"):
            batch = fn(X, U)
        for i in range(16):
            try:
                scalar = evaluate(ast, X[i], U[i])
            except EvalError:
                continue
            if math.isfinite(scalar):
                assert batch[i] == pytest.approx(scalar, rel=1e-13, abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100))
def test_eval_hypothesis_min_max_abs(a, b):
    e = ex.parse("min(x1, x2) + max(x1, x2) - x1 - x2", 2, 0)
    assert evaluate(e, [a, b]) == pytest.approx(0.0, abs=1e-9)
    e2 = ex.parse("abs(x1) - max(x1, -x1)", 1, 0)
    assert evaluate(e2, [a]) == 0.0


# ---------------------------------------------------------------------------
# generated evaluators against a frozen copy of the closure compiler
# ---------------------------------------------------------------------------

def _closure_compile(e):
    """The tree-of-closures compiler that generated evaluators replaced (reference)."""
    if isinstance(e, ex.Num):
        v = e.value
        return lambda X, U: np.full(np.shape(X)[:-1], v)
    if isinstance(e, ex.Var):
        i = e.index
        if e.kind == "x":
            return lambda X, U: np.asarray(X)[..., i]
        return lambda X, U: np.asarray(U)[..., i]
    if isinstance(e, ex.Neg):
        f = _closure_compile(e.arg)
        return lambda X, U: -f(X, U)
    if isinstance(e, ex.Bin):
        fa, fb = _closure_compile(e.lhs), _closure_compile(e.rhs)
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}[e.op]
        return lambda X, U: op(fa(X, U), fb(X, U))
    fs = [_closure_compile(a) for a in e.args]
    if e.fn == "pow":
        return lambda X, U: np.abs(fs[0](X, U)) ** fs[1](X, U)
    if e.fn == "spow":
        def _spow(X, U):
            a = fs[0](X, U)
            return np.sign(a) * np.abs(a) ** fs[1](X, U)
        return _spow
    fn = {"abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "cbrt": np.cbrt,
          "min": np.minimum, "max": np.maximum}[e.fn]
    return lambda X, U: fn(*(f(X, U) for f in fs))


def _same_bits(got, ref):
    return (type(got) is type(ref) and np.shape(got) == np.shape(ref)
            and np.asarray(got).dtype == np.asarray(ref).dtype
            and np.asarray(got).tobytes() == np.asarray(ref).tobytes())


# exponents 2 and 0.5 hit numpy's square/sqrt fast path when they are scalars;
# 1e400 parses to inf
_LITERALS = [0.0, 1.0, 2.0, 0.5, -1.0, -2.0, 3.0, 0.3, 1e-300, 1e400]
_leaves = st.one_of(st.sampled_from(_LITERALS).map(ex.Num),
                    st.builds(ex.Var, st.sampled_from("xu"), st.integers(0, 1)))


def _extend(kids):
    return st.one_of(
        kids.map(ex.Neg),
        st.builds(ex.Bin, st.sampled_from("+-*/"), kids, kids),
        st.builds(lambda fn, a: ex.Call(fn, (a,)),
                  st.sampled_from(["abs", "sign", "sqrt", "cbrt"]), kids),
        st.builds(lambda fn, a, b: ex.Call(fn, (a, b)),
                  st.sampled_from(["min", "max", "pow", "spow"]), kids, kids),
        st.builds(lambda fn, a, k: ex.Call(fn, (a, ex.Num(k))),
                  st.sampled_from(["pow", "spow"]), kids, st.sampled_from([2.0, 0.5, -1.0, -2.0])),
        kids.map(lambda a: ex.Bin("+", ex.Call("abs", (a,)), ex.Bin("*", a, a))),  # repeats
    )


_asts = st.recursive(_leaves, _extend, max_leaves=10)

# (batch shape of X, batch shape of U): one point (0-d results), a (1, n)
# batch, equal batches, one state against many inputs and the reverse, and an
# outer-product broadcast
_FIELD_BATCHES = [((), ()), ((1,), (1,)), ((17,), (17,)), ((), (6,)), ((7,), ()),
                  ((3, 1), (1, 4)), ((40,), (40,))]


def _draw(rng, shape):
    v = rng.uniform(-3, 3, shape)
    pick = rng.random(shape)
    v[pick < 0.15] = 0.0
    v[(pick >= 0.15) & (pick < 0.2)] = -0.0
    v[(pick >= 0.2) & (pick < 0.25)] = 1.0
    return v


def _assert_matches_closure(ast, rng, same=_same_bits):
    got_fn, ref_fn = ex.compile_evaluator(ast), _closure_compile(ast)
    for xb, ub in _FIELD_BATCHES:
        X, U = _draw(rng, xb + (2,)), _draw(rng, ub + (2,))
        with np.errstate(all="ignore"):
            got, ref = got_fn(X, U), ref_fn(X, U)
        assert same(got, ref), (ex.to_source(ast), xb, ub)


def _same_bits_nan_alike(got, ref):
    """``_same_bits`` with every nan alike (:func:`_same_or_both_nan`)."""
    return (type(got) is type(ref) and np.asarray(got).dtype == np.asarray(ref).dtype
            and _same_or_both_nan(got, ref))


_NAN = ex.Bin("/", ex.Num(0.0), ex.Num(0.0))


@settings(max_examples=300, deadline=None)
@given(ast=_asts, seed=st.integers(0, 2 ** 32 - 1))
@example(ast=ex.Bin("+", ex.Var("x", 0), ex.Bin("+", ex.Call("abs", (_NAN,)),
                                                ex.Bin("*", _NAN, _NAN))), seed=0)
def test_generated_evaluator_matches_closure_compiler_bitwise(ast, seed):
    """Bit for bit, with every nan alike.  Both add the same operands in the same order,
    but the generated code folds an x-free constant subtree on 0-d arrays where the
    closures compute it on arrays of X's batch shape, and numpy's 0-d and array loops
    return different ones of two nan operands: +nan + -nan is -nan on 0-d arrays and
    +nan on arrays (the pinned example: abs(0/0) + (0/0)*(0/0))."""
    _assert_matches_closure(ast, np.random.default_rng(seed), _same_bits_nan_alike)


@settings(max_examples=150, deadline=None)
@given(asts=st.lists(_asts, min_size=1, max_size=4), extra=st.sampled_from(["", "same", "sub"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(asts=[ex.Bin("+", ex.Var("x", 0), ex.Bin("+", ex.Call("abs", (_NAN,)),
                                                  ex.Bin("*", _NAN, _NAN)))], extra="", seed=0)
def test_generated_tuple_matches_stacked_closures_bitwise(asts, extra, seed):
    """A tuple of roots gives one (..., k) array: column j is the j-th root alone,
    also when roots repeat or share subtrees (whose temporaries live on).  Bit for bit,
    with every nan alike, as in the test above (the pinned example)."""
    roots = tuple(asts) + {"": (), "same": (asts[0],), "sub": (ex.Neg(asts[0]),)}[extra]
    fn, refs = ex.compile_evaluator(roots), [_closure_compile(a) for a in roots]
    rng = np.random.default_rng(seed)
    for xb, ub in _FIELD_BATCHES:
        X, U = _draw(rng, xb + (2,)), _draw(rng, ub + (2,))
        with np.errstate(all="ignore"):
            cols = [f(X, U) for f in refs]
            if len({np.shape(c) for c in cols}) > 1:       # np.stack needs one shape
                continue
            got = fn(X, U)
        assert _same_bits_nan_alike(got, np.stack(cols, axis=-1)), \
            ([ex.to_source(a) for a in roots], xb, ub)


@settings(max_examples=150, deadline=None)
@given(asts=st.lists(_asts, min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_split_evaluator_matches_the_whole_bitwise(asts, seed):
    """The input pass over a stack of input samples, then the state pass on each sample's
    slice of its columns, gives the whole evaluator's bits, every nan alike (which nan a
    sum of two comes out depends on the loop, and so on its position in the array); the
    input pass reads no x."""
    roots = tuple(asts)
    (inputs, state), whole = ex.split_evaluator(roots), ex.compile_evaluator(roots)
    rng = np.random.default_rng(seed)
    for batch in ((1,), (17,)):
        X, U = _draw(rng, batch + (2,)), _draw(rng, (3,) + batch + (2,))
        with np.errstate(all="ignore"):
            W = inputs(np.empty(U.shape[:-1] + (0,)), U)
            for i in range(3):
                got, ref = state(X, W[i]), whole(X, U[i])
                assert type(got) is type(ref) and _same_or_both_nan(got, ref), \
                    [ex.to_source(a) for a in roots]


def _asts_over(n, m):
    """_asts over x1..xn and u1..um."""
    leaves = st.one_of(st.sampled_from(_LITERALS).map(ex.Num),
                       st.builds(ex.Var, st.just("x"), st.integers(0, n - 1)),
                       *([st.builds(ex.Var, st.just("u"), st.integers(0, m - 1))] if m else []))
    return st.recursive(leaves, _extend, max_leaves=8)


# roots added after the drawn ones: a repeat, roots that read root 0's value (written in
# place when its last operation is + - * /), bare reads and x-free roots (copied)
_EXTRA_ROOTS = {
    "same": lambda r, n, m: r[0],
    "reads": lambda r, n, m: ex.Bin("*", r[0], ex.Var("x", n - 1)),
    "under": lambda r, n, m: ex.Call("abs", (ex.Bin("-", r[0], r[-1]),)),
    "x": lambda r, n, m: ex.Var("x", 0),
    "u": lambda r, n, m: ex.Var("u", m - 1) if m else ex.Num(2.0),
    "free": lambda r, n, m: ex.Bin("+", ex.Num(0.5), ex.Var("u", 0)) if m else ex.Num(-0.0),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), m=st.integers(0, 2),
       extra=st.lists(st.sampled_from(sorted(_EXTRA_ROOTS)), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_state_pass_matches_the_float_state_pass_bitwise(data, n, m, extra, seed):
    """The ROWS state pass reads X (n, B) and the frontier (k, B) by rows and writes the
    caller's (n, B) buffer: every row is bitwise the column the FLOAT state pass gives,
    with shared, repeated, in-place, bare and x-free roots, and the frontier rows taken
    straight from the input pass's buffer."""
    roots = tuple(data.draw(st.lists(_asts_over(n, m), min_size=1, max_size=3)))
    roots += tuple(_EXTRA_ROOTS[e](roots, n, m) for e in extra)
    (inputs, state), (_, rows) = ex.split_evaluator(roots), ex.split_evaluator(roots, ex.ROWS)
    rng = np.random.default_rng(seed)
    for B in (1, 17):
        X, U = _draw(rng, (3, B, n)), _draw(rng, (3, B, m))
        with np.errstate(all="ignore"):
            W = inputs(np.empty(U.shape[:-1] + (0,)), U)
            for i in range(3):
                O = np.full((len(roots), B), np.nan)
                got = rows(np.ascontiguousarray(X[i].T), np.moveaxis(W, -1, 0)[:, i], O)
                ref = state(X[i], W[i])
                assert got is O and _same_bits(O, np.ascontiguousarray(ref.T)), \
                    [ex.to_source(a) for a in roots]


@pytest.mark.parametrize("src", [
    "-0.3", "0", "1", "-(-0)", "1e400", "-1e400*x1", "2*3 - 1/4", "u1", "u1 + 1",
    "pow(x1, 2)", "pow(x1, 0.5)", "pow(x1, -1)", "pow(x1, -2)", "spow(x1, 2)", "spow(u2, 0.5)",
    "spow(x1*x2, -1)", "spow(x2, -2)", "pow(2, x1)", "pow(2, 0.5)", "sqrt(2)", "cbrt(-3)",
    "pow(u1 + 1, 2)", "sqrt(abs(u1) + 1) + x1", "cbrt(u1 - 2) * x2",
    "spow(x1*x2, 3) - x1*abs(x1) + spow(x1*x2, 3)", "3*pow(cbrt(x2),4)*(-x1-x2)",
    "min(x1, 0) + max(0, -x2) + min(-0, 0)",
])
def test_generated_evaluator_special_fields(src):
    _assert_matches_closure(ex.parse(src, 2, 2), np.random.default_rng(len(src)))


def test_generated_evaluator_keeps_signed_zero_literals_apart():
    pos, neg = ex.compile_evaluator(ex.Num(0.0)), ex.compile_evaluator(ex.Num(-0.0))
    assert ex.Num(0.0) != ex.Num(-0.0) and ex.Num(1) != ex.Num(1.0)
    X = np.zeros((3, 1))
    assert _same_bits(pos(X, None), np.zeros(3)) and _same_bits(neg(X, None), np.full(3, -0.0))
    _assert_matches_closure(ex.Bin("+", ex.Var("x", 0), ex.Num(-0.0)), np.random.default_rng(0))


def test_parse_and_compile_are_memoized():
    a = ex.parse("abs(x1)*(-x1+abs(x2))", 2, 0)
    assert ex.parse("abs(x1)*(-x1+abs(x2))", 2, 0) is a
    assert ex.compile_evaluator(a) is ex.compile_evaluator(ex.parse(ex.to_source(a), 2, 0))
    for _ in range(2):                     # errors are raised again, never cached
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("x1 +", 1, 0)


def test_each_op_table_compiles_apart_and_is_memoized():
    """The tangent and scalar tables generate their own functions, cached like the
    float one.  The tangent function returns values, coordinate-major bounds (n, Q)
    and the coordinates it depends on; the scalar one takes and returns Python floats."""
    a = ex.parse("abs(x1)*(-x1+2)", 2, 0)
    tangent, scalar = ex.compile_evaluator(a, ex.TANGENT), ex.compile_evaluator(a, ex.SCALAR)
    assert tangent is ex.compile_evaluator(a, ex.TANGENT)
    assert scalar is ex.compile_evaluator(a, ex.SCALAR)
    assert len({id(tangent), id(scalar), id(ex.compile_evaluator(a))}) == 3
    v, lo, hi, dep = tangent(np.array([[-1.0, 5.0], [2.0, 0.0]]), None)
    assert v.tolist() == [3.0, 0.0] and dep.ravel().tolist() == [True, False]
    assert lo.tolist() == hi.tolist() == [[-4.0, -2.0], [-0.0, -0.0]]
    got = [scalar([-1.0, 5.0], ()), scalar([2.0, 0.0], ())]
    assert got == [3.0, 0.0] and all(type(g) is float for g in got)
    assert ex.compile_evaluator((a, ex.Var("x", 1)), ex.SCALAR)([2.0, 0.5], ()) == (0.0, 0.5)


@pytest.mark.parametrize("node", [
    ex.Call("__import__('os').getcwd", (ex.Var("x", 0),)),
    ex.Bin("**", ex.Var("x", 0), ex.Num(2.0)),
    ex.Var("os", 0),
    ex.Var("x", "0]; import os; X[0"),
    "x1",
])
def test_generated_source_takes_no_text_from_the_ast(node):
    for table in (ex.FLOAT, ex.SCALAR, ex.ROWS):
        with pytest.raises((TypeError, ValueError, KeyError)):
            ex.compile_evaluator(node, table)


# ---------------------------------------------------------------------------
# the scalar table: one point in Python floats, bitwise the float table's batch of one
# ---------------------------------------------------------------------------

def _same_or_both_nan(got, ref):
    """Bit for bit, with every nan alike: when both operands of a sum or product are
    nan, IEEE 754 leaves which one comes out (and so its sign) to the implementation,
    and CPython's compiled a + b returns the other operand than numpy's loop."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(
        (got.view(np.int64) == ref.view(np.int64)) | (np.isnan(got) & np.isnan(ref))))


def _has_pow(e) -> bool:
    return any("pow(" in ex.to_source(a) for a in (e if isinstance(e, tuple) else (e,)))


def _assert_scalar_matches_float(e, x, u):
    """SCALAR at (x, u) against FLOAT on the (1, n) batch of that point, and on the
    single point () too unless e has pow or spow: there a 0-d exponent 2, 0.5 or -1
    takes numpy's square, sqrt or reciprocal loop, so FLOAT's () and (1,) batches
    differ in the last bit themselves."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    fn = ex.compile_evaluator(e)
    with np.errstate(all="ignore"):
        got = ex.compile_evaluator(e, ex.SCALAR)(x.tolist(), u.tolist())
        one, point = fn(x[None], u[None])[0], fn(x, u)
    assert isinstance(got, tuple) == isinstance(e, tuple)
    assert _same_or_both_nan(got, one), (x, u, got, one)
    assert _has_pow(e) or _same_or_both_nan(got, point), (x, u, got, point)


def _point(rng):
    """_draw's values for (x1, x2, u1, u2), each nan or +-inf a fifth of the time."""
    v = _draw(rng, (4,))
    special = rng.random(4) < 0.2
    v[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
    return v[:2], v[2:]


@settings(max_examples=300, deadline=None)
@given(asts=st.lists(_asts, min_size=1, max_size=3), as_tuple=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_table_matches_float_table_bitwise(asts, as_tuple, seed):
    """No Python exception either: division by 0 and sqrt of a negative give numpy's
    inf and nan, and nan, inf and +-0 inputs run through every operator."""
    e = tuple(asts) if as_tuple else asts[0]
    rng = np.random.default_rng(seed)
    for _ in range(8):
        _assert_scalar_matches_float(e, *_point(rng))


_FNAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("src, x, expected", [
    ("x1 / x2", (1.0, 0.0), _INF), ("x1 / x2", (1.0, -0.0), -_INF), ("x1 / x2", (0.0, 0.0), _FNAN),
    ("x1 / 0", (-2.0, 0.0), -_INF), ("x1 / 2", (3.0, 0.0), 1.5), ("sqrt(x1)", (-1.0, 0.0), _FNAN),
    ("sqrt(x1)", (-0.0, 0.0), -0.0), ("cbrt(x1)", (-8.0, 0.0), -2.0),
    ("sign(x1)", (-0.0, 0.0), 0.0), ("sign(x1)", (_FNAN, 0.0), _FNAN),
    ("sign(x1)", (-3.0, 0.0), -1.0),
    ("min(x1, x2)", (0.0, -0.0), -0.0), ("min(x1, x2)", (-0.0, 0.0), 0.0),
    ("max(x1, x2)", (0.0, -0.0), -0.0), ("min(x1, x2)", (_FNAN, 1.0), _FNAN),
    ("max(x1, x2)", (1.0, _FNAN), _FNAN), ("max(x1, x2)", (-_INF, 2.0), 2.0),
    ("pow(x1, 2)", (-1.7, 0.0), None), ("spow(x1, 0.5)", (-2.3, 0.0), None),
    ("pow(x1, -1)", (0.0, 0.0), _INF), ("pow(x1, x2)", (1.3, 2.0), None),
    ("x1 * x2 - x1", (_INF, 0.0), _FNAN), ("abs(x1) + x2", (-0.0, -0.0), 0.0),
    ("3*pow(cbrt(x2),4)*(-x1-x2)", (0.4, -0.9), None),
])
def test_scalar_table_special_values(src, x, expected):
    """numpy's rules on one float: sign(-0) = 0, nan propagates through min and max,
    a min/max tie gives the second argument, and division by 0 is inf or nan."""
    e = ex.parse(src, 2, 0)
    with np.errstate(all="ignore"):
        got = ex.compile_evaluator(e, ex.SCALAR)(list(x), ())
    if expected is not None:
        assert _same_or_both_nan(got, expected)
    _assert_scalar_matches_float(e, x, ())


def _combine_reference(system, x, u):
    """The per-component sum ``dynamics`` used before fields were compiled whole:
    c_j = g0_j(x) + w_1 g_1j(x) + ..., w_i = u_i (or phi(u_i)), closure-compiled."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if isinstance(system, sy.GeneralSystem):
        return np.stack([_closure_compile(ex.parse(s, system.n, system.m))(x, u)
                         for s in system.F], axis=-1)
    phi = (lambda r: r) if system.input_affine else system.phi_apply
    w = [phi(u[..., i]) for i in range(system.m)]
    comps = []
    for j, src in enumerate(system.g0):
        c = _closure_compile(ex.parse(src, system.n, 0))(x, None)
        for wi, gi in zip(w, system.g):
            c = c + wi * _closure_compile(ex.parse(gi[j], system.n, 0))(x, None)
        comps.append(c)
    return np.stack(comps, axis=-1)


_REFERENCE_SYSTEMS = [e.system for e in sy.zoo()] + [
    sy.AffineSystem(1, 1, ("1",), (("1",),)),                 # no x anywhere
    sy.AffineSystem(1, 1, ("0",), (("-2",),)),
    sy.AffineSystem(1, 2, ("-0.5",), (("2",), ("x1",)), p=2.0, phi="abs_pow"),
    sy.AffineSystem(2, 1, ("-x1", "-pow(x2, 2)"), (("0.5", "sqrt(abs(x1))"),),
                    p=2.7, phi="signed_pow"),
    sy.GeneralSystem(1, 2, ("u1 + 1 + pow(u2, 2) + pow(u1 + 2, 0.5) - x1",)),
]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, len(_REFERENCE_SYSTEMS) - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_system_dynamics_matches_combine_reference_bitwise(k, seed):
    system = _REFERENCE_SYSTEMS[k]
    rng = np.random.default_rng(seed)
    for xb, ub in _FIELD_BATCHES * 3:
        x, u = _draw(rng, xb + (system.n,)), _draw(rng, ub + (system.m,))
        with np.errstate(all="ignore"):
            got, ref = system.dynamics(x, u), _combine_reference(system, x, u)
        assert _same_bits(got, ref), (system.name, xb, ub)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(0, len(_REFERENCE_SYSTEMS) - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_system_scalar_rhs_matches_dynamics_bitwise(k, seed):
    """The scalar right-hand side, phi's numpy-scalar exponent included, is the
    dynamics of the point's batch of one."""
    system = _REFERENCE_SYSTEMS[k]
    rhs = ex.compile_evaluator(system._rhs_ast, ex.SCALAR)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x, u = _draw(rng, (system.n,)), _draw(rng, (system.m,))
        with np.errstate(all="ignore"):
            got, ref = rhs(x.tolist(), u.tolist()), system.dynamics(x[None], u[None])[0]
        assert type(got) is tuple and _same_or_both_nan(got, ref), (system.name, x, u)


def test_import_leaves_scipy_unloaded():
    """scipy is a test dependency only: neither the import nor the two Simpson
    quadratures (the mollifier's moment table, the 1-D construction) load it."""
    code = ("import sys, hjikit; from hjikit import construct1d, smoothing; hjikit.zoo(); "
            "smoothing._build_i1_table(); construct1d.construct_w(hjikit.zoo_entry("
            "'scalar_linear').system, 1.0, hjikit.builtin('sq_norm'), [0.5, 1.0, 1.5]); "
            "print('scipy' in sys.modules)")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"
