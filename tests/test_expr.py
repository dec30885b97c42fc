import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjikit import expr as ex
from hjikit import systems as sy


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


def _random_ast(rng, n, m, depth):
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
        return ex.Neg(_random_ast(rng, n, m, depth - 1))
    if pick == 1:
        op = "+-*/"[rng.integers(0, 4)]
        return ex.Bin(op, _random_ast(rng, n, m, depth - 1),
                      _random_ast(rng, n, m, depth - 1))
    fn = ["abs", "sign", "cbrt", "min", "max"][rng.integers(0, 5)]
    arity = ex.FUNCTION_ARITY[fn]
    return ex.Call(fn, tuple(_random_ast(rng, n, m, depth - 1) for _ in range(arity)))


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------

def test_parse_eval_worked_examples():
    e = ex.parse("abs(x1)*(-x1+abs(x2)+u1)", 2, 2)
    assert ex.evaluate(e, [1, 1], [0, 0]) == 0.0
    assert ex.evaluate(ex.parse("x1", 1, 0), [3.5]) == 3.5
    e2 = ex.parse("3*pow(cbrt(x2),4)*(-x1-x2+u2)", 2, 2)
    assert ex.evaluate(e2, [1, 1], [0, 0]) == pytest.approx(-6.0, abs=1e-14)


def test_eval_examples():
    assert ex.evaluate(ex.parse("sign(x1)", 1, 0), [-2.0]) == -1.0
    assert ex.evaluate(ex.parse("min(u1,max(x1,0))", 1, 1), [5.0], [3.0]) == 3.0
    assert ex.evaluate(ex.parse("pow(cbrt(x1),2)", 1, 0), [-8.0]) == pytest.approx(4.0)


def test_sign_zero_and_abs_ray_linearity():
    assert ex.evaluate(ex.parse("sign(x1)", 1, 0), [0.0]) == 0.0
    e = ex.parse("abs(x1)", 1, 0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t, x = rng.uniform(-5, 5, 2)
        assert ex.evaluate(e, [t * x]) == pytest.approx(abs(t) * ex.evaluate(e, [x]))


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
    err = None
    try:
        ex.parse("x1 * (x1 + ", 1, 0)
    except ex.ExprSyntaxError as e:
        err = e
    assert err is not None and err.pos >= 10


def test_eval_domain_errors():
    with pytest.raises(ex.EvalError, match="division"):
        ex.evaluate(ex.parse("1/x1", 1, 0), [0.0])
    with pytest.raises(ex.EvalError, match="sqrt"):
        ex.evaluate(ex.parse("sqrt(x1)", 1, 0), [-1.0])


def test_precedence_and_associativity():
    assert ex.evaluate(ex.parse("2+3*4", 0, 0)) == 14.0
    assert ex.evaluate(ex.parse("2-3-4", 0, 0)) == -5.0
    assert ex.evaluate(ex.parse("24/4/2", 0, 0)) == 3.0
    assert ex.evaluate(ex.parse("-2*3", 0, 0)) == -6.0
    assert ex.evaluate(ex.parse("(2+3)*4", 0, 0)) == 20.0


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


def test_reference_agreement_random():
    """Tree evaluator vs the independent interpreter on 10^4 random ASTs."""
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 10_000:
        ast = _random_ast(rng, 2, 2, 4)
        x = [float(v) for v in rng.uniform(-3, 3, 2)]
        u = [float(v) for v in rng.uniform(-3, 3, 2)]
        try:
            ref = _ref_eval(ast, x, u)
        except (ZeroDivisionError, ValueError, OverflowError):
            with pytest.raises(ex.EvalError):
                ex.evaluate(ast, x, u)
            continue
        if not math.isfinite(ref):
            continue
        got = ex.evaluate(ast, x, u)
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
                scalar = ex.evaluate(ast, X[i], U[i])
            except ex.EvalError:
                continue
            if math.isfinite(scalar):
                assert batch[i] == pytest.approx(scalar, rel=1e-13, abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.floats(-100, 100), st.floats(-100, 100))
def test_eval_hypothesis_min_max_abs(a, b):
    e = ex.parse("min(x1, x2) + max(x1, x2) - x1 - x2", 2, 0)
    assert ex.evaluate(e, [a, b]) == pytest.approx(0.0, abs=1e-9)
    e2 = ex.parse("abs(x1) - max(x1, -x1)", 1, 0)
    assert ex.evaluate(e2, [a]) == 0.0


def test_variables_used():
    ast = ex.parse("x1*u2 + abs(x2)", 2, 2)
    assert ex.variables_used(ast) == {("x", 0), ("x", 1), ("u", 1)}


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


def _assert_matches_closure(ast, rng):
    got_fn, ref_fn = ex.compile_evaluator(ast), _closure_compile(ast)
    for xb, ub in _FIELD_BATCHES:
        X, U = _draw(rng, xb + (2,)), _draw(rng, ub + (2,))
        with np.errstate(all="ignore"):
            got, ref = got_fn(X, U), ref_fn(X, U)
        assert _same_bits(got, ref), (ex.to_source(ast), xb, ub)


@settings(max_examples=300, deadline=None)
@given(ast=_asts, seed=st.integers(0, 2 ** 32 - 1))
def test_generated_evaluator_matches_closure_compiler_bitwise(ast, seed):
    _assert_matches_closure(ast, np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(asts=st.lists(_asts, min_size=1, max_size=4), extra=st.sampled_from(["", "same", "sub"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generated_tuple_matches_stacked_closures_bitwise(asts, extra, seed):
    """A tuple of roots gives one (..., k) array: column j is the j-th root alone,
    also when roots repeat or share subtrees (whose temporaries live on)."""
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
        assert _same_bits(got, np.stack(cols, axis=-1)), ([ex.to_source(a) for a in roots], xb, ub)


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


@pytest.mark.parametrize("node", [
    ex.Call("__import__('os').getcwd", (ex.Var("x", 0),)),
    ex.Bin("**", ex.Var("x", 0), ex.Num(2.0)),
    ex.Var("os", 0),
    ex.Var("x", "0]; import os; X[0"),
    "x1",
])
def test_generated_source_takes_no_text_from_the_ast(node):
    with pytest.raises((TypeError, ValueError, KeyError)):
        ex.compile_evaluator(node)


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
