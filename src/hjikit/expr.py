"""Arithmetic expression DSL over state variables x1..xn and input variables u1..um.

Grammar (standard precedence, left-associative):

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | atom
    atom    := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Variables are ``x1..xn`` and ``u1..um``.  The function set is fixed:
``abs``, ``sign``, ``min``, ``max``, ``sqrt``, ``cbrt``, ``pow``, ``spow``.
``pow(a, b)`` means ``|a|**b`` and ``spow(a, b)`` means ``sign(a)*|a|**b``;
``cbrt`` is the real (sign-preserving) cube root, so ``cbrt(x)**4`` / ``pow(cbrt(x), 4)``
encode the real reading of ``x**(4/3)``.  There is no generic ``a^q`` with a
fractional literal exponent and no conditional construct; piecewise functions
are assembled from ``min``/``max``/``abs``/``sign``.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import HjikitError


class ExprSyntaxError(HjikitError):
    """Raised when a source string fails to parse; carries the 0-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(HjikitError):
    """Raised on domain errors during evaluation (division by zero, sqrt of a negative)."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    # 0.0 == -0.0 and 1 == 1.0 as numbers, not as literals: they evaluate differently
    literal: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "literal", (type(self.value), repr(self.value)))


@dataclass(frozen=True)
class Var:
    kind: str  # 'x' or 'u'
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Union[Num, Var, Neg, Bin, Call]

FUNCTION_ARITY = {
    "abs": 1,
    "sign": 1,
    "sqrt": 1,
    "cbrt": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
    "spow": 2,
}


def _cbrt(v: float) -> float:
    # math.cbrt only exists on 3.11+; copysign keeps the real-root reading.
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# One token: whitespace (as str.isspace reads it), then a number (an exponent only where
# digits follow the e), an ASCII name, an operator, or any other character (an error).
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/(),])|(?P<char>\S))")
_LEVELS = ("+-", "*/")     # binary operators, loosest first; all left-associative


class _Parser:
    def __init__(self, src: str, n: int, m: int):
        if not src.strip():
            raise ExprSyntaxError("empty expression", 0)
        self.toks = [(t.lastgroup, t[t.lastgroup], t.start(t.lastgroup))
                     for t in _TOKEN.finditer(src)] + [("eof", "", len(src))]
        self.i, self.n, self.m = 0, n, m

    def peek(self):
        """The next token; a bad character or number raises only when it is reached."""
        kind, text, pos = tok = self.toks[self.i]
        if kind == "char":
            raise ExprSyntaxError(f"unexpected character {text!r}", pos)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {text!r}", pos) from None
        return tok

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Expr:
        e = self._binary()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return e

    def _binary(self, level: int = 0) -> Expr:
        operand = (self._unary if level + 1 == len(_LEVELS)
                   else functools.partial(self._binary, level + 1))
        e = operand()
        while (tok := self.peek())[0] == "op" and tok[1] in _LEVELS[level]:
            self.next()
            e = Bin(tok[1], e, operand())
        return e

    def _unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.next()
            return Neg(self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            e = self._binary()
            self._expect(")")
            return e
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                return self._call(text, pos)
            return self._variable(text, pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)

    def _call(self, name: str, pos: int) -> Call:
        if name not in FUNCTION_ARITY:
            raise ExprSyntaxError(f"unknown function {name!r}", pos)
        self._expect("(")
        args = [self._binary()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            args.append(self._binary())
        self._expect(")")
        arity = FUNCTION_ARITY[name]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))

    def _variable(self, name: str, pos: int) -> Var:
        head, tail = name[0], name[1:]
        if head not in ("x", "u") or not tail.isdigit():
            raise ExprSyntaxError(f"unknown identifier {name!r}", pos)
        index = int(tail)
        bound = self.n if head == "x" else self.m
        if not 1 <= index <= bound:
            raise ExprSyntaxError(
                f"variable {name!r} out of range (declared {head}-dimension is {bound})", pos)
        return Var(head, index - 1)

    def _expect(self, ch: str):
        kind, text, pos = self.next()
        if kind != "op" or text != ch:
            raise ExprSyntaxError(f"expected {ch!r}, got {text!r}", pos)


@functools.lru_cache(maxsize=4096)
def parse(src: str, n: int, m: int) -> Expr:
    """Parse ``src`` into an AST over x1..xn, u1..um.

    Raises :class:`ExprSyntaxError` (with position) on malformed input, unknown
    identifiers, arity mismatches, or variable indices outside the declared
    dimensions.  Memoized: the same arguments return the same (immutable) AST.
    """
    return _Parser(src, n, m).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, x: Sequence[float] = (), u: Sequence[float] = ()) -> float:
    """Evaluate an AST at the point (x, u) in IEEE double precision.

    Raises :class:`EvalError` on division by zero or sqrt of a negative number.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        vec = x if e.kind == "x" else u
        return float(vec[e.index])
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, u)
    if isinstance(e, Bin):
        a = evaluate(e.lhs, x, u)
        b = evaluate(e.rhs, x, u)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    if isinstance(e, Call):
        args = [evaluate(a, x, u) for a in e.args]
        return _apply(e.fn, args)
    raise TypeError(f"not an Expr node: {e!r}")


def _apply(fn: str, args: list) -> float:
    if fn == "abs":
        return abs(args[0])
    if fn == "sign":
        v = args[0]
        return 0.0 if v == 0 else math.copysign(1.0, v)
    if fn == "sqrt":
        if args[0] < 0:
            raise EvalError("sqrt of a negative number")
        return math.sqrt(args[0])
    if fn == "cbrt":
        return _cbrt(args[0])
    if fn == "min":
        return min(args)
    if fn == "max":
        return max(args)
    if fn == "pow":
        return abs(args[0]) ** args[1]
    if fn == "spow":
        v = args[0]
        s = 0.0 if v == 0 else math.copysign(1.0, v)
        return s * abs(v) ** args[1]
    raise TypeError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse to a structurally identical AST)
# ---------------------------------------------------------------------------

def to_source(e: Expr) -> str:
    """Render an AST back to source; ``parse(to_source(e))`` is structurally equal to ``e``."""
    return _fmt(e, 0)


# precedence levels: 1 = additive, 2 = multiplicative, 3 = unary/atom
def _fmt(e: Expr, parent_level: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if e.value < 0 else s
    if isinstance(e, Var):
        return f"{e.kind}{e.index + 1}"
    if isinstance(e, Neg):
        inner = f"-{_fmt(e.arg, 3)}"
        return f"({inner})" if parent_level >= 3 else inner
    if isinstance(e, Bin):
        level = 1 if e.op in "+-" else 2
        # right child needs a bump for non-associative rendering: a-(b-c), a/(b/c)
        lhs = _fmt(e.lhs, level)
        rhs = _fmt(e.rhs, level + 1)
        s = f"{e.op}".join([lhs, rhs])
        return f"({s})" if parent_level > level else s
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, 0) for a in e.args)})"
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Compiled (vectorized) evaluation for hot paths
# ---------------------------------------------------------------------------

# Generated code calls only these names; a field's source text never reaches it.
_NUMPY = {"abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "cbrt": np.cbrt, "empty": np.empty,
          "minimum": np.minimum, "maximum": np.maximum, "full": np.full, "asarray": np.asarray}
_CODE = {"num": "{0}", "full": "full(S, {0})", "x": "X[..., {0}]", "u": "U[..., {0}]",
         "neg": "-{0}", "+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}", "/": "{0} / {1}",
         "abs": "abs({0})", "sign": "sign({0})", "sqrt": "sqrt({0})", "cbrt": "cbrt({0})",
         "min": "minimum({0}, {1})", "max": "maximum({0}, {1})",
         "pow": "abs({0}) ** {1}", "spow": "sign({0}) * abs({0}) ** {1}",
         "abs_pow": "abs({0}) ** {1}", "signed_pow": "sign({0}) * abs({0}) ** {1}"}
# numpy may take other loops for a scalar input (pow: square/sqrt for 2 or 0.5)
_SCALAR_UNSAFE = ("sqrt", "cbrt", "pow", "spow")
# phi of a power-affine input (not in the grammar): a numpy-scalar exponent, as in phi_apply
_PHI = ("abs_pow", "signed_pow")


@dataclass(frozen=True, eq=False)
class OpTable:
    """What the code generator writes for each node: ``code`` maps 'num' (a constant),
    'full' (a constant as an array of X's batch shape), the variable kinds 'x' and 'u',
    'neg' and every operator to a format string over its operands' temporaries, and
    ``scope`` holds the names that code calls.  ``const`` converts a literal, each line
    of ``head`` is written when the body holds one of its marks, and ``first`` and
    ``column`` start a tuple's result from its first root and put root j into it.
    Hashed by identity, for the compile cache."""

    code: dict
    scope: dict
    const: Callable = lambda v: np.asarray(v)[()]
    head: tuple = ()
    first: str = "out = empty({0}.shape + ({1},))"
    column: str = "out[..., {1}] = {0}"


FLOAT = OpTable(_CODE, _NUMPY, head=(("X = asarray(X)", ("X[", "(S,")),
                                     ("S = X.shape[:-1]", ("(S,",)),
                                     ("U = asarray(U)", ("U[",))))


def _sign(a):
    """numpy's sign of one float: 0.0 at -0.0, and nan as it is."""
    return 1.0 if a > 0 else -1.0 if a < 0 else 0.0 if a == 0 else a


def _minimum(a, b):
    """numpy's minimum of two floats: a nan operand (the first of two), or b on a tie."""
    return a if a < b or a != a else b


def _maximum(a, b):
    return a if a > b or a != a else b


def _divide(a, b):
    """a / b, and numpy's inf or nan where Python would raise (b = 0)."""
    return a / b if b else np.divide(a, b)


# One point as sequences of Python floats.  Python's + - * /, negation and abs round
# as numpy's loops do; the other functions call numpy's ufunc on the floats.  pow
# passes its exponent as a one-element array, as the array loop sees it: numpy takes
# square, sqrt or reciprocal for a 0-d exponent 2, 0.5 or -1.  phi's exponent is a
# numpy scalar in FLOAT too, so a float exponent takes the same loop there.
SCALAR = OpTable(
    {**_CODE, "full": "{0}", "x": "X[{0}]", "u": "U[{0}]", "/": "divide({0}, {1})",
     "pow": "power(abs({0}), ({1},))[0]", "spow": "sign({0}) * power(abs({0}), ({1},))[0]",
     "abs_pow": "power(abs({0}), {1})", "signed_pow": "sign({0}) * power(abs({0}), {1})"},
    {"sign": _sign, "sqrt": np.sqrt, "cbrt": np.cbrt, "minimum": _minimum,
     "maximum": _maximum, "divide": _divide, "power": np.power},
    const=float, first="out = ()", column="out += ({0},)")


@functools.lru_cache(maxsize=4096)
def compile_evaluator(e, table: OpTable = FLOAT) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an AST, or a tuple of k ASTs, into one flat numpy function ``f(X, U)`` (memoized).

    ``X`` has shape (..., n) and ``U`` shape (..., m).  With the default table, one AST
    gives values of shape (...,); a tuple gives one (..., k) array whose column j is
    what its j-th AST alone gives.  Inputs on which scalar evaluation would raise let
    IEEE nan/inf propagate.  Each distinct subtree is computed once, across the whole
    tuple, and each temporary is freed after its last use.  Constants are numpy
    scalars, but arrays of X's batch shape in an x-free subtree that is a whole root
    or feeds sqrt/cbrt/pow/spow, so every result is bitwise (and in shape) that of
    evaluating every node as an array.  :data:`SCALAR` generates ``f(X, U)`` over
    one point, X and U sequences of Python floats: a float, or a tuple of k, bitwise
    what the default table gives on the (1, n) batch of that point.  :data:`TANGENT`
    generates, for one AST of x only, ``(value, lo, hi, dep)`` instead: the bounds
    (n, ...) of a subdifferential enclosure and the coordinates the AST depends on
    (see below).
    """
    lines, consts, temps = [], {}, {}      # lines: (statement, temporaries it reads)

    def has_x(node) -> bool:
        return any(kind == "x" for kind, _ in variables_used(node))

    def emit(node, full: bool) -> str:
        if (node, full) in temps:
            return temps[node, full]
        reads = ()
        if isinstance(node, Num):
            const = f"c{len(consts)}"
            consts[const] = table.const(node.value)
            code = table.code["full" if full else "num"].format(const)
        elif isinstance(node, Var):
            code = table.code[node.kind].format(int(node.index))
        elif isinstance(node, Neg):
            reads = (emit(node.arg, full),)
            code = table.code["neg"].format(reads[0])
        elif isinstance(node, (Bin, Call)):
            op, args = ((node.op, (node.lhs, node.rhs)) if isinstance(node, Bin)
                        else (node.fn, node.args))
            reads = tuple(emit(a, op not in _PHI and (
                full or (op in _SCALAR_UNSAFE and not has_x(a)))) for a in args)
            code = table.code[op].format(*reads)
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        temps[node, full] = name = f"t{len(temps)}"
        lines.append((f"{name} = {code}", reads))
        return name

    if isinstance(e, tuple):
        for j, root in enumerate(e):
            t = emit(root, not has_x(root))
            if not j:
                lines.append((table.first.format(t, len(e)), (t,)))
            lines.append((table.column.format(t, j), (t,)))
        out = "out"
    else:
        out = emit(e, not has_x(e))
    last = {t: i for i, (_, reads) in enumerate(lines) for t in reads}      # never the result
    body = "\n".join(f"    {code}" + "".join(f"; del {t}" for t in dict.fromkeys(reads)
                                              if last[t] == i)
                     for i, (code, reads) in enumerate(lines))
    head = [f"    {line}" for line, marks in table.head if any(m in body for m in marks)]
    src = "\n".join(["def field(X, U):", *head, body, f"    return {out}"])
    scope = dict(table.scope, **consts)
    exec(compile(src, "<hjikit field>", "exec"), scope)
    return scope["field"]


# ---------------------------------------------------------------------------
# Tangent bounds: a subdifferential enclosure generated from the AST
# ---------------------------------------------------------------------------
# Each node becomes (value, lo, hi, dep): its values (...), bounds (n, ...) on its
# derivative along each state coordinate (coordinate-major, so that every operation
# broadcasts along the batch), and the coordinates (n, 1, ...) it depends on.  The
# rules are Clarke's chain rules as interval inclusions (Clarke, Optimization and
# Nonsmooth Analysis, 1983), so where V is locally Lipschitz the root's box contains
# the generalized gradient.  A bound is +-inf only as the whole line.  The caller
# silences numpy's warnings, which kinks raise.

_KINK_SNAP = 1e-12  # values this close to a kink (abs, sign or a root at 0, a min/max tie) snap onto it


def _scaled(s, a):
    """Bounds of s * da: the whole line where a product is not finite on a coordinate
    that a depends on (0 x unbounded, or an infinite s even on a zero tangent, as for
    sqrt(x1*x1) at 0), and -0.0 on every other coordinate (the additive identity that
    keeps the sign of a zero it is added to)."""
    _, lo, hi, dep = a
    p = s * lo
    if hi is lo and np.isfinite(p).all():          # a finite singleton: one product
        lo = hi = p
    else:
        q = s * hi
        finite = np.isfinite(p) & np.isfinite(q)
        lo = np.where(finite, np.minimum(p, q), -np.inf)
        hi = np.where(finite, np.maximum(p, q), np.inf)
    if dep.all():
        return lo, hi
    lo = np.where(dep, lo, -0.0)
    return lo, (lo if hi is p else np.where(dep, hi, -0.0))


# A singleton tangent is one array in both bounds (lo is hi), and every rule keeps it
# one, so that each rule computes it once.

def _sum(lo1, hi1, lo2, hi2):
    lo = lo1 + lo2
    return lo, (lo if lo1 is hi1 and lo2 is hi2 else hi1 + hi2)


def _neg(lo, hi):
    n = -hi
    return n, (n if lo is hi else -lo)


def _chain(value, coef, a, at0):
    """value with the tangent coef * da, unbounded where at0 holds."""
    return (value, *_scaled(np.where(at0, np.inf, coef), a), a[3])


def _d_var(X, i):
    n = X.shape[-1]
    t = np.zeros((n,) + X.shape[:-1])
    t[i] = 1.0
    return X[..., i], t, t, (np.arange(n) == i).reshape((n,) + (1,) * (X.ndim - 1))


def _d_const(X, c):
    t = np.zeros((X.shape[-1],) + X.shape[:-1])
    return c, t, t, np.zeros((X.shape[-1],) + (1,) * (X.ndim - 1), dtype=bool)


def _d_mul(a, b):
    return a[0] * b[0], *_sum(*_scaled(a[0], b), *_scaled(b[0], a)), a[3] | b[3]


def _d_div(a, b):
    q = a[0] / b[0]
    return q, *_sum(*_scaled(1.0 / b[0], a), *_neg(*_scaled(q / b[0], b))), a[3] | b[3]


def _d_abs(a, snap=True):
    """sign(v) * da, and the hull of +-da within _KINK_SNAP of v = 0 (where ``snap``)."""
    v, lo, hi, dep = a
    kink, neg = snap & (np.abs(v) <= _KINK_SNAP), v < 0
    nlo, nhi = _neg(lo, hi)
    lo2 = np.where(neg, nlo, lo)
    hi2 = lo2 if lo is hi else np.where(neg, nhi, hi)
    if np.any(kink):
        m = np.maximum(hi, nhi)
        lo2, hi2 = np.where(kink, -m, lo2), np.where(kink, m, hi2)
    return np.abs(v), lo2, hi2, dep


def _d_choice(value, first, a, b):
    """min/max: the chosen operand's tangent, or the hull of both at a tie."""
    lo = np.where(first, a[1], b[1])
    hi = lo if a[1] is a[2] and b[1] is b[2] else np.where(first, a[2], b[2])
    tie = np.abs(a[0] - b[0]) <= _KINK_SNAP
    if np.any(tie):
        lo, hi = (np.where(tie, np.minimum(a[1], b[1]), lo),
                  np.where(tie, np.maximum(a[2], b[2]), hi))
    return value, lo, hi, a[3] | b[3]


def _d_cbrt(a):
    c = np.cbrt(a[0])
    return _chain(c, 1.0 / 3.0 / c / c, a, np.abs(a[0]) <= _KINK_SNAP)


def _d_sqrt(a):
    r = np.sqrt(a[0])
    return _chain(r, 0.5 / r, a, np.abs(a[0]) <= _KINK_SNAP)


def _d_spow(a, p):
    """sign(a) |a|^p: unbounded at a = 0 where p < 1; an x-dependent p adds V ln|a| dp."""
    r, e = np.abs(a[0]), p[0]
    v, lo, hi, _ = _chain(np.sign(a[0]) * r ** e, e * r ** (e - 1), a,
                          (r <= _KINK_SNAP) & (e < 1))
    return v, *_sum(lo, hi, *_scaled(v * np.log(r), p)), a[3] | p[3]


def _d_pow(a, p):
    """|a|^p = spow(|a|, p); the kink of |a| at 0 matters only where p <= 1."""
    _, lo, hi, dep = _d_spow(_d_abs(a, p[0] <= 1), p)
    return np.abs(a[0]) ** p[0], lo, hi, dep


TANGENT = OpTable(
    {"num": "const(X, {0})", "full": "const(X, {0})", "x": "var(X, {0})", "neg": "neg({0})",
     **{op: f"{fn}({{0}}, {{1}})" for op, fn in (("+", "add"), ("-", "sub"), ("*", "mul"),
                                                 ("/", "div"), ("min", "min"), ("max", "max"),
                                                 ("pow", "pow"), ("spow", "spow"))},
     **{fn: f"{fn}({{0}})" for fn in ("abs", "sign", "sqrt", "cbrt")}},
    {"const": _d_const, "var": _d_var, "neg": lambda a: (-a[0], *_neg(a[1], a[2]), a[3]),
     "add": lambda a, b: (a[0] + b[0], *_sum(a[1], a[2], b[1], b[2]), a[3] | b[3]),
     "sub": lambda a, b: (a[0] - b[0], *_sum(a[1], a[2], *_neg(b[1], b[2])), a[3] | b[3]),
     "mul": _d_mul, "div": _d_div, "abs": _d_abs, "cbrt": _d_cbrt, "sqrt": _d_sqrt,
     "sign": lambda a: _chain(np.sign(a[0]), 0.0, a, np.abs(a[0]) <= _KINK_SNAP),
     "min": lambda a, b: _d_choice(np.minimum(a[0], b[0]), a[0] <= b[0], a, b),
     "max": lambda a, b: _d_choice(np.maximum(a[0], b[0]), a[0] >= b[0], a, b),
     "pow": _d_pow, "spow": _d_spow})


def variables_used(e: Expr) -> set:
    """Collect the (kind, 0-based index) pairs referenced by an AST."""
    out: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add((node.kind, node.index))
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Bin):
            stack.extend((node.lhs, node.rhs))
        elif isinstance(node, Call):
            stack.extend(node.args)
    return out
