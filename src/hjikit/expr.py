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

Nodes are interned: equal subtrees are one node, compared and hashed by identity.
The parser and :func:`fold`, the one traversal, keep explicit stacks: an expression's
depth and length are bounded only by memory; compilation is linear in distinct nodes.
"""
from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import HjikitError


class ExprSyntaxError(HjikitError):
    """Raised when a source string fails to parse; carries the 0-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _row_sum(A: np.ndarray) -> np.ndarray:
    """``np.add.reduce(A, axis=-1)`` in A's dtype (``np.any`` for booleans), the one row sum
    of the package.  Fewer than 8 columns, which numpy adds in order, are added column by
    column from 0 (faster): only the sign of a zero sum can differ, and no caller's terms
    let it matter."""
    if A.shape[-1] < 8:
        return sum(A.T, np.zeros(A.shape[-2::-1], dtype=A.dtype)).T
    return np.add.reduce(A, axis=-1, dtype=A.dtype)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """An interned AST node: constructing one equal to a live node returns that node, and
    a node lives only while an expression or the parse and compile caches hold it.
    ``tag`` names its operation (a ``_CODE`` key) and ``kids`` its operands, in order."""

    __slots__ = ("tag", "kids", "__weakref__")

    def __new__(cls, key, tag, kids, *values):
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(("tag", "kids", *cls._fields), (tag, kids, *values)):
                object.__setattr__(node, name, value)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}<{to_source(self)}>"

    def __reduce__(self):              # copy and pickle rebuild through the intern table
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Num(_Node):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: float):
        # 0.0 == -0.0 and 1 == 1.0 as numbers, not as literals: they evaluate differently
        return super().__new__(cls, (cls, type(value), repr(value)), "num", (), value)


class Var(_Node):
    __slots__ = _fields = ("kind", "index")      # 'x' or 'u'; 0-based

    def __new__(cls, kind: str, index: int):
        return super().__new__(cls, (cls, kind, index), kind, (), kind, index)


class Neg(_Node):
    __slots__ = _fields = ("arg",)

    def __new__(cls, arg: "Expr"):
        return super().__new__(cls, (cls, arg), "neg", (arg,), arg)


class Bin(_Node):
    __slots__ = _fields = ("op", "lhs", "rhs")    # op: one of + - * /

    def __new__(cls, op: str, lhs: "Expr", rhs: "Expr"):
        return super().__new__(cls, (cls, op, lhs, rhs), op, (lhs, rhs), op, lhs, rhs)


class Call(_Node):
    __slots__ = _fields = ("fn", "args")

    def __new__(cls, fn: str, args: tuple):
        return super().__new__(cls, (cls, fn, args), fn, args, fn, args)


Expr = Union[Num, Var, Neg, Bin, Call]

FUNCTION_ARITY = {"abs": 1, "sign": 1, "sqrt": 1, "cbrt": 1, "min": 2, "max": 2, "pow": 2, "spow": 2}


def fold(roots: Sequence, rule: Callable, kids: Callable = _Node.kids.__get__,
         done: dict | None = None) -> dict:
    """Apply ``rule(key, *its kids' results)`` once to each key reachable from ``roots``, in
    post-order, left to right, with an explicit stack; return ``done``, every result by
    key.  Keys are nodes (else TypeError) unless ``kids`` maps a key to its kids' keys;
    keys already in ``done`` are skipped, so roots can be folded one at a time."""
    done = {} if done is None else done
    stack = [(key, None) for key in reversed(roots)]
    while stack:
        key, keys = stack.pop()
        if keys is not None:
            done[key] = rule(key, *[done[k] for k in keys])
        elif key not in done:
            keys = kids(key)
            stack.append((key, keys))
            stack.extend((k, None) for k in reversed(keys))
    return done


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# One token: whitespace (as str.isspace reads it), then a number (an exponent only where
# digits follow the e), an ASCII name, an operator, or any other character (an error).
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/(),])|(?P<char>\S))")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}      # binary operators, all left-associative


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
        """Precedence climbing over a stack, innermost last, of a unary minus (3, "-", None),
        a binary operator and its left operand (level, op, lhs), a call (0, name, pos, args)
        or a parenthesis (0, None, pos, []); tokens are read in recursive-descent order."""
        stack = []
        while True:
            while self.peek()[:2] == ("op", "-"):       # an operand: unary minuses, then an atom
                self.next()
                stack.append((3, "-", None))
            kind, text, pos = self.next()
            if kind == "ident" and self.peek()[:2] == ("op", "("):
                if text not in FUNCTION_ARITY:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.next()
                stack.append((0, text, pos, []))
                continue
            if (kind, text) == ("op", "("):
                stack.append((0, None, pos, []))
                continue
            if kind == "num":
                e = Num(float(text))
            elif kind == "ident":
                e = self._variable(text, pos)
            else:
                raise ExprSyntaxError(f"unexpected token {text!r}", pos)
            while True:                                  # close what the operand completes
                kind, text, pos = self.peek()
                level = _PRECEDENCE.get(text, 0) if kind == "op" else 0
                while stack and stack[-1][0] >= max(level, 1):
                    _, op, lhs = stack.pop()
                    e = Neg(e) if lhs is None else Bin(op, lhs, e)
                if level:
                    self.next()
                    stack.append((level, text, e))
                    break
                if not stack:
                    if kind != "eof":
                        raise ExprSyntaxError(f"unexpected token {text!r}", pos)
                    return e
                _, name, start, args = stack[-1]
                args.append(e)
                if name and (kind, text) == ("op", ","):
                    self.next()
                    break
                if (kind, text) != ("op", ")"):
                    raise ExprSyntaxError(f"expected ')', got {text!r}", pos)
                self.next()
                stack.pop()
                if name:
                    if len(args) != FUNCTION_ARITY[name]:
                        raise ExprSyntaxError(
                            f"{name} takes {FUNCTION_ARITY[name]} argument(s), got {len(args)}", start)
                    e = Call(name, tuple(args))

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


@functools.lru_cache(maxsize=4096)
def parse(src: str, n: int, m: int) -> Expr:
    """Parse ``src`` into an AST over x1..xn, u1..um.

    Raises :class:`ExprSyntaxError` (with position) on malformed input, unknown
    identifiers, arity mismatches, or variable indices outside the declared
    dimensions.  Memoized: the same arguments return the same (immutable) AST.
    """
    return _Parser(src, n, m).parse()


# ---------------------------------------------------------------------------
# Printing: a rule table over the fold
# ---------------------------------------------------------------------------

def to_source(e: Expr) -> str:
    """Render an AST back to source; ``parse(to_source(e))`` is ``e`` for every AST
    that ``parse`` gives (no negative literal)."""
    parts, stack = [], [fold((e,), _source)[e][0]]
    while stack:
        part = stack.pop()
        if isinstance(part, str):
            parts.append(part)
        else:
            stack.extend(reversed(part))
    return "".join(parts)


def _group(operand: tuple, need: int):
    return operand[0] if operand[1] >= need else ("(", operand[0], ")")


def _source(node, *args) -> tuple:
    """A node's text, as nested tuples of strings (joined once: a deep AST's text is not
    copied at every level), and its level: 1 additive, 2 multiplicative or negation, 3 an
    atom.  An operand below the level its place needs is parenthesized: a-(b-c), -(-a)."""
    if isinstance(node, Num):
        return (f"({node.value!r})" if node.value < 0 else repr(node.value)), 3
    if isinstance(node, Var):
        return f"{node.kind}{node.index + 1}", 3
    if isinstance(node, Neg):
        return ("-", _group(args[0], 3)), 2
    if isinstance(node, Bin):
        level = _PRECEDENCE[node.op]
        return (_group(args[0], level), node.op, _group(args[1], level + 1)), level
    return (f"{node.fn}(", args[0][0], *[(", ", text) for text, _ in args[1:]], ")"), 3


# ---------------------------------------------------------------------------
# Compiled (vectorized) evaluation for hot paths
# ---------------------------------------------------------------------------

# Generated code calls only these names; a field's source text never reaches it.
_NUMPY = {"abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "cbrt": np.cbrt, "empty": np.empty,
          "minimum": np.minimum, "maximum": np.maximum, "full": np.full, "asarray": np.asarray,
          "add": np.add, "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide}
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


def _numpy_scalar(v):
    return np.asarray(v)[()]


@dataclass(frozen=True, eq=False)
class OpTable:
    """What the code generator writes for each node: ``code`` maps 'num' (a constant),
    'full' (a constant as an array of X's batch shape), the variable kinds 'x' and 'u',
    'neg' and every operator to a format string over its operands' temporaries, and
    ``scope`` holds the names that code calls.  ``const`` converts a literal and
    ``exponent`` phi's exponent (by default each to a numpy scalar), each line of
    ``head`` is written when the body holds one of its marks, and ``first`` and
    ``column`` start a tuple's result from its first root and put root j into it, or
    ``root[op]`` writes root j in place where op is its last operation.  ``args`` are the
    generated function's.  Hashed by identity, for the compile cache."""

    code: dict
    scope: dict
    const: Callable = _numpy_scalar
    exponent: Callable = _numpy_scalar
    head: tuple = ()
    first: str = "out = empty({0}.shape + ({1},))"
    column: str = "out[..., {1}] = {0}"
    root: dict = field(default_factory=dict)
    args: str = "X, U"


# A literal is a 0-d array: numpy's call with a 0-d operand skips the scalar conversion
# that a numpy scalar or a Python number costs, and takes the same loop.
FLOAT = OpTable(_CODE, _NUMPY, const=np.asarray,
                head=(("X = asarray(X)", ("X[", "(S,")),
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
    const=float, exponent=float, first="out = ()", column="out += ({0},)")

# The batch RK4 loop's state pass: X (n, B) and U (k, B) read by rows, and root j written
# into row j of O (n, B), in place by its last operation's ufunc where that is + - * /.
ROWS = OpTable({**_CODE, "x": "X[{0}]", "u": "U[{0}]"}, _NUMPY, const=np.asarray,
               head=(("S = X.shape[1:]", ("(S,",)),), first="out = O", column="O[{1}] = {0}",
               root={op: fn + "({0}, {1}, O[{2}])" for op, fn in
                     zip("+-*/", ("add", "subtract", "multiply", "divide"))}, args="X, U, O")


def _keys(roots: tuple) -> tuple:
    """has_x by node, the roots' keys and the kids of a key: (node, whether its constants
    are full, i.e. arrays of X's batch shape; None in phi)."""
    has_x = fold(roots, lambda node, *kids: node.tag == "x" or any(kids))

    def kids(key) -> tuple:
        node, full = key
        return tuple((a, None if node.tag in _PHI else
                      full or (node.tag in _SCALAR_UNSAFE and not has_x[a])) for a in node.kids)
    return has_x, tuple((root, not has_x[root]) for root in roots), kids


@functools.lru_cache(maxsize=4096)
def compile_evaluator(e, table: OpTable = FLOAT) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Compile an AST, or a tuple of k ASTs, into one flat numpy function ``f(X, U)`` (memoized).

    ``X`` has shape (..., n) and ``U`` shape (..., m).  With the default table, one AST
    gives values of shape (...,); a tuple gives one (..., k) array whose column j is
    what its j-th AST alone gives.  Inputs on which scalar evaluation would raise let
    IEEE nan/inf propagate.  Each distinct subtree is computed once, across the whole
    tuple, and each temporary is freed after its last use.  Constants are 0-d arrays, but arrays
    of X's batch shape in an x-free subtree that is a whole root or feeds sqrt/cbrt/pow/spow,
    and phi's exponent is a numpy scalar, so every result is bitwise (and in shape) that of
    evaluating every node as an array, but for which nan a sum of two nans gives.
    :data:`SCALAR` generates ``f(X, U)`` over one point, X and U sequences of Python
    floats: a float, or a tuple of k, bitwise what the default table gives on the
    (1, n) batch of that point.  :data:`TANGENT` generates, for one AST of x only,
    ``(value, lo, hi, dep)`` instead: the bounds (n, ...) of a subdifferential
    enclosure and the coordinates the AST depends on (see below).  :data:`ROWS` writes a
    tuple's roots into the rows of a given buffer (see :func:`split_evaluator`).
    """
    has_x, roots, kids = _keys(e if isinstance(e, tuple) else (e,))
    lines, consts, temps = [], {}, {}      # lines: (statement, temporaries it reads)

    def emit(key, *reads) -> str:
        node, full = key
        if isinstance(node, Num):
            const = f"c{len(consts)}"
            consts[const] = (table.exponent if full is None else table.const)(node.value)
            code = table.code["full" if full else "num"].format(const)
        elif isinstance(node, Var):
            code = table.code[node.kind].format(int(node.index))
        elif key == root and placed:
            code = table.root[node.tag].format(*reads, j)
        else:
            code = table.code[node.tag].format(*reads)
        name = f"t{len(temps)}"
        lines.append((f"{name} = {code}", reads))
        return name

    for j, root in enumerate(roots):       # root by root: a tuple's columns interleave
        placed = isinstance(e, tuple) and root not in temps and root[0].tag in table.root
        t = fold((root,), emit, kids, temps)[root]
        if isinstance(e, tuple):
            if not j:
                lines.append((table.first.format(t, len(e)), (t,)))
            if not placed:
                lines.append((table.column.format(t, j), (t,)))
    out = "out" if isinstance(e, tuple) else t
    last = {t: i for i, (_, reads) in enumerate(lines) for t in reads}      # never the result
    body = "\n".join(f"    {code}" + "".join(f"; del {t}" for t in dict.fromkeys(reads)
                                              if last[t] == i)
                     for i, (code, reads) in enumerate(lines))
    head = [f"    {line}" for line, marks in table.head if any(m in body for m in marks)]
    src = "\n".join([f"def field({table.args}):", *head, body, f"    return {out}"])
    scope = dict(table.scope, **consts)
    exec(compile(src, "<hjikit field>", "exec"), scope)
    return scope["field"]


def _columns(fields: tuple, X, U) -> np.ndarray:
    """The fields' values (..., k), each column one contiguous array."""
    out = np.empty((len(fields),) + np.shape(X)[:-1])
    for j, f in enumerate(fields):
        out[j] = f(X, U)
    return np.moveaxis(out, 0, -1)


@functools.lru_cache(maxsize=4096)
def split_evaluator(e: tuple, table: OpTable = FLOAT) -> tuple:
    """``compile_evaluator(e)`` for a tuple of ASTs, split into ``(inputs, state)`` at its
    input-only frontier: every maximal x-free subtree whose value has X's batch shape, as it
    reads u or holds a full constant (memoized).  ``inputs(X, U)``, X of shape (..., 0),
    gives the k frontier values (..., k), the rows of one (k, ...) buffer; ``state(X, W)``
    (compiled with ``table``) reads subtree j as W[..., j].  The same operations on the same
    values: ``state(X, inputs(X[..., :0], U))`` is bitwise ``compile_evaluator(e)(X, U)``,
    but for which nan a sum of two nans gives.  :data:`ROWS` is component-major:
    ``state(X, W, O)`` reads X (n, B) and W (k, B) by rows and writes O (n, B) in place,
    a buffer that must alias neither."""
    has_x, roots, kids = _keys(e)
    frontier = {}                          # subtree -> the leaf that reads its column

    def cut(key, node, batch):
        if has_x[key[0]] or not batch:
            return node
        return frontier.setdefault(key[0], Var("u", len(frontier)))

    def rule(key, *done):                  # (the node with its frontier cut, batch-shaped)
        node, full = key
        if not has_x[node]:
            return node, node.tag == "u" or (full and node.tag == "num") or any(b for _, b in done)
        new = [cut(k, *d) for k, d in zip(kids(key), done)]
        return (Neg(*new) if isinstance(node, Neg) else Bin(node.op, *new) if isinstance(node, Bin)
                else Call(node.fn, tuple(new)) if isinstance(node, Call) else node), False

    done = fold(roots, rule, kids)
    state = tuple(cut(key, *done[key]) for key in roots)
    return (functools.partial(_columns, tuple(map(compile_evaluator, frontier))),
            compile_evaluator(state, table))


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
