"""Storage-function candidates and their subdifferentials.

A candidate is a nonnegative scalar function of the state.  Every expression
candidate, the built-ins but ``sq_norm`` among them, gets its subdifferential
oracle from the expression: :data:`hjikit.expr.TANGENT` generates a box that
contains Clarke's generalized gradient where V is locally Lipschitz (a singleton
where V is smooth, wider at kinks, the whole line where V is not Lipschitz).
The tests cross-check them by sampling the defining liminf quotient
(``verify_subgradient`` in ``tests/reference.py``)

    [V(x + h) - V(x) - zeta . h] / |h|  >=  0   as h -> 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import DimensionError, HjikitError


class MissingOracleError(HjikitError):
    """The operation needs an exact subdifferential/gradient oracle and the candidate has none."""


class GradientUndefinedError(HjikitError):
    """The candidate's gradient does not exist at the queried point (kink locus)."""


@dataclass(frozen=True)
class SubdiffSet:
    """A subdifferential in coordinate-box form.

    Every subdifferential the workbench manipulates is a product of closed
    intervals (possibly degenerate, possibly unbounded); a singleton is the
    all-degenerate case.  ``intervals`` is a tuple of (lo, hi) pairs with
    ``-inf``/``inf`` allowed; ``is_empty`` marks the empty set.
    """

    intervals: tuple = ()
    empty: bool = False

    @staticmethod
    def empty_set() -> "SubdiffSet":
        return SubdiffSet((), True)

    @staticmethod
    def singleton(vec) -> "SubdiffSet":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return SubdiffSet(tuple((float(v), float(v)) for v in vec))

    @staticmethod
    def box(intervals) -> "SubdiffSet":
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if lo > hi:
                raise ValueError(f"malformed interval [{lo}, {hi}]")
        return SubdiffSet(ivs)

    @property
    def is_empty(self) -> bool:
        return self.empty

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def is_singleton(self) -> bool:
        return not self.empty and all(lo == hi for lo, hi in self.intervals)

    @property
    def unbounded_axes(self) -> tuple:
        return tuple(k for k, (lo, hi) in enumerate(self.intervals)
                     if math.isinf(lo) or math.isinf(hi))

    def contains(self, zeta) -> bool:
        """Exact interval containment."""
        if self.empty:
            return False
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        return all(lo <= z <= hi for z, (lo, hi) in zip(zeta, self.intervals))


@dataclass(frozen=True, eq=False)
class StorageCandidate:
    """A nonnegative scalar function with an optional subdifferential oracle.

    ``value_fn`` maps states (..., n) to values (...).  ``subdiff_batch_fn`` is the
    one oracle: it maps states (Q, n) to the bounds ``(lo, hi)``, each of shape
    (Q, n), of the box subdifferential at every row, with lo = +inf, hi = -inf on a
    row where it is empty.  ``subdiff`` and ``gradient`` are one-row views of it;
    ``gradient`` raises :class:`GradientUndefinedError` where the box is not a
    singleton (the kink loci).  ``kinks`` lists the (axis, value) coordinates where
    the subdifferential is not a singleton, so that region grids can visit them.
    ``dim`` (None = any) is checked against the last axis of every query.
    ``regularity`` is one of 'continuous', 'lipschitz', 'c1_away_from_origin', 'smooth'.
    """

    name: str
    value_fn: Callable[[np.ndarray], np.ndarray]
    regularity: str = "continuous"
    dim: Optional[int] = None  # None = any dimension
    subdiff_batch_fn: Optional[Callable[[np.ndarray], tuple]] = None
    kinks: tuple = ()

    def _checked(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.dim is not None and X.shape[-1:] != (self.dim,):
            raise DimensionError(f"candidate {self.name!r} takes states of dimension "
                                 f"{self.dim}, got shape {X.shape}")
        return X

    def value(self, x) -> float:
        """V at one point x (n,), read as row 0 of a (1, n) batch: value_batch's bits."""
        return float(self.value_fn(self._checked(x)[None])[0])

    def value_batch(self, X) -> np.ndarray:
        return np.asarray(self.value_fn(self._checked(X)), dtype=float)

    def subdiff_batch(self, X) -> tuple:
        """Box subdifferentials at the rows of X (Q, n) as arrays ``lo, hi`` of shape (Q, n)."""
        if self.subdiff_batch_fn is None:
            raise MissingOracleError(f"candidate {self.name!r} has no subdifferential oracle")
        return self.subdiff_batch_fn(self._checked(X))

    def _row(self, x) -> tuple:
        lo, hi = self.subdiff_batch(np.asarray(x, dtype=float).reshape(1, -1))
        return lo[0], hi[0]

    def subdiff(self, x) -> SubdiffSet:
        lo, hi = self._row(x)
        if np.any(lo > hi):
            return SubdiffSet.empty_set()
        return SubdiffSet(tuple(zip(lo.tolist(), hi.tolist())))

    def gradient(self, x) -> np.ndarray:
        lo, hi = self._row(x)
        if np.any(lo != hi):
            raise GradientUndefinedError(
                f"the gradient of {self.name!r} is undefined at {np.ravel(x).tolist()}")
        return lo

    @property
    def has_oracle(self) -> bool:
        return self.subdiff_batch_fn is not None


# ---------------------------------------------------------------------------
# Candidates: expressions with their generated oracle, and the square norm
# ---------------------------------------------------------------------------

def from_expression(src: str, n: int, regularity: str = "continuous",
                    kinks: tuple = ()) -> StorageCandidate:
    """An expression candidate in x1..xn; its oracle is the enclosure that
    :data:`hjikit.expr.TANGENT` generates from the expression.  ``kinks`` lists the
    (axis, value) coordinates, axis 0 for x1, where the box is not a singleton, for
    region grids to visit."""
    ast = ex.parse(src, n, 0)
    fn, tangent = ex.compile_evaluator(ast), ex.compile_evaluator(ast, ex.TANGENT)

    def value(X):
        return fn(np.asarray(X, dtype=float), None)

    def subdiff(X):
        with np.errstate(all="ignore"):
            _, lo, hi, dep = tangent(X, None)
        return np.where(dep, lo, 0.0).T, np.where(dep, hi, 0.0).T

    return StorageCandidate(f"expr:{src}", value, regularity, n, subdiff, kinks)


# the built-ins but sq_norm (of any dimension), as expression records: source, n,
# regularity and the (axis, value) coordinates of their kinks
_BUILTIN_EXPRESSIONS = {
    "v1_scaled": ("2*(abs(x1) + abs(x2))", 2, "lipschitz", ((0, 0.0), (1, 0.0))),
    "v1": ("abs(x1) + abs(x2)", 2, "lipschitz", ((0, 0.0), (1, 0.0))),
    "v2": ("x1*x1 + cbrt(x2)*cbrt(x2)", 2, "continuous", ((1, 0.0),)),
    "v3_scalar": ("max(abs(x1), 2*x1 - 1)", 1, "lipschitz", ((0, 0.0), (0, 1.0))),
}


def _sq_norm_value(X):
    X = np.asarray(X, dtype=float)
    return ex._row_sum(X * X)      # np.sum's bits: every term is >= +0


_BUILTIN_NAMES = (*_BUILTIN_EXPRESSIONS, "sq_norm")


def builtins() -> dict:
    """Fresh instances of the built-in candidates, keyed by name."""
    return {name: builtin(name) for name in _BUILTIN_NAMES}


def builtin(name: str) -> StorageCandidate:
    """A fresh instance of the one built-in candidate ``name``."""
    if name == "sq_norm":
        return StorageCandidate("sq_norm", _sq_norm_value, "smooth", None,
                                lambda X: (2 * X, 2 * X))
    if name not in _BUILTIN_EXPRESSIONS:
        raise KeyError(f"no builtin candidate named {name!r}; have {sorted(_BUILTIN_NAMES)}")
    return replace(from_expression(*_BUILTIN_EXPRESSIONS[name]), name=name)


def from_config(cfg: dict) -> StorageCandidate:
    """A candidate from its JSON form; an ``expr`` form may list ``kinks`` as
    [axis, value] pairs, axis 0 for x1."""
    kind = cfg.get("kind")
    if kind == "builtin":
        return builtin(cfg["name"])
    if kind == "expr":
        n = int(cfg["n"])
        kinks = tuple((int(k), float(v)) for k, v in cfg.get("kinks", ()))
        if any(not 0 <= k < n for k, _ in kinks):
            raise ValueError(f"a kink axis lies outside 0..{n - 1}: {cfg['kinks']!r}")
        return from_expression(cfg["expr"], n, cfg.get("regularity", "continuous"), kinks)
    raise ValueError(f"unknown storage kind {kind!r}")


def to_config(V: StorageCandidate) -> dict:
    """The JSON form :func:`from_config` reads; only built-ins and expressions have one."""
    if V.name.startswith("expr:"):
        return {"kind": "expr", "expr": V.name[5:], "n": V.dim, "regularity": V.regularity,
                "kinks": [list(kink) for kink in V.kinks]}
    if V.name not in _BUILTIN_NAMES:
        raise ValueError(f"candidate {V.name!r} is neither a built-in nor an expression")
    return {"kind": "builtin", "name": V.name}

