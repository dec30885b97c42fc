"""Storage-function candidates, their subdifferentials, and the numeric subgradient test.

A candidate is a nonnegative scalar function of the state.  Built-ins carry
exact subdifferential oracles; user expression candidates have none, and claims
about them must go through :func:`verify_subgradient`, which samples the
defining liminf quotient

    [V(x + h) - V(x) - zeta . h] / |h|  >=  0   as h -> 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import DimensionError, HjikitError


class MissingOracleError(HjikitError):
    """The operation needs an exact subdifferential/gradient oracle and the candidate has none."""


class GradientUndefinedError(HjikitError):
    """The candidate's gradient does not exist at the queried point (kink locus)."""


_KINK_SNAP = 1e-12  # queries this close to a known kink locus snap onto it

_INF = math.inf


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
    def vector(self) -> np.ndarray:
        if not self.is_singleton:
            raise ValueError("not a singleton subdifferential")
        return np.array([lo for lo, _ in self.intervals])

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

    def finite_vertices(self) -> np.ndarray:
        """All vertices over the finite interval coordinates, shape (K, n).

        Unbounded coordinates are pinned at 0; callers must separately enforce
        that their residual coefficients vanish (see the witness checker).
        """
        if self.empty:
            return np.zeros((0, self.dim))
        choices = []
        for lo, hi in self.intervals:
            vals = sorted({v for v in (lo, hi) if not math.isinf(v)})
            choices.append(vals if vals else [0.0])
        verts = np.array(np.meshgrid(*choices, indexing="ij")).reshape(self.dim, -1).T \
            if self.dim else np.zeros((1, 0))
        return verts


@dataclass(frozen=True, eq=False)
class StorageCandidate:
    """A nonnegative scalar function with an optional exact subdifferential oracle.

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
        return float(self.value_fn(self._checked(x)))

    def value_batch(self, X) -> np.ndarray:
        return np.asarray(self.value_fn(self._checked(X)), dtype=float)

    def subdiff_batch(self, X) -> tuple:
        """Box subdifferentials at the rows of X (Q, n) as arrays ``lo, hi`` of shape (Q, n)."""
        if self.subdiff_batch_fn is None:
            raise MissingOracleError(
                f"candidate {self.name!r} has no exact subdifferential oracle; "
                "use verify_subgradient for numeric evidence")
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
# Built-in candidates
# ---------------------------------------------------------------------------

def _weighted_l1(name: str, scale: float) -> StorageCandidate:
    """scale * (|x1| + |x2|) with its exact box subdifferential."""

    def value(X):
        X = np.asarray(X, dtype=float)
        return scale * (np.abs(X[..., 0]) + np.abs(X[..., 1]))

    def sd(X):
        kink = np.abs(X) <= _KINK_SNAP
        slope = scale * np.sign(X)
        return np.where(kink, -scale, slope), np.where(kink, scale, slope)

    return StorageCandidate(name, value, "lipschitz", 2, sd, ((0, 0.0), (1, 0.0)))


def _make_v2() -> StorageCandidate:
    def value(X):
        X = np.asarray(X, dtype=float)
        return X[..., 0] ** 2 + np.cbrt(X[..., 1]) ** 2

    def sd(X):
        kink = np.abs(X[:, 1]) <= _KINK_SNAP
        # liminf of |h|^(2/3)/|h| diverges on x2 = 0, so every second coordinate qualifies
        z2 = (2.0 / 3.0) / np.cbrt(np.where(kink, 1.0, X[:, 1]))
        lo = np.stack([2 * X[:, 0], np.where(kink, -_INF, z2)], axis=1)
        hi = np.stack([2 * X[:, 0], np.where(kink, _INF, z2)], axis=1)
        return lo, hi

    return StorageCandidate("v2", value, "continuous", 2, sd, ((1, 0.0),))


def _make_v3_scalar() -> StorageCandidate:
    def value(X):
        X = np.asarray(X, dtype=float)
        v = X[..., 0]
        return np.maximum(np.abs(v), 2 * v - 1)

    def sd(X):
        v = X[:, :1]
        slope = np.where(v < 0, -1.0, np.where(v < 1, 1.0, 2.0))
        at0, at1 = np.abs(v) <= _KINK_SNAP, np.abs(v - 1.0) <= _KINK_SNAP
        return (np.where(at0, -1.0, np.where(at1, 1.0, slope)),
                np.where(at0, 1.0, np.where(at1, 2.0, slope)))

    return StorageCandidate("v3_scalar", value, "lipschitz", 1, sd, ((0, 0.0), (0, 1.0)))


def _make_sq_norm() -> StorageCandidate:
    def value(X):
        X = np.asarray(X, dtype=float)
        return np.sum(X * X, axis=-1)

    def sd(X):
        return 2 * X, 2 * X

    return StorageCandidate("sq_norm", value, "smooth", None, sd)


def builtins() -> dict:
    """Fresh instances of the built-in candidates, keyed by name."""
    return {
        "v1_scaled": _weighted_l1("v1_scaled", 2.0),
        "v1": _weighted_l1("v1", 1.0),
        "v2": _make_v2(),
        "v3_scalar": _make_v3_scalar(),
        "sq_norm": _make_sq_norm(),
    }


def builtin(name: str) -> StorageCandidate:
    table = builtins()
    if name not in table:
        raise KeyError(f"no builtin candidate named {name!r}; have {sorted(table)}")
    return table[name]


def from_callables(name, value_fn, gradient_fn=None, subdiff_fn=None,
                   regularity="smooth", dim=None, subdiff_batch_fn=None) -> StorageCandidate:
    """Wrap plain callables as a candidate (used for smoothed/constructed functions).

    The oracle is ``subdiff_batch_fn`` if given, else a row loop over the scalar
    ``subdiff_fn`` (an empty set is the row lo = +inf, hi = -inf), else over
    ``gradient_fn`` (the unbounded box where it raises GradientUndefinedError).
    """
    if subdiff_batch_fn is None and (subdiff_fn is not None or gradient_fn is not None):
        subdiff_batch_fn = _row_loop(subdiff_fn, gradient_fn)
    return StorageCandidate(name, value_fn, regularity, dim, subdiff_batch_fn)


def _row_loop(subdiff_fn, gradient_fn):
    def batch(X):
        lo, hi = np.full(X.shape, _INF), np.full(X.shape, -_INF)
        for q, x in enumerate(X):
            if subdiff_fn is not None:
                S = subdiff_fn(x)
                if not S.is_empty:
                    lo[q], hi[q] = np.array(S.intervals).T
                continue
            try:
                lo[q] = hi[q] = gradient_fn(x)
            except GradientUndefinedError:   # a kink: the gradient bounds no coordinate
                lo[q], hi[q] = -_INF, _INF
        return lo, hi

    return batch


def from_expression(src: str, n: int, regularity: str = "continuous") -> StorageCandidate:
    """An expression-backed candidate in x1..xn; it has no exact oracle."""
    ast = ex.parse(src, n, 0)
    fn = ex.compile_evaluator(ast)

    def value(X):
        return fn(np.asarray(X, dtype=float), None)

    return StorageCandidate(f"expr:{src}", value, regularity, dim=n)


def from_config(cfg: dict) -> StorageCandidate:
    kind = cfg.get("kind")
    if kind == "builtin":
        return builtin(cfg["name"])
    if kind == "expr":
        return from_expression(cfg["expr"], int(cfg["n"]), cfg.get("regularity", "continuous"))
    raise ValueError(f"unknown storage kind {kind!r}")


def to_config(V: StorageCandidate) -> dict:
    """The JSON form :func:`from_config` reads; only built-ins and expressions have one."""
    if V.name.startswith("expr:"):
        return {"kind": "expr", "expr": V.name[5:], "n": V.dim, "regularity": V.regularity}
    if V.name not in builtins():
        raise ValueError(f"candidate {V.name!r} is neither a built-in nor an expression")
    return {"kind": "builtin", "name": V.name}


# ---------------------------------------------------------------------------
# Numeric subgradient verification
# ---------------------------------------------------------------------------

def _directions(n: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(0)
    d = rng.standard_normal((4 * n * n, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def verify_subgradient(V: StorageCandidate, x, zeta,
                       radii: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)) -> bool:
    """One-sided numeric test of the subgradient quotient at x.

    For each radius r the quotient ``[V(x+h) - V(x) - zeta.h]/|h|`` is
    minimized over sampled h with |h| in [r/2, r] (dense directional sampling).
    The defining condition is a liminf as h -> 0: the running minima must stay
    above -1e-7 as r shrinks, judged by extrapolating the two smallest-radius
    minima linearly in r to r = 0 (coarse radii may legitimately dip negative
    while the limit is clean, e.g. under one-sided curvature or where the
    quotient diverges only as h -> 0).  Rejection is conclusive up to sampling;
    acceptance is evidence, not proof.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    radii = list(radii)
    if radii != sorted(radii, reverse=True) or min(radii) <= 0:
        raise ValueError("radii must be strictly decreasing and positive")
    dirs = _directions(x.size)
    mags = np.array([0.5, 0.75, 1.0])
    vx = V.value(x)
    minima = []
    for r in radii:
        H = (dirs[:, None, :] * (r * mags)[None, :, None]).reshape(-1, x.size)
        vals = V.value_batch(x[None, :] + H)
        quot = (vals - vx - H @ zeta) / np.linalg.norm(H, axis=1)
        minima.append(float(np.min(quot)))
    if len(minima) == 1:
        return minima[0] >= -1e-7
    r1, r2 = radii[-2], radii[-1]
    m1, m2 = minima[-2], minima[-1]
    intercept = (r1 * m2 - r2 * m1) / (r1 - r2)
    return intercept >= -1e-7
