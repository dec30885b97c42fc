"""System shapes ((power-)affine in the input, general) and the built-in example zoo.

All vector fields are expression-defined (see :mod:`hjikit.expr`).  Systems are
immutable after construction and ``dynamics`` is pure: region sweeps and
ensemble integrations evaluate them once per batch of points, in one thread.
Each system's right-hand side is one generated function ``_rhs(X, U) -> (..., n)``:
``dynamics`` checks x's and u's shapes and calls it; the RK4 loop checks them once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import expr as ex
from . import storage
from .errors import DimensionError


def _compile_fields(asts: Sequence) -> tuple:
    return tuple(ex.compile_evaluator(a) for a in asts)


def _compile_affine(sys, weights: Sequence) -> None:
    """Compile g0, each g_i and dx_j/dt = (g0_j + w_1 g_1j) + w_2 g_2j + ...,
    where w_i is the AST of u_i or of phi(u_i): one function each."""
    g0_ast = tuple(ex.parse(src, sys.n, 0) for src in sys.g0)
    g_ast = tuple(tuple(ex.parse(src, sys.n, 0) for src in gi) for gi in sys.g)
    if len(sys.g0) != sys.n or len(sys.g) != sys.m:
        raise DimensionError("field shapes do not match (n, m)")
    if any(len(gi) != sys.n for gi in sys.g):
        raise DimensionError("every input field must have n components")
    comps = g0_ast
    for w, gi in zip(weights, g_ast):
        comps = tuple(ex.Bin("+", c, ex.Bin("*", w, g)) for c, g in zip(comps, gi))
    drift, *fields, rhs = _compile_fields((g0_ast, *g_ast, comps))
    object.__setattr__(sys, "_g0_fn", drift)
    object.__setattr__(sys, "_g_fn", tuple(fields))
    object.__setattr__(sys, "_rhs", rhs)


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """dx/dt = g0(x) + sum_i phi(u_i) g_i(x), phi(r) = |r|^p or sign(r)|r|^p, p >= 1.

    The g's depend on the state only.  The defaults p = 1 and ``signed_pow``
    are the input-affine case phi(u) = u, whose right-hand side weights g_i by
    u_i itself (no pow, and u = -0.0 keeps its sign).
    """

    n: int
    m: int
    g0: tuple  # n expression source strings
    g: tuple   # m vector fields, each n source strings
    p: float = 1.0
    phi: str = "signed_pow"  # 'abs_pow' | 'signed_pow'
    name: str = ""

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("power-affine exponent must satisfy p >= 1")
        if self.phi not in ("abs_pow", "signed_pow"):
            raise ValueError("phi must be 'abs_pow' or 'signed_pow'")
        if self.input_affine:
            weights = [ex.Var("u", i) for i in range(self.m)]
        else:
            p = ex.Num(float(self.p))
            weights = [ex.Call(self.phi, (ex.Var("u", i), p)) for i in range(self.m)]
        _compile_affine(self, weights)

    @property
    def input_affine(self) -> bool:
        """True for phi(u) = u: p = 1 with the signed power."""
        return self.p == 1 and self.phi == "signed_pow"

    def phi_apply(self, r):
        r = np.asarray(r, dtype=float)
        if self.phi == "abs_pow":
            return np.abs(r) ** self.p
        return np.sign(r) * np.abs(r) ** self.p

    def drift(self, X: np.ndarray) -> np.ndarray:
        """g0 evaluated at a batch of states; X is (..., n), result (..., n)."""
        return self._g0_fn(np.asarray(X, dtype=float), None)

    def input_fields(self, X: np.ndarray) -> np.ndarray:
        """All g_i at a batch of states; result has shape (m, ..., n)."""
        X = np.asarray(X, dtype=float)
        if not self._g_fn:                   # m = 0: no fields to stack
            return np.zeros((0, *X.shape))
        return np.stack([g(X, None) for g in self._g_fn], axis=0)

    def dynamics(self, x, u) -> np.ndarray:
        return self._rhs(*_checked(self, x, u))


@dataclass(frozen=True, eq=False)
class GeneralSystem:
    """dx/dt = F(x, u) with no structure assumed; the input-value set is all of R^m."""

    n: int
    m: int
    F: tuple  # n expression source strings over x and u
    name: str = ""

    def __post_init__(self):
        asts = tuple(ex.parse(src, self.n, self.m) for src in self.F)
        if len(self.F) != self.n:
            raise DimensionError("F must have n components")
        object.__setattr__(self, "_rhs", _compile_fields((asts,))[0])

    dynamics = AffineSystem.dynamics


System = Union[AffineSystem, GeneralSystem]


def _checked(sys: System, x, u) -> tuple:
    """x and u as float arrays, their last dimensions checked against (n, m)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[-1] != sys.n:
        raise DimensionError(f"state has dimension {x.shape[-1]}, expected {sys.n}")
    if u.shape[-1] != sys.m:
        raise DimensionError(f"input has dimension {u.shape[-1]}, expected {sys.m}")
    return x, u


# ---------------------------------------------------------------------------
# Scalar non-affine example: the pieces phi / psi / f
# ---------------------------------------------------------------------------
# These plain-ufunc forms are the reference route for the piecewise scalar
# system; the zoo entry carries the equivalent DSL expression, and the two are
# cross-checked in the test suite.

def phi_clip(s, t):
    """sign(s) * max(min((|s| - t)/2, |s|), 0); vanishes for t >= |s|, equals s for t <= -|s|."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.sign(s) * np.maximum(np.minimum((np.abs(s) - t) / 2.0, np.abs(s)), 0.0)


def psi_blend(a, b):
    """(phi(b - a, b + a - 2) + (b - a)) / 2 for a, b >= 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.5 * (phi_clip(b - a, b + a - 2.0) + (b - a))


def f_scalar(x, u):
    """Right-hand side of the scalar non-affine system.

    Equals (|u| + x) * psi(x, |u|) for x >= 0 and x^2 + |u| * psi(0, |u|) for x < 0;
    the two branches agree at x = 0.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    pos = (np.abs(u) + x) * psi_blend(x, np.abs(u))
    neg = x * x + np.abs(u) * psi_blend(0.0, np.abs(u))
    return np.where(x >= 0, pos, neg)


def _phi_src(s: str, t: str) -> str:
    return f"sign({s})*max(min((abs({s})-({t}))/2, abs({s})), 0)"


def _psi_src(a: str, b: str) -> str:
    return f"0.5*({_phi_src(f'({b})-({a})', f'({b})+({a})-2')} + (({b})-({a})))"


def _scalar_system_src() -> str:
    fplus = f"(abs(u1)+x1)*({_psi_src('x1', 'abs(u1)')})"
    fminus = f"x1*x1 + abs(u1)*({_psi_src('0', 'abs(u1)')})"
    return f"((1+sign(x1))/2)*({fplus}) + ((1-sign(x1))/2)*({fminus})"


# ---------------------------------------------------------------------------
# Zoo
# ---------------------------------------------------------------------------

ANY_POSITIVE = "any positive"


@dataclass(frozen=True, eq=False)
class ZooEntry:
    name: str
    system: System
    claimed_witness: "storage.StorageCandidate"
    claimed_gamma: object  # float, or the string ANY_POSITIVE
    notes: str = ""

    @property
    def has_specific_gamma(self) -> bool:
        return not isinstance(self.claimed_gamma, str)

    @property
    def gamma_for_checks(self) -> float:
        """A concrete gain to use in numeric claim checks."""
        return self.claimed_gamma if self.has_specific_gamma else 0.01


def make_sigma1() -> AffineSystem:
    return AffineSystem(
        n=2, m=2,
        g0=("abs(x1)*(-x1+abs(x2))", "x2*(-x1-abs(x2))"),
        g=(("abs(x1)", "0"), ("0", "x2")),
        name="sigma1")


def make_sigma1_c1() -> AffineSystem:
    # C^1 variant of sigma1: cubic cross terms cancel against the L1-type witness.
    return AffineSystem(
        n=2, m=2,
        g0=("pow(x1*x2,3) - x1*abs(x1)", "-spow(x1*x2,3) - x2*abs(x2)"),
        g=(("x1", "0"), ("0", "x2")),
        name="sigma1_c1")


def make_sigma2() -> AffineSystem:
    # Cusp system: the x2-equation carries the real-root x2^(4/3) factor.
    return AffineSystem(
        n=2, m=2,
        g0=("-x1+x2", "3*pow(cbrt(x2),4)*(-x1-x2)"),
        g=(("1", "0"), ("0", "3*pow(cbrt(x2),4)")),
        name="sigma2")


# L1 harmonic oscillator field and its strictly dissipative drift.
_L1_OSC = ("abs(x1)*x2", "-abs(x2)*x1")
_L1_DRIFT = ("-abs(x1)*x1", "-abs(x2)*x2")


def make_sigma_p(p: float) -> AffineSystem:
    """Two-channel power-affine system g0 + |u1|^p g - |u2|^p g."""
    neg = tuple(f"-({c})" for c in _L1_OSC)
    return AffineSystem(
        n=2, m=2, g0=_L1_DRIFT, g=(_L1_OSC, neg),
        p=p, phi="abs_pow", name=f"sigma_p({p:g})")


def make_sigma_p_signed(p: float) -> AffineSystem:
    """Single-channel signed variant g0 + sign(u)|u|^p g."""
    return AffineSystem(
        n=2, m=1, g0=_L1_DRIFT, g=(_L1_OSC,),
        p=p, phi="signed_pow", name=f"sigma_p_signed({p:g})")


def make_sigma3_scalar() -> GeneralSystem:
    return GeneralSystem(n=1, m=1, F=(_scalar_system_src(),), name="sigma3_scalar")


def make_scalar_linear() -> AffineSystem:
    return AffineSystem(n=1, m=1, g0=("-x1",), g=(("1",),), name="scalar_linear")


def make_scalar_decay() -> AffineSystem:
    return AffineSystem(n=1, m=1, g0=("-2*x1",), g=(("0",),), name="scalar_decay")


# name, system factory, claimed witness (a built-in), claimed gamma, notes
_ZOO = (
    ("sigma1", make_sigma1, "v1_scaled", 1.0,
     "Lipschitz fields; the scaled L1 norm witnesses gain 1, but no "
     "C1-away-from-origin witness of gain 1 can be proper or positive definite."),
    ("sigma1_c1", make_sigma1_c1, "v1_scaled", 1.0,
     "C1 fields variant of sigma1; cubic cross terms cancel against the "
     "sign pattern of the witness, so the same claim holds."),
    ("sigma2", make_sigma2, "v2", 1.0,
     "Continuous witness x1^2 + x2^(2/3) of gain 1; no locally Lipschitz "
     "witness of gain 1 can be proper or positive definite."),
    ("sigma_p(3)", lambda: make_sigma_p(3.0), "v1", ANY_POSITIVE,
     "Cubic input powers; the L1 norm witnesses every positive gain, yet "
     "no C1-away-from-origin candidate witnesses any gain."),
    ("sigma_p_signed(3)", lambda: make_sigma_p_signed(3.0), "v1", ANY_POSITIVE,
     "Signed single-channel variant of sigma_p(3) with the same claims."),
    ("sigma3_scalar", make_sigma3_scalar, "v3_scalar", 1.0,
     "Scalar non-affine system; max(|x|, 2x-1) witnesses gain 1 and every "
     "gain-1 witness must be non-differentiable at x = 1."),
    ("scalar_linear", make_scalar_linear, "sq_norm", 1.0,
     "dx/dt = -x + u; |x|^2 witnesses gain 1 (used by the 1-D construction)."),
    ("scalar_decay", make_scalar_decay, "sq_norm", ANY_POSITIVE,
     "dx/dt = -2x with a zero input field; |x|^2 witnesses every positive "
     "gain (used by the 1-D construction)."),
)


def _build(name, make, witness, gamma, notes) -> ZooEntry:
    return ZooEntry(name, make(), storage.builtin(witness), gamma, notes=notes)


def zoo() -> list:
    """The registered example systems together with their claimed witnesses.

    Naming note: the source material labels both the 2-D cusp system and the
    scalar non-affine system with the same subscript; here the cusp system is
    ``sigma2`` (witness ``v2``) and the scalar one is ``sigma3_scalar``
    (witness ``v3_scalar``).
    """
    return [_build(*row) for row in _ZOO]


def zoo_entry(name: str) -> ZooEntry:
    """The one zoo entry ``name``, built alone."""
    for row in _ZOO:
        if row[0] == name:
            return _build(*row)
    raise KeyError(f"no zoo entry named {name!r}")


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def system_from_config(cfg: dict) -> System:
    """Build a system from its JSON dict form (see the file-format docs)."""
    kind = cfg.get("kind")
    name = cfg.get("name", "")
    n, m = int(cfg["n"]), int(cfg["m"])
    if kind in ("affine", "power_affine"):
        power = {"p": float(cfg["p"]), "phi": cfg["phi"]} if kind == "power_affine" else {}
        return AffineSystem(n, m, tuple(cfg["g0"]), tuple(tuple(gi) for gi in cfg["g"]),
                            name=name, **power)
    if kind == "general":
        return GeneralSystem(n, m, tuple(cfg["F"]), name=name)
    raise ValueError(f"unknown system kind {kind!r}")


def system_to_config(sys: System) -> dict:
    if isinstance(sys, AffineSystem):
        cfg = {"name": sys.name, "kind": "affine", "n": sys.n, "m": sys.m,
               "g0": list(sys.g0), "g": [list(gi) for gi in sys.g]}
        if not sys.input_affine:
            cfg.update(kind="power_affine", p=sys.p, phi=sys.phi)
        return cfg
    if isinstance(sys, GeneralSystem):
        return {"name": sys.name, "kind": "general", "n": sys.n, "m": sys.m,
                "F": list(sys.F)}
    raise TypeError(f"not a system: {sys!r}")
