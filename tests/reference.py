"""Plain-numpy references: the scalar non-affine system's pieces, which cross-check its field."""
import numpy as np


def phi_clip(s, t):
    """sign(s) * max(min((|s| - t)/2, |s|), 0); vanishes for t >= |s|, equals s for t <= -|s|."""
    return np.sign(s) * np.maximum(np.minimum((np.abs(s) - t) / 2.0, np.abs(s)), 0.0)


def psi_blend(a, b):
    """(phi(b - a, b + a - 2) + (b - a)) / 2 for a, b >= 0."""
    return 0.5 * (phi_clip(b - a, b + a - 2.0) + (b - a))


def f_scalar(x, u):
    """(|u| + x) * psi(x, |u|) for x >= 0 and x^2 + |u| * psi(0, |u|) for x < 0."""
    pos = (np.abs(u) + x) * psi_blend(x, np.abs(u))
    neg = x * x + np.abs(u) * psi_blend(0.0, np.abs(u))
    return np.where(x >= 0, pos, neg)
