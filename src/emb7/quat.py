"""Batched quaternion arithmetic on float arrays of shape (..., 4).

Components are ordered (w, x, y, z).  Jets pair a value array with its
directional derivatives along a set of tangent directions (an extra axis
just before the component axis), which is how analytic Jacobians of
quaternion-polynomial maps are propagated.
"""

from __future__ import annotations

import numpy as np

QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])
QONE = np.array([1.0, 0.0, 0.0, 0.0])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def qconj(a: np.ndarray) -> np.ndarray:
    return a * _CONJ


def frame(x: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frame (x*i, x*j, x*k) at unit quaternions x.

    Returns shape (..., 3, 4); globally smooth and orientation-consistent.
    """
    return np.stack([qmul(x, QI), qmul(x, QJ), qmul(x, QK)], axis=-2)


def jet_mul(a: tuple, b: tuple) -> tuple:
    va, da = a
    vb, db = b
    return (qmul(va, vb),
            qmul(da, vb[..., None, :]) + qmul(va[..., None, :], db))


def jet_conj(a: tuple) -> tuple:
    return (qconj(a[0]), qconj(a[1]))


def jet_pow(a: tuple, n: int) -> tuple:
    """Integer power of a unit-quaternion jet.

    Negative powers use conjugation, which is the inverse on the unit
    sphere (and differentiates accordingly along tangent directions).
    """
    if n < 0:
        return jet_pow(jet_conj(a), -n)
    va, da = a
    value = np.broadcast_to(QONE, va.shape).copy()
    dvalue = np.zeros_like(da)
    acc = (value, dvalue)
    for _ in range(n):
        acc = jet_mul(acc, a)
    return acc
