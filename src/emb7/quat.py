"""Unit quaternions as float arrays of shape (..., 4), components ordered
(w, x, y, z): the tangent frame of S^3, and the power map x -> x^l with its
derivative along that frame, each in a fixed number of numpy calls.
"""

from __future__ import annotations

import numpy as np

# x*i, x*j, x*k are signed permutations of x's components
_FRAME_INDEX = np.array([[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_FRAME_SIGN = np.array([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0],
                        [-1.0, 1.0, -1.0, 1.0]])


def frame(x: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frame (x*i, x*j, x*k) at unit quaternions x.

    Returns shape (..., 3, 4); globally smooth and orientation-consistent.
    """
    return x[..., _FRAME_INDEX] * _FRAME_SIGN


def power_jet(x: np.ndarray, fr: np.ndarray, l: int) -> tuple:
    """x^l at unit quaternions x, and its derivative (..., 3, 4) along the
    frame fr = frame(x), in closed form.

    With x = cos t + n sin t, x^l = cos lt + n sin lt.  Along x v for a unit
    imaginary v the derivative is (v.n) l x^l n on the part of v along n,
    and S x v on the part orthogonal to it, S = sin lt / sin t = U_{l-1}
    (cos t); together (v.n) [(l cos lt - S cos t) n - (l - 1) sin lt]
    + S x v.  Nodes with w < 0 are first folded through x -> -x, under
    which the power takes the sign (-1)^l, so t <= pi/2: S never divides a
    cancelled sin lt by a small sin t, and at t = 0 it is l, with n = 0.
    """
    sign = np.where(x[..., :1] < 0.0, -1.0, 1.0)
    c, q = x[..., :1] * sign, x[..., 1:] * sign
    s = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    lt = l * np.arctan2(s, c)
    cl, sl = np.cos(lt), np.sin(lt)
    S = np.divide(sl, s, out=np.full_like(s, float(l)), where=s > 0.0)
    n = np.divide(q, s, out=np.zeros_like(q), where=s > 0.0)
    parity = sign ** (l % 2)
    along = np.concatenate([(1 - l) * sl, (l * cl - S * c) * n], axis=-1)
    d = n[..., :, None] * along[..., None, :] + (S * sign)[..., None] * fr
    return (np.concatenate([cl, q * S], axis=-1) * parity,
            d * parity[..., None])
