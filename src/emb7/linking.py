"""Linking number of the theta = 0 and theta = pi fibers of the twisted
torus embeddings S^1 x S^3 -> S^7, which realizes their lambda invariant,
as the degree of the generalized Gauss map G(x, y) = (f(x) - g(y)) /
|f(x) - g(y)|.

The torus of type (l, b) maps (theta, x) to (x, alpha1(x) cos(theta) +
alpha2(x) sin(theta))/sqrt(2) with alpha1(x) = x^l, so at every b its two
fibers are x -> (x, +-x^l)/sqrt(2), oriented by the frame (x i, x j, x k).
They are projected from e5, which is off the image, and which conjugation
by any unit quaternion fixes while mapping each fiber to itself.  So the
degree, a quadrature over both parametrizing 3-spheres, sums one fiber over
one point x_t = cos t + i sin t of each conjugacy class, and the other over
the xi2 = 0 column of its Hopf grid, which the e^{i s} fixing x_t shift
along xi2.

A rung is one stacked node set, the slice then the column: both fibers
take one jet pass with a sign per node, and `pair_sum` one Pluecker pass
and one Laplace contraction over both sides' rows, which reduces the 7x7
determinant of every node pair to matrix products: a fixed number of numpy
calls at every l.  That is the only path; the sum over any two cycles on
the full Hopf grid, which the tests hold it to, is in tests/conftest.py.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import combinations

import numpy as np

from . import quat
from .resolution import DEFAULT_RESOLUTION

VOL_S6 = 16.0 * math.pi ** 3 / 15.0

# Global sign of the degree integrand.  Calibrated once against the (1, 0)
# twisted torus (which must link +1) and frozen; see test suite.
INTEGRAND_SIGN = -1.0


class UnconvergedError(RuntimeError):
    """Quadrature residual too large; raise the resolution."""


# points (N, 4) unit quaternions, tangents (N, 3, 4) coordinate tangents,
# weights (N,) product quadrature weights, and coeff (N, 3, 3) the tangents
# in the frame (x i, x j, x k) along which the jets differentiate
SphereGrid = namedtuple("SphereGrid", "points tangents weights coeff")


def _sphere_grid(points, tangents, weights) -> SphereGrid:
    """The grid of these arrays, made read-only: cached grids are shared."""
    coeff = np.einsum("nad,nbd->nab", tangents, quat.frame(points))
    for a in (points, tangents, weights, coeff):
        a.flags.writeable = False
    return SphereGrid(points, tangents, weights, coeff)


def hopf_grid(n: int) -> SphereGrid:
    """Tensor quadrature grid on S^3 in Hopf coordinates x = (cos(eta)
    e^{i xi1}, sin(eta) e^{i xi2}): Gauss-Legendre nodes in eta on
    [0, pi/2] and 2n uniform nodes in each periodic angle.  The volume
    factor rides in the tangents, so the weights are plain products."""
    return _sphere_grid(*_hopf_nodes(n, 2 * n))


def _hopf_nodes(n: int, cols: int) -> tuple:
    """The points, tangents and weights of hopf_grid(n) on its first
    `cols` xi2."""
    if n < 1:
        raise ValueError("resolution must be >= 1")
    nodes, wts = _gauss_legendre(n)
    eta = (nodes + 1.0) * (math.pi / 4.0)
    w_eta = wts * (math.pi / 4.0)
    m = 2 * n
    xi = 2.0 * math.pi * np.arange(m) / m
    w_xi = 2.0 * math.pi / m
    k = np.arange(n * m * cols)  # eta slowest, xi2 fastest
    E, X1, X2 = eta[k // (m * cols)], xi[k // cols % m], xi[k % cols]
    ce, se = np.cos(E), np.sin(E)
    c1, s1 = np.cos(X1), np.sin(X1)
    c2, s2 = np.cos(X2), np.sin(X2)
    pts = np.stack([ce * c1, ce * s1, se * c2, se * s2], axis=-1)
    z = np.zeros_like(ce)
    tangents = np.stack([-se * c1, -se * s1, ce * c2, ce * s2,  # d/d eta
                         -ce * s1, ce * c1, z, z,  # d/d xi1
                         z, z, -se * s2, se * c2], axis=-1).reshape(-1, 3, 4)
    return pts, tangents, np.repeat(w_eta * w_xi * w_xi, m * cols)


def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton on
    P_n's recurrence from -cos(pi (k + 3/4) / (n + 1/2)) on the lower half,
    mirrored, symmetrized and scaled to total 2 as numpy's leggauss does."""
    nodes, weights = [], []
    for k in range((n + 1) // 2):
        x = -math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-15:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    x = np.array(nodes + [-v for v in reversed(nodes[:n // 2])])
    w = np.array(weights + weights[:n // 2][::-1])
    return (x - x[::-1]) / 2.0, w * (2.0 / w.sum())


def _midpoint_grid_points(m: int, length: float) -> tuple:
    """Midpoints of m equal cells of [0, length] and their covering radius."""
    h = length / m
    return (np.arange(m) + 0.5) * h, 0.5 * h


# Unit-sphere cycles with both 4-blocks of norm 1/sqrt(2) stay this far
# from any coordinate-axis pole, e5 included, so stereographic projection
# contracts distances by at most this factor.
_POLE_FACTOR = 1.0 + 1.0 / math.sqrt(2.0)


def tau_fiber_separation(l: int) -> float:
    """Certified separation of the projected theta = 0, pi fibers of any
    (l, b) torus, in closed form.

    The raw fibers are (x, h(x))/sqrt(2) and (y, -h(y))/sqrt(2), h(x) =
    x^k with k = l.  If x and y are g apart on S^3, h(x) and h(y) are at
    most min(pi, |k| g) apart, so the squared distance of the two points
    is at least f(g) = 2 - cos g + cos(min(pi, |k| g)).  Applying
    1 - cos t >= 2 t^2 / pi^2 to g and to pi - |k| g gives f >= 2 / (1 +
    k^2).  For 1 <= |k| <= 64 the bound is also min f over midpoints of a
    grid on [0, pi/|k|], less (1 + |k|) times their covering radius, as
    |f'| <= 1 + |k| there; beyond pi/|k|, f = 1 - cos g increases.  The
    root of the larger bound is divided by _POLE_FACTOR.  Any
    |k|-Lipschitz h into S^3 gets the same bound.
    """
    k = abs(l)
    square = 2.0 / (1.0 + k * k)
    if 1 <= k <= 64:
        g, radius = _midpoint_grid_points(16 * (1 + k) ** 2, math.pi / k)
        f = 2.0 - np.cos(g) + np.cos(k * g)
        # 1e-12 covers the rounding of f
        square = max(square, float(f.min()) - (1 + k) * radius - 1e-12)
    return math.sqrt(square) / _POLE_FACTOR


@functools.lru_cache(maxsize=8)
def _tau_grid(n: int) -> SphereGrid:
    """Both sides of a tau rung as one node set, built once per process.

    First the slice: x_t = cos t + i sin t at t = pi k / m, k < m = 2n, one
    point of each conjugacy class of S^3, weighted by its area 4 pi sin^2 t
    times the trapezoid step pi / m on [0, pi], with tangents -frame(x_t),
    oriented as hopf_grid's.  Then the xi2 = 0 column of hopf_grid(n),
    with weights times its orbit of 2n shifts."""
    m = 2 * n
    t = math.pi * np.arange(m) / m
    pts = np.zeros((m, 4))
    pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
    column, tangents, weights = _hopf_nodes(n, 1)
    return _sphere_grid(
        np.concatenate([pts, column]),
        np.concatenate([-quat.frame(pts), tangents]),
        np.concatenate([4.0 * math.pi * np.sin(t) ** 2 * (math.pi / m),
                        weights * m]))


def _cycle_nodes(jet, grid: SphereGrid) -> tuple:
    F, J = jet(grid.points)
    return np.ascontiguousarray(F, dtype=float), grid.coeff @ J, grid.weights


# Row triples of a 7x3 block, in lexicographic order: the index set of the
# 35 Pluecker coordinates of a tangent 3-plane in R^7.
_TRIPLES = np.array(list(combinations(range(7), 3)))


@functools.cache
def _laplace_terms() -> tuple:
    """(I, J, S), each (4, 35): the 140 terms of the Laplace expansion
    det[d | X | Y] = sum_K Y_K sum_t S[t, K] d_I[t, K] X_J[t, K] along its
    column blocks, X_J, Y_K being 3x3 minors on the triples of _TRIPLES.
    I[:, K] are the rows outside K in increasing order, J the other three,
    S the sign of the row permutation (I, J, K): the rows outside K pass
    over 3 + m - K_m of K's m-th row, 15 - sum(K) inversions in all, and
    I moves t places to the front.  Built on first use."""
    mask = np.sum(1 << _TRIPLES, axis=1)
    index = np.zeros(128, dtype=int)
    index[mask] = np.arange(35)
    I = np.nonzero(~mask[:, None] >> np.arange(7) & 1)[1].reshape(35, 4).T
    J = index[127 - mask - (1 << I)]
    S = (-1.0) ** (15 - _TRIPLES.sum(axis=1) + np.arange(4)[:, None])
    I.flags.writeable = J.flags.writeable = S.flags.writeable = False
    return I, J, S


@functools.cache
def _minor_index() -> tuple:
    """The row pairs of the 21 2x2 minors, and for each triple (i, j, k)
    of _TRIPLES its minors on (j, k), (i, k), (i, j).  Built on first use."""
    pairs = np.array(list(combinations(range(7), 2))).T
    at = np.zeros((7, 7), dtype=int)
    at[tuple(pairs)] = np.arange(21)
    i, j, k = _TRIPLES.T
    return pairs, at[[j, i, i], [k, k, j]]


# Scratch memory of one row chunk of the pair kernel (two float64 blocks).
_CHUNK_BYTES = 1 << 23


def _plucker(dF: np.ndarray) -> np.ndarray:
    """Pluecker coordinates (N, 35) of the frames dF (N, 3, 7): the 3x3
    minors on the row triples of _TRIPLES, each expanded along its first
    column over the 2x2 minors of the other two, which are built once."""
    (p, q), (jk, ik, ij) = _minor_index()
    a, b, c = dF[:, 0], dF[:, 1], dF[:, 2]
    i, j, k = _TRIPLES.T
    m = b[:, p] * c[:, q] - b[:, q] * c[:, p]
    return a[:, i] * m[:, jk] - a[:, j] * m[:, ik] + a[:, k] * m[:, ij]


def pair_sum(fx: np.ndarray, dfx: np.ndarray, wx: np.ndarray,
             fy: np.ndarray, dfy: np.ndarray, wy: np.ndarray) -> float:
    """sum_{a,b} wx_a wy_b det[D | dF_a | -dH_b] / |D|^7, D = F_a - H_b.

    Expanding the determinant along its column blocks gives det = p_a . w_b
    - v_a . q_b: v and w are the Pluecker coordinates of dF_a and -dH_b,
    and p_a, q_b contract them with F_a and H_b through _laplace_terms,
    both sides' rows in one pass.  The sum is then wx^T ((A B^T) *
    r2^(-7/2)) wy with A = [p | v], B = [w | -q], r2 = |F|^2 + |H|^2 -
    2 F H^T.  Row chunks stay within _CHUNK_BYTES and are added in index
    order, so results are reproducible run to run.
    """
    na, nb = len(fx), len(fy)
    if na == 0 or nb == 0:
        return 0.0
    # the integrand sees only differences F_a - H_b; centering both clouds
    # keeps the expansions of det and r2 from cancelling large terms
    center = 0.5 * (fx.mean(axis=0) + fy.mean(axis=0))
    f = np.concatenate([fx, fy]) - center
    fx, fy = f[:na], f[na:]
    I, J, S = _laplace_terms()
    P = _plucker(np.concatenate([dfx, dfy]))
    # L is p on the rows of x and q on those of y, as q takes the terms of
    # w = -P with the triples swapped, an odd permutation
    L = sum(f[:, I[t]] * (S[t] * P[:, J[t]]) for t in range(4))
    A = np.concatenate([L[:na], P[:na]], axis=1)
    B = -np.concatenate([P[na:], L[na:]], axis=1)
    # r2 in one product: [-2F, |F|^2, 1] . [H, 1, |H|^2]
    RX = np.concatenate([-2.0 * fx, np.sum(fx * fx, axis=1, keepdims=True),
                         np.ones((na, 1))], axis=1)
    RY = np.concatenate([fy, np.ones((nb, 1)),
                         np.sum(fy * fy, axis=1, keepdims=True)], axis=1)
    rows = max(1, _CHUNK_BYTES // (16 * nb))
    total = 0.0
    for a0 in range(0, na, rows):
        r2 = RX[a0:a0 + rows] @ RY.T
        g = A[a0:a0 + rows] @ B.T
        np.power(r2, -3.5, out=r2)
        g *= r2
        total += float(wx[a0:a0 + rows] @ (g @ wy))
    return total


# `value` is the rounded `estimate`; `passed` says it is within 0.1 (and l)
LinkResult = namedtuple("LinkResult", "estimate value residual passed")


def linking_number(l: int, resolution: int = DEFAULT_RESOLUTION, *,
                   separation: float) -> LinkResult:
    """Linking number of the theta = 0 and theta = pi fibers of any (l, b)
    torus as a rounding of the Gauss-map degree integral, at n =
    resolution.  Raises nothing: `verify_lambda_tau` judges the rounding.

    `separation` is the caller's certified lower bound on the distance
    between the two images: it witnesses that the degree is defined, and
    is not read here.

    The integral over the second fiber is a class function of the first
    fiber's point x.  The first is summed over the slice of `_tau_grid`,
    one point x_t of each conjugacy class, by the trapezoid rule in t
    (geometric convergence: the integrand is periodic and analytic in t),
    and the second over its column, which conjugation by e^{i s} fixing
    x_t shifts along xi2: 2n + 2n^2 nodes in one jet pass, and 4n^3 pairs.
    """
    n, m = resolution, 2 * resolution
    sign = np.repeat([1.0, -1.0], [m, m * n])[:, None]
    F, dF, w = _cycle_nodes(_FiberJet(l, sign), _tau_grid(n))
    raw = pair_sum(F[:m], dF[:m], w[:m], F[m:], dF[m:], w[m:])
    estimate = INTEGRAND_SIGN * raw / VOL_S6
    value = int(round(estimate))
    residual = abs(estimate - value)
    return LinkResult(estimate, value, residual, residual < 0.1)


# ---------------------------------------------------------------------------
# The tau fibers, projected from e5 into R^7


# The pole e5, the real axis of the second 4-block, goes to the standard
# pole e8 by the rotation e5 -> e8, e8 -> -e5, which keeps orientations.
_POLE_ORDER = [0, 1, 2, 3, 7, 5, 6, 4]
_POLE_SIGN = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0])


def stereographic_jet(y: np.ndarray, dy: np.ndarray) -> tuple:
    """Projection of S^7 minus the pole e5 onto R^7, and its derivative
    along the rows of dy."""
    y = y[..., _POLE_ORDER] * _POLE_SIGN
    dy = dy[..., _POLE_ORDER] * _POLE_SIGN
    denom = 1.0 - y[..., 7:8]
    z = y[..., :7] / denom
    dz = (dy[..., :7] / denom[..., None, :]
          + y[..., None, :7] * dy[..., 7:8] / denom[..., None, :] ** 2)
    return z, dz


class _FiberJet(namedtuple("_FiberJet", "l sign")):
    """The jet of x -> (x, sign * x^l)/sqrt(2), stereographically projected
    from e5; `sign` is +-1, or a column of them, one per node."""

    __slots__ = ()

    def __call__(self, x):
        fr = quat.frame(x)
        v, dv = quat.power_jet(x, fr, self.l)
        sign = np.asarray(self.sign, dtype=float)
        y = np.concatenate([x, sign * v], axis=-1) / math.sqrt(2.0)
        dy = np.concatenate([fr, sign[..., None] * dv], -1) / math.sqrt(2.0)
        return stereographic_jet(y, dy)


def verify_lambda_tau(l: int,
                      resolution: int = DEFAULT_RESOLUTION) -> LinkResult:
    """Check that the theta = 0 and theta = pi fibers of the (l, b) torus,
    at any b, link exactly l times.  Raises UnconvergedError when the
    estimate is not within 0.25 of an integer.  The default resolution
    passes |l| <= 3; larger twisting needs a finer grid (|l| = 4 passes at
    resolution 21)."""
    res = linking_number(l, resolution, separation=tau_fiber_separation(l))
    if res.residual > 0.25:
        raise UnconvergedError(
            f"estimate {res.estimate:.6f} is not near an integer; "
            f"raise the resolution (currently {resolution})")
    return res._replace(passed=res.passed and res.value == l)
