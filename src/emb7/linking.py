"""Linking numbers of disjoint smooth 3-cycles in R^7 as the degree of the
generalized Gauss map G(x, y) = (f(x) - g(y)) / |f(x) - g(y)|, and the
twisted torus embeddings S^1 x S^3 -> S^7 whose fiber linking realizes the
lambda invariant.

A cycle is given by the analytic jet of its parametrization by the unit
quaternions.  The degree is a quadrature over both parametrizing
3-spheres, whose pair sum runs in one numpy kernel, `pair_sum`, that
reduces the 7x7 determinant of every node pair to matrix products over
Pluecker coordinates.  The tau fibers are projected from e5, the real axis
of the second 4-block, which conjugation by any unit quaternion fixes
while mapping each fiber to itself.  So `link tau` sums one fiber over
one point x_t = cos t + i sin t of each conjugacy class, and the other
over the xi2 = 0 column of its Hopf grid, which the e^{i s} fixing x_t
shift along xi2.  Cycles without that symmetry are summed over the full
Hopf grid on both sides, the reference the tests hold the slice to.

A tau node costs a fixed number of numpy calls at every l: the power
x -> x^l and its derivative are closed forms (`quat.power_jet`), the
frame is a signed gather of x's components (`quat.frame`), and the slice
and the column are built once per process and shared read-only.
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


class ParamCycle(namedtuple("ParamCycle", "jet conjugation_symmetric",
                            defaults=(False,))):
    """A smooth parametrized oriented 3-cycle in R^7.

    `jet` maps unit quaternions x (..., 4) to the points (..., 7) and their
    (..., 3, 7) derivative along the orthonormal tangent frame
    (x*i, x*j, x*k), which orients the cycle.  `conjugation_symmetric`
    marks a cycle that conjugation x -> q x q^-1 by every unit quaternion q
    maps to its image under the rotation of R^7 that conjugating both
    4-blocks by q induces on the projection from the pole e5, which every
    such conjugation fixes: `linking_number` then sums X over one point of
    each conjugacy class, and Y over the xi2 = 0 column, which that
    point's stabiliser e^{i s} shifts along xi2.
    """

    __slots__ = ()


# points (N, 4) unit quaternions, tangents (N, 3, 4) coordinate tangents,
# weights (N,) product quadrature weights, and coeff (N, 3, 3) the tangents
# in the frame (x i, x j, x k) along which the jets differentiate
SphereGrid = namedtuple("SphereGrid", "points tangents weights coeff")


def _sphere_grid(points, tangents, weights) -> SphereGrid:
    """The grid of these arrays, all made read-only, as the cached grids
    are shared by every caller."""
    coeff = np.einsum("nad,nbd->nab", tangents, quat.frame(points))
    for a in (points, tangents, weights, coeff):
        a.flags.writeable = False
    return SphereGrid(points, tangents, weights, coeff)


def hopf_grid(n: int) -> SphereGrid:
    """Tensor quadrature grid on S^3 in Hopf coordinates.

    x = (cos(eta) e^{i xi1}, sin(eta) e^{i xi2}) with Gauss-Legendre nodes
    in eta on [0, pi/2] and 2n uniform nodes in each periodic angle.  The
    coordinate volume factor rides inside the tangent vectors, so the
    weights are plain products of the one-dimensional rule weights.
    """
    return _hopf_nodes(n, 2 * n)


def _hopf_nodes(n: int, cols: int) -> SphereGrid:
    """The nodes of hopf_grid(n) on its first `cols` xi2."""
    if n < 1:
        raise ValueError("resolution must be >= 1")
    nodes, wts = _gauss_legendre(n)
    eta = (nodes + 1.0) * (math.pi / 4.0)
    w_eta = wts * (math.pi / 4.0)
    m = 2 * n
    xi = 2.0 * math.pi * np.arange(m) / m
    w_xi = 2.0 * math.pi / m

    E, X1, X2 = np.meshgrid(eta, xi, xi[:cols], indexing="ij")
    ce, se = np.cos(E).ravel(), np.sin(E).ravel()
    c1, s1 = np.cos(X1).ravel(), np.sin(X1).ravel()
    c2, s2 = np.cos(X2).ravel(), np.sin(X2).ravel()

    pts = np.stack([ce * c1, ce * s1, se * c2, se * s2], axis=-1)
    d_eta = np.stack([-se * c1, -se * s1, ce * c2, ce * s2], axis=-1)
    z = np.zeros_like(ce)
    d_xi1 = np.stack([-ce * s1, ce * c1, z, z], axis=-1)
    d_xi2 = np.stack([z, z, -se * s2, se * c2], axis=-1)
    tangents = np.stack([d_eta, d_xi1, d_xi2], axis=-2)
    weights = np.repeat(w_eta * w_xi * w_xi, m * cols)
    return _sphere_grid(pts, tangents, weights)


def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]: Newton's
    method on the three-term recurrence of P_n, node by node from
    -cos(pi (k + 3/4) / (n + 1/2)) on the lower half, mirrored, then
    symmetrized and scaled to total 2 as numpy's leggauss does."""
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

    The raw fibers are (x, h(x))/sqrt(2) and (y, -h(y))/sqrt(2) on S^7,
    h(x) = x^k with k = l.  If g is the geodesic distance of x and y on
    S^3, that of h(x) and h(y) is at most min(pi, |k| g), as h moves at
    most |k| times as fast as x; so the squared distance of the two points
    is at least f(g) = 2 - cos g + cos(min(pi, |k| g)).  Applying
    1 - cos t >= 2 t^2 / pi^2 on [0, pi] to g and to pi - |k| g gives
    f >= 2 / (1 + k^2) for every k.  For 1 <= |k| <= 64 the bound is also
    min f over the midpoints of a grid on [0, pi/|k|], less (1 + |k|)
    times their covering radius, since |f'| <= 1 + |k| there; beyond
    pi/|k|, f = 1 - cos g increases.  The root of the larger bound is
    divided by _POLE_FACTOR.  Any |k|-Lipschitz h into S^3 gets the same
    bound, which serves the other fiber models too.
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
def _xi2_column(n: int) -> SphereGrid:
    """The xi2 = 0 nodes of hopf_grid(n), built once per process."""
    return _hopf_nodes(n, 1)


@functools.lru_cache(maxsize=8)
def _slice_grid(n: int) -> SphereGrid:
    """x_t = cos t + i sin t at t = pi k / m, k < m = 2n: one point of each
    conjugacy class of S^3, weighted by the class's area 4 pi sin^2 t times
    the step pi / m of the trapezoid rule on [0, pi].  The tangents are
    -frame(x_t), which have the orientation of hopf_grid's tangents.  Built
    once per process."""
    m = 2 * n
    t = math.pi * np.arange(m) / m
    pts = np.zeros((m, 4))
    pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
    return _sphere_grid(pts, -quat.frame(pts),
                        4.0 * math.pi * np.sin(t) ** 2 * (math.pi / m))


def _cycle_nodes(cycle: ParamCycle, grid: SphereGrid) -> tuple:
    F, J = cycle.jet(grid.points)
    dF = np.einsum("nab,nbi->nai", grid.coeff, J)
    return (np.ascontiguousarray(F, dtype=np.float64),
            np.ascontiguousarray(dF, dtype=np.float64), grid.weights)


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
    index = {t: k for k, t in enumerate(map(tuple, _TRIPLES.tolist()))}
    I, J, S = (np.zeros((4, 35), dtype=dt) for dt in (int, int, float))
    for k, K in enumerate(index):
        rest = [r for r in range(7) if r not in K]
        for t, i in enumerate(rest):
            I[t, k], J[t, k] = i, index[tuple(r for r in rest if r != i)]
            S[t, k] = (-1) ** (15 - sum(K) + t)
    I.flags.writeable = J.flags.writeable = S.flags.writeable = False
    return I, J, S


# Scratch memory of one row chunk of the pair kernel (two float64 blocks).
_CHUNK_BYTES = 1 << 23


def _plucker(dF: np.ndarray) -> np.ndarray:
    """Pluecker coordinates (N, 35) of the frames dF (N, 3, 7): the 3x3
    minors on the row triples of _TRIPLES."""
    a, b, c = dF[:, 0], dF[:, 1], dF[:, 2]
    i, j, k = _TRIPLES.T
    return (a[:, i] * (b[:, j] * c[:, k] - b[:, k] * c[:, j])
            - a[:, j] * (b[:, i] * c[:, k] - b[:, k] * c[:, i])
            + a[:, k] * (b[:, i] * c[:, j] - b[:, j] * c[:, i]))


def pair_sum(fx: np.ndarray, dfx: np.ndarray, wx: np.ndarray,
             fy: np.ndarray, dfy: np.ndarray, wy: np.ndarray) -> float:
    """sum_{a,b} wx_a wy_b det[D | dF_a | -dH_b] / |D|^7, D = F_a - H_b.

    The determinant is linear in D, so expanding along its column blocks
    gives det = p_a . w_b - v_a . q_b, where v and w are the Pluecker
    coordinates of dF_a and -dH_b and p_a, q_b contract them with F_a and
    H_b through the terms of _laplace_terms.  The whole sum is then
    the BLAS-shaped wx^T ((A B^T) * r2^(-7/2)) wy with A = [p | v],
    B = [w | -q] and r2 = |F|^2 + |H|^2 - 2 F H^T.  Row chunks stay within
    _CHUNK_BYTES and are added in index order, so results are reproducible
    run to run.
    """
    na, nb = len(fx), len(fy)
    if na == 0 or nb == 0:
        return 0.0
    # the integrand sees only differences F_a - H_b; centering both clouds
    # keeps the expansions of det and r2 from cancelling large terms
    center = 0.5 * (fx.mean(axis=0) + fy.mean(axis=0))
    fx = fx - center
    fy = fy - center
    I, J, S = _laplace_terms()
    v = _plucker(dfx)
    w = -_plucker(dfy)
    # q takes the same terms with the triples swapped, an odd permutation
    p = sum(fx[:, I[t]] * (S[t] * v[:, J[t]]) for t in range(4))
    q = -sum(fy[:, I[t]] * (S[t] * w[:, J[t]]) for t in range(4))
    A = np.concatenate([p, v], axis=1)
    B = np.concatenate([w, -q], axis=1)
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


# `value` is the rounded `estimate`; `passed` says that it lies within 0.1
# of it and, from verify_lambda_tau, that it is the expected l
LinkResult = namedtuple("LinkResult", "estimate value residual passed")


def linking_number(X: ParamCycle, Y: ParamCycle,
                   resolution: int = DEFAULT_RESOLUTION,
                   require_convergence: bool = True, *,
                   separation: float) -> LinkResult:
    """Linking number of two disjoint 3-cycles as a certified rounding of
    the Gauss-map degree integral.

    `separation` is the caller's certified lower bound on the distance
    between the two images (`tau_fiber_separation` for the tau fibers, and
    positive by construction): it witnesses that the images are disjoint,
    so that the degree is defined, and is not read here.  Raises, if
    `require_convergence`, UnconvergedError when the estimate is not
    within 0.25 of an integer.

    When both cycles are `conjugation_symmetric`, conjugation by every
    unit quaternion rotates R^7 and keeps the integrand of every pair, so
    the integral over Y is a class function of x.  X is then summed over
    `_slice_grid`, one point x_t of each conjugacy class, by the trapezoid
    rule in t, which converges geometrically as the integrand is periodic
    and analytic in t.  Y is summed over the xi2 = 0 column, weights times
    2n: conjugation by e^{i s} fixes x_t and shifts xi2 by a grid step, so
    the column gives the whole grid's sum up to rounding.  That is
    2n + 2n^2 jets and 4n^3 pairs at n = resolution.
    """
    if X.conjugation_symmetric and Y.conjugation_symmetric:
        fy, dfy, wy = _cycle_nodes(Y, _xi2_column(resolution))
        wy = wy * (2 * resolution)
        fx, dfx, wx = _cycle_nodes(X, _slice_grid(resolution))
    else:
        grid = hopf_grid(resolution)
        fy, dfy, wy = _cycle_nodes(Y, grid)
        fx, dfx, wx = _cycle_nodes(X, grid)
    raw = pair_sum(fx, dfx, wx, fy, dfy, wy)
    estimate = INTEGRAND_SIGN * raw / VOL_S6
    value = int(round(estimate))
    residual = abs(estimate - value)
    if require_convergence and residual > 0.25:
        raise UnconvergedError(
            f"estimate {estimate:.6f} is not near an integer; "
            f"raise the resolution (currently {resolution})")
    return LinkResult(estimate, value, residual, residual < 0.1)


# ---------------------------------------------------------------------------
# Twisted torus embeddings S^1 x S^3 -> S^7 in R^8


# The projection pole is e5, the real axis of the second 4-block.  The
# rotation e5 -> e8, e8 -> -e5 of SO(8) takes it to (0,...,0,1), the pole of
# the standard projection, so orientations are unchanged.
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


class TauEmbedding(namedtuple("TauEmbedding", "l b")):
    """The twisted torus embedding of type (l, b).

    Maps (theta, x) to (x, alpha1(x) cos(theta) + alpha2(x) sin(theta)) on
    the sphere of radius 1 (both 4-blocks have norm 1/sqrt(2)), so the
    stereographic pole e5 is never in the image.
    """

    __slots__ = ()

    def fiber(self, sign: int = 1, project: bool = True) -> ParamCycle:
        """The cycle x -> (x, sign * x^l)/sqrt(2) cut out by theta = 0 or
        pi, stereographically projected into R^7 by default.  Conjugation
        by every unit quaternion commutes with x -> x^l, so the projected
        fiber is `conjugation_symmetric`."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        l = self.l

        def jet(x):
            fr = quat.frame(x)
            v, dv = quat.power_jet(x, fr, l)
            y = np.concatenate([x, sign * v], axis=-1) / math.sqrt(2.0)
            dy = np.concatenate([fr, sign * dv], axis=-1) / math.sqrt(2.0)
            return stereographic_jet(y, dy) if project else (y, dy)

        return ParamCycle(jet=jet, conjugation_symmetric=project)


def tau_embedding(l: int, b: int) -> TauEmbedding:
    return TauEmbedding(int(l), int(b))


def verify_lambda_tau(l: int, b: int,
                      resolution: int = DEFAULT_RESOLUTION) -> LinkResult:
    """Check that the theta = 0 and theta = pi fibers of the (l, b) torus
    link exactly l times.

    The default resolution passes |l| <= 3 (residuals below 1e-2);
    larger twisting sharpens the integrand and needs a finer grid, e.g.
    |l| = 4 reaches residual 2e-4 at resolution 21.
    """
    emb = tau_embedding(l, b)
    sep = tau_fiber_separation(l)
    res = linking_number(emb.fiber(+1), emb.fiber(-1),
                         resolution=resolution, separation=sep)
    return res._replace(passed=res.passed and res.value == l)
