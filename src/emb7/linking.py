"""Linking numbers of disjoint smooth 3-cycles in R^7 as the degree of the
generalized Gauss map G(x, y) = (f(x) - g(y)) / |f(x) - g(y)|, and the
twisted torus embeddings S^1 x S^3 -> S^7 whose fiber linking realizes the
lambda invariant.

The degree is evaluated by deterministic tensor-product quadrature over
Hopf coordinates on each parametrizing 3-sphere.  The pair sum over nodes
runs in one numpy kernel, `pair_sum`, that reduces the 7x7 determinant of
every node pair to matrix products over Pluecker coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import quat

VOL_S6 = 16.0 * math.pi ** 3 / 15.0

# Global sign of the degree integrand.  Calibrated once against the (1, 0)
# twisted torus (which must link +1) and frozen; see test suite.
INTEGRAND_SIGN = -1.0

DEFAULT_RESOLUTION = 7

# Largest resolution the command line accepts: hopf_grid(32) has 131,072
# nodes, and the node arrays grow with the cube of the resolution.
MAX_RESOLUTION = 32


class SeparationError(RuntimeError):
    """Cycle images could not be certified disjoint."""


class UnconvergedError(RuntimeError):
    """Quadrature residual too large; raise the resolution."""


@dataclass
class ParamCycle:
    """A smooth parametrized oriented 3-cycle in R^7.

    `evaluator` maps unit quaternions (..., 4) to points (..., 7).
    `frame_jacobian`, when given, returns the (..., 3, 7) derivative along
    the orthonormal tangent frame (x*i, x*j, x*k); otherwise central
    differences along those directions are used with step `fd_step`.
    """

    evaluator: Callable
    frame_jacobian: Optional[Callable] = None
    orientation: int = 1

    fd_step: float = 1e-5

    def positions(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.frame_jacobian is not None:
            return self.frame_jacobian(x)
        h = self.fd_step
        rows = []
        for q in (quat.QI, quat.QJ, quat.QK):
            step = math.cos(h) * quat.QONE + math.sin(h) * q
            fwd = self.evaluator(quat.qmul(x, step))
            back = self.evaluator(quat.qmul(x, quat.qconj(step)))
            rows.append((fwd - back) / (2.0 * h))
        return np.stack(rows, axis=-2)

    def reversed(self) -> "ParamCycle":
        return ParamCycle(evaluator=self.evaluator,
                          frame_jacobian=self.frame_jacobian,
                          orientation=-self.orientation,
                          fd_step=self.fd_step)


@dataclass(frozen=True)
class SphereGrid:
    points: np.ndarray    # (N, 4) unit quaternions
    tangents: np.ndarray  # (N, 3, 4) coordinate tangents
    weights: np.ndarray   # (N,) product quadrature weights


def hopf_grid(n: int) -> SphereGrid:
    """Tensor quadrature grid on S^3 in Hopf coordinates.

    x = (cos(eta) e^{i xi1}, sin(eta) e^{i xi2}) with Gauss-Legendre nodes
    in eta on [0, pi/2] and 2n uniform nodes in each periodic angle.  The
    coordinate volume factor rides inside the tangent vectors, so the
    weights are plain products of the one-dimensional rule weights.
    """
    if n < 1:
        raise ValueError("resolution must be >= 1")
    nodes, wts = np.polynomial.legendre.leggauss(n)
    eta = (nodes + 1.0) * (math.pi / 4.0)
    w_eta = wts * (math.pi / 4.0)
    m = 2 * n
    xi = 2.0 * math.pi * np.arange(m) / m
    w_xi = 2.0 * math.pi / m

    E, X1, X2 = np.meshgrid(eta, xi, xi, indexing="ij")
    ce, se = np.cos(E).ravel(), np.sin(E).ravel()
    c1, s1 = np.cos(X1).ravel(), np.sin(X1).ravel()
    c2, s2 = np.cos(X2).ravel(), np.sin(X2).ravel()

    pts = np.stack([ce * c1, ce * s1, se * c2, se * s2], axis=-1)
    d_eta = np.stack([-se * c1, -se * s1, ce * c2, ce * s2], axis=-1)
    d_xi1 = np.stack([-ce * s1, ce * c1, np.zeros_like(ce), np.zeros_like(ce)],
                     axis=-1)
    d_xi2 = np.stack([np.zeros_like(ce), np.zeros_like(ce), -se * s2, se * c2],
                     axis=-1)
    tangents = np.stack([d_eta, d_xi1, d_xi2], axis=-2)

    W = np.meshgrid(w_eta, np.full(m, w_xi), np.full(m, w_xi),
                    indexing="ij")
    weights = (W[0] * W[1] * W[2]).ravel()
    return SphereGrid(points=pts, tangents=tangents, weights=weights)


def _midpoint_grid_points(m: int) -> tuple:
    """Uniform certification grid and its covering radius on S^3."""
    eta = (np.arange(m) + 0.5) * (math.pi / 2.0) / m
    xi = 2.0 * math.pi * (np.arange(2 * m) + 0.5) / (2 * m)
    E, X1, X2 = np.meshgrid(eta, xi, xi, indexing="ij")
    ce, se = np.cos(E).ravel(), np.sin(E).ravel()
    pts = np.stack([ce * np.cos(X1).ravel(), ce * np.sin(X1).ravel(),
                    se * np.cos(X2).ravel(), se * np.sin(X2).ravel()], axis=-1)
    # chart metric is bounded by deta^2 + dxi1^2 + dxi2^2
    radius = 0.5 * math.sqrt((math.pi / 2.0 / m) ** 2
                             + 2 * (math.pi / m) ** 2)
    return pts, radius


def _min_cross_distance(px: np.ndarray, py: np.ndarray,
                        chunk: int = 4096) -> float:
    """Exact minimum distance between two sampled point clouds."""
    ny2 = np.sum(py * py, axis=1)
    best = math.inf
    for i in range(0, len(px), chunk):
        a = px[i:i + chunk]
        d2 = (np.sum(a * a, axis=1)[:, None] + ny2[None, :]
              - 2.0 * (a @ py.T))
        best = min(best, float(d2.min()))
    return math.sqrt(max(best, 0.0))


def _lipschitz_estimate(cycle: ParamCycle, pts: np.ndarray) -> float:
    J = cycle.jacobian(pts)                       # (N, 3, 7)
    gram = np.einsum("nai,nbi->nab", J, J)        # (N, 3, 3)
    top = np.linalg.eigvalsh(gram)[..., -1]
    # sampled spectral norm with a smoothness safety margin
    return 1.25 * float(np.sqrt(np.max(top)))


def certify_separation(X: ParamCycle, Y: ParamCycle,
                       min_sep: float = 1e-9) -> float:
    """Lower bound on the distance between the cycle images.

    Dense sampling with Lipschitz padding: the sampled minimum distance
    minus (derivative bound) * (covering radius).  The derivative bound is
    a sampled estimate with a 1.25 margin; callers holding a rigorous
    bound should certify themselves and pass `separation` to
    linking_number.  Raises SeparationError when no positive bound is
    reached.
    """
    bound = -math.inf
    for m in (8, 12, 16, 24):
        pts, radius = _midpoint_grid_points(m)
        px = X.positions(pts)
        py = Y.positions(pts)
        dmin = _min_cross_distance(px, py)
        if dmin <= min_sep:
            # sampled images already touch; refinement cannot help
            break
        pad = radius * (_lipschitz_estimate(X, pts)
                        + _lipschitz_estimate(Y, pts))
        bound = max(bound, dmin - pad)
        if bound > min_sep:
            return bound
    raise SeparationError(
        f"could not certify a positive separation (best bound {bound:.3g})")


# Unit-sphere cycles with both 4-blocks of norm 1/sqrt(2) stay this far
# from the projection pole, so stereographic projection contracts
# distances by at most this factor.
_POLE_FACTOR = 1.0 + 1.0 / math.sqrt(2.0)


def sphere_pair_separation(raw_x: Callable, raw_y: Callable,
                           lip_sum: float, min_sep: float = 1e-9) -> float:
    """Certified separation of two cycles into S^7 after stereographic
    projection, given a rigorous total Lipschitz bound for the raw maps.

    Sampling happens on the sphere, where the pad is exact, and the bound
    is converted through |p(a)-p(b)| = |a-b| / sqrt((1-a8)(1-b8)).
    """
    bound = -math.inf
    for m in (8, 12, 16, 24, 32):
        pts, radius = _midpoint_grid_points(m)
        dmin = _min_cross_distance(raw_x(pts), raw_y(pts))
        if dmin <= min_sep:
            break
        bound = max(bound, dmin - radius * lip_sum)
        if bound > min_sep:
            return bound / _POLE_FACTOR
    raise SeparationError(
        f"could not certify a positive separation (best bound {bound:.3g})")


def tau_fiber_separation(l: int) -> float:
    """Certified separation of the projected theta = 0, pi fibers of any
    (l, b) torus; the fibers only see alpha1 = x^l, whose derivative has
    norm at most |l| times the input speed."""
    emb = tau_embedding(l, 0)
    lip = math.sqrt((1.0 + l * l) / 2.0)
    return sphere_pair_separation(
        emb.fiber(+1, project=False).positions,
        emb.fiber(-1, project=False).positions,
        lip_sum=2.0 * lip)


def _cycle_nodes(cycle: ParamCycle, grid: SphereGrid) -> tuple:
    F = cycle.positions(grid.points)
    J = cycle.jacobian(grid.points)
    fr = quat.frame(grid.points)
    coeff = np.einsum("nad,nbd->nab", grid.tangents, fr)
    dF = np.einsum("nab,nbi->nai", coeff, J)
    return (np.ascontiguousarray(F, dtype=np.float64),
            np.ascontiguousarray(dF, dtype=np.float64),
            np.ascontiguousarray(grid.weights, dtype=np.float64))


# Row triples of a 7x3 block, in lexicographic order: the index set of the
# 35 Pluecker coordinates of a tangent 3-plane in R^7.
_TRIPLES = np.array(list(combinations(range(7), 3)))


@functools.cache
def _laplace_signs() -> np.ndarray:
    """S[i, J, K] = sign of the row permutation (i, J, K) when the rows of a
    7x7 matrix split into a singleton i and two sorted triples J and K,
    zero when they do not split (140 nonzeros).  Laplace expansion of
    det[d | X | Y] along its column blocks is sum S[i, J, K] d_i X_J Y_K,
    where X_J, Y_K are 3x3 minors.  Built on first use and read-only."""
    index = {tuple(t): k for k, t in enumerate(_TRIPLES.tolist())}
    signs = np.zeros((7, 35, 35))
    for i in range(7):
        rest = [r for r in range(7) if r != i]
        for J in combinations(rest, 3):
            K = tuple(r for r in rest if r not in J)
            perm = (i,) + J + K
            inversions = sum(a > b for a, b in combinations(perm, 2))
            signs[i, index[J], index[K]] = -1.0 if inversions % 2 else 1.0
    signs.flags.writeable = False
    return signs


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
    H_b through the sign tensor of _laplace_signs.  The whole sum is then
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
    S = _laplace_signs()
    v = _plucker(dfx)
    w = -_plucker(dfy)
    p = sum(fx[:, i, None] * (v @ S[i]) for i in range(7))
    q = sum(fy[:, i, None] * (w @ S[i].T) for i in range(7))
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


@dataclass(frozen=True)
class LinkResult:
    estimate: float
    value: int
    residual: float
    separation: float
    resolution: int


def linking_number(X: ParamCycle, Y: ParamCycle,
                   resolution: int = DEFAULT_RESOLUTION,
                   require_convergence: bool = True,
                   separation: Optional[float] = None) -> LinkResult:
    """Linking number of two disjoint 3-cycles as a certified rounding of
    the Gauss-map degree integral.

    A caller holding its own certified positive `separation` may pass it
    to skip the sampling certification.  Raises SeparationError when
    disjointness cannot be certified and, if `require_convergence`,
    UnconvergedError when the estimate is not within 0.25 of an integer.
    """
    if separation is not None and separation <= 0:
        raise SeparationError("caller-supplied separation is not positive")
    sep = separation if separation is not None else certify_separation(X, Y)
    grid = hopf_grid(resolution)
    fx, dfx, wx = _cycle_nodes(X, grid)
    fy, dfy, wy = _cycle_nodes(Y, grid)
    raw = pair_sum(fx, dfx, wx, fy, dfy, wy)
    estimate = (INTEGRAND_SIGN * X.orientation * Y.orientation
                * raw / VOL_S6)
    value = int(round(estimate))
    residual = abs(estimate - value)
    if require_convergence and residual > 0.25:
        raise UnconvergedError(
            f"estimate {estimate:.6f} is not near an integer; "
            f"raise the resolution (currently {resolution})")
    return LinkResult(estimate=estimate, value=value, residual=residual,
                      separation=sep, resolution=resolution)


# ---------------------------------------------------------------------------
# Twisted torus embeddings S^1 x S^3 -> S^7 in R^8


def _const_jet(q: np.ndarray, like: np.ndarray) -> tuple:
    value = np.broadcast_to(q, like.shape).copy()
    dvalue = np.zeros(like.shape[:-1] + (3, 4))
    return (value, dvalue)


def _x_jet(x: np.ndarray) -> tuple:
    return (x, quat.frame(x))


def _frame_jets(x: np.ndarray, l: int, b: int) -> tuple:
    """Jets of the orthonormal 2-frame alpha(x) = (x^l, x^l (x^b i x^-b)).

    The second vector is a unit imaginary conjugate of i rotated by x^l, so
    the frame is orthonormal for every x; (l, b) = (0, 0) gives the
    constant frame (1, i).
    """
    xj = _x_jet(x)
    a1 = quat.jet_pow(xj, l)
    if b == 0:
        w = _const_jet(quat.QI, x)
    else:
        xb = quat.jet_pow(xj, b)
        w = quat.jet_mul(quat.jet_mul(xb, _const_jet(quat.QI, x)),
                         quat.jet_conj(xb))
    a2 = quat.jet_mul(a1, w)
    return a1, a2


def stereographic(y: np.ndarray) -> np.ndarray:
    """Projection of S^7 minus the pole (0,...,0,1) onto R^7."""
    return y[..., :7] / (1.0 - y[..., 7:8])


def stereographic_jet(y: np.ndarray, dy: np.ndarray) -> tuple:
    denom = 1.0 - y[..., 7:8]
    z = y[..., :7] / denom
    dz = (dy[..., :7] / denom[..., None, :]
          + y[..., None, :7] * dy[..., 7:8] / denom[..., None, :] ** 2)
    return z, dz


@dataclass(frozen=True)
class TauEmbedding:
    """The twisted torus embedding of type (l, b).

    Maps (theta, x) to (x, alpha1(x) cos(theta) + alpha2(x) sin(theta)) on
    the sphere of radius 1 (both 4-blocks have norm 1/sqrt(2)), so the
    stereographic pole (0,...,0,1) is never in the image.
    """

    l: int
    b: int

    def evaluate(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        (a1, _), (a2, _) = _frame_jets(x, self.l, self.b)
        t = np.asarray(theta)[..., None]
        abar = a1 * np.cos(t) + a2 * np.sin(t)
        return np.concatenate([x, abar], axis=-1) / math.sqrt(2.0)

    def fiber(self, sign: int = 1, project: bool = True) -> ParamCycle:
        """The cycle x -> (x, sign * x^l)/sqrt(2) cut out by theta = 0 or
        pi, stereographically projected into R^7 by default."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        l = self.l

        def evaluator(x):
            v, _ = quat.jet_pow(_x_jet(x), l)
            y = np.concatenate([x, sign * v], axis=-1) / math.sqrt(2.0)
            return stereographic(y) if project else y

        def frame_jacobian(x):
            v, dv = quat.jet_pow(_x_jet(x), l)
            y = np.concatenate([x, sign * v], axis=-1) / math.sqrt(2.0)
            dy = np.concatenate([quat.frame(x), sign * dv], axis=-1) \
                / math.sqrt(2.0)
            if not project:
                return dy
            _, dz = stereographic_jet(y, dy)
            return dz

        return ParamCycle(evaluator=evaluator, frame_jacobian=frame_jacobian)


def tau_embedding(l: int, b: int) -> TauEmbedding:
    return TauEmbedding(l=int(l), b=int(b))


def t1_fiber(sign: int = 1, project: bool = True) -> ParamCycle:
    """Fiber cycle of the quaternion-multiplication model of the (1, 0)
    torus: y -> (sign*y, y)/sqrt(2), projected into R^7 by default."""

    def evaluator(y):
        z = np.concatenate([sign * y, y], axis=-1) / math.sqrt(2.0)
        return stereographic(z) if project else z

    return ParamCycle(evaluator=evaluator)


def t1_separation() -> float:
    return sphere_pair_separation(
        t1_fiber(+1, project=False).positions,
        t1_fiber(-1, project=False).positions,
        lip_sum=2.0)  # each block moves at the speed of y


def t2_fiber(sign: int = 1, project: bool = True) -> ParamCycle:
    """Fiber cycle of the Hopf-map model of the (0, 1) torus:
    y -> (sign * y i y^-1, y)/sqrt(2), projected into R^7 by default."""

    def evaluator(y):
        eta = quat.qmul(quat.qmul(y, np.broadcast_to(quat.QI, y.shape)),
                        quat.qconj(y))
        z = np.concatenate([sign * eta, y], axis=-1) / math.sqrt(2.0)
        return stereographic(z) if project else z

    return ParamCycle(evaluator=evaluator)


def t2_separation() -> float:
    # conjugation of i by y has derivative norm at most 2|dy|
    return sphere_pair_separation(
        t2_fiber(+1, project=False).positions,
        t2_fiber(-1, project=False).positions,
        lip_sum=2.0 * math.sqrt(5.0 / 2.0))


@dataclass(frozen=True)
class TauVerification:
    l: int
    b: int
    estimate: float
    value: int
    residual: float
    passed: bool
    resolution: int


def verify_lambda_tau(l: int, b: int,
                      resolution: int = DEFAULT_RESOLUTION) -> TauVerification:
    """Check that the theta = 0 and theta = pi fibers of the (l, b) torus
    link exactly l times.

    The default resolution is tuned for |l| <= 2 (residuals below 3e-3);
    larger twisting sharpens the integrand and needs a finer grid, e.g.
    |l| = 3 wants resolution >= 9.
    """
    emb = tau_embedding(l, b)
    sep = tau_fiber_separation(l)
    res = linking_number(emb.fiber(+1), emb.fiber(-1),
                         resolution=resolution, separation=sep)
    passed = res.value == l and res.residual < 0.1
    return TauVerification(l=l, b=b, estimate=res.estimate, value=res.value,
                           residual=res.residual, passed=passed,
                           resolution=resolution)
