import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import emb7
import emb7.linking as lk
from emb7 import jsonio, quat
from emb7.classify import fiber_group
from emb7.exact import (IntMatrix, in_lattice, inverse_unimodular,
                        lattice_basis, smith_normal_form)
from emb7.manifolds import ManifoldData, builtin, validate
from emb7.moves import Move


def fresh_python(*args, check=False) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports emb7 from the same
    tree as this test run, with stdout and stderr captured as text."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(emb7.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60, check=check)


def encode_tensor(T) -> list:
    return [jsonio.encode_matrix(m) for m in T]


def to_json(data: ManifoldData) -> dict:
    """`data` as a manifold JSON object, the input `manifolds.from_json`
    reads; the command line only reads such objects."""
    obj = {
        "b1": data.b1,
        "b2": data.b2,
        "Q": jsonio.encode_matrix(data.Q),
        "P": jsonio.encode_matrix(data.P),
        "T": encode_tensor(data.T),
        "w2": list(data.w2),
        "sigma": jsonio.encode_int(data.sigma),
    }
    if data.name is not None:
        obj["name"] = data.name
    return obj


def is_valid(data: ManifoldData) -> bool:
    return not validate(data)


def scaled(m: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix([[c * a for a in r] for r in m.data], cols=m.cols)


@dataclasses.dataclass(frozen=True)
class Presentation:
    """A quotient Z^n / R in invariant-factor form: `invariant_factors` has
    length `ambient_rank` (0 for an infinite cyclic summand), and the
    unimodular `projection` carries ambient to factor coordinates, so v
    lies in R exactly when every factor coordinate vanishes modulo its
    factor (`exact.coset_normal_form` reads it)."""

    ambient_rank: int
    invariant_factors: tuple
    projection: IntMatrix

    def order(self):
        """Group order, or None when some factor is infinite."""
        factors = self.invariant_factors
        return None if 0 in factors else math.prod(factors)


def cokernel(ambient_rank: int, relations: IntMatrix) -> Presentation:
    """Present Z^ambient_rank modulo the column span of `relations`, from
    the Smith form of the whole relation matrix over Z, with its U as the
    projection: the tests' reference route and coset oracle."""
    if relations.rows != ambient_rank:
        raise ValueError(
            f"relations have {relations.rows} rows, ambient rank is {ambient_rank}")
    res = smith_normal_form(relations)
    diag = res.diagonal()
    factors = tuple(diag) + (0,) * (ambient_rank - len(diag))
    return Presentation(
        ambient_rank=ambient_rank,
        invariant_factors=factors,
        projection=res.U,
    )


def k_relations(lam: IntMatrix, d: int) -> IntMatrix:
    """The full relation matrix [2*lam | d*I] of the K-group of (lam, d)."""
    b1 = lam.rows
    return IntMatrix(
        [[2 * x for x in row] + [d if i == j else 0 for j in range(b1)]
         for i, row in enumerate(lam.data)], cols=lam.cols + b1)


def lattice_member(A: IntMatrix, v, d: int = 0) -> bool:
    """Whether v lies in the column span of A plus d*Z^n, n = A.rows: one
    basis built for one vector, as `classify equal` decided it before the
    basis was cached per fiber."""
    return in_lattice(lattice_basis(A, d), v, d)


def lambda_adjoint(data: ManifoldData, L: IntMatrix) -> IntMatrix:
    """The matrix of the adjoint homomorphism H3 -> H1, i.e. the unique
    Lambda with L = P @ Lambda: the oracle for the K-group route, which
    never forms P^-1."""
    if L.shape != (data.b3, data.b3):
        raise ValueError(f"L has shape {L.shape}, expected square of size {data.b3}")
    return inverse_unimodular(data.P) @ L


def base_lambda(data: ManifoldData, u) -> IntMatrix:
    """Canonical basepoint form for the fiber over u: strictly lower
    triangular, with L[j,k] = u.x_k.x_j below the diagonal.

    Antisymmetry of the triple tensor makes this a u-symmetric form, and
    every other u-symmetric form differs from it by a symmetric matrix.
    """
    t = data.triple_contraction(u)
    return IntMatrix([[t[k, j] if j > k else 0 for k in range(data.b3)]
                      for j in range(data.b3)], cols=data.b3)


def fiber_size(data: ManifoldData, u, L: IntMatrix):
    """Number of classes over (u, L), or None when infinite."""
    return fiber_group(data, u, L).size()


def net_lambda_effect(data: ManifoldData, moves) -> IntMatrix:
    """Total lambda change sum_i l_i (P s_i)(P s_i)^T of a move list.

    Accepts (s, l) pairs or Move instances; b plays no role here.
    """
    out = [[0] * data.b3 for _ in range(data.b3)]
    for mv in moves:
        s, l = (mv.s, mv.l) if isinstance(mv, Move) else (mv[0], mv[1])
        if len(s) != data.b1:
            raise ValueError(f"move class length {len(s)} != b1 {data.b1}")
        ps = data.P.apply(s)
        for j in range(data.b3):
            for k in range(data.b3):
                out[j][k] += l * ps[j] * ps[k]
    return IntMatrix(out, cols=data.b3)


def random_unimodular(rng: random.Random, n: int, steps: int = 14) -> IntMatrix:
    """Product of random elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n >= 2:
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            op = rng.randrange(3)
            if op == 0:
                c = rng.randint(-3, 3)
                for k in range(n):
                    m[i][k] += c * m[j][k]
            elif op == 1:
                m[i], m[j] = m[j], m[i]
            else:
                m[i] = [-x for x in m[i]]
    return IntMatrix(m, cols=n)


def random_symmetric(rng: random.Random, n: int, bound: int = 5) -> IntMatrix:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return IntMatrix(m, cols=n)


def random_matrix(rng: random.Random, rows: int, cols: int,
                  bound: int = 20) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)], cols=cols)


def random_form_manifold(rng: random.Random, b2: int,
                         sign: int = 0) -> ManifoldData:
    """A validated simply-connected fixture with a random unimodular
    intersection form: Q = M^T D M for diagonal D of +-1 signs, all equal
    to `sign` (a definite form) when it is nonzero."""
    signs = [sign or rng.choice((-1, 1)) for _ in range(b2)]
    m = random_unimodular(rng, b2)
    d = IntMatrix.diagonal(signs)
    q = m.T @ d @ m
    # Wu: w2 solves Q w2 = diag(Q) mod 2, so w2 = Q^-1 diag(Q) mod 2
    w2 = inverse_unimodular(q).apply([q[i, i] % 2 for i in range(b2)])
    data = ManifoldData(b1=0, b2=b2, b3=0, Q=q, P=IntMatrix.zeros(0, 0),
                        T=tuple(IntMatrix.zeros(0, 0) for _ in range(b2)),
                        w2=tuple(x % 2 for x in w2), sigma=sum(signs),
                        name=f"random-form-{b2}")
    assert not validate(data)
    return data


def free_h1_manifold(rng: random.Random, n: int) -> ManifoldData:
    """A validated fixture with b1 = b3 = n, b2 = 0 and a random
    unimodular duality pairing (abstract data, used for the H1/H3 side)."""
    data = ManifoldData(b1=n, b2=0, b3=n, Q=IntMatrix.zeros(0, 0),
                        P=random_unimodular(rng, n), T=(), w2=(), sigma=0,
                        name=f"free-h1-{n}")
    assert not validate(data)
    return data


def basis_change(data: ManifoldData, m2: IntMatrix, a: IntMatrix,
                 b: IntMatrix) -> ManifoldData:
    """Re-express the data after unimodular changes of basis on H2 (m2),
    H3 (a) and H1 (b); columns of each matrix are the new basis vectors."""
    m2_inv = inverse_unimodular(m2) if data.b2 else m2
    w2 = tuple(x % 2 for x in m2_inv.apply(data.w2)) if data.b2 else ()
    slices = []
    for i in range(data.b2):
        acc = IntMatrix.zeros(data.b3, data.b3)
        for asl in range(data.b2):
            c = m2[asl, i]
            if c:
                acc = acc + scaled(a.T @ data.T[asl] @ a, c)
        slices.append(acc)
    return dataclasses.replace(
        data,
        Q=m2.T @ data.Q @ m2,
        P=a.T @ data.P @ b,
        T=tuple(slices),
        w2=w2,
        name=None,
    )


def direct_sum(d1: ManifoldData, d2: ManifoldData) -> ManifoldData:
    """Homology data of a connected sum: block sums of every structure."""
    def block(a: IntMatrix, b: IntMatrix) -> IntMatrix:
        out = [[0] * (a.cols + b.cols) for _ in range(a.rows + b.rows)]
        for i in range(a.rows):
            for j in range(a.cols):
                out[i][j] = a[i, j]
        for i in range(b.rows):
            for j in range(b.cols):
                out[a.rows + i][a.cols + j] = b[i, j]
        return IntMatrix(out, cols=a.cols + b.cols)

    b3 = d1.b3 + d2.b3
    slices = tuple(block(t, IntMatrix.zeros(d2.b3, d2.b3)) for t in d1.T) \
        + tuple(block(IntMatrix.zeros(d1.b3, d1.b3), t) for t in d2.T)
    data = ManifoldData(
        b1=d1.b1 + d2.b1, b2=d1.b2 + d2.b2, b3=b3,
        Q=block(d1.Q, d2.Q), P=block(d1.P, d2.P), T=slices,
        w2=d1.w2 + d2.w2, sigma=d1.sigma + d2.sigma,
        name=f"{d1.name}#{d2.name}")
    assert not validate(data)
    return data


# --- quaternion oracles --------------------------------------------------------
# Products of quaternion arrays (..., 4), components (w, x, y, z), and jets:
# a value with its derivatives along tangent directions (an extra axis just
# before the component axis).  The reference for quat.frame and
# quat.power_jet, and the arithmetic of the tests' other fiber models.

QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])
QONE = np.array([1.0, 0.0, 0.0, 0.0])


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
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def jet_mul(a: tuple, b: tuple) -> tuple:
    va, da = a
    vb, db = b
    return (qmul(va, vb),
            qmul(da, vb[..., None, :]) + qmul(va[..., None, :], db))


def jet_conj(a: tuple) -> tuple:
    return (qconj(a[0]), qconj(a[1]))


def jet_pow(a: tuple, n: int) -> tuple:
    """Integer power of a unit-quaternion jet by |n| products.

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


# --- points-only fiber oracles -----------------------------------------------
# The points of the projected fibers, without derivatives and without the
# jets of `src`: what a distance check such as the separation bound reads.


def projected_from_e5(y: np.ndarray) -> np.ndarray:
    """Stereographic projection of S^7 from e5 onto R^7, up to a rotation
    of R^7 (which keeps every distance): points only."""
    return np.delete(y, 4, axis=-1) / (1.0 - y[..., 4:5])


def tau_points(l: int, sign: int):
    """x -> the projected (x, sign * x^l)/sqrt(2), with x^l from jet_pow
    along no tangent direction."""

    def points(x):
        power, _ = jet_pow((x, np.zeros(x.shape[:-1] + (0, 4))), l)
        return projected_from_e5(
            np.concatenate([x, sign * power], axis=-1) / math.sqrt(2.0))

    return points


def t1_points(sign: int):
    """y -> the projected (sign * y, y)/sqrt(2), the points of t1_fiber."""
    return lambda y: projected_from_e5(
        np.concatenate([sign * y, y], axis=-1) / math.sqrt(2.0))


def t2_points(sign: int):
    """y -> the projected (sign * y i y^-1, y)/sqrt(2), the points of
    t2_fiber."""
    return lambda y: projected_from_e5(np.concatenate(
        [sign * qmul(qmul(y, QI), qconj(y)), y], axis=-1) / math.sqrt(2.0))


# --- test-only linking models ------------------------------------------------


def reversed_cycle(cycle: lk.ParamCycle) -> lk.ParamCycle:
    """`cycle` with the opposite orientation: the first tangent row of its
    jet negated, which negates every determinant it enters."""

    def jet(x):
        F, J = cycle.jet(x)
        J = J.copy()
        J[..., 0, :] *= -1.0
        return F, J

    return cycle._replace(jet=jet)


def plucker_by_gathers(dF: np.ndarray) -> np.ndarray:
    """Pluecker coordinates (N, 35) of the frames dF (N, 3, 7), the 3x3
    minors on the row triples i < j < k in lexicographic order, each with
    its own three 2x2 minors: the oracle for lk._plucker."""
    a, b, c = dF[:, 0], dF[:, 1], dF[:, 2]
    i, j, k = np.array(list(itertools.combinations(range(7), 3))).T
    return (a[:, i] * (b[:, j] * c[:, k] - b[:, k] * c[:, j])
            - a[:, j] * (b[:, i] * c[:, k] - b[:, k] * c[:, i])
            + a[:, k] * (b[:, i] * c[:, j] - b[:, j] * c[:, i]))


def laplace_terms_by_loop() -> tuple:
    """(I, J, S) of lk._laplace_terms built row by row: for each triple K
    of lexicographic rows, I[t, K] is the t-th row outside K, J[t, K] the
    index of the other three and S[t, K] = (-1)^(15 - sum(K) + t) the sign
    of the row permutation (I, J, K).  The oracle for the numpy build."""
    triples = list(itertools.combinations(range(7), 3))
    index = {K: k for k, K in enumerate(triples)}
    I, J, S = (np.zeros((4, 35), dtype=dt) for dt in (int, int, float))
    for k, K in enumerate(triples):
        rest = [r for r in range(7) if r not in K]
        for t, i in enumerate(rest):
            I[t, k], J[t, k] = i, index[tuple(r for r in rest if r != i)]
            S[t, k] = (-1) ** (15 - sum(K) + t)
    return I, J, S


def fd_jacobian(cycle: lk.ParamCycle, x: np.ndarray,
                h: float = 1e-5) -> np.ndarray:
    """Central differences of the points of `cycle` along the frame
    (x i, x j, x k): the oracle for the analytic jets."""
    rows = []
    for q in (QI, QJ, QK):
        step = math.cos(h) * QONE + math.sin(h) * q
        fwd = cycle.jet(qmul(x, step))[0]
        back = cycle.jet(qmul(x, qconj(step)))[0]
        rows.append((fwd - back) / (2.0 * h))
    return np.stack(rows, axis=-2)


def const_jet(q: np.ndarray, like: np.ndarray) -> tuple:
    value = np.broadcast_to(q, like.shape).copy()
    dvalue = np.zeros(like.shape[:-1] + (3, 4))
    return (value, dvalue)


def frame_jets(x: np.ndarray, l: int, b: int) -> tuple:
    """Jets of the orthonormal 2-frame alpha(x) = (x^l, x^l (x^b i x^-b)).

    The second vector is a unit imaginary conjugate of i rotated by x^l, so
    the frame is orthonormal for every x; (l, b) = (0, 0) gives the
    constant frame (1, i).
    """
    xj = (x, quat.frame(x))
    a1 = jet_pow(xj, l)
    if b == 0:
        w = const_jet(QI, x)
    else:
        xb = jet_pow(xj, b)
        w = jet_mul(jet_mul(xb, const_jet(QI, x)), jet_conj(xb))
    a2 = jet_mul(a1, w)
    return a1, a2


def tau_evaluate(emb: lk.TauEmbedding, theta: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """The torus `emb` at (theta, x), on the unit sphere of R^8."""
    (a1, _), (a2, _) = frame_jets(x, emb.l, emb.b)
    t = np.asarray(theta)[..., None]
    abar = a1 * np.cos(t) + a2 * np.sin(t)
    return np.concatenate([x, abar], axis=-1) / math.sqrt(2.0)


def t1_fiber(sign: int = 1, project: bool = True) -> lk.ParamCycle:
    """Fiber cycle of the quaternion-multiplication model of the (1, 0)
    torus: y -> (sign*y, y)/sqrt(2), projected into R^7 by default."""

    def jet(y):
        fr = quat.frame(y)
        z = np.concatenate([sign * y, y], axis=-1) / math.sqrt(2.0)
        dz = np.concatenate([sign * fr, fr], axis=-1) / math.sqrt(2.0)
        return lk.stereographic_jet(z, dz) if project else (z, dz)

    return lk.ParamCycle(jet=jet)


def t1_separation() -> float:
    # the k = 1 tau fibers with their 4-blocks swapped
    return lk.tau_fiber_separation(1)


def t2_fiber(sign: int = 1, project: bool = True) -> lk.ParamCycle:
    """Fiber cycle of the Hopf-map model of the (0, 1) torus:
    y -> (sign * y i y^-1, y)/sqrt(2), projected into R^7 by default."""

    def jet(y):
        yj = (y, quat.frame(y))
        eta, deta = jet_mul(jet_mul(yj, const_jet(QI, y)), jet_conj(yj))
        z = np.concatenate([sign * eta, y], axis=-1) / math.sqrt(2.0)
        dz = np.concatenate([sign * deta, yj[1]], axis=-1) / math.sqrt(2.0)
        return lk.stereographic_jet(z, dz) if project else (z, dz)

    return lk.ParamCycle(jet=jet)


def t2_separation() -> float:
    # y -> y i y^-1 is 2-Lipschitz, so the k = 2 bound holds, blocks swapped
    return lk.tau_fiber_separation(2)


@pytest.fixture
def rng():
    return random.Random(20250810)


@pytest.fixture(params=["s4", "s1xs3", "cp2", "s2xs2", "t2xs2"])
def builtin_data(request):
    return builtin(request.param)
