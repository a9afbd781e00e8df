"""The invariant calculus on (kappa, lambda, beta) triples.

An embedding class modulo knots is measured by a class u in H2 (kappa), a
bilinear form L on H3 (lambda, given as the matrix of values on basis
pairs), and a coset beta in the group K_{u,L} = H1 / (2*adjoint(L)(H3) +
div(u)*H1).  This module provides the admissibility predicate and box
enumeration for u, the u-symmetry condition tying u and L together, the
K-group, and the parity criteria derived from L (regular homotopy, the
mod-2 diagonal class W, the compression necessary condition).

Three shortcuts keep the fiber computations small:

- The K-group comes from at most one Smith form, of 2L.  P is unimodular
  (`validate` checks this on every file load) and L = P Lambda, so
  U_L (2L) V = T gives (U_L P)(2 Lambda) V = T, and K is the sum of the
  cyclic groups Z/gcd(t_i, d), with t padded by zeros to length b1.  For
  d != 0 every such factor divides d, so the reduction runs over Z/d:
  each t_i is replaced by gcd(t_i, d).  For d in {1, 2}, 2L is 0 mod d,
  nothing is eliminated and K = (Z/d)^b1 with no reduction at all; spin
  manifolds give even u, so d = 2 is the common case.  For d = 0 it runs
  over Z.  `k_group` keeps the factors alone and tracks no transform;
  `classify.classes_equal` tests lattice membership instead.
- u-symmetry, L(y,x) - L(x,y) = u.x.y, is checked on the basis pairs
  j < k alone, each against its column (T_i[j, k])_i, which the data
  builds once (`ManifoldData.pair_columns`): T is antisymmetric on
  validated data, so the diagonal and the pairs j > k follow, and the
  matrix sum_i u_i T_i is never formed.
- Kappa enumeration walks only the sublattice u = w2 (mod 2) of the box,
  one parity class per axis, depth first and one axis at a time, which
  yields the admissible values in the same lexicographic order as a scan
  of the whole box.  The walk carries the partial column sum
  r = sum_{i<k} u_i Q_i and the partial form s, so fixing u_k = x adds
  x * (2 r_k + x Q_kk) to the form and x * Q_k to r: O(b2) per step, nothing
  when x = 0, and no product Q u per point.  The last axis l is not walked
  but solved: its coordinate y must satisfy Q_ll y^2 + 2 r_l y = sigma - s,
  which is linear when Q_ll = 0 (as on every hyperbolic block) and
  otherwise has the roots (-r_l +- t) / Q_ll, t = isqrt(r_l^2 +
  Q_ll (sigma - s)) when that is exact; the roots on the axis' parity
  range are kept in ascending order.  So a b2-dimensional box costs one
  walk of its first b2 - 1 axes, and the last step needs r_l alone.  The
  box volume is still what the enumeration cap guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from . import exact
from .exact import IntMatrix, vector_gcd
from .manifolds import ManifoldData

DEFAULT_ENUM_CAP = 10 ** 7


@dataclass(frozen=True)
class KGroup:
    """Value group of the beta invariant over a fixed (u, L) fiber.

    The group is H1 modulo the columns of 2*Lambda together with d times
    the identity, where Lambda is the adjoint of L and d = divisibility(u),
    held as its invariant factors, one per H1 coordinate; factor 0 is an
    infinite cyclic summand (see the module docstring).
    """

    factors: tuple
    d: int

    def size(self) -> Optional[int]:
        """Group order, or None when some factor is infinite."""
        return None if 0 in self.factors else math.prod(self.factors)


def divisibility(u: Sequence[int]) -> int:
    """Largest integer dividing u, with divisibility(0) = 0."""
    return vector_gcd(u)


def is_kappa_admissible(data: ManifoldData, u: Sequence[int]) -> bool:
    """Whether u reduces to w2 mod 2 and has self-intersection sigma."""
    if len(u) != data.b2:
        raise ValueError(f"kappa vector length {len(u)} != b2 {data.b2}")
    if any((ui - wi) % 2 for ui, wi in zip(u, data.w2)):
        return False
    qu = data.Q.apply(u)
    return sum(ui * qi for ui, qi in zip(u, qu)) == data.sigma


def enumerate_kappa(data: ManifoldData, bound: int,
                    cap: int = DEFAULT_ENUM_CAP) -> list:
    """All admissible u with coordinates in [-bound, bound], sorted
    lexicographically.

    The admissible set can be infinite for indefinite Q, so only a box is
    searched; the box volume is rejected above `cap`.  Within the box only
    the points with u = w2 (mod 2) are walked (see the module docstring).
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    width = 2 * bound + 1
    if width ** data.b2 > cap:
        raise ValueError(
            f"enumeration box {width}^{data.b2} exceeds cap {cap}")
    if not data.b2:
        return [()] if data.sigma == 0 else []
    axes = [range(-bound + (bound + w) % 2, bound + 1, 2) for w in data.w2]
    rows, last, found, u = data.Q.data, data.b2 - 1, [], [0] * data.b2
    q_ll, last_axis = rows[last][last], axes[last]
    if not last:
        return [(y,) for y in _last_axis_roots(q_ll, 0, data.sigma, last_axis)]
    # an explicit stack, so the depth b2 meets no recursion limit; entry k
    # holds the values left on axis k, r = sum_{i<k} u_i Q_i and u[:k]^T Q u[:k]
    stack = [(iter(axes[0]), [0] * data.b2, 0)]
    while stack:
        k = len(stack) - 1
        values, r, s = stack[-1]
        x = next(values, None)
        if x is None:
            stack.pop()
            continue
        u[k] = x
        s += x * (2 * r[k] + x * rows[k][k])
        if k < last - 1:
            if x:
                r = [ri + x * qi for ri, qi in zip(r, rows[k])]
            stack.append((iter(axes[k + 1]), r, s))
            continue
        for y in _last_axis_roots(q_ll, r[last] + x * rows[k][last],
                                  data.sigma - s, last_axis):
            u[last] = y
            found.append(tuple(u))
    return found


def _last_axis_roots(q: int, r: int, c: int, axis: range):
    """The y in `axis` with q y^2 + 2 r y = c, in ascending order: the
    admissible values of the last coordinate once the others are fixed."""
    if not q:
        if r:
            y, rem = divmod(c, 2 * r)
            return (y,) if not rem and y in axis else ()
        return axis if not c else ()
    # q (q y^2 + 2 r y - c) = (q y + r)^2 - (r^2 + q c)
    disc = r * r + q * c
    if disc < 0:
        return ()
    t = math.isqrt(disc)
    if t * t != disc:
        return ()
    roots = {(e - r) // q for e in (-t, t) if not (e - r) % q}
    return sorted(y for y in roots if y in axis)


def is_symmetric_pair(data: ManifoldData, u: Sequence[int],
                      L: IntMatrix) -> bool:
    """Whether L(y,x) - L(x,y) equals the triple intersection u.x.y on all
    basis pairs, i.e. (u, L) can occur as a (kappa, lambda) value.

    Only the pairs j < k are compared, each against its column of T
    (`ManifoldData.pair_columns`): on validated data T is antisymmetric,
    so the diagonal and the pairs j > k follow."""
    if L.shape != (data.b3, data.b3):
        raise ValueError(f"L has shape {L.shape}, expected square of size {data.b3}")
    if len(u) != data.b2:
        raise ValueError(f"H2 vector length {len(u)} != b2 {data.b2}")
    rows = L.data
    return all(rows[k][j] - rows[j][k] == sum(map(mul, u, col))
               for j, k, col in data.pair_columns)


def k_group_factors(L: IntMatrix, d: int) -> tuple:
    """Invariant factors of H1 modulo the columns of 2*Lambda together with
    d*identity, for any L = P Lambda with P unimodular.  For d in {1, 2},
    2L is 0 mod d and the group is (Z/d)^b1; otherwise they come from one
    Smith reduction of 2L that tracks no transform: over Z/d for d != 0,
    over Z for d = 0 (see the module docstring)."""
    if d in (1, 2):
        return (d,) * L.rows
    twice = IntMatrix.from_rows(tuple(tuple([2 * x for x in row])
                                      for row in L.data), cols=L.cols)
    # looked up on the module so that a wrapper installed on
    # exact.smith_normal_form at run time also sees this call
    res = exact.smith_normal_form(twice, modulus=d, transforms=False)
    # rows beyond min(b1, b3) meet no column of 2L, only d: factor gcd(0, d)
    return res.diagonal() + (d,) * (L.rows - min(res.D.shape))


def k_group(data: ManifoldData, u: Sequence[int], L: IntMatrix) -> KGroup:
    """The beta value group for the fiber over (u, L): its invariant
    factors, with d = divisibility(u) (see `k_group_factors`).  Expects
    data that passed `validate`: for a P that is not unimodular the
    factors are wrong, and no check here says so."""
    if not is_symmetric_pair(data, u, L):
        raise ValueError("(u, L) is not a symmetric pair; the fiber is empty")
    d = divisibility(u)
    return KGroup(factors=k_group_factors(L, d), d=d)


def whitney_w(data: ManifoldData, L: IntMatrix) -> tuple:
    """The mod-2 class W in H1 coordinates with P @ W = diag(L) mod 2,
    i.e. W = P^-1 diag(L) mod 2 (P is unimodular on validated data)."""
    if L.shape != (data.b3, data.b3):
        raise ValueError(f"L has shape {L.shape}, expected square of size {data.b3}")
    diag = [L[i, i] % 2 for i in range(data.b3)]
    return tuple(x % 2 for x in exact.inverse_unimodular(data.P).apply(diag))


def _require_square(L: IntMatrix, name: str) -> None:
    """A lambda form is a bilinear form on one group: its matrix is square."""
    if L.rows != L.cols:
        raise ValueError(f"{name} has shape {L.shape}, expected square")


def regular_homotopy_equivalent(L0: IntMatrix, L1: IntMatrix) -> bool:
    """Whether the forms give regular homotopic embeddings: the difference
    D = L0 - L1 must have D(x,x) even for every x, which holds exactly when
    diag(D) and D + D^T are even entrywise."""
    _require_square(L0, "L0")
    _require_square(L1, "L1")
    if L0.shape != L1.shape:
        raise ValueError(f"shape mismatch {L0.shape} vs {L1.shape}")
    D = L0 - L1
    n = D.rows
    if any(D[i, i] % 2 for i in range(n)):
        return False
    return all((D[i, j] + D[j, i]) % 2 == 0 for i in range(n) for j in range(i))


def compression_obstruction(u: Sequence[int], L: IntMatrix) -> bool:
    """Necessary condition for compressing the embedding into a hyperplane:
    both u and L must vanish.

    True means the condition is satisfied.  It is NOT sufficient, and beta
    does not sharpen it: compressible embeddings realize distinct beta
    values within the u = 0, L = 0 fiber.
    """
    _require_square(L, "L")
    if any(u):
        return False
    return all(x == 0 for row in L.data for x in row)
