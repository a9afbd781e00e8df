"""Exact integer linear algebra: Smith normal form, unimodular inverses,
lattice membership, and canonical coset representatives.

All arithmetic uses arbitrary-precision Python integers.  Intermediate
entries in a Smith reduction can grow far past 64 bits, so nothing here
touches floating point or fixed-width machine words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """Immutable dense matrix of Python ints.

    Rows and columns may be zero; an empty matrix is a legal value and all
    operations treat it by the usual conventions (empty products are
    identities, det of the 0x0 matrix is 1).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        self._set_rows(tuple(tuple(map(int, row)) for row in data), cols)

    @classmethod
    def from_rows(cls, rows: tuple, cols: Optional[int] = None) -> "IntMatrix":
        """The matrix with these rows, taken as they are: `rows` must be a
        tuple of tuples of Python ints, and nothing is converted."""
        m = cls.__new__(cls)
        m._set_rows(rows, cols)
        return m

    def _set_rows(self, rows: tuple, cols: Optional[int]) -> None:
        if rows:
            ncols = len(rows[0])
            if len(set(map(len, rows))) > 1:
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols mismatch")
        else:
            ncols = 0 if cols is None else int(cols)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diagonal(cls, entries: Sequence[int], rows: Optional[int] = None,
                 cols: Optional[int] = None) -> "IntMatrix":
        r = len(entries) if rows is None else rows
        c = len(entries) if cols is None else cols
        return cls([[entries[i] if (i == j and i < len(entries)) else 0
                     for j in range(c)] for i in range(r)], cols=c)

    def __getitem__(self, key) -> int:
        i, j = key
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def tolists(self) -> list:
        return [list(r) for r in self.data]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        return f"IntMatrix({self.tolists()!r})"

    def _check_same_shape(self, other: "IntMatrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ocols = [other.column(j) for j in range(other.cols)]
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in ocols]
                          for row in self.data], cols=other.cols)

    def apply(self, v: Sequence[int]) -> tuple:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and tuple(zip(*self.data)) == self.data

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination.

        Step k replaces row i by (p a_i - f a_k) / prev, for the pivot p,
        the previous pivot prev and f = a_ik.  When f = 0 and p = prev that
        is the identity, so the row is left alone: on an identity-like
        matrix the pass costs O(n^2).
        """
        if self.rows != self.cols:
            raise ValueError("det of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = list(self.data)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            pk = a[k]
            p = pk[k]
            for i in range(k + 1, n):
                f = a[i][k]
                if f or p != prev:
                    # entries left of k are 0 in both rows and stay 0
                    a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], pk)]
            prev = p
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U @ A @ V == D.

    D is diagonal, non-negative, and each diagonal entry divides the next
    (zeros come last).  U and V are unimodular when tracked; an untracked
    reduction (`transforms=False`, or any over Z/m) gives U with A.rows
    rows and no columns, and V None (see `smith_normal_form`).
    """

    U: IntMatrix
    D: IntMatrix
    V: Optional[IntMatrix]

    def diagonal(self) -> tuple:
        r = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(r))


def _pivot(a, m, n, t):
    """Smallest-|entry| nonzero pivot in a[t:, t:], ties to lowest (row, col)."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
                if v == 1:
                    return best
    return best


def smith_normal_form(A: IntMatrix, modulus: int = 0,
                      transforms: bool = True) -> SNFResult:
    """Smith normal form, with unimodular transforms over Z on request.

    Pivoting always picks the smallest-absolute-value nonzero entry (ties by
    lowest row, then column), which keeps intermediate growth modest and
    makes the output deterministic for a fixed input.

    With `transforms` (over Z only) U and V are tracked.  Otherwise only
    D is built: U comes back with A.rows rows and no columns, and V is
    None.

    With a `modulus` m > 0 the same elimination runs over Z/m (Storjohann,
    ISSAC 1996) and tracks no transform: A is reduced mod m, every entry
    stays in [0, m), and each diagonal entry t is replaced by gcd(t, m),
    which generates the same ideal of Z/m.  D then holds divisors of m in
    a divisibility chain, m standing for a zero diagonal entry, so the
    cokernel of A over Z/m is the sum of the Z/D_ii (and a Z/m for each
    row beyond min(A.rows, A.cols)).  modulus = 0 means over Z.
    """
    m, n = A.rows, A.cols
    if modulus < 0:
        raise ValueError(f"modulus {modulus} is negative")
    a = [list(r) for r in A.data]
    if modulus:
        a = [[x % modulus for x in r] for r in a]
    track = transforms and not modulus
    # untracked, U has empty rows and V no rows, which every step skips
    u = [list(r) for r in IntMatrix.identity(m).data] if track else \
        [[] for _ in range(m)]
    v = [list(r) for r in IntMatrix.identity(n).data] if track else []

    def row_sub(i, t, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        if modulus:
            a[i] = [x % modulus for x in a[i]]

    def col_sub(j, t, q):
        for row in a + v:
            row[j] -= q * row[t]
        if modulus:
            for row in a:
                row[j] %= modulus

    rank = min(m, n)
    for t in range(rank):
        while True:
            piv = _pivot(a, m, n, t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in a + v:
                    row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // p)
            for j in range(t + 1, n):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // p)
            if all(a[i][t] == 0 for i in range(t + 1, m)) and \
               all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        if piv is None:
            break

    for t in range(rank):
        if modulus:
            # t and gcd(t, m) differ by a unit of Z/m
            a[t][t] = math.gcd(a[t][t], modulus)
        elif a[t][t] < 0:
            # non-negative diagonal: absorb signs into U
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    # Divisibility chain d_i | d_j for i < j via 2x2 gcd/lcm steps.
    for i in range(rank):
        di = a[i][i]
        for j in range(i + 1, rank):
            dj = a[j][j]
            if di == 0 or dj % di == 0:
                continue
            g, x, y = _gcdext(di, dj)
            # U2 = [[x, y], [-dj/g, di/g]], V2 = [[1, -y*dj/g], [1, x*di/g]]
            # turn diag(di, dj) into diag(g, di*dj/g).
            ui, uj = u[i], u[j]
            for k in range(len(ui)):
                ui[k], uj[k] = x * ui[k] + y * uj[k], \
                    -(dj // g) * ui[k] + (di // g) * uj[k]
            for row in v:
                row[i], row[j] = row[i] + row[j], \
                    -(y * dj // g) * row[i] + (x * di // g) * row[j]
            a[i][i] = g
            a[j][j] = di * dj // g
            di = g

    D = IntMatrix.from_rows(tuple(tuple([a[i][j] if i == j else 0
                                         for j in range(n)])
                                  for i in range(m)), cols=n)
    U = IntMatrix.from_rows(tuple(map(tuple, u)), cols=m if track else 0)
    return SNFResult(U=U, D=D, V=IntMatrix(v, cols=n) if track else None)


def _gcdext(a: int, b: int) -> tuple:
    """g, x, y with a*x + b*y == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _minus(w, q, p, d):
    """w - q p, reduced mod d when d."""
    return [(y - q * z) % d for y, z in zip(w, p)] if d else \
        [y - q * z for y, z in zip(w, p)]


def _settle(basis, w, d):
    """(i, w reduced up to i) at the first entry of w that the pivots of
    `basis` cannot clear, or None when w reduces to 0."""
    for i, p in enumerate(basis):
        x = w[i]
        if x:
            if p is None or x % p[i]:
                return i, w
            w = _minus(w, x // p[i], p, d)
    return None


def lattice_basis(A: IntMatrix, d: int = 0) -> tuple:
    """Hermite basis of the column span of A plus d*Z^n, n = A.rows, over Z
    for d = 0 and over Z/d otherwise, for `in_lattice` with the same d.

    Entry i is None (over Z, no pivot at i) or the basis vector whose first
    nonzero entry, positive, is at i; over Z/d it divides d.  The columns
    of A go in one at a time by extended-gcd steps.  Over Z/d the basis
    starts as the pivots d*e_i and stays in Howell form (Storjohann and
    Mulders, ESA 1998), so reduction is a complete test: a step that puts
    new = s p + t w, of leading entry g, in place of the pivot p, of
    leading entry a, goes on with rest = (a/g) w - (x/g) p, and
    (d/g) new = (d/a) p + (d/a) t rest lies in the span of later pivots.
    After each column, one pass from the first pivot it changed brings the
    earlier pivots' entries in each pivot column into [0, pivot) (Kannan
    and Bachem, SIAM J. Comput. 1979), so the basis depends only on the
    lattice and entries stay bounded over Z.
    """
    n = A.rows
    if d < 0:
        raise ValueError(f"modulus {d} is negative")
    piv = [[d if j == i else 0 for j in range(n)] if d else None
           for i in range(n)]
    for col in zip(*A.data):
        hit = _settle(piv, [x % d for x in col] if d else list(col), d)
        first = n if hit is None else hit[0]
        while hit is not None:
            i, w = hit
            p, x = piv[i], w[i]
            if p is None:
                piv[i] = w if x > 0 else [-y for y in w]
                break
            a = p[i]
            g, s, t = _gcdext(a, x)
            piv[i] = _minus([s * z for z in p], -t, w, d)
            rest = _minus([a // g * y for y in w], x // g, p, d)
            hit = _settle(piv, rest, d)
        for j in range(first, n):
            p = piv[j]
            for k in range(j if p else 0):
                r = piv[k]
                if r is not None and not 0 <= r[j] < p[j]:
                    piv[k] = _minus(r, r[j] // p[j], p, d)
    return tuple(p and tuple(p) for p in piv)


def in_lattice(basis: tuple, v: Sequence[int], d: int = 0) -> bool:
    """Whether v lies in the lattice of `basis` = `lattice_basis(A, d)`."""
    if len(v) != len(basis):
        raise ValueError(f"vector length {len(v)} != rows {len(basis)}")
    return _settle(basis, [x % d for x in v] if d else list(v), d) is None


def coset_normal_form(G, v: Sequence[int]) -> tuple:
    """Canonical factor coordinates of the coset v + R in a presentation G
    of Z^n / R: an object with `ambient_rank` n, `invariant_factors` (0
    for an infinite cyclic summand) and a unimodular `projection` from
    ambient to factor coordinates.

    Coordinates sit in [0, d) for each finite factor d and are left whole for
    infinite factors, so two vectors agree exactly when they differ by an
    element of the relation subgroup.
    """
    if len(v) != G.ambient_rank:
        raise ValueError(f"vector length {len(v)} != ambient rank {G.ambient_rank}")
    p = G.projection.apply(v)
    return tuple(x % d if d else x for x, d in zip(p, G.invariant_factors))


def inverse_unimodular(P: IntMatrix) -> IntMatrix:
    """Exact inverse of a square matrix with det = +-1."""
    res = smith_normal_form(P)
    if res.diagonal() != (1,) * P.rows or P.rows != P.cols:
        raise ValueError("matrix is not unimodular")
    # U P V = I  =>  P^{-1} = V U.
    return res.V @ res.U


def det_signature(M: IntMatrix) -> tuple:
    """Determinant and signature of a symmetric integer matrix, in one
    fraction-free pass.

    Bareiss elimination with symmetric swaps keeps every entry an integer
    minor: the k-th pivot p_k is the determinant of the leading k x k block,
    so p_k / p_{k-1} is the k-th diagonal entry of a congruent diagonal form
    (Sylvester's law keeps the signature invariant), and the last pivot is
    the determinant.  A zero remaining diagonal is repaired by adding a row
    and column with a nonzero off-diagonal entry; a zero row is a null
    direction, skipped, and makes the determinant 0.
    """
    if not M.is_symmetric():
        raise ValueError("signature of a non-symmetric matrix")
    n = M.rows
    a = [list(r) for r in M.data]
    prev, sig, null = 1, 0, False
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if a[k][j]), None)
                if other is None:
                    null = True
                    continue
                for j in range(k, n):
                    a[k][j] += a[other][j]
                for i in range(k, n):
                    a[i][k] += a[i][other]
        p, pk = a[k][k], a[k]
        sig += 1 if (p > 0) == (prev > 0) else -1
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - f * pk[j]) // prev
        prev = p
    return (0 if null else prev), sig


def vector_gcd(v: Sequence[int]) -> int:
    """gcd of the entries; 0 for the zero (or empty) vector."""
    return math.gcd(*(int(x) for x in v)) if v else 0
