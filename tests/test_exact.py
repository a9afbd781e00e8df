import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cokernel, k_relations, lattice_member, random_matrix,
                      random_symmetric, random_unimodular, scaled)
from emb7.exact import (IntMatrix, coset_normal_form, det_signature,
                        in_lattice, inverse_unimodular, lattice_basis,
                        smith_normal_form, vector_gcd)

small_matrices = st.integers(0, 5).flatmap(
    lambda m: st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda rows: IntMatrix(rows, cols=n))))


def naive_invariant_factors(A: IntMatrix) -> tuple:
    """Independent oracle: gcd-based diagonalization without transforms."""
    a = [list(r) for r in A.data]
    m, n = A.rows, A.cols
    t = 0
    while t < min(m, n):
        nz = [(i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not nz:
            break
        i, j = min(nz, key=lambda p: abs(a[p[0]][p[1]]))
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            for k in range(n):
                a[i][k] -= q * a[t][k]
            dirty = dirty or a[i][t] != 0
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            for k in range(m):
                a[k][j] -= q * a[k][t]
            dirty = dirty or a[t][j] != 0
        if not dirty:
            t += 1
    diag = sorted(abs(a[i][i]) for i in range(min(m, n)) if a[i][i])
    # fix divisibility by gcd/lcm swaps
    import math
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = math.gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return tuple(diag) + (0,) * (min(m, n) - len(diag))


class TestSmithNormalForm:
    def test_identity(self):
        res = smith_normal_form(IntMatrix.identity(3))
        assert res.D == IntMatrix.identity(3)
        assert res.U @ IntMatrix.identity(3) @ res.V == res.D

    def test_two_by_two(self):
        A = IntMatrix([[2, 4], [6, 8]])
        res = smith_normal_form(A)
        assert res.diagonal() == (2, 4)
        assert res.U @ A @ res.V == res.D

    def test_zero(self):
        assert smith_normal_form(IntMatrix([[0]])).diagonal() == (0,)

    def test_empty(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            A = IntMatrix.zeros(*shape)
            res = smith_normal_form(A)
            assert res.D.shape == shape
            assert res.U @ A @ res.V == res.D

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_invariants(self, A):
        res = smith_normal_form(A)
        assert res.U @ A @ res.V == res.D
        assert abs(res.U.det()) == 1
        assert abs(res.V.det()) == 1
        d = res.diagonal()
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0 if d[i] else d[i + 1] == 0
        # off-diagonal zero
        assert all(res.D[i, j] == 0 for i in range(res.D.rows)
                   for j in range(res.D.cols) if i != j)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_matches_naive_oracle(self, A):
        mine = smith_normal_form(A).diagonal()
        assert mine == naive_invariant_factors(A)

    def test_deterministic(self, rng):
        A = random_matrix(rng, 5, 4)
        r1, r2 = smith_normal_form(A), smith_normal_form(A)
        assert (r1.U, r1.D, r1.V) == (r2.U, r2.D, r2.V)


class TestSmithFactorsOnly:
    """Without transforms the reduction builds D alone: U keeps A's rows
    and no columns, and V is None."""

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_same_d_as_with_transforms(self, A):
        res = smith_normal_form(A, transforms=False)
        assert res.D == smith_normal_form(A).D
        assert res.U.shape == (A.rows, 0)
        assert res.V is None

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.integers(1, 30), st.booleans())
    def test_modulus_tracks_no_transform(self, A, m, transforms):
        res = smith_normal_form(A, modulus=m, transforms=transforms)
        assert res.U.shape == (A.rows, 0)
        assert res.V is None


class TestSmithModulus:
    """The reduction over Z/m: the cokernel of A over Z/m."""

    @settings(max_examples=120, deadline=None)
    @given(small_matrices, st.integers(1, 30))
    def test_cokernel_over_z_mod_m(self, A, m):
        res = smith_normal_form(A, modulus=m)
        assert res.V is None
        relations = IntMatrix([list(row) + [m if i == j else 0
                                            for j in range(A.rows)]
                               for i, row in enumerate(A.data)],
                              cols=A.cols + A.rows)
        factors = res.diagonal() + (m,) * (A.rows - min(A.shape))
        assert factors == cokernel(A.rows, relations).invariant_factors

    def test_chain_step_over_z_mod_m(self):
        # gcd(4, 12) = 4 does not divide gcd(6, 12) = 6: Z/4 + Z/6 is
        # Z/2 + Z/12
        res = smith_normal_form(IntMatrix([[4, 0], [0, 6]]), modulus=12)
        assert res.diagonal() == (2, 12)

    def test_zero_modulus_is_over_z(self, rng):
        for _ in range(20):
            A = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert smith_normal_form(A, modulus=0) == smith_normal_form(A)

    def test_even_matrix_mod_two_needs_no_elimination(self, rng):
        A = IntMatrix([[2 * x for x in row] for row in random_matrix(
            rng, 4, 4).data], cols=4)
        res = smith_normal_form(A, modulus=2)
        assert res.diagonal() == (2, 2, 2, 2)

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(IntMatrix([[2]]), modulus=-2)


class TestCokernel:
    def test_cyclic(self):
        assert cokernel(1, IntMatrix([[6]])).invariant_factors == (6,)

    def test_z3(self):
        G = cokernel(2, IntMatrix([[2, 3, 0], [0, 0, 3]]))
        assert G.invariant_factors == (1, 3)
        assert G.order() == 3

    def test_free(self):
        G = cokernel(1, IntMatrix.zeros(1, 0))
        assert G.invariant_factors == (0,)
        assert G.order() is None

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            cokernel(3, IntMatrix([[1]]))

    def test_basis_independent(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.randint(0, 5)
            R = random_matrix(rng, n, k, bound=9)
            base = cokernel(n, R).invariant_factors
            left = random_unimodular(rng, n)
            G = cokernel(n, left @ R)
            assert G.invariant_factors == base
            if k:
                right = random_unimodular(rng, k)
                assert cokernel(n, R @ right).invariant_factors == base

    def test_projection_kills_relations(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            R = random_matrix(rng, n, rng.randint(0, 4), bound=9)
            G = cokernel(n, R)
            for j in range(R.cols):
                assert all(x == 0 for x in coset_normal_form(G, R.column(j)))


class TestCosetNormalForm:
    def test_mod6(self):
        G = cokernel(1, IntMatrix([[6]]))
        assert coset_normal_form(G, (7,)) == (1,)

    def test_membership(self):
        G = cokernel(2, IntMatrix([[2, 3, 0], [0, 0, 3]]))
        assert coset_normal_form(G, (5, 4)) == coset_normal_form(G, (7, 4))

    def test_free_factor_unreduced(self):
        G = cokernel(1, IntMatrix.zeros(1, 0))
        assert coset_normal_form(G, (-3,)) == (-3,)

    def test_dimension_mismatch(self):
        G = cokernel(1, IntMatrix([[6]]))
        with pytest.raises(ValueError):
            coset_normal_form(G, (1, 2))

    def test_relation_invariance(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            R = random_matrix(rng, n, rng.randint(0, 4), bound=9)
            G = cokernel(n, R)
            v = tuple(rng.randint(-30, 30) for _ in range(n))
            nf = coset_normal_form(G, v)
            for j in range(R.cols):
                shifted = tuple(a + b for a, b in zip(v, R.column(j)))
                assert coset_normal_form(G, shifted) == nf


def assert_hermite(basis: tuple, d: int) -> None:
    """Entry i of a `lattice_basis` is None (over Z only) or has its first
    nonzero entry, positive and dividing d, at i; every earlier basis
    vector's entry in column i lies in [0, that pivot), and over Z/d every
    entry after the pivot lies in [0, d)."""
    for i, p in enumerate(basis):
        if p is None:
            assert d == 0
            continue
        assert not any(p[:i]) and p[i] > 0 and (d == 0 or d % p[i] == 0)
        assert d == 0 or all(0 <= x < d for x in p[i + 1:])
        assert all(0 <= q[i] < p[i] for q in basis[:i] if q is not None)


class TestLatticeMember:
    """`in_lattice(lattice_basis(2L, d), P beta, d)` against the canonical
    coset form of beta in the reference cokernel of [2 Lambda | d I],
    Lambda = P^-1 L: beta lies in 2 Lambda Z^b3 + d Z^b1 exactly when its
    coset form is that of 0."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6),
           st.sampled_from((0, 0, 1, 2, 4, 6, 8, 9, 12, 30, 36)),
           st.randoms(use_true_random=False))
    def test_matches_coset_normal_form(self, b1, b3, d, rnd):
        P = random_unimodular(rnd, b1)
        lam = random_matrix(rnd, b1, b3, bound=rnd.choice((2, 9)))
        L = P @ lam
        G = cokernel(b1, k_relations(lam, d))
        twice = IntMatrix([[2 * x for x in row] for row in L.data], cols=b3)
        basis = lattice_basis(twice, d)
        assert_hermite(basis, d)
        # the basis depends on the lattice alone, not on the column order
        shuffled = list(zip(*twice.data))
        rnd.shuffle(shuffled)
        assert lattice_basis(IntMatrix(zip(*shuffled), cols=b3)
                             if b3 else twice, d) == basis
        zero = coset_normal_form(G, (0,) * b1)
        for member in (True, False, True, False):
            if member:
                c = [rnd.randint(-4, 4) for _ in range(b3)]
                beta = [2 * x + d * rnd.randint(-3, 3) for x in lam.apply(c)]
            else:
                beta = [rnd.randint(-12, 12) for _ in range(b1)]
            got = in_lattice(basis, P.apply(beta), d)
            assert got == (coset_normal_form(G, beta) == zero), (L, P, d, beta)
            assert got or not member

    @pytest.mark.parametrize("n, rank", [(40, 40), (40, 30), (60, 60),
                                         (60, 45)])
    def test_large_over_z_stays_bounded(self, n, rank):
        # 2L = 2 A or 2 A B of rank `rank`; over Z the echelon without
        # the Hermite step took from 0.19 s (40, 30) to over 600 s (60, 45)
        rng = random.Random(1000 * n + rank)
        M = random_matrix(rng, n, rank, bound=3)
        if rank < n:
            M = M @ random_matrix(rng, rank, n, bound=3)
        twice = scaled(M, 2)
        cs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(8)]
        start = time.perf_counter()
        basis = lattice_basis(twice, 0)
        members = [in_lattice(basis, twice.apply(c), 0) for c in cs]
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1 and all(members)
        assert_hermite(basis, 0)
        assert sum(p is not None for p in basis) == rank
        # the lattice lies in 2 Z^n: an odd entry is outside it
        odd = list(twice.apply(cs[0]))
        odd[rng.randrange(n)] += 1
        assert not in_lattice(basis, odd, 0)
        if rank == n:
            # 2L Z^n holds |det 2L| Z^n, so the Howell basis mod |det 2L|
            # is the same Hermite basis
            det = abs(twice.det())
            assert det and lattice_basis(twice, det) == basis

    def test_howell_step(self):
        # 2L = (4, 2)^T mod 8 meets the pivot 8 e_1, keeps (4, 2) as the
        # pivot and goes on with its Howell companion 2 (4, 2) = (0, 4); an
        # echelon form that put (4, 2) in an empty place reads (0, 4) as
        # outside
        twice = IntMatrix([[4], [2]])
        assert lattice_member(twice, (0, 4), 8)
        assert lattice_member(twice, (4, 2), 8)
        assert not lattice_member(twice, (0, 2), 8)
        G = cokernel(2, k_relations(IntMatrix([[2], [1]]), 8))
        assert coset_normal_form(G, (0, 4)) == coset_normal_form(G, (0, 0))

    def test_over_z(self):
        A = IntMatrix([[2, 4], [0, 6]])
        assert lattice_member(A, (2, 6), 0)
        assert not lattice_member(A, (0, 2), 0)
        assert lattice_member(IntMatrix.zeros(2, 0), (0, 0), 0)
        assert not lattice_member(IntMatrix.zeros(2, 0), (0, 1), 0)
        assert lattice_member(IntMatrix.zeros(0, 3), (), 5)

    def test_checks_its_input(self):
        with pytest.raises(ValueError):
            lattice_member(IntMatrix([[1]]), (1, 2), 0)
        with pytest.raises(ValueError):
            lattice_member(IntMatrix([[1]]), (1,), -2)


class TestAuxiliary:
    def test_signature_matches_float_oracle(self, rng):
        import numpy as np
        from conftest import random_symmetric
        for _ in range(60):
            n = rng.randint(1, 5)
            M = random_symmetric(rng, n, bound=7)
            eig = np.linalg.eigvalsh(np.array(M.tolists(), dtype=float))
            oracle = int(np.sum(eig > 1e-9) - np.sum(eig < -1e-9))
            assert det_signature(M)[1] == oracle

    def test_inverse_unimodular(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            M = random_unimodular(rng, n)
            assert inverse_unimodular(M) @ M == IntMatrix.identity(n)

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(IntMatrix([[2]]))

    def test_vector_gcd(self):
        assert vector_gcd(()) == 0
        assert vector_gcd((0, 0)) == 0
        assert vector_gcd((4, 6)) == 2
        assert vector_gcd((3,)) == 3

    def test_det_bareiss(self, rng):
        import numpy as np
        for _ in range(40):
            n = rng.randint(0, 5)
            M = random_matrix(rng, n, n, bound=9)
            if n == 0:
                assert M.det() == 1
            else:
                oracle = round(np.linalg.det(np.array(M.tolists(), dtype=float)))
                assert M.det() == oracle


def fraction_det(M: IntMatrix) -> int:
    """Oracle: Gaussian elimination over the rationals."""
    n = M.rows
    a = [[Fraction(x) for x in row] for row in M.data]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def block_diagonal(blocks) -> IntMatrix:
    n = sum(b.rows for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out[at + i][at:at + b.rows] = row
        at += b.rows
    return IntMatrix(out, cols=n)


class TestDetAgainstFractions:
    """Bareiss `det`, which leaves a row alone when its update is the
    identity (multiplier 0 and pivot equal to the previous pivot), against
    Fraction elimination on the shapes where that skip fires."""

    def check(self, M: IntMatrix):
        assert M.det() == fraction_det(M), M

    def test_identity_and_permutations(self, rng):
        for n in range(13):
            self.check(IntMatrix.identity(n))
            perm = list(range(n))
            rng.shuffle(perm)
            self.check(IntMatrix([[int(j == perm[i]) for j in range(n)]
                                  for i in range(n)], cols=n))

    def test_block_diagonal(self, rng):
        for _ in range(60):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
            self.check(block_diagonal([random_matrix(rng, s, s, bound=4)
                                       for s in sizes]))
        # pivots 2, 3, 5 in turn: every step meets a zero multiplier
        # while the pivot differs from the previous one
        self.check(IntMatrix.diagonal([2, 3, 5, 7, 1, 1, -4]))

    def test_sparse(self, rng):
        for _ in range(150):
            n = rng.randint(1, 12)
            self.check(IntMatrix([[rng.choice((0,) * 8 + (rng.randint(-5, 5),))
                                   for _ in range(n)] for _ in range(n)],
                                 cols=n))

    def test_unimodular_products(self, rng):
        for _ in range(40):
            n = rng.randint(1, 12)
            M = random_unimodular(rng, n) @ random_unimodular(rng, n)
            self.check(M)
            assert abs(M.det()) == 1
            self.check(M @ IntMatrix.diagonal([rng.randint(-3, 3)
                                               for _ in range(n)]))


def fraction_signature(M: IntMatrix) -> int:
    """Oracle: congruence-diagonalize over the rationals (Sylvester's law
    keeps the signature) and count diagonal signs."""
    n = M.rows
    a = [[Fraction(M[i, j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if other is None:
                    continue  # zero row: null direction
                for j in range(n):
                    a[k][j] += a[other][j]
                for i in range(n):
                    a[i][k] += a[i][other]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        # symmetric Schur complement: congruence, so signature is preserved
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        for j in range(k + 1, n):
            a[k][j] = Fraction(0)
            a[j][k] = Fraction(0)
    return pos - neg


def hyperbolic(k: int) -> IntMatrix:
    """The sum of k hyperbolic planes [[0, 1], [1, 0]]: a zero diagonal."""
    return IntMatrix([[1 if i // 2 == j // 2 and i != j else 0
                       for j in range(2 * k)] for i in range(2 * k)],
                     cols=2 * k)


def zero_diagonal_form(rng, n: int) -> IntMatrix:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((0, 0, rng.randint(-4, 4)))
    return IntMatrix(m, cols=n)


class TestDetSignature:
    """The fraction-free pass against the Fraction oracle and Bareiss det."""

    def check(self, M: IntMatrix):
        assert det_signature(M) == (M.det(), fraction_signature(M)), M

    def test_congruent_forms_with_singular_d(self, rng):
        for _ in range(400):
            n = rng.randint(1, 7)
            B = random_matrix(rng, n, n, bound=3)
            D = IntMatrix.diagonal([rng.choice((-2, -1, 0, 0, 1, 2, 3))
                                    for _ in range(n)])
            self.check(B.T @ D @ B)

    def test_zero_diagonal(self, rng):
        for k in range(5):
            self.check(hyperbolic(k))
            assert det_signature(hyperbolic(k)) == ((-1) ** k, 0)
        for _ in range(200):
            self.check(zero_diagonal_form(rng, rng.randint(1, 7)))

    def test_empty_form(self):
        assert det_signature(IntMatrix.zeros(0, 0)) == (1, 0)

    def test_signature_is_the_second_value(self, rng):
        for _ in range(50):
            M = random_symmetric(rng, rng.randint(0, 6), bound=7)
            assert det_signature(M)[1] == fraction_signature(M)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="non-symmetric"):
            det_signature(IntMatrix([[0, 1], [2, 0]]))
