import dataclasses
import json
import math
import time
from itertools import product

import pytest

import emb7.exact
import emb7.invariants
from conftest import (base_lambda, basis_change, cokernel, direct_sum,
                      free_h1_manifold, is_valid, k_relations,
                      lambda_adjoint, lattice_member, random_form_manifold,
                      random_matrix, random_symmetric, random_unimodular,
                      reference_symmetric_pair, scaled, to_json)
from emb7.classify import classes_equal, embedding_class
from emb7.exact import IntMatrix, coset_normal_form
from emb7.manifolds import BUILTIN_NAMES, ManifoldData, builtin
from emb7.invariants import (compression_obstruction, divisibility,
                             enumerate_kappa, is_kappa_admissible,
                             is_symmetric_pair, k_group, k_group_factors,
                             regular_homotopy_equivalent, whitney_w)


def form_with_hits(rng, b2: int, sign: int) -> ManifoldData:
    """Unvalidated data with a random Q, indefinite for sign 0 and definite
    of that sign otherwise, and sigma set to the value of a random point of
    the w2 sublattice, so that a box of bound 3 holds admissible points."""
    if sign:
        B = random_matrix(rng, b2, b2, bound=1)
        Q = scaled(B.T @ B + IntMatrix.identity(b2), sign)
    else:
        Q = random_symmetric(rng, b2, bound=2)
    w2 = tuple(rng.randint(0, 1) for _ in range(b2))
    u = [w + 2 * rng.randint(-1, 1) for w in w2]
    return ManifoldData(b1=0, b2=b2, b3=0, Q=Q, P=IntMatrix.zeros(0, 0),
                        T=(), w2=w2, sigma=sum(a * b for a, b in
                                               zip(u, Q.apply(u))))


def kappa_form(Q, w2, sigma: int) -> ManifoldData:
    """Unvalidated data holding only what kappa enumeration reads."""
    Q = IntMatrix(Q, cols=len(Q))
    return ManifoldData(b1=0, b2=Q.rows, b3=0, Q=Q, P=IntMatrix.zeros(0, 0),
                        T=(), w2=tuple(w2), sigma=sigma)


def surface_times_s2(genus: int) -> ManifoldData:
    """Sigma_g x S^2: H2 spanned by [Sigma_g x pt] and [pt x S^2], H3 by
    the a_i x S^2 and b_i x S^2, with the symplectic slice of the surface
    class as in t2xs2."""
    n = 2 * genus
    slice_ = IntMatrix([[(1 if k == j + 1 else -1)
                         if j // 2 == k // 2 and j != k else 0
                         for k in range(n)] for j in range(n)], cols=n)
    data = ManifoldData(b1=n, b2=2, b3=n, Q=IntMatrix([[0, 1], [1, 0]]),
                        P=IntMatrix.identity(n),
                        T=(slice_, IntMatrix.zeros(n, n)), w2=(0, 0),
                        sigma=0, name=f"sigma{genus}xs2")
    assert is_valid(data)
    return data


def tensor_manifold(rng, b2: int, b3: int) -> ManifoldData:
    """A validated fixture with a random form on H2 (`random_form_manifold`),
    a random unimodular pairing and random antisymmetric T slices."""
    slices = []
    for _ in range(b2):
        m = [[0] * b3 for _ in range(b3)]
        for j in range(b3):
            for k in range(j + 1, b3):
                m[j][k] = rng.randint(-3, 3)
                m[k][j] = -m[j][k]
        slices.append(IntMatrix(m, cols=b3))
    data = dataclasses.replace(random_form_manifold(rng, b2), b1=b3, b3=b3,
                               P=random_unimodular(rng, b3), T=tuple(slices))
    assert is_valid(data)
    return data


class TestDivisibility:
    def test_zero(self):
        assert divisibility((0, 0)) == 0

    def test_gcd(self):
        assert divisibility((4, 6)) == 2

    def test_single(self):
        assert divisibility((3,)) == 3

    def test_empty(self):
        assert divisibility(()) == 0


class TestKappaAdmissible:
    def test_empty_h2(self):
        assert is_kappa_admissible(builtin("s1xs3"), ())

    def test_cp2(self):
        cp2 = builtin("cp2")
        assert is_kappa_admissible(cp2, (1,))
        assert not is_kappa_admissible(cp2, (3,))

    def test_s2xs2(self):
        s2s2 = builtin("s2xs2")
        assert is_kappa_admissible(s2s2, (2, 0))
        assert not is_kappa_admissible(s2s2, (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_kappa_admissible(builtin("cp2"), (1, 2))

    def test_sign_symmetry(self, rng):
        # u admissible implies -u admissible
        for _ in range(20):
            data = random_form_manifold(rng, rng.randint(1, 3))
            for u in enumerate_kappa(data, 3):
                assert is_kappa_admissible(data, tuple(-x for x in u))


class TestEnumerateKappa:
    def test_cp2(self):
        assert enumerate_kappa(builtin("cp2"), 3) == [(-1,), (1,)]

    def test_s2xs2(self):
        assert enumerate_kappa(builtin("s2xs2"), 2) == \
            [(-2, 0), (0, -2), (0, 0), (0, 2), (2, 0)]

    def test_s1xs3(self):
        assert enumerate_kappa(builtin("s1xs3"), 10) == [()]

    def test_box_guard(self):
        with pytest.raises(ValueError):
            enumerate_kappa(builtin("s2xs2"), 10 ** 9)

    def test_guard_override(self):
        data = builtin("s2xs2")
        assert enumerate_kappa(data, 3, cap=10 ** 9) == \
            enumerate_kappa(data, 3)

    def test_odd_w2_at_bound_zero(self):
        assert enumerate_kappa(builtin("cp2"), 0) == []

    def test_cap_guards_the_box_not_the_sublattice(self):
        # s2xs2 at bound 2: a 25-point box holding 9 even points
        with pytest.raises(ValueError):
            enumerate_kappa(builtin("s2xs2"), 2, cap=24)
        # cp2 at bound 1: a 3-point box holding the 2 odd points
        with pytest.raises(ValueError):
            enumerate_kappa(builtin("cp2"), 1, cap=2)
        assert enumerate_kappa(builtin("cp2"), 1, cap=3) == [(-1,), (1,)]

    def test_walks_only_the_w2_sublattice(self, monkeypatch):
        data = direct_sum(builtin("cp2"), builtin("s2xs2"))  # w2 = (1, 0, 0)
        admissible = is_kappa_admissible

        def untouched(data, u):
            raise AssertionError("the walk calls is_kappa_admissible")

        monkeypatch.setattr(emb7.invariants, "is_kappa_admissible", untouched)
        for bound in range(4):
            box = [u for u in product(range(-bound, bound + 1), repeat=3)
                   if admissible(data, u)]
            assert enumerate_kappa(data, bound) == box

    def test_matches_box_scan(self, rng):
        forms = [builtin(name) for name in BUILTIN_NAMES]
        forms += [direct_sum(builtin("cp2"), builtin("s2xs2")),
                  direct_sum(builtin("t2xs2"), builtin("cp2")),
                  direct_sum(builtin("cp2"), builtin("cp2"))]
        forms += [random_form_manifold(rng, rng.randint(1, 4))
                  for _ in range(6)]
        forms += [random_form_manifold(rng, rng.randint(1, 4), sign=sign)
                  for sign in (1, -1) for _ in range(3)]
        forms += [form_with_hits(rng, rng.randint(1, 5), sign)
                  for sign in (0, 1, -1) for _ in range(8)]
        # the last axis alone (b2 = 1), where q y^2 = sigma: two roots,
        # none for a negative or non-square sigma / q, and a zero form
        forms += [kappa_form([[q]], [w], sigma)
                  for q, w, sigma in ((1, 1, 9), (1, 1, -1), (1, 0, 2),
                                      (2, 0, 8), (2, 0, 6), (-3, 1, -27),
                                      (-3, 1, -3), (0, 0, 0), (0, 1, 1))]
        # a nonzero last diagonal entry, definite and indefinite, with
        # prefixes whose discriminant is negative or not a square
        forms += [kappa_form([[1, 0], [0, 1]], [1, 1], sigma)
                  for sigma in (2, 3, 10, -2)]
        forms += [kappa_form([[2, 1], [1, 3]], [0, 1], 7),
                  kappa_form([[-2, 1], [1, -3]], [1, 1], -3),
                  kappa_form([[1, 0], [0, -1]], [1, 1], 0),
                  kappa_form([[1, 2], [2, -1]], [1, 0], -4),
                  kappa_form([[0, 1, 0], [1, 2, 1], [0, 1, -1]], [0, 0, 1],
                             -1)]
        # an odd w2 bit on the last axis only
        forms += [direct_sum(builtin("s2xs2"), builtin("cp2")),
                  kappa_form([[0, 1, 0], [1, 0, 0], [0, 0, -1]], [0, 0, 1],
                             -1)]
        for data in forms:
            for bound in range(4):
                box = [u for u in product(range(-bound, bound + 1),
                                          repeat=data.b2)
                       if is_kappa_admissible(data, u)]
                assert enumerate_kappa(data, bound) == box, (data, bound)
        assert enumerate_kappa(builtin("s4"), 0) == [()]
        assert enumerate_kappa(builtin("s1xs3"), 0) == [()]
        # Sigma_2 x S^2 # 3(S^2 x S^2) at bound 2, the benchmark's survey
        # form: w2 = 0, so the box scan only needs {-2, 0, 2}^8
        data = surface_times_s2(2)
        for _ in range(3):
            data = direct_sum(data, builtin("s2xs2"))
        assert data.b2 == 8 and data.w2 == (0,) * 8
        sublattice = list(product((-2, 0, 2), repeat=8))
        assert len(sublattice) == 6561
        box = [u for u in sublattice if is_kappa_admissible(data, u)]
        assert len(box) == 1921
        assert enumerate_kappa(data, 2) == box

    def test_cap_message(self):
        with pytest.raises(ValueError) as err:
            enumerate_kappa(builtin("s2xs2"), 2, cap=24)
        assert str(err.value) == "enumeration box 5^2 exceeds cap 24"
        with pytest.raises(ValueError) as err:
            enumerate_kappa(builtin("cp2"), -1)
        assert str(err.value) == "bound must be non-negative"

    def test_deep_walk_is_iterative(self):
        # bound 0 passes the cap for any b2; a recursive walk would stop
        # at the interpreter's recursion limit long before b2 = 1500
        b2 = 1500
        data = ManifoldData(b1=0, b2=b2, b3=0, Q=IntMatrix.identity(b2),
                            P=IntMatrix.zeros(0, 0), T=(), w2=(0,) * b2,
                            sigma=0)
        assert enumerate_kappa(data, 0) == [(0,) * b2]
        assert enumerate_kappa(dataclasses.replace(data, sigma=1), 0) == []
        odd = dataclasses.replace(data, w2=(0,) * (b2 - 1) + (1,))
        assert enumerate_kappa(odd, 0) == []


class TestSymmetricPair:
    def test_zero_tensor(self, rng):
        data = builtin("s1xs3")
        for v in (0, 1, -4):
            assert is_symmetric_pair(data, (), IntMatrix([[v]]))

    def test_t2xs2(self):
        t2s2 = builtin("t2xs2")
        u = (1, 0)
        assert is_symmetric_pair(t2s2, u, IntMatrix([[0, 0], [1, 0]]))
        assert not is_symmetric_pair(t2s2, u, IntMatrix.zeros(2, 2))

    def test_base_lambda_examples(self):
        t2s2 = builtin("t2xs2")
        assert base_lambda(t2s2, (1, 0)) == IntMatrix([[0, 0], [1, 0]])
        assert base_lambda(builtin("s1xs3"), ()) == IntMatrix([[0]])

    def test_base_lambda_is_symmetric_pair(self, rng):
        t2s2 = builtin("t2xs2")
        for u in enumerate_kappa(t2s2, 2):
            assert is_symmetric_pair(t2s2, u, base_lambda(t2s2, u))

    def test_fiber_is_base_plus_symmetric(self, rng):
        # {L : u-symmetric} == base_lambda(u) + {symmetric}; both inclusions
        t2s2 = builtin("t2xs2")
        for u in enumerate_kappa(t2s2, 2):
            base = base_lambda(t2s2, u)
            for _ in range(25):
                s = random_symmetric(rng, 2)
                assert is_symmetric_pair(t2s2, u, base + s)
                L = IntMatrix([[rng.randint(-6, 6) for _ in range(2)]
                               for _ in range(2)])
                assert is_symmetric_pair(t2s2, u, L) == (L - base).is_symmetric()

    def test_matches_full_contraction(self, rng):
        # b3 in {0, 1} has no pair j < k: only L's shape is checked
        fixtures = [builtin(name) for name in BUILTIN_NAMES]
        fixtures += [tensor_manifold(rng, rng.randint(1, 4), b3)
                     for b3 in range(6) for _ in range(4)]
        for data in fixtures:
            n = data.b3
            for _ in range(6):
                u = tuple(rng.randint(-3, 3) for _ in range(data.b2))
                L = base_lambda(data, u) + random_symmetric(rng, n)
                forms = [L, random_matrix(rng, n, n, bound=3)]
                for j, k in product(range(n), repeat=2):
                    # one entry off: an off-diagonal one breaks the pair
                    off = [list(row) for row in L.data]
                    off[j][k] += rng.choice((-1, 1))
                    forms.append(IntMatrix(off, cols=n))
                for M in forms:
                    want = reference_symmetric_pair(data, u, M)
                    assert is_symmetric_pair(data, u, M) == want, (data, u, M)
                    assert want == (M - L).is_symmetric()
                assert is_symmetric_pair(data, u, L)
                # of the one-entry changes, only the n diagonal ones hold
                assert sum(is_symmetric_pair(data, u, M)
                           for M in forms[2:]) == n

    def test_argument_errors(self):
        t2s2 = builtin("t2xs2")
        with pytest.raises(ValueError) as err:
            is_symmetric_pair(t2s2, (1, 0, 0), IntMatrix.zeros(2, 2))
        assert str(err.value) == "H2 vector length 3 != b2 2"
        with pytest.raises(ValueError) as err:
            is_symmetric_pair(t2s2, (1, 0), IntMatrix.zeros(3, 3))
        assert str(err.value) == \
            "L has shape (3, 3), expected square of size 2"

    def test_pair_columns_are_not_fields(self):
        data = builtin("t2xs2")
        fresh = builtin("t2xs2")
        assert data.pair_columns == ((0, 1, (1, 0)),)
        assert data.pair_columns is data.pair_columns
        assert data == fresh and hash(data) == hash(fresh)
        assert "pair_columns" not in {f.name for f in
                                      dataclasses.fields(data)}


class TestLambdaAdjoint:
    def test_identity_pairing(self, rng):
        data = free_h1_manifold(rng, 3)
        data = dataclasses.replace(data, P=IntMatrix.identity(3))
        L = random_symmetric(rng, 3)
        assert lambda_adjoint(data, L) == L

    def test_s1xs3(self):
        assert lambda_adjoint(builtin("s1xs3"), IntMatrix([[7]])) == \
            IntMatrix([[7]])

    def test_swap_pairing(self, rng):
        data = free_h1_manifold(rng, 2)
        data = dataclasses.replace(data, P=IntMatrix([[0, 1], [1, 0]]))
        L = IntMatrix([[1, 2], [3, 4]])
        assert lambda_adjoint(data, L) == IntMatrix([[3, 4], [1, 2]])

    def test_defining_property(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            data = free_h1_manifold(rng, n)
            L = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n)])
            assert data.P @ lambda_adjoint(data, L) == L


class TestKGroup:
    def test_s1xs3_z6(self):
        kg = k_group(builtin("s1xs3"), (), IntMatrix([[3]]))
        assert kg.d == 0
        assert kg.factors == (6,)

    def test_factors_only_over_z_in_bounded_time(self, rng):
        """At d = 0 the factors of a 40 x 40 2L with entries up to 2*10^6
        take about 0.1 s on a 2-core VM; tracking U and V as well takes
        about 2.8 s."""
        n = 40
        data = ManifoldData(b1=n, b2=0, b3=n, Q=IntMatrix.zeros(0, 0),
                            P=IntMatrix.identity(n), T=(), w2=(), sigma=0)
        assert is_valid(data)
        L = random_symmetric(rng, n, bound=10 ** 6)
        start = time.perf_counter()
        kg = k_group(data, (), L)
        assert time.perf_counter() - start < 1.0
        assert kg.d == 0
        assert math.prod(kg.factors) == abs(scaled(L, 2).det())

    def test_s1xs3_free(self):
        kg = k_group(builtin("s1xs3"), (), IntMatrix([[0]]))
        assert kg.factors == (0,)
        assert kg.size() is None

    def test_diag_with_divisor(self, rng):
        # adjoint diag(1, 0) with d = 3 presents Z_3 (factors (1, 3))
        data = free_h1_manifold(rng, 2)
        data = dataclasses.replace(data, P=IntMatrix.identity(2))
        relations = IntMatrix([[2, 0, 3, 0], [0, 0, 0, 3]])
        assert cokernel(2, relations).invariant_factors == (1, 3)

    def test_requires_symmetric_pair(self):
        t2s2 = builtin("t2xs2")
        with pytest.raises(ValueError):
            k_group(t2s2, (1, 0), IntMatrix.zeros(2, 2))

    def test_unit_and_two_divisibility_match_smith_form(self, rng):
        # 2L is 0 mod 1 and mod 2, so K = (Z/d)^b1 without a reduction
        shapes = [(0, 0), (1, 1), (3, 3), (5, 5), (2, 4), (4, 2), (0, 3),
                  (3, 0)]
        for d in (1, 2):
            for rows, cols in shapes + [(rng.randint(0, 6),) * 2
                                        for _ in range(20)]:
                L = random_matrix(rng, rows, cols, bound=9)
                res = emb7.exact.smith_normal_form(
                    scaled(L, 2), modulus=d, transforms=False)
                assert k_group_factors(L, d) == (d,) * rows == \
                    res.diagonal() + (d,) * (rows - min(res.D.shape))

    def test_invariance_under_basis_change(self, rng):
        t2s2 = builtin("t2xs2")
        for _ in range(20):
            u = rng.choice(enumerate_kappa(t2s2, 2))
            L = base_lambda(t2s2, u) + random_symmetric(rng, 2)
            factors = k_group(t2s2, u, L).factors
            m2 = random_unimodular(rng, 2)
            a = random_unimodular(rng, 2)
            b = random_unimodular(rng, 2)
            changed = basis_change(t2s2, m2, a, b)
            from emb7.exact import inverse_unimodular
            u2 = inverse_unimodular(m2).apply(u)
            L2 = a.T @ L @ a
            assert k_group(changed, u2, L2).factors == factors


def reference_k_group_presentation(lam: IntMatrix, d: int):
    """The cokernel of the whole relation matrix [2*lam | d*I]: the
    reference for the route through the Smith form of lam alone."""
    return cokernel(lam.rows, k_relations(lam, d))


def assert_relations_are_members(P: IntMatrix, lam: IntMatrix, d: int):
    """P times every column of [2*lam | d*I] lies in the lattice of 2L and
    d, L = P lam, by `lattice_member`, the test `classify equal` runs."""
    relations = k_relations(lam, d)
    twice = scaled(P @ lam, 2)
    for j in range(relations.cols):
        assert lattice_member(twice, P.apply(relations.column(j)), d)


def assert_coset_decisions_match(rng, P: IntMatrix, ref, lam: IntMatrix,
                                 d: int):
    """beta and beta + 2*lam*c + d*e differ by a lattice member of 2L and
    d, L = P lam, and `lattice_member` decides equality with a nearby
    vector as the reference coset form does."""
    b1, b3 = lam.shape
    twice = scaled(P @ lam, 2)

    def same(x, y):
        return lattice_member(twice, P.apply([a - b for a, b in zip(x, y)]),
                              d)

    for _ in range(5):
        beta = [rng.randint(-20, 20) for _ in range(b1)]
        c = [rng.randint(-4, 4) for _ in range(b3)]
        e = [rng.randint(-4, 4) for _ in range(b1)]
        shifted = [x + 2 * y + d * z for x, y, z
                   in zip(beta, lam.apply(c), e)]
        assert same(beta, shifted)
        other = [x + rng.choice((0, 0, 1, -1)) for x in shifted]
        assert same(beta, other) == \
            (coset_normal_form(ref, beta) == coset_normal_form(ref, other))


def random_adjoint(rng, b1: int, b3: int) -> IntMatrix:
    """A random b1 x b3 matrix whose rows are dependent a third of the
    time (a multiple of another row, or zero)."""
    rows = [[rng.randint(-9, 9) for _ in range(b3)] for _ in range(b1)]
    if b1 and rng.random() < 1 / 3:
        i, j = rng.randrange(b1), rng.randrange(b1)
        c = rng.randint(-3, 3) if i != j else 0
        rows[i] = [c * x for x in rows[j]]
    return IntMatrix(rows, cols=b3)


def random_presentation_pairs(rng, count: int):
    """(lam, d) pairs with b1, b3 in [0, 5] and d = 0 a third of the time,
    plus the edge shapes with an empty side and the zero matrix."""
    edges = [(IntMatrix.zeros(0, 3), 4), (IntMatrix.zeros(3, 0), 0),
             (IntMatrix.zeros(3, 0), 6), (IntMatrix.zeros(2, 2), 0),
             (IntMatrix.zeros(0, 0), 0)]
    randoms = [(random_adjoint(rng, rng.randint(0, 5), rng.randint(0, 5)),
                rng.choice((0, rng.randint(1, 12), rng.randint(1, 12))))
               for _ in range(count)]
    return edges + randoms


def twisted_pairing_fibers(rng, count: int) -> list:
    """(data, u, L) fibers over validated manifolds whose pairing P is a
    random unimodular matrix: H1 and H3 basis changes of t2xs2 # s1xs3,
    with d = divisibility(u) in {0, 2, 4, 6}, and free_h1_manifold
    fixtures, with d = 0."""
    base = direct_sum(builtin("t2xs2"), builtin("s1xs3"))
    us = enumerate_kappa(base, 6)
    fibers = []
    for _ in range(count):
        data = basis_change(base, IntMatrix.identity(base.b2),
                            random_unimodular(rng, base.b3),
                            random_unimodular(rng, base.b1))
        u = rng.choice(us)
        fibers.append((data, u, base_lambda(data, u)
                       + random_symmetric(rng, data.b3)))
        free = free_h1_manifold(rng, rng.randint(1, 4))
        fibers.append((free, (), random_symmetric(rng, free.b3, 9)))
    assert any(data.P != IntMatrix.identity(data.b1) for data, _, _ in fibers)
    return fibers


def odd_w2_fibers(rng, count: int) -> list:
    """(data, u, L) fibers over cp2 # t2xs2, where u_1 is odd, so
    d = divisibility(u) is odd: 1 for every u of the box [-3, 3]^3."""
    data = direct_sum(builtin("cp2"), builtin("t2xs2"))
    us = enumerate_kappa(data, 3)
    return [(data, u, base_lambda(data, u) + random_symmetric(rng, data.b3))
            for u in rng.sample(us, count)]


class TestKGroupOracle:
    def test_twisted_pairing_matches_full_cokernel(self, rng):
        divisors = set()
        for data, u, L in twisted_pairing_fibers(rng, 40):
            d = divisibility(u)
            divisors.add(d)
            lam = lambda_adjoint(data, L)
            ref = reference_k_group_presentation(lam, d)
            assert k_group_factors(L, d) == ref.invariant_factors, (data.P, L)
            assert k_group(data, u, L).factors == ref.invariant_factors
            assert_relations_are_members(data.P, lam, d)
            assert_coset_decisions_match(rng, data.P, ref, lam, d)
        assert 0 in divisors and len(divisors) > 1

    def test_factors_match_full_cokernel(self, rng):
        for lam, d in random_presentation_pairs(rng, 400):
            factors = k_group_factors(lam, d)
            ref = reference_k_group_presentation(lam, d)
            assert factors == ref.invariant_factors, (lam, d)
            assert_relations_are_members(IntMatrix.identity(lam.rows), lam, d)
            assert len(factors) == ref.ambient_rank == lam.rows

    def test_coset_decisions_match(self, rng):
        for lam, d in random_presentation_pairs(rng, 200):
            ref = reference_k_group_presentation(lam, d)
            assert_coset_decisions_match(
                rng, IntMatrix.identity(lam.rows), ref, lam, d)

    @pytest.mark.parametrize("d", [1, 3, 5, 9, 12, 30])
    def test_odd_and_composite_d_through_a_pairing(self, rng, d):
        """The route over Z/d on L = P lam for a unimodular P other than
        the identity: L presents the same group as lam, and membership in
        the lattice of 2L and d decides as the reference does."""
        twisted = 0
        for _ in range(40):
            b1 = rng.randint(1, 5)
            lam = random_adjoint(rng, b1, rng.randint(0, 5))
            P = random_unimodular(rng, b1)
            twisted += P != IntMatrix.identity(b1)
            ref = reference_k_group_presentation(lam, d)
            assert k_group_factors(P @ lam, d) == ref.invariant_factors, \
                (P, lam)
            assert_relations_are_members(P, lam, d)
            assert_coset_decisions_match(rng, P, ref, lam, d)
        assert twisted

    def test_classes_equal_matches_reference(self, rng):
        data = direct_sum(builtin("t2xs2"), builtin("s1xs3"))
        for u in enumerate_kappa(data, 2):
            for _ in range(5):
                L = base_lambda(data, u) + random_symmetric(rng, data.b3)
                ref = reference_k_group_presentation(
                    lambda_adjoint(data, L), divisibility(u))
                beta = [rng.randint(-9, 9) for _ in range(data.b1)]
                for _ in range(4):
                    other = [rng.randint(-9, 9) for _ in range(data.b1)]
                    c1 = embedding_class(data, u, L, beta)
                    c2 = embedding_class(data, u, L, other)
                    assert classes_equal(data, c1, c2) == \
                        (coset_normal_form(ref, beta)
                         == coset_normal_form(ref, other))


class TestOneSmithFormPerKGroup:
    """A K-group costs one Smith reduction, of L, and no inverse of P."""

    @pytest.fixture
    def snf_calls(self, monkeypatch):
        import emb7.exact
        real = emb7.exact.smith_normal_form
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def no_inverse(P):
            raise AssertionError("P was inverted")

        monkeypatch.setattr(emb7.exact, "smith_normal_form", counting)
        monkeypatch.setattr(emb7.exact, "inverse_unimodular", no_inverse)
        return calls

    def test_k_group(self, rng, snf_calls):
        divisors = set()
        fibers = twisted_pairing_fibers(rng, 5) + odd_w2_fibers(rng, 3)
        for data, u, L in fibers:
            d = divisibility(u)
            divisors.add(d)
            snf_calls.clear()
            k_group(data, u, L)
            # 2L is 0 mod d for d in {1, 2}: the group needs no Smith form
            assert len(snf_calls) == (0 if d in (1, 2) else 1), d
        assert {1, 2} <= divisors and divisors - {0, 1, 2}

    def test_cli_calls(self, rng, snf_calls, tmp_path, capsys):
        from emb7.cli import main
        fibers = twisted_pairing_fibers(rng, 10)
        for wanted in ({2}, {4, 6}):
            data, u, L = next(f for f in fibers
                              if divisibility(f[1]) in wanted)
            path = tmp_path / "twisted.json"
            path.write_text(json.dumps(to_json(data)))
            common = ["--manifold", str(path), "--u", json.dumps(u),
                      "--L", json.dumps(L.tolists())]
            cls = [json.dumps({"u": list(u), "L": L.tolists(),
                               "beta": [b] * data.b1}) for b in (1, 3)]
            smith = 0 if divisibility(u) == 2 else 1
            for argv in (["k-group", *common],
                         ["fiber", *common, "--enumerate", "--cap", "20"],
                         ["classify", "equal", "--manifold", str(path),
                          "--class1", cls[0], "--class2", cls[1]]):
                snf_calls.clear()
                assert main(argv) == 0, capsys.readouterr()
                # classify equal tests lattice membership and takes no
                # Smith form
                assert len(snf_calls) == \
                    (0 if argv[0] == "classify" else smith), argv
        capsys.readouterr()


class TestWhitney:
    def test_even_diagonal(self, rng):
        # an even diagonal forces W = 0 regardless of the pairing
        for _ in range(10):
            data = free_h1_manifold(rng, 3)
            L = IntMatrix([[2, 5, 1], [0, -4, 9], [3, 3, 6]])
            assert whitney_w(data, L) == (0, 0, 0)

    def test_s1xs3(self):
        assert whitney_w(builtin("s1xs3"), IntMatrix([[3]])) == (1,)

    def test_per_coordinate(self, rng):
        data = dataclasses.replace(free_h1_manifold(rng, 2),
                                   P=IntMatrix.identity(2))
        assert whitney_w(data, IntMatrix.diagonal((2, 5))) == (0, 1)

    def test_depends_only_on_diagonal_parity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            data = free_h1_manifold(rng, n)
            L = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n)])
            twice = scaled(random_symmetric(rng, n), 2)
            anti = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    anti[i][j] = rng.randint(-5, 5)
                    anti[j][i] = -anti[i][j]
            assert whitney_w(data, L) == \
                whitney_w(data, L + twice + IntMatrix(anti, cols=n))

    def test_defining_equation(self, rng):
        for _ in range(30):
            n = rng.randint(1, 4)
            data = free_h1_manifold(rng, n)
            L = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n)])
            w = whitney_w(data, L)
            got = data.P.apply(w)
            assert all((g - L[i, i]) % 2 == 0 for i, g in enumerate(got))


def brute_force_parity_equal(L0: IntMatrix, L1: IntMatrix) -> bool:
    from itertools import product
    D = L0 - L1
    n = D.rows
    for x in product((0, 1), repeat=n):
        total = sum(D[i, j] * x[i] * x[j] for i in range(n) for j in range(n))
        if total % 2:
            return False
    return True


class TestRegularHomotopy:
    def test_equal_forms(self):
        L = IntMatrix([[1, 2], [3, 4]])
        assert regular_homotopy_equivalent(L, L)

    def test_parity_one_by_one(self):
        assert regular_homotopy_equivalent(IntMatrix([[1]]), IntMatrix([[3]]))
        assert not regular_homotopy_equivalent(IntMatrix([[0]]), IntMatrix([[1]]))

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n = rng.randint(1, 5)
            L0 = IntMatrix([[rng.randint(-4, 4) for _ in range(n)]
                            for _ in range(n)])
            delta = IntMatrix([[rng.choice((0, 0, 1, 2)) for _ in range(n)]
                               for _ in range(n)])
            L1 = L0 + delta
            assert regular_homotopy_equivalent(L0, L1) == \
                brute_force_parity_equal(L0, L1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            regular_homotopy_equivalent(IntMatrix([[1]]), IntMatrix.zeros(2, 2))

    @pytest.mark.parametrize("rows", [[[1], [2]], [[1, 2]]])
    def test_non_square(self, rows):
        with pytest.raises(ValueError, match=r"L0 has shape \(\d, \d\), "
                                             "expected square"):
            regular_homotopy_equivalent(IntMatrix(rows), IntMatrix(rows))


class TestCompression:
    def test_both_zero(self):
        assert compression_obstruction((0,), IntMatrix.zeros(1, 1))

    def test_nonzero_lambda(self):
        assert not compression_obstruction((), IntMatrix([[1]]))

    def test_nonzero_kappa(self):
        assert not compression_obstruction((1,), IntMatrix.zeros(0, 0))

    @pytest.mark.parametrize("u", [(0,), (1,)])
    def test_non_square_lambda(self, u):
        with pytest.raises(ValueError, match=r"L has shape \(2, 1\), "
                                             "expected square"):
            compression_obstruction(u, IntMatrix([[0], [0]]))
