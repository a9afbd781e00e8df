import time
from itertools import product

import pytest

from conftest import (base_lambda, basis_change, fiber_size, random_symmetric,
                      random_unimodular)
from emb7.exact import IntMatrix, inverse_unimodular
from emb7.manifolds import builtin
from emb7.classify import (BetaUnknownError, EmbeddingClass, _shell,
                           classes_equal, embedding_class, enumerate_fiber,
                           fiber_group)
from emb7.invariants import enumerate_kappa
from emb7.moves import Move, apply_move, tau_equal


def tau_class(l, b):
    return embedding_class(builtin("s1xs3"), (), IntMatrix([[l]]), beta=(b,))


class TestClassesEqual:
    def test_mod_2l(self):
        s1s3 = builtin("s1xs3")
        assert classes_equal(s1s3, tau_class(3, 1), tau_class(3, 7))
        assert not classes_equal(s1s3, tau_class(3, 1), tau_class(3, 2))

    def test_identical(self):
        s1s3 = builtin("s1xs3")
        c = tau_class(2, 1)
        assert classes_equal(s1s3, c, c)

    def test_beta_required(self):
        s1s3 = builtin("s1xs3")
        c = EmbeddingClass(u=(), L=IntMatrix([[3]]))
        with pytest.raises(BetaUnknownError):
            classes_equal(s1s3, c, tau_class(3, 0))

    def test_rejects_invalid_class(self):
        with pytest.raises(ValueError):
            embedding_class(builtin("cp2"), (3,), IntMatrix.zeros(0, 0))
        with pytest.raises(ValueError):
            embedding_class(builtin("t2xs2"), (1, 0), IntMatrix.zeros(2, 2))

    def test_equivalence_relation(self, rng):
        s1s3 = builtin("s1xs3")
        classes = [tau_class(rng.randint(-2, 2), rng.randint(-6, 6))
                   for _ in range(12)]
        for c1 in classes:
            assert classes_equal(s1s3, c1, c1)
            for c2 in classes:
                assert classes_equal(s1s3, c1, c2) == \
                    classes_equal(s1s3, c2, c1)
                for c3 in classes:
                    if classes_equal(s1s3, c1, c2) and \
                       classes_equal(s1s3, c2, c3):
                        assert classes_equal(s1s3, c1, c3)

    def test_matches_tau_equal(self, rng):
        s1s3 = builtin("s1xs3")
        for _ in range(200):
            l = rng.randint(-4, 4)
            b1, b2 = rng.randint(-12, 12), rng.randint(-12, 12)
            assert classes_equal(s1s3, tau_class(l, b1), tau_class(l, b2)) \
                == tau_equal(l, b1, l, b2)

    def test_invariant_under_zero_move(self, rng):
        s1s3 = builtin("s1xs3")
        zero = Move(s=(0,), l=0, b=0)
        for _ in range(20):
            c1 = tau_class(rng.randint(-3, 3), rng.randint(-9, 9))
            c2 = tau_class(rng.randint(-3, 3), rng.randint(-9, 9))
            assert classes_equal(s1s3, c1, c2) == classes_equal(
                s1s3, apply_move(s1s3, c1, zero), apply_move(s1s3, c2, zero))

    def test_invariant_under_basis_change(self, rng):
        t2s2 = builtin("t2xs2")
        us = enumerate_kappa(t2s2, 2)
        for _ in range(25):
            u = rng.choice(us)
            L = base_lambda(t2s2, u) + random_symmetric(rng, 2)
            b1 = tuple(rng.randint(-6, 6) for _ in range(2))
            b2 = tuple(rng.randint(-6, 6) for _ in range(2))
            c1 = embedding_class(t2s2, u, L, beta=b1)
            c2 = embedding_class(t2s2, u, L, beta=b2)
            base = classes_equal(t2s2, c1, c2)

            m2 = random_unimodular(rng, 2)
            a = random_unimodular(rng, 2)
            b = random_unimodular(rng, 2)
            changed = basis_change(t2s2, m2, a, b)
            binv = inverse_unimodular(b)
            u2 = inverse_unimodular(m2).apply(u)
            L2 = a.T @ L @ a
            d1 = embedding_class(changed, u2, L2, beta=binv.apply(b1))
            d2 = embedding_class(changed, u2, L2, beta=binv.apply(b2))
            assert classes_equal(changed, d1, d2) == base


class TestFiber:
    def test_s1xs3_sizes(self):
        s1s3 = builtin("s1xs3")
        for l in range(1, 7):
            assert fiber_size(s1s3, (), IntMatrix([[l]])) == 2 * l

    def test_s1xs3_infinite(self):
        assert fiber_size(builtin("s1xs3"), (), IntMatrix([[0]])) is None

    def test_cp2_trivial(self):
        assert fiber_size(builtin("cp2"), (1,), IntMatrix.zeros(0, 0)) == 1

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            fiber_group(builtin("cp2"), (3,), IntMatrix.zeros(0, 0))

    def test_recomputation_determinism(self, rng):
        t2s2 = builtin("t2xs2")
        u = (0, 0)
        L = random_symmetric(rng, 2)
        first = fiber_group(t2s2, u, L).factors
        assert all(fiber_group(t2s2, u, L).factors == first
                   for _ in range(5))


class TestEnumerateFiber:
    def test_z4(self):
        enum = enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[2]]))
        assert enum.representatives == ((0,), (1,), (2,), (3,))
        assert not enum.truncated

    def test_single_class(self):
        enum = enumerate_fiber(builtin("cp2"), (1,), IntMatrix.zeros(0, 0))
        assert enum.representatives == ((),)
        assert not enum.truncated

    def test_infinite_truncation(self):
        enum = enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[0]]), cap=5)
        assert enum.representatives == ((0,), (1,), (-1,), (2,), (-2,))
        assert enum.truncated

    def test_infinite_needs_cap(self):
        with pytest.raises(ValueError):
            enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[0]]))

    def test_cap_on_finite(self):
        enum = enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[3]]), cap=4)
        assert len(enum.representatives) == 4
        assert enum.truncated

    def test_shell_is_the_filtered_product_in_order(self, rng):
        # the rounds of an infinite listing: index tuples over the ranges
        # whose largest entry is m, as the filtered product gives them
        for _ in range(300):
            depth = rng.randint(1, 6)
            factors = [rng.choice((0, 0, 1, 2, 3, 8))
                       for _ in range(rng.randint(1, 4))]
            ranges = [range(min(depth, d) if d else depth) for d in factors]
            want = [t for t in product(*ranges) if max(t) == depth - 1]
            assert list(_shell(ranges, depth - 1)) == want, (factors, depth)

    def test_infinite_listing_is_not_quadratic(self):
        # one round per class on Z: a scan of each round's whole box took
        # 15 s here (0.04 s walking only the new tuples)
        t0 = time.perf_counter()
        enum = enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[0]]),
                               cap=20_000)
        assert time.perf_counter() - t0 < 2.0
        assert enum.representatives[-2:] == ((-9_999,), (10_000,))

    def test_listing_limit(self):
        t2s2 = builtin("t2xs2")
        L = IntMatrix([[0, 0], [6, 0]])
        assert len(enumerate_fiber(t2s2, (6, 0), L,
                                   max_entries=72).representatives) == 36
        with pytest.raises(ValueError, match="fiber of size 36 .* at most 35"):
            enumerate_fiber(t2s2, (6, 0), L, max_entries=71)
        assert len(enumerate_fiber(t2s2, (6, 0), L, cap=35,
                                   max_entries=71).representatives) == 35

    def test_representatives_distinct(self, rng):
        for l in range(1, 6):
            enum = enumerate_fiber(builtin("s1xs3"), (), IntMatrix([[l]]))
            assert len(set(enum.representatives)) == 2 * l
