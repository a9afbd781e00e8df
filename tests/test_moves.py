import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (base_lambda, free_h1_manifold, net_lambda_effect,
                      random_symmetric)
from emb7.exact import IntMatrix
from emb7.manifolds import builtin
from emb7.classify import embedding_class
from emb7.moves import (Move, apply_move, decompose_symmetric_form,
                        tau_compose, tau_equal, tau_normal_form)

lb = st.tuples(st.integers(-8, 8), st.integers(-30, 30))


class TestApplyMove:
    def test_beta_translation(self):
        s1s3 = builtin("s1xs3")
        cls = embedding_class(s1s3, (), IntMatrix([[0]]), beta=(0,))
        out = apply_move(s1s3, cls, Move(s=(1,), l=0, b=5))
        assert out.L == IntMatrix([[0]])
        assert out.beta == (5,) and out.beta_known

    def test_lambda_update(self):
        s1s3 = builtin("s1xs3")
        cls = embedding_class(s1s3, (), IntMatrix([[2]]), beta=(0,))
        out = apply_move(s1s3, cls, Move(s=(1,), l=3, b=0))
        assert out.L == IntMatrix([[5]])
        assert not out.beta_known and out.beta is None

    def test_trivial_move(self):
        s1s3 = builtin("s1xs3")
        cls = embedding_class(s1s3, (), IntMatrix([[4]]), beta=(2,))
        out = apply_move(s1s3, cls, Move(s=(0,), l=0, b=0))
        assert out == cls

    def test_u_never_changes(self, rng):
        t2s2 = builtin("t2xs2")
        cls = embedding_class(t2s2, (0, 0), IntMatrix.zeros(2, 2),
                              beta=(0, 0))
        for _ in range(20):
            mv = Move(s=(rng.randint(-3, 3), rng.randint(-3, 3)),
                      l=rng.randint(-3, 3), b=rng.randint(-3, 3))
            assert apply_move(t2s2, cls, mv).u == cls.u

    def test_matches_update_formula(self, rng):
        # L'[j][k] = L[j][k] + l * (Ps)_j (Ps)_k, re-evaluated directly
        for _ in range(40):
            n = rng.randint(1, 4)
            data = free_h1_manifold(rng, n)
            L = random_symmetric(rng, n)
            cls = embedding_class(data, (), L, beta=(0,) * n)
            s = tuple(rng.randint(-3, 3) for _ in range(n))
            l = rng.randint(-4, 4)
            out = apply_move(data, cls, Move(s=s, l=l, b=rng.randint(-3, 3)))
            ps = data.P.apply(s)
            for j in range(n):
                for k in range(n):
                    assert out.L[j, k] == L[j, k] + l * ps[j] * ps[k]

    def test_zero_moves_commute_and_add(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            data = free_h1_manifold(rng, n)
            cls = embedding_class(data, (), random_symmetric(rng, n),
                                  beta=tuple(rng.randint(-5, 5)
                                             for _ in range(n)))
            m1 = Move(s=tuple(rng.randint(-3, 3) for _ in range(n)), l=0,
                      b=rng.randint(-4, 4))
            m2 = Move(s=tuple(rng.randint(-3, 3) for _ in range(n)), l=0,
                      b=rng.randint(-4, 4))
            ab = apply_move(data, apply_move(data, cls, m1), m2)
            ba = apply_move(data, apply_move(data, cls, m2), m1)
            assert ab == ba
            expected = tuple(x + m1.b * s1 + m2.b * s2 for x, s1, s2
                             in zip(cls.beta, m1.s, m2.s))
            assert ab.beta == expected

    def test_preserves_symmetric_pair(self, rng):
        from emb7.invariants import is_symmetric_pair
        t2s2 = builtin("t2xs2")
        u = (2, 0)
        L = base_lambda(t2s2, u) + random_symmetric(rng, 2)
        cls = embedding_class(t2s2, u, L, beta=(0, 0))
        for _ in range(15):
            mv = Move(s=(rng.randint(-3, 3), rng.randint(-3, 3)),
                      l=rng.randint(-3, 3), b=0)
            assert is_symmetric_pair(t2s2, u, apply_move(t2s2, cls, mv).L)

    def test_dimension_mismatch(self):
        s1s3 = builtin("s1xs3")
        cls = embedding_class(s1s3, (), IntMatrix([[0]]), beta=(0,))
        with pytest.raises(ValueError):
            apply_move(s1s3, cls, Move(s=(1, 2), l=0, b=0))


class TestDecompose:
    def test_zero_form(self):
        assert decompose_symmetric_form(builtin("t2xs2"),
                                        IntMatrix.zeros(2, 2)) == []

    def test_example(self, rng):
        data = dataclasses.replace(free_h1_manifold(rng, 2),
                                   P=IntMatrix.identity(2))
        m = IntMatrix([[2, 1], [1, 0]])
        out = decompose_symmetric_form(data, m)
        assert net_lambda_effect(data, out) == m

    def test_rank_one(self, rng):
        data = dataclasses.replace(free_h1_manifold(rng, 2),
                                   P=IntMatrix.identity(2))
        m = IntMatrix([[1, 1], [1, 1]])
        out = decompose_symmetric_form(data, m)
        assert net_lambda_effect(data, out) == m

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            decompose_symmetric_form(builtin("t2xs2"),
                                     IntMatrix([[0, 1], [0, 0]]))

    def test_round_trip_random(self, rng):
        for _ in range(100):
            n = rng.randint(0, 4)
            data = free_h1_manifold(rng, n)
            m = random_symmetric(rng, n, bound=5)
            out = decompose_symmetric_form(data, m)
            assert net_lambda_effect(data, out) == m

    def test_net_effect_empty(self, rng):
        data = free_h1_manifold(rng, 3)
        assert net_lambda_effect(data, []) == IntMatrix.zeros(3, 3)

    def test_net_effect_single(self):
        s1s3 = builtin("s1xs3")
        assert net_lambda_effect(s1s3, [((1,), 1)]) == IntMatrix([[1]])


class TestTauCalculus:
    def test_normal_form_examples(self):
        assert tau_normal_form(3, 7) == (3, 1)
        assert tau_normal_form(0, -4) == (0, -4)
        assert tau_normal_form(-2, 5) == (-2, 1)

    def test_equal_examples(self):
        assert tau_equal(2, 1, 2, 5)
        assert not tau_equal(2, 1, 2, 2)
        assert tau_equal(0, 3, 0, 3)
        assert not tau_equal(0, 3, 0, 4)

    def test_compose_examples(self):
        assert tau_compose(1, 0, 0, 1) == (1, 1)
        assert tau_compose(2, 3, -2, -3) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(lb)
    def test_normal_form_idempotent(self, pair):
        l, b = pair
        nf = tau_normal_form(l, b)
        assert tau_normal_form(*nf) == nf
        assert tau_equal(l, b, *nf)

    @settings(max_examples=200, deadline=None)
    @given(lb, lb)
    def test_equal_iff_same_normal_form(self, p1, p2):
        same = tau_normal_form(*p1) == tau_normal_form(*p2)
        assert tau_equal(*p1, *p2) == same

    @settings(max_examples=100, deadline=None)
    @given(lb, lb, lb)
    def test_equivalence_relation(self, p1, p2, p3):
        assert tau_equal(*p1, *p1)
        assert tau_equal(*p1, *p2) == tau_equal(*p2, *p1)
        if tau_equal(*p1, *p2) and tau_equal(*p2, *p3):
            assert tau_equal(*p1, *p3)

    @settings(max_examples=100, deadline=None)
    @given(lb)
    def test_compose_identity(self, pair):
        assert tau_compose(*pair, 0, 0) == tau_normal_form(*pair)
