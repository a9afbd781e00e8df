"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import contextlib
import io
import json
import random
import time
from itertools import product

import emb7.linking as lk
from conftest import (base_lambda, cokernel, direct_sum, fiber_size,
                      free_h1_manifold, k_relations, lambda_adjoint,
                      net_lambda_effect, random_form_manifold, random_matrix,
                      random_symmetric, random_unimodular, reference_linking,
                      reversed_cycle)
from emb7.cli import main
from emb7.exact import IntMatrix, coset_normal_form
from emb7.manifolds import builtin
from emb7.resolution import DEFAULT_RESOLUTION
from emb7.classify import classes_equal, embedding_class
from emb7.invariants import (enumerate_kappa, is_symmetric_pair, k_group,
                             regular_homotopy_equivalent)
from emb7.moves import (Move, apply_move, decompose_symmetric_form,
                        tau_equal)


def test_criterion_01_torus_equality_law():
    # tau classes agree exactly when l matches and 2l divides b - b'
    start = time.time()
    checked = 0
    for l in range(-5, 6):
        for b in range(-12, 13):
            for bp in range(-12, 13):
                expected = (b - bp) % (2 * abs(l)) == 0 if l else b == bp
                assert tau_equal(l, b, l, bp) == expected
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS - torus equality law on {checked} "
          f"triples in {elapsed:.2f}s")


def test_criterion_02_torus_fiber_counts():
    s1s3 = builtin("s1xs3")
    for l in range(1, 7):
        assert fiber_size(s1s3, (), IntMatrix([[l]])) == 2 * l
    assert fiber_size(s1s3, (), IntMatrix([[0]])) is None
    print("criterion 2: PASS - fiber sizes 2l for l=1..6 and infinite at l=0")


def test_criterion_03_cross_module_consistency():
    s1s3 = builtin("s1xs3")
    rng = random.Random(3)
    agree = 0
    for _ in range(500):
        l = rng.randint(-5, 5)
        b1, b2 = rng.randint(-20, 20), rng.randint(-20, 20)
        c1 = embedding_class(s1s3, (), IntMatrix([[l]]), beta=(b1,))
        c2 = embedding_class(s1s3, (), IntMatrix([[l]]), beta=(b2,))
        assert classes_equal(s1s3, c1, c2) == tau_equal(l, b1, l, b2)
        agree += 1
    print(f"criterion 3: PASS - classes_equal matches the torus law on "
          f"{agree} random pairs")


def _brute_force_kappa(data, bound):
    out = []
    for u in product(range(-bound, bound + 1), repeat=data.b2):
        if any((ui - wi) % 2 for ui, wi in zip(u, data.w2)):
            continue
        qu = data.Q.apply(u)
        if sum(a * b for a, b in zip(u, qu)) == data.sigma:
            out.append(u)
    return out


def test_criterion_04_kappa_enumeration():
    assert enumerate_kappa(builtin("cp2"), 3) == [(-1,), (1,)]
    assert enumerate_kappa(builtin("s2xs2"), 2) == \
        [(-2, 0), (0, -2), (0, 0), (0, 2), (2, 0)]
    rng = random.Random(4)
    for _ in range(20):
        data = random_form_manifold(rng, rng.randint(1, 3))
        assert enumerate_kappa(data, 3) == _brute_force_kappa(data, 3)
    print("criterion 4: PASS - box enumeration matches brute force on "
          "cp2, s2xs2 and 20 random unimodular forms")


def _sympy_invariant_factors(relations: IntMatrix, ambient: int) -> tuple:
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    if relations.cols == 0 or relations.rows == 0:
        return (0,) * ambient
    m = sympy.Matrix(relations.tolists())
    d = sympy_snf(m, domain=sympy.ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]
    diag = sorted(x for x in diag if x) + [0] * ambient
    return tuple(diag[:ambient])


def _canonical(factors: tuple) -> tuple:
    return tuple(sorted(x for x in factors if x)) + \
        (0,) * sum(1 for x in factors if x == 0)


def test_criterion_05_k_group_oracle():
    from emb7.invariants import k_group_factors
    rng = random.Random(5)
    for _ in range(100):
        b1 = rng.randint(1, 4)
        b3 = rng.randint(1, 4)
        lam = random_matrix(rng, b1, b3, bound=9)
        d = rng.randint(0, 9)
        factors = k_group_factors(lam, d)
        relations = k_relations(lam, d)
        assert _canonical(factors) == \
            _canonical(_sympy_invariant_factors(relations, b1))
        # invariance under unimodular basis change of the relations
        left = random_unimodular(rng, b1)
        right = random_unimodular(rng, relations.cols)
        changed = cokernel(b1, left @ relations @ right).invariant_factors
        assert _canonical(changed) == _canonical(factors)
        # consistency with the full fiber machinery on matched data
        if b1 == b3 and d == 0:
            data = free_h1_manifold(rng, b1)
            L = random_symmetric(rng, b1, bound=9)
            kg = k_group(data, (), L)
            direct = k_group_factors(lambda_adjoint(data, L), 0)
            assert kg.factors == direct
    print("criterion 5: PASS - K-group factors match the sympy oracle and "
          "are basis independent on 100 random (adjoint, divisor) pairs")


def test_criterion_06_symmetric_pair_structure():
    rng = random.Random(6)
    fixtures = [builtin("s1xs3"), builtin("t2xs2"),
                direct_sum(builtin("t2xs2"), direct_sum(builtin("s1xs3"),
                                                        builtin("s1xs3")))]
    total = 0
    for data in fixtures:
        for u in enumerate_kappa(data, 2):
            base = base_lambda(data, u)
            assert is_symmetric_pair(data, u, base)
            for _ in range(100):
                s = random_symmetric(rng, data.b3, bound=4)
                assert is_symmetric_pair(data, u, base + s)
                L = random_matrix(rng, data.b3, data.b3, bound=4)
                assert is_symmetric_pair(data, u, L) == \
                    (L - base).is_symmetric()
                total += 1
    assert total >= 100
    print(f"criterion 6: PASS - u-symmetric forms are exactly "
          f"base + symmetric on {total} perturbations (up to 4x4)")


def test_criterion_07_move_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(0, 4)
        data = free_h1_manifold(rng, n)
        m = random_symmetric(rng, n, bound=5)
        assert net_lambda_effect(data, decompose_symmetric_form(data, m)) == m
    # parametric additivity formulas, re-evaluated entrywise
    for _ in range(100):
        n = rng.randint(1, 4)
        data = free_h1_manifold(rng, n)
        L = random_symmetric(rng, n, bound=5)
        beta = tuple(rng.randint(-9, 9) for _ in range(n))
        cls = embedding_class(data, (), L, beta=beta)
        s = tuple(rng.randint(-3, 3) for _ in range(n))
        l, b = rng.randint(-4, 4), rng.randint(-4, 4)
        out = apply_move(data, cls, Move(s=s, l=l, b=b))
        assert out.u == cls.u
        ps = data.P.apply(s)
        for j in range(n):
            for k in range(n):
                assert out.L[j, k] == L[j, k] + l * ps[j] * ps[k]
        if l == 0:
            assert out.beta == tuple(x + b * si for x, si in zip(beta, s))
        else:
            assert not out.beta_known
    print("criterion 7: PASS - decompose/net round trip and move update "
          "formulas on 100 random inputs each")


def test_criterion_08_numerical_linking():
    worst = 0.0
    for l in (-2, -1, 0, 1, 2):
        for b in (-1, 0, 1):
            start = time.time()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["link", "tau", "--l", str(l), "--b", str(b)])
            rep = json.loads(out.getvalue())
            elapsed = time.time() - start
            assert code == 0 and rep["pass"], rep
            assert rep["value"] == l
            assert rep["residual"] < 0.1
            assert elapsed < 300.0
            worst = max(worst, rep["residual"])
    xy = lk.linking_number(2, separation=lk.tau_fiber_separation(2))
    X, Y, n = lk._FiberJet(2, +1), lk._FiberJet(2, -1), DEFAULT_RESOLUTION
    yx = reference_linking(Y, X, n, symmetric=True)
    residual = max(xy.residual, abs(yx - round(yx)))
    assert residual <= 0.25
    assert abs(xy.estimate - yx) <= 2 * residual + 1e-12
    rev = reference_linking(reversed_cycle(X), Y, n, symmetric=True)
    assert abs(xy.estimate + rev) < 1e-12
    print(f"criterion 8: PASS - fiber linking equals l on "
          f"{{-2..2}}x{{-1,0,1}} (worst residual {worst:.1e}), "
          f"symmetric and orientation-sensitive")


def test_criterion_09_exact_linear_algebra_axioms():
    from emb7.exact import smith_normal_form
    rng = random.Random(9)
    start = time.time()
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        A = random_matrix(rng, rows, cols, bound=20)
        res = smith_normal_form(A)
        assert res.U @ A @ res.V == res.D
        assert abs(res.U.det()) == 1 and abs(res.V.det()) == 1
        diag = res.diagonal()
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
    for _ in range(100):
        n = rng.randint(1, 4)
        R = random_matrix(rng, n, rng.randint(0, 4), bound=9)
        G = cokernel(n, R)
        v = tuple(rng.randint(-40, 40) for _ in range(n))
        nf = coset_normal_form(G, v)
        for j in range(R.cols):
            shifted = tuple(a + b for a, b in zip(v, R.column(j)))
            assert coset_normal_form(G, shifted) == nf
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"criterion 9: PASS - exact linear algebra axioms "
          f"(200 SNF + 100 cosets) in {elapsed:.2f}s")


def test_criterion_10_regular_homotopy_oracle():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 6)
        L0 = random_matrix(rng, n, n, bound=4)
        L1 = L0 + IntMatrix([[rng.choice((0, 0, 1, 2)) for _ in range(n)]
                             for _ in range(n)])
        brute = all(
            sum((L0 - L1)[i, j] * x[i] * x[j]
                for i in range(n) for j in range(n)) % 2 == 0
            for x in product((0, 1), repeat=n))
        assert regular_homotopy_equivalent(L0, L1) == brute
    print("criterion 10: PASS - parity criterion matches the 0/1-vector "
          "oracle on 200 random pairs up to 6x6")
