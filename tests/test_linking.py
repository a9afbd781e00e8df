import math
import os
import subprocess
import sys

import numpy as np
import pytest

import emb7.linking as lk
import emb7.quat as quat


def reference_pair_sum(fx, dfx, wx, fy, dfy, wy):
    """Direct evaluation of the degree pair sum: one 7x7 determinant per
    node pair,

        sum_{a,b} w_a w_b det[D | dF_a | -dH_b] / |D|^7,   D = F_a - H_b.

    Small-n oracle for the matrix-product kernel lk.pair_sum."""
    total = 0.0
    for a in range(fx.shape[0]):
        diff = fx[a, None, :] - fy                          # (nb, 7)
        mats = np.empty((fy.shape[0], 7, 7))
        mats[..., 0] = diff
        for j in range(3):
            mats[..., 1 + j] = dfx[a, j, :]
            mats[..., 4 + j] = -dfy[:, j, :]
        dets = np.linalg.det(mats)
        r2 = np.einsum("bi,bi->b", diff, diff)
        total += wx[a] * float(np.sum(wy * dets / (r2 ** 3 * np.sqrt(r2))))
    return total


def tau_nodes(l, b, n):
    emb = lk.tau_embedding(l, b)
    grid = lk.hopf_grid(n)
    return (lk._cycle_nodes(emb.fiber(+1), grid)
            + lk._cycle_nodes(emb.fiber(-1), grid))


def assert_matches_reference(nodes):
    ref = reference_pair_sum(*nodes)
    got = lk.pair_sum(*nodes)
    # relative to the sum itself, or to one unit of linking when it is ~0
    assert abs(got - ref) <= 1e-12 * max(abs(ref), lk.VOL_S6)


def round_sphere(center, radius=1.0):
    c = np.asarray(center, dtype=float)

    def evaluator(x):
        out = np.zeros(x.shape[:-1] + (7,))
        out[..., :4] = radius * x
        return out + c

    return lk.ParamCycle(evaluator=evaluator)


class TestQuaternions:
    def test_mul_conj(self, rng):
        r = np.random.default_rng(3)
        a = r.normal(size=(50, 4))
        b = r.normal(size=(50, 4))
        # |ab| = |a||b| and conj is an anti-automorphism
        assert np.allclose(np.linalg.norm(quat.qmul(a, b), axis=-1),
                           np.linalg.norm(a, axis=-1)
                           * np.linalg.norm(b, axis=-1))
        assert np.allclose(quat.qconj(quat.qmul(a, b)),
                           quat.qmul(quat.qconj(b), quat.qconj(a)))

    def test_frame_orthonormal(self):
        r = np.random.default_rng(4)
        x = r.normal(size=(40, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        fr = quat.frame(x)
        gram = np.einsum("nad,nbd->nab", fr, fr)
        assert np.allclose(gram, np.eye(3)[None])
        assert np.allclose(np.einsum("nad,nd->na", fr, x), 0.0)

    def test_jet_pow_derivative(self):
        # analytic jets match finite differences of the power map
        r = np.random.default_rng(5)
        x = r.normal(size=(20, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        for n in (-3, -1, 0, 2, 5):
            _, dv = quat.jet_pow((x, quat.frame(x)), n)
            h = 1e-6
            for k, q in enumerate((quat.QI, quat.QJ, quat.QK)):
                step = math.cos(h) * quat.QONE + math.sin(h) * q
                fwd, _ = quat.jet_pow((quat.qmul(x, step), quat.frame(x)), n)
                back, _ = quat.jet_pow((quat.qmul(x, quat.qconj(step)),
                                        quat.frame(x)), n)
                fd = (fwd - back) / (2 * h)
                assert np.allclose(dv[:, k, :], fd, atol=1e-7)


class TestGrid:
    def test_volume_of_s3(self):
        # integrating the pulled-back volume form must give 2*pi^2
        grid = lk.hopf_grid(8)
        mats = np.concatenate([grid.points[:, None, :], grid.tangents],
                              axis=1)
        vol = abs(float(np.sum(grid.weights * np.linalg.det(mats))))
        assert abs(vol - 2 * math.pi ** 2) < 1e-8

    def test_points_on_sphere(self):
        grid = lk.hopf_grid(5)
        assert np.allclose(np.linalg.norm(grid.points, axis=-1), 1.0)

    def test_tangents_tangent(self):
        grid = lk.hopf_grid(4)
        dots = np.einsum("nad,nd->na", grid.tangents, grid.points)
        assert np.allclose(dots, 0.0)


class TestTauEmbedding:
    def test_image_on_unit_sphere(self):
        grid = lk.hopf_grid(3)
        thetas = np.linspace(0, 2 * math.pi, 9)
        for (l, b) in ((0, 0), (1, 0), (0, 1), (-2, 3)):
            emb = lk.tau_embedding(l, b)
            for t in thetas:
                y = emb.evaluate(np.full(grid.points.shape[0], t),
                                 grid.points)
                assert np.allclose(np.linalg.norm(y, axis=-1), 1.0)

    def test_constant_frame_at_zero(self):
        emb = lk.tau_embedding(0, 0)
        x = lk.hopf_grid(2).points
        (a1, _), (a2, _) = lk._frame_jets(x, 0, 0)
        assert np.allclose(a1, quat.QONE)
        assert np.allclose(a2, quat.QI)

    def test_injectivity_spot_check(self):
        emb = lk.tau_embedding(2, 1)
        xs = lk.hopf_grid(3).points
        thetas = 2 * math.pi * np.arange(8) / 8
        pts = np.concatenate([emb.evaluate(np.full(len(xs), t), xs)
                              for t in thetas])
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() > 1e-6

    def test_fiber_jacobian_matches_fd(self):
        emb = lk.tau_embedding(2, 1)
        cyc = emb.fiber(+1)
        fd = lk.ParamCycle(evaluator=cyc.evaluator)  # forces differences
        x = lk.hopf_grid(3).points
        assert np.allclose(cyc.jacobian(x), fd.jacobian(x), atol=1e-8)

    def test_pole_avoided(self):
        for l in (-2, 0, 3):
            raw = lk.tau_embedding(l, 1).fiber(+1, project=False)
            y = raw.positions(lk.hopf_grid(4).points)
            assert np.max(np.abs(y[:, 7])) < 1 / math.sqrt(2) + 1e-12


class TestLinkingNumber:
    def test_split_link(self):
        res = lk.linking_number(round_sphere([0] * 7),
                                round_sphere([5, 0, 0, 0, 0, 0, 0]),
                                resolution=4)
        assert res.value == 0
        assert res.residual < 1e-6

    def test_tau_one(self):
        emb = lk.tau_embedding(1, 0)
        res = lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=5,
                                separation=lk.tau_fiber_separation(1))
        assert res.value == 1

    def test_tau_minus_two(self):
        emb = lk.tau_embedding(-2, 0)
        res = lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=7,
                                separation=lk.tau_fiber_separation(2))
        assert res.value == -2

    def test_deterministic(self):
        emb = lk.tau_embedding(1, 0)
        sep = lk.tau_fiber_separation(1)
        runs = [lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=4,
                                  separation=sep).estimate
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_symmetry(self):
        emb = lk.tau_embedding(2, 0)
        sep = lk.tau_fiber_separation(2)
        xy = lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=6,
                               separation=sep)
        yx = lk.linking_number(emb.fiber(-1), emb.fiber(+1), resolution=6,
                               separation=sep)
        assert abs(xy.estimate - yx.estimate) \
            <= 2 * max(xy.residual, yx.residual) + 1e-12

    def test_orientation_reversal(self):
        emb = lk.tau_embedding(1, 0)
        sep = lk.tau_fiber_separation(1)
        plain = lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=4,
                                  separation=sep)
        flipped = lk.linking_number(emb.fiber(+1).reversed(), emb.fiber(-1),
                                    resolution=4, separation=sep,
                                    require_convergence=False)
        assert abs(plain.estimate + flipped.estimate) < 1e-12

    def test_rigid_motion_invariance(self):
        r = np.random.default_rng(11)
        rot, _ = np.linalg.qr(r.normal(size=(7, 7)))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        shift = r.normal(size=7)
        emb = lk.tau_embedding(1, 0)
        sep = lk.tau_fiber_separation(1)
        X, Y = emb.fiber(+1), emb.fiber(-1)
        Xm = lk.ParamCycle(evaluator=lambda x: X.evaluator(x) @ rot.T + shift)
        Ym = lk.ParamCycle(evaluator=lambda x: Y.evaluator(x) @ rot.T + shift)
        base = lk.linking_number(X, Y, resolution=5, separation=sep)
        moved = lk.linking_number(Xm, Ym, resolution=5, separation=sep)
        assert abs(base.estimate - moved.estimate) < 1e-6

    def test_richardson_doubling(self):
        for l, n in ((1, 3), (2, 3), (2, 4)):
            emb = lk.tau_embedding(l, 0)
            sep = lk.tau_fiber_separation(l)
            coarse = lk.linking_number(emb.fiber(+1), emb.fiber(-1),
                                       resolution=n, separation=sep,
                                       require_convergence=False)
            fine = lk.linking_number(emb.fiber(+1), emb.fiber(-1),
                                     resolution=2 * n, separation=sep,
                                     require_convergence=False)
            assert fine.residual < coarse.residual

    def test_separation_rejects_touching(self):
        with pytest.raises(lk.SeparationError):
            lk.linking_number(round_sphere([0] * 7), round_sphere([0] * 7),
                              resolution=3)

    def test_caller_separation_must_be_positive(self):
        with pytest.raises(lk.SeparationError):
            lk.linking_number(round_sphere([0] * 7),
                              round_sphere([5, 0, 0, 0, 0, 0, 0]),
                              resolution=3, separation=0.0)

    def test_unconverged_reported(self):
        emb = lk.tau_embedding(3, 0)
        with pytest.raises(lk.UnconvergedError):
            lk.linking_number(emb.fiber(+1), emb.fiber(-1), resolution=3,
                              separation=lk.tau_fiber_separation(3))


class TestPairKernel:
    @pytest.mark.parametrize("l, b, n, shift", [
        *((l, 0, n, 0.0) for n in (4, 5) for l in range(-3, 4)),
        (2, 1, 7, 0.0),
        # the integrand sees only differences F_a - H_b, so a common shift
        # must not cost the expanded kernel its precision
        (2, 1, 5, 100.0),
    ])
    def test_matches_reference(self, l, b, n, shift):
        fx, dfx, wx, fy, dfy, wy = tau_nodes(l, b, n)
        assert_matches_reference((fx + shift, dfx, wx, fy + shift, dfy, wy))

    def test_partial_last_chunk(self, monkeypatch):
        nodes = tau_nodes(2, 1, 3)
        na, nb = len(nodes[0]), len(nodes[3])
        # five rows per chunk, so the last chunk holds na % 5 != 0 rows
        monkeypatch.setattr(lk, "_CHUNK_BYTES", 16 * nb * 5)
        assert na % 5
        assert_matches_reference(nodes)

    def test_empty_side(self):
        fx, dfx, wx, fy, dfy, wy = tau_nodes(1, 0, 3)
        assert lk.pair_sum(fx[:0], dfx[:0], wx[:0], fy, dfy, wy) == 0.0
        assert lk.pair_sum(fx, dfx, wx, fy[:0], dfy[:0], wy[:0]) == 0.0

    def test_blas_threads_do_not_change_result(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lk.__file__)))
        code = ("import emb7.linking as lk; "
                "print(repr(lk.verify_lambda_tau(2, 1).estimate))")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestVerify:
    def test_twisting_equals_linking(self):
        for (l, b) in ((0, 0), (1, 0), (2, 1)):
            rep = lk.verify_lambda_tau(l, b)
            assert rep.passed and rep.value == l
            assert rep.residual < 0.1

    def test_b_independent(self):
        vals = [lk.verify_lambda_tau(1, b).estimate for b in (-1, 0, 1)]
        assert vals[0] == vals[1] == vals[2]

    def test_alternative_models(self):
        # quaternion-multiplication model of the (1, 0) torus links once,
        # the Hopf model of the (0, 1) torus does not link
        r1 = lk.linking_number(lk.t1_fiber(+1), lk.t1_fiber(-1),
                               resolution=5, separation=lk.t1_separation())
        assert r1.value == 1
        r2 = lk.linking_number(lk.t2_fiber(+1), lk.t2_fiber(-1),
                               resolution=5, separation=lk.t2_separation())
        assert r2.value == 0
