import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import emb7.linking as lk
import emb7.quat as quat
from emb7.resolution import MAX_RESOLUTION
from emb7 import cli
from conftest import (QI, QJ, QK, QONE, fd_jacobian, frame_jets, jet_pow,
                      laplace_terms_by_loop, plucker_by_gathers, qconj, qmul,
                      reference_linking, reversed_cycle, t1_fiber, t1_points,
                      t1_separation, t2_fiber, t2_points, t2_separation,
                      tau_evaluate, tau_halves, tau_points)


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


def tau_nodes(l, n):
    """Nodes of both tau fibers, each on hopf_grid(n)."""
    grid = lk.hopf_grid(n)
    return (lk._cycle_nodes(lk._FiberJet(l, +1), grid)
            + lk._cycle_nodes(lk._FiberJet(l, -1), grid))


def assert_matches_reference(nodes):
    ref = reference_pair_sum(*nodes)
    got = lk.pair_sum(*nodes)
    # relative to the sum itself, or to one unit of linking when it is ~0
    assert abs(got - ref) <= 1e-12 * max(abs(ref), lk.VOL_S6)


def round_sphere(center, radius=1.0):
    c = np.asarray(center, dtype=float)

    def jet(x):
        F = np.zeros(x.shape[:-1] + (7,))
        F[..., :4] = radius * x
        J = np.zeros(x.shape[:-1] + (3, 7))
        J[..., :4] = radius * quat.frame(x)
        return F + c, J

    return jet


def rigidly_moved(cycle, rot, shift):
    """The jet `cycle` carried by the rigid motion z -> rot z + shift."""

    def jet(x):
        F, J = cycle(x)
        return F @ rot.T + shift, J @ rot.T

    return jet


def random_motion(seed):
    """A seeded rotation of R^7 with determinant +1, and a shift."""
    r = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(r.normal(size=(7, 7)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    return rot, r.normal(size=7)


class TestQuaternions:
    def test_mul_conj(self, rng):
        r = np.random.default_rng(3)
        a = r.normal(size=(50, 4))
        b = r.normal(size=(50, 4))
        # |ab| = |a||b| and conj is an anti-automorphism
        assert np.allclose(np.linalg.norm(qmul(a, b), axis=-1),
                           np.linalg.norm(a, axis=-1)
                           * np.linalg.norm(b, axis=-1))
        assert np.allclose(qconj(qmul(a, b)), qmul(qconj(b), qconj(a)))

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
            _, dv = jet_pow((x, quat.frame(x)), n)
            h = 1e-6
            for k, q in enumerate((QI, QJ, QK)):
                step = math.cos(h) * QONE + math.sin(h) * q
                fwd, _ = jet_pow((qmul(x, step), quat.frame(x)), n)
                back, _ = jet_pow((qmul(x, qconj(step)), quat.frame(x)), n)
                fd = (fwd - back) / (2 * h)
                assert np.allclose(dv[:, k, :], fd, atol=1e-7)


def nodes_near_the_poles():
    """Seeded unit quaternions, and nodes within 1e-6 of theta = 0 and
    theta = pi, where x = cos theta + n sin theta loses its axis n."""
    r = np.random.default_rng(6)
    x = r.normal(size=(60, 4))
    near = []
    for pole in (1.0, -1.0):
        for eps in (0.0, 1e-300, 1e-12, 1e-9, 1e-6):
            axis = unit_imaginary(r, 4)
            near.append(pole * math.cos(eps) * QONE + math.sin(eps) * axis)
    x = np.concatenate([x, *near])
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestClosedForms:
    def test_frame_is_the_products(self):
        # frame gathers and signs x's components: the entries of qmul(x, u)
        # bit for bit, on nodes with no zero component
        r = np.random.default_rng(7)
        x = r.normal(size=(50, 4))
        fr = quat.frame(x)
        for row, u in enumerate((QI, QJ, QK)):
            assert np.array_equal(fr[:, row].view(np.int64),
                                  qmul(x, u).view(np.int64))

    @pytest.mark.parametrize("l", range(-8, 9))
    def test_power_jet_matches_products(self, l):
        x = nodes_near_the_poles()
        fr = quat.frame(x)
        value, d = quat.power_jet(x, fr, l)
        ref_value, ref_d = jet_pow((x, fr), l)
        assert np.abs(value - ref_value).max() <= 1e-12
        assert np.abs(d - ref_d).max() <= 1e-12

    @pytest.mark.parametrize("l", [1000, -1000])
    def test_power_jet_matches_cone_derivatives(self, l):
        # x = cos t + k sin t: x^l = cos lt + k sin lt, and the derivatives
        # of seifert_cone_dets, (sin lt / sin t) x u for u = i, j and
        # l x^l k along x k, evaluated at 40 digits at each node's own
        # angle; t spans both poles' neighbourhoods
        import mpmath
        t = np.concatenate([[1e-9, 1e-6, 1e-3], np.linspace(0.01, 3.13, 997),
                            math.pi - np.array([1e-3, 1e-6, 1e-9])])
        x = np.cos(t)[:, None] * QONE + np.sin(t)[:, None] * QK
        value, d = quat.power_jet(x, quat.frame(x), l)
        with mpmath.workdps(40):
            angle = [mpmath.atan2(b, a) for a, b in x[:, [0, 3]]]
            cos_l, sin_l, ratio = (np.array([float(f(a)) for a in angle])
                                   for f in (lambda a: mpmath.cos(l * a),
                                             lambda a: mpmath.sin(l * a),
                                             lambda a: mpmath.sin(l * a)
                                             / mpmath.sin(a)))
        power = cos_l[:, None] * QONE + sin_l[:, None] * QK
        ratio = ratio[:, None]
        # the float angle of a node carries a rounding of |l| t 1e-16 into
        # lt, which the derivative along x k scales by |l|
        assert np.abs(value - power).max() <= 1e-12
        assert np.abs(d[:, 0] - ratio * qmul(x, QI)).max() <= 1e-12
        assert np.abs(d[:, 1] - ratio * qmul(x, QJ)).max() <= 1e-12
        assert np.abs(d[:, 2] - l * qmul(power, QK)).max() <= 1e-12 * abs(l)

    def test_cost_does_not_grow_with_l(self):
        # the jets take a fixed number of numpy calls at every l
        def best(l):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                try:
                    lk.verify_lambda_tau(l, 7)
                except lk.UnconvergedError:
                    pass
                times.append(time.perf_counter() - start)
            return min(times)

        best(1)
        assert best(1000) <= 4 * best(1)


class TestGrid:
    @pytest.mark.parametrize("n", range(1, MAX_RESOLUTION + 1))
    def test_gauss_legendre_matches_numpy(self, n):
        from numpy.polynomial.legendre import leggauss
        nodes, weights = lk._gauss_legendre(n)
        ref_nodes, ref_weights = leggauss(n)
        assert np.abs(nodes - ref_nodes).max() <= 1e-14
        assert np.abs(weights - ref_weights).max() <= 1e-14

    # the slice and the xi2 = 0 column: the two parts of the one _tau_grid
    @pytest.mark.parametrize("part", [0, 1],
                             ids=["_slice_grid", "_xi2_column"])
    def test_grids_are_shared_and_read_only(self, part):
        grid = lk._tau_grid(5)
        assert lk._tau_grid(5) is grid
        lk.verify_lambda_tau(1, 5)
        assert lk._tau_grid(5) is grid
        for array in tau_halves(5)[part]:
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_volume_of_s3(self):
        # integrating the pulled-back volume form must give 2*pi^2
        grid = lk.hopf_grid(8)
        mats = np.concatenate([grid.points[:, None, :], grid.tangents],
                              axis=1)
        vol = abs(float(np.sum(grid.weights * np.linalg.det(mats))))
        assert abs(vol - 2 * math.pi ** 2) < 1e-8

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_slice_has_the_hopf_orientation(self, n):
        # the slice's tangents -frame(x_t) are oriented as hopf_grid's, so
        # the tau path shares INTEGRAND_SIGN with the full grid; its
        # weights add up to vol S^3
        def signed_volume(grid):
            mats = np.concatenate([grid.points[:, None, :], grid.tangents],
                                  axis=1)
            return float(np.sum(grid.weights * np.linalg.det(mats)))

        hopf = signed_volume(lk.hopf_grid(8))
        assert signed_volume(tau_halves(n)[0]) == pytest.approx(
            math.copysign(2 * math.pi ** 2, hopf), rel=1e-12)

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
            for t in thetas:
                y = tau_evaluate(l, b, np.full(grid.points.shape[0], t),
                                 grid.points)
                assert np.allclose(np.linalg.norm(y, axis=-1), 1.0)

    def test_constant_frame_at_zero(self):
        x = lk.hopf_grid(2).points
        (a1, _), (a2, _) = frame_jets(x, 0, 0)
        assert np.allclose(a1, QONE)
        assert np.allclose(a2, QI)

    def test_injectivity_spot_check(self):
        xs = lk.hopf_grid(3).points
        thetas = 2 * math.pi * np.arange(8) / 8
        pts = np.concatenate([tau_evaluate(2, 1, np.full(len(xs), t), xs)
                              for t in thetas])
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() > 1e-6

    def test_fiber_jacobian_matches_fd(self):
        # every analytic jet the tests sum, against central differences of
        # its points
        def raw_fiber(l, sign):
            # the unprojected fiber: points from the oracle tau_evaluate,
            # derivative from the closed-form power jet
            def jet(x):
                fr = quat.frame(x)
                _, dv = quat.power_jet(x, fr, l)
                return (tau_evaluate(l, 1, 0.0 if sign > 0 else math.pi, x),
                        np.concatenate([fr, sign * dv], -1) / math.sqrt(2.0))

            return jet

        cycles = [
            *(lk._FiberJet(l, sign) for l in (-3, 0, 2) for sign in (1, -1)),
            *(raw_fiber(l, sign) for l in (-3, 0, 2) for sign in (1, -1)),
            *(model(sign, project) for model in (t1_fiber, t2_fiber)
              for sign in (1, -1) for project in (True, False)),
            round_sphere([1, 2, 3, 4, 5, 6, 7], radius=0.5),
            rigidly_moved(lk._FiberJet(1, +1), *random_motion(11)),
        ]
        x = lk.hopf_grid(3).points
        for jet in cycles:
            _, J = jet(x)
            assert np.allclose(J, fd_jacobian(jet, x), rtol=0.0, atol=1e-8)

    def test_pole_avoided(self):
        for l in (-2, 0, 3):
            y = tau_evaluate(l, 1, 0.0, lk.hopf_grid(4).points)
            assert np.max(np.abs(y[:, 4])) < 1 / math.sqrt(2) + 1e-12


class TestLinkingNumber:
    def test_split_link(self):
        # unit spheres 5 apart: the images are exactly 3 apart
        estimate = reference_linking(round_sphere([0] * 7),
                                     round_sphere([5, 0, 0, 0, 0, 0, 0]),
                                     4, symmetric=False)
        assert abs(estimate) < 1e-6

    def test_tau_one(self):
        res = lk.linking_number(1, resolution=5,
                                separation=lk.tau_fiber_separation(1))
        assert res.value == 1 and res.residual <= 0.25

    def test_tau_minus_two(self):
        res = lk.linking_number(-2, resolution=7,
                                separation=lk.tau_fiber_separation(2))
        assert res.value == -2 and res.residual <= 0.25

    def test_deterministic(self):
        sep = lk.tau_fiber_separation(1)
        runs = [lk.linking_number(1, resolution=4, separation=sep).estimate
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_symmetry(self):
        xy = lk.linking_number(2, resolution=6,
                               separation=lk.tau_fiber_separation(2))
        yx = reference_linking(lk._FiberJet(2, -1), lk._FiberJet(2, +1), 6,
                               symmetric=True)
        residual = max(xy.residual, abs(yx - round(yx)))
        assert residual <= 0.25
        assert abs(xy.estimate - yx) <= 2 * residual + 1e-12

    def test_orientation_reversal(self):
        plain = lk.linking_number(1, resolution=4,
                                  separation=lk.tau_fiber_separation(1))
        flipped = reference_linking(reversed_cycle(lk._FiberJet(1, +1)),
                                    lk._FiberJet(1, -1), 4, symmetric=True)
        assert abs(plain.estimate + flipped) < 1e-12

    def test_rigid_motion_invariance(self):
        rot, shift = random_motion(11)
        Xm, Ym = (rigidly_moved(lk._FiberJet(1, sign), rot, shift)
                  for sign in (+1, -1))
        base = lk.linking_number(1, resolution=5,
                                 separation=lk.tau_fiber_separation(1))
        moved = reference_linking(Xm, Ym, 5, symmetric=False)
        assert max(base.residual, abs(moved - round(moved))) <= 0.25
        assert abs(base.estimate - moved) < 1e-6

    def test_richardson_doubling(self):
        for l, n in ((1, 3), (2, 3), (2, 4)):
            sep = lk.tau_fiber_separation(l)
            coarse = lk.linking_number(l, resolution=n, separation=sep)
            fine = lk.linking_number(l, resolution=2 * n, separation=sep)
            assert fine.residual < coarse.residual

    def test_unconverged_reported(self):
        # tau(2, 0) at resolution 1 estimates 0.691, not near an integer
        with pytest.raises(lk.UnconvergedError):
            lk.verify_lambda_tau(2, resolution=1)


class TestPairKernel:
    @pytest.mark.parametrize("l, b, n, shift", [
        *((l, 0, n, 0.0) for n in (4, 5) for l in range(-3, 4)),
        (2, 1, 7, 0.0),
        # the integrand sees only differences F_a - H_b, so a common shift
        # must not cost the expanded kernel its precision
        (2, 1, 5, 100.0),
    ])
    def test_matches_reference(self, l, b, n, shift):
        # b names the class tau(l, b); its fibers see only x^l
        fx, dfx, wx, fy, dfy, wy = tau_nodes(l, n)
        assert_matches_reference((fx + shift, dfx, wx, fy + shift, dfy, wy))

    def test_partial_last_chunk(self, monkeypatch):
        nodes = tau_nodes(2, 3)
        na, nb = len(nodes[0]), len(nodes[3])
        # five rows per chunk, so the last chunk holds na % 5 != 0 rows
        monkeypatch.setattr(lk, "_CHUNK_BYTES", 16 * nb * 5)
        assert na % 5
        assert_matches_reference(nodes)

    def test_empty_side(self):
        fx, dfx, wx, fy, dfy, wy = tau_nodes(1, 3)
        assert lk.pair_sum(fx[:0], dfx[:0], wx[:0], fy, dfy, wy) == 0.0
        assert lk.pair_sum(fx, dfx, wx, fy[:0], dfy[:0], wy[:0]) == 0.0

    def test_process_blas_threads_do_not_change_last_digits(self):
        # nothing pins the BLAS thread count, so this is the one guard that
        # printed results do not depend on it: the torus benchmark argv
        # (|l| = 2 at the default resolution 7, |l| = 3 at 9) and l = -1 at
        # 9, 21 and the largest resolution the command line accepts, whose
        # last digits once moved when two threads summed the products in
        # another order
        src = os.path.dirname(os.path.dirname(os.path.abspath(lk.__file__)))
        argvs = [["--l", "2", "--b", "1"], ["--l", "-2", "--b", "-3"],
                 ["--l", "3", "--b", "2", "--resolution", "9"],
                 ["--l", "-3", "--b", "0", "--resolution", "9"],
                 *(["--l", "-1", "--b", "0", "--resolution", str(n)]
                   for n in (9, 21, MAX_RESOLUTION))]
        code = ("import sys; from emb7.cli import main; "
                f"[main(['link', 'tau', *argv]) for argv in {argvs!r}]")
        outs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count(b"\n") == len(argvs)
            outs.add(proc.stdout)
        assert len(outs) == 1, outs


def slice_nodes(l, n):
    """Nodes of the tau fibers: X on its slice, Y on hopf_grid(n)."""
    return (lk._cycle_nodes(lk._FiberJet(l, +1), tau_halves(n)[0])
            + lk._cycle_nodes(lk._FiberJet(l, -1), lk.hopf_grid(n)))


class TestXi2Column:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_column_equals_full_grid(self, n):
        # conjugation by e^{i s} fixes x_t, shifts xi2 and fixes the pole
        # e5, so X's slice against Y's xi2 = 0 column gives its sum against
        # Y's whole grid; and that sum is at least as close to l as the
        # one over the whole grid on both sides
        for l in range(-3, 4):
            whole_y = lk.pair_sum(*slice_nodes(l, n))
            res = lk.linking_number(l, resolution=n,
                                    separation=lk.tau_fiber_separation(l))
            column = res.estimate * lk.VOL_S6 / lk.INTEGRAND_SIGN
            assert abs(column - whole_y) \
                <= 1e-12 * max(abs(whole_y), lk.VOL_S6)
            full = (lk.INTEGRAND_SIGN * lk.pair_sum(*tau_nodes(l, n))
                    / lk.VOL_S6)
            assert abs(res.estimate - l) <= abs(full - l) + 1e-12

    def test_only_tau_fibers_take_the_column(self, monkeypatch):
        sizes = []
        nodes = lk._cycle_nodes

        def recorded(jet, grid):
            sizes.append(len(grid.points))
            return nodes(jet, grid)

        monkeypatch.setattr(lk, "_cycle_nodes", recorded)
        lk.linking_number(2, resolution=5,
                          separation=lk.tau_fiber_separation(2))
        # one call: the slice and the column, stacked
        assert sizes == [2 * 5 + 2 * 5 ** 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_orbit_sum_equals_full_grid(self, n):
        # the stabiliser step alone: Y's xi2 = 0 column, weighted by its
        # orbit of 2n shifts, against X's slice, equals Y's whole grid
        for l in range(-3, 4):
            fx, dfx, wx, *whole_y = slice_nodes(l, n)
            full = lk.pair_sum(fx, dfx, wx, *whole_y)
            orbit = lk.pair_sum(fx, dfx, wx, *lk._cycle_nodes(
                lk._FiberJet(l, -1), tau_halves(n)[1]))
            assert abs(orbit - full) <= 1e-12 * max(abs(full), lk.VOL_S6)

    def test_each_side_weighs_the_sphere(self, monkeypatch):
        sides = []

        def recorded(fx, dfx, wx, fy, dfy, wy):
            sides.append((wx.sum(), wy.sum()))
            return 0.0

        monkeypatch.setattr(lk, "pair_sum", recorded)
        for n in (1, 2, 3, 4, 5, 7):
            lk.linking_number(1, resolution=n,
                              separation=lk.tau_fiber_separation(1))
        assert len(sides) == 6
        for slice_total, column_total in sides:
            # the class of x_t has area 4 pi sin^2 t, and these areas add
            # up to vol S^3 = 2 pi^2
            assert slice_total == pytest.approx(2 * math.pi ** 2, rel=1e-13)
            # the volume factor rides in the tangents, so the weights of a
            # whole grid add up to the box (pi/2) (2 pi)^2 of the Hopf angles
            assert column_total == pytest.approx(2 * math.pi ** 3, rel=1e-13)


class TestSharedRung:
    """Both tau fibers of a rung go through one jet pass and one Pluecker
    pass, and give the estimates of separate passes."""

    def test_matches_the_recorded_estimates(self):
        path = os.path.join(os.path.dirname(__file__), "tau_golden.json")
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        assert len(rows) == 17 * 7
        for l, n, estimate, verdict in rows:
            res = lk.linking_number(l, resolution=n,
                                    separation=lk.tau_fiber_separation(l))
            assert abs(res.estimate - estimate) <= 1e-12, (l, n)
            if verdict is None:
                with pytest.raises(lk.UnconvergedError):
                    lk.verify_lambda_tau(l, n)
            else:
                rep = lk.verify_lambda_tau(l, n)
                assert [rep.value, rep.passed] == verdict, (l, n)

    def test_one_node_pass_and_one_plucker_pass(self, monkeypatch):
        calls = []
        for name in ("_cycle_nodes", "_plucker"):
            def counted(*args, fn=getattr(lk, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(lk, name, counted)
        assert lk.verify_lambda_tau(2, 7).passed
        assert sorted(calls) == ["_cycle_nodes", "_plucker"]

    @pytest.mark.parametrize("n", [1, 2, 112])
    def test_plucker_matches_the_gathers(self, n):
        # the same products and differences, taken once per 2x2 minor
        dF = np.random.default_rng(n).normal(size=(n, 3, 7))
        assert np.array_equal(lk._plucker(dF), plucker_by_gathers(dF))

    def test_laplace_terms_match_the_loop(self):
        for got, want in zip(lk._laplace_terms(), laplace_terms_by_loop()):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestVerify:
    def test_twisting_equals_linking(self):
        for l in (0, 1, 2):
            rep = lk.verify_lambda_tau(l)
            assert rep.passed and rep.value == l
            assert rep.residual < 0.1

    def test_b_independent(self, capsys):
        # `--b` names the class tau(l, b); the fibers see only x^l
        for l in ("1", "-2"):
            outs = set()
            for b in ("-1", "0", "1"):
                assert cli.main(["link", "tau", "--l", l, "--b", b]) == 0
                outs.add(capsys.readouterr().out)
            assert len(outs) == 1, outs

    def test_alternative_models(self):
        # quaternion-multiplication model of the (1, 0) torus links once,
        # the Hopf model of the (0, 1) torus does not link
        r1 = reference_linking(t1_fiber(+1), t1_fiber(-1), 5, symmetric=False)
        assert abs(r1 - 1) <= 0.25
        r2 = reference_linking(t2_fiber(+1), t2_fiber(-1), 5, symmetric=False)
        assert abs(r2) <= 0.25


def seifert_cone_dets(l):
    """det[a | T_A | d_s | T_C] at each point a where the fiber
    A = {(x, x^l)/sqrt(2)} meets the cone C of short great arcs from
    p = e8 to B = {(y, -y^l)/sqrt(2)}, a 4-chain in S^7 bounded by B.

    a = c1 p + c2 b with c1, c2 > 0 forces y = x from the first block and
    2 x^l / sqrt(2) = c1 k from the second, so x^l = k, c1 = sqrt(2): with
    x = e^{k theta}, the candidates l theta = pi/2 + pi j, j < 2|l|, give
    x^l = +-k, and c1 > 0 keeps |l| of them.  A and B are oriented by the
    frame (x i, x j, x k), as in the quadrature, with analytic derivatives
    d_k x^l = l x^l k and, for u = i, j (which anticommute with k),
    d_u x^l = sum_m x^m u x^(l - m) = (sin l theta / sin theta) x u.  C is
    oriented by (d_s, T_B), d_s pointing along the arcs away from p, so
    that the boundary of C is B.  Normalizing c1 p + c2 b(y) only adds
    multiples of a, which the determinant ignores, so d_s is -p and T_C
    is T_B; positive factors such as 1/sqrt(2) are dropped."""
    theta = (math.pi / 2 + math.pi * np.arange(2 * abs(l))) / l
    theta = theta[np.sin(l * theta) > 0]
    x = np.zeros((len(theta), 4))
    x[:, 0], x[:, 3] = np.cos(theta), np.sin(theta)
    power = np.zeros_like(x)
    power[:, 0], power[:, 3] = np.cos(l * theta), np.sin(l * theta)
    ratio = (np.sin(l * theta) / np.sin(theta))[:, None]
    xi, xj, xk = (qmul(x, u) for u in (QI, QJ, QK))
    dk = l * qmul(power, QK)

    def cycle_frame(sign):
        return [np.concatenate([xu, sign * du], axis=-1)
                for xu, du in ((xi, ratio * xi), (xj, ratio * xj), (xk, dk))]

    a = np.concatenate([x, power], axis=-1)
    p = np.zeros_like(a)
    p[:, 7] = 1.0
    return np.linalg.det(np.stack([a, *cycle_frame(+1), -p,
                                   *cycle_frame(-1)], axis=-1))


def seifert_cone_count(l):
    """The intersection number of A with C, that is lambda(tau(l, b))."""
    return int(np.sign(seifert_cone_dets(l)).sum())


class TestSeifertCone:
    def test_count_is_l(self):
        for l in [*range(-64, 65), 1000, -1000]:
            dets = seifert_cone_dets(l)
            assert len(dets) == abs(l)
            # transversal: each point has a sign
            assert np.all(np.abs(dets) > 1.0)
            assert seifert_cone_count(l) == l

    def test_agrees_with_quadrature(self):
        passed = set()
        for l in range(-3, 4):
            for n in range(1, 10):
                try:
                    rep = lk.verify_lambda_tau(l, n)
                except lk.UnconvergedError:
                    continue
                if rep.passed:
                    assert rep.value == seifert_cone_count(l)
                    passed.add((l, n))
        assert {(l, n) for l in range(-3, 4) for n in (7, 9)} <= passed


def unit_imaginary(r, n):
    v = r.normal(size=(n, 4))
    v[:, 0] = 0.0
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def exp_imaginary(axis, t):
    """exp(axis t) for unit imaginary quaternions `axis`."""
    t = np.asarray(t, dtype=float)[..., None]
    return np.cos(t) * QONE + np.sin(t) * axis


def sampled_min(X, Y, k, seed=0):
    """Smallest distance |X(x) - Y(y)| of the point maps X and Y over a
    seeded sample of pairs: random pairs, near pairs x, x exp(n t) with t
    up to pi / max(1, |k|), and all pairs on the one-parameter subgroups
    through i, j, k and random axes, which reach the pole side of both
    projected fibers."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(2000, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    y = r.normal(size=(2000, 4))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    t = r.uniform(0.0, math.pi / max(1, abs(k)), size=len(x))
    near = qmul(x, exp_imaginary(unit_imaginary(r, len(x)), t))
    s = 2.0 * math.pi * np.arange(128) / 128
    S, T = (a.ravel() for a in np.meshgrid(s, s, indexing="ij"))
    axes = np.concatenate([[QI, QJ, QK],
                           unit_imaginary(r, 3)])
    xs = [x, x] + [exp_imaginary(n, S) for n in axes]
    ys = [y, near] + [exp_imaginary(n, T) for n in axes]
    return min(float(np.min(np.linalg.norm(X(a) - Y(b), axis=-1)))
               for a, b in zip(xs, ys))


class TestSeparation:
    @pytest.mark.parametrize("k", range(-8, 9))
    def test_below_sampled_distance(self, k):
        bound = lk.tau_fiber_separation(k)
        assert 0 < bound <= sampled_min(
            tau_points(k, +1), tau_points(k, -1), k)

    def test_positive_for_every_allowed_l(self):
        assert all(lk.tau_fiber_separation(l) > 0
                   for l in range(-1000, 1001))

    @pytest.mark.parametrize("k", [*range(-8, 9), 65, 1000, 10 ** 5])
    def test_analytic_floor(self, k):
        floor = math.sqrt(2.0 / (1 + k * k)) / lk._POLE_FACTOR
        assert 0 < floor <= lk.tau_fiber_separation(k)

    def test_other_models(self):
        assert 0 < t1_separation() <= sampled_min(t1_points(+1),
                                                  t1_points(-1), 1)
        assert 0 < t2_separation() <= sampled_min(t2_points(+1),
                                                  t2_points(-1), 2)
