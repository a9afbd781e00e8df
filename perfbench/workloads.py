"""Seeded op lists for the four benchmark workloads, with answers known by
construction.

Every op is a list of `Call`s, each one `emb7` command line plus a check of
its exit code and JSON payload.  The expected answers come from the
benchmark's own arithmetic (parity arguments, its own determinant and its
own enumeration of the kappa lattice), never from the code under test.

The list for a workload is a pure function of (workload, seed, seconds):
the op count is the run length divided by a fixed per-op cost estimate, so
every run with the same arguments does identical work.  Each list is
homogeneous in cost, so its median latency is meaningful.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

# Per-op cost estimates (s) on a 2-core x86 VM with the numpy kernel.  They
# only size the op lists; they are constants so the work never depends on
# the speed of the machine that runs it.
OP_COST_S = {
    "torus_link": 2.0,
    "torus_steep": 11.5,
    "class_queries": 0.008,
    "fiber_survey": 1.35,
}

FIBER_CAP = 16


@dataclass(frozen=True)
class Call:
    argv: list
    check: Callable  # (exit code, payload dict) -> bool


@dataclass(frozen=True)
class Op:
    calls: list


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / OP_COST_S[workload]))


# --- the benchmark's own integer arithmetic ---------------------------------


def det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def hyperbolic(pairs: int) -> list:
    """Intersection form of #pairs (S^2 x S^2): a sum of [[0, 1], [1, 0]]."""
    n = 2 * pairs
    return [[1 if j == i ^ 1 else 0 for j in range(n)] for i in range(n)]


def symplectic(genus: int) -> list:
    """Antisymmetric H3 x H3 slice of [surface x pt] on a genus-g surface
    times S^2, in the basis a_1 x S^2, b_1 x S^2, ..."""
    n = 2 * genus
    return [[(1 if j == i + 1 else -1) if i // 2 == j // 2 and i != j else 0
             for j in range(n)] for i in range(n)]


def random_antisymmetric(rng: random.Random, n: int, bound: int) -> list:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-bound, bound)
            m[j][i] = -m[i][j]
    return m


def contraction(T: list, u) -> list:
    """sum_i u_i T[i]."""
    n = len(T[0]) if T else 0
    return [[sum(ui * s[j][k] for ui, s in zip(u, T)) for k in range(n)]
            for j in range(n)]


def base_form(T: list, u) -> list:
    """Strictly lower triangular L with L[j][k] = t[k][j] below the
    diagonal, t = u.T; it satisfies L(y,x) - L(x,y) = u.x.y."""
    t = contraction(T, u)
    n = len(t)
    return [[t[k][j] if j > k else 0 for k in range(n)] for j in range(n)]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def manifold_json(name: str, Q: list, T: list, b1: int) -> dict:
    return {"name": name, "b1": b1, "b2": len(Q), "Q": Q, "P": identity(b1),
            "T": T, "w2": [0] * len(Q), "sigma": 0}


def _payload_ok(want: dict) -> Callable:
    return lambda code, p: code == 0 and all(p.get(k) == v
                                             for k, v in want.items())


# --- torus_link / torus_steep ------------------------------------------------


def _torus_call(l: int, b: int, resolution=None) -> Call:
    argv = ["link", "tau", "--l", str(l), "--b", str(b)]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]

    def check(code, p):
        return (code == 0 and p.get("value") == l and p.get("pass") is True
                and isinstance(p.get("residual"), float)
                and p["residual"] < 0.1)

    return Call(argv, check)


def torus_link(rng: random.Random, n: int, workdir: str) -> list:
    # Default resolution 7 is documented for |l| <= 2; every op has the
    # same grid, so the ops cost the same.
    return [Op([_torus_call(rng.randint(-2, 2), rng.randint(-3, 3))])
            for _ in range(n)]


def torus_steep(rng: random.Random, n: int, workdir: str) -> list:
    # |l| = 3 is documented to need resolution 9; l = 4 is left out
    # because its separation certificate does not fit in 8 GB today.
    return [Op([_torus_call(rng.choice((-3, 3)), rng.randint(-3, 3), 9)])
            for _ in range(n)]


# --- class_queries -----------------------------------------------------------

CLASS_GENUS = 6
CLASS_FIBERS = 8


def class_queries(rng: random.Random, n: int, workdir: str) -> list:
    """Equality queries on Sigma_6 x S^2 spread over a few (u, L) fibers.

    u = (u1, u2) is admissible when both entries are even and u1*u2 = 0.
    Every u is even, so d = gcd(u) is even or 0 and every relation of
    K_{u,L} (columns of 2L and d e_i, with P = I) lies in 2Z^n.  Adding
    those relations to beta gives an equal class; adding a vector with one
    odd coordinate gives a different one.
    """
    b1 = 2 * CLASS_GENUS
    T = [symplectic(CLASS_GENUS), [[0] * b1 for _ in range(b1)]]
    path = os.path.join(workdir, "sigma6_s2.json")
    with open(path, "w") as fh:
        json.dump(manifold_json("sigma6xs2", hyperbolic(1), T, b1), fh)

    fibers = []
    for f in range(CLASS_FIBERS):
        k = 2 * rng.randint(1, 3)
        # two fibers with u = 0 (d = 0) drive coefficient growth in the SNF
        u = (0, 0) if f < 2 else ((k, 0) if f % 2 else (0, k))
        L = base_form(T, u)
        for i in range(b1):
            for j in range(i, b1):
                s = rng.randint(-3, 3)
                L[i][j] += s
                if i != j:
                    L[j][i] += s
        fibers.append((u, L, math.gcd(*u)))

    def cls(u, L, beta):
        return json.dumps({"u": list(u), "L": L, "beta": beta},
                          separators=(",", ":"))

    ops = []
    for _ in range(n):
        u, L, d = fibers[rng.randrange(len(fibers))]
        beta = [rng.randint(-5, 5) for _ in range(b1)]
        other = list(beta)
        for j in range(b1):  # + 2 L c
            c = rng.randint(-2, 2)
            if c:
                for i in range(b1):
                    other[i] += 2 * L[i][j] * c
        for i in range(b1):  # + d e
            other[i] += d * rng.randint(-2, 2)
        equal = rng.random() < 0.5
        if not equal:
            other[rng.randrange(b1)] += 2 * rng.randint(-2, 2) + 1
        argv = ["classify", "equal", "--manifold", path,
                "--class1", cls(u, L, beta), "--class2", cls(u, L, other)]
        ops.append(Op([Call(argv, _payload_ok({"equal": equal}))]))
    return ops


# --- fiber_survey ------------------------------------------------------------

SURVEY_GENUS = 2
SURVEY_PAIRS = 4  # Sigma_2 x S^2 # 3(S^2 x S^2): b2 = 8
SURVEY_BOUND = 2
SURVEY_FIBERS = 128


def _fiber_check(b1: int, d: int, L: list) -> Callable:
    if d == 2:
        size = 2 ** b1  # 2L already lies in 2Z^n, so K = (Z/2)^n
    elif d == 0:
        D = abs(det([[2 * x for x in row] for row in L]))
        size = D or None  # det L = 0: infinite fiber
    else:
        raise ValueError(f"no construction for divisibility {d}")
    count = FIBER_CAP if size is None else min(size, FIBER_CAP)
    want = {"size": "infinite" if size is None else str(size),
            "truncated": size is None or count < size}

    def check(code, p):
        classes = p.get("classes")
        return (_payload_ok(want)(code, p) and isinstance(classes, list)
                and len(classes) == count
                and len({tuple(c) for c in classes}) == count)

    return check


def fiber_survey(rng: random.Random, n: int, workdir: str) -> list:
    """One op per seeded spin manifold with b1 = 4, b2 = 8: the kappa box
    scan, then the fiber over the base form of u = 0 and of a seeded sample
    of the other admissible u.

    Q is a sum of hyperbolic blocks and w2 = 0, so u is admissible exactly
    when all entries are even and sum u_{2i} u_{2i+1} = 0; within the box
    [-2, 2]^8 that is a loop over {-2, 0, 2}^8.  Each fiber call pays the
    full command line (about 5 ms), so fibers are sampled to keep the box
    scan about half of the op instead of surveying all 1921 values.
    """
    b1 = 2 * SURVEY_GENUS
    Q = hyperbolic(SURVEY_PAIRS)
    admissible = [u for u in product((-2, 0, 2), repeat=len(Q))
                  if sum(u[2 * i] * u[2 * i + 1]
                         for i in range(SURVEY_PAIRS)) == 0]
    expected = [list(map(str, u)) for u in admissible]

    def kappa_check(code, p):
        return code == 0 and p.get("values") == expected

    ops = []
    for m in range(n):
        T = [random_antisymmetric(rng, b1, 2) for _ in Q]
        path = os.path.join(workdir, f"survey_{m}.json")
        with open(path, "w") as fh:
            json.dump(manifold_json(f"survey{m}", Q, T, b1), fh)
        calls = [Call(["kappa-enum", "--manifold", path,
                       "--bound", str(SURVEY_BOUND)], kappa_check)]
        zero = (0,) * len(Q)
        sample = [zero] + rng.sample([u for u in admissible if u != zero],
                                     SURVEY_FIBERS - 1)
        for u in sample:
            L = base_form(T, u)
            calls.append(Call(
                ["fiber", "--manifold", path,
                 "--u", json.dumps(u, separators=(",", ":")),
                 "--L", json.dumps(L, separators=(",", ":")),
                 "--enumerate", "--cap", str(FIBER_CAP)],
                _fiber_check(b1, math.gcd(*u), L)))
        ops.append(Op(calls))
    return ops


BUILDERS = {
    "torus_link": torus_link,
    "torus_steep": torus_steep,
    "class_queries": class_queries,
    "fiber_survey": fiber_survey,
}


def build(workload: str, seed: int, seconds: float, workdir: str) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, op_count(workload, seconds), workdir)
