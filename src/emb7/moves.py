"""Parametric connected sum calculus.

A move is a triple (s, l, b): attach a twisted torus embedding of type
(l, b) along an embedded circle representing the class s in H1.  At the
invariant level a move fixes u, adds l * (Ps)(Ps)^T to the lambda matrix,
and for l = 0 translates the beta coset by b*s.  Every symmetric change of
lambda decomposes into such moves, which is what makes the fiber structure
over (u, L) uniform.

The torus calculus itself (l, b) has the normal form b mod 2|l|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .classify import EmbeddingClass
from .exact import IntMatrix, inverse_unimodular
from .manifolds import ManifoldData


@dataclass(frozen=True)
class Move:
    """A parametric connected sum datum: circle class s, twisting l, b."""

    s: tuple
    l: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(int(x) for x in self.s))


def apply_move(data: ManifoldData, cls: EmbeddingClass, move: Move) -> EmbeddingClass:
    """Invariant effect of one parametric connected sum.

    u never changes.  L gains l * (Ps)(Ps)^T.  For l = 0 the beta coset is
    translated by b*s; for l != 0 the fiber changes and no beta transport
    is defined, so beta is marked unknown.
    """
    if len(move.s) != data.b1:
        raise ValueError(f"move class length {len(move.s)} != b1 {data.b1}")
    if cls.L.shape != (data.b3, data.b3):
        raise ValueError("class dimensions do not match the manifold data")
    ps = data.P.apply(move.s)
    L = IntMatrix([[cls.L[j, k] + move.l * ps[j] * ps[k]
                    for k in range(data.b3)] for j in range(data.b3)],
                  cols=data.b3)
    if move.l == 0 and cls.beta_known:
        beta = tuple(x + move.b * si for x, si in zip(cls.beta, move.s))
        return replace(cls, L=L, beta=beta, beta_known=True)
    return replace(cls, L=L, beta=None, beta_known=False)


def decompose_symmetric_form(data: ManifoldData, m: IntMatrix) -> list:
    """Write a symmetric form on H3 as a move list with that exact net
    lambda effect.

    In the basis of H1 dual to the H3 basis under P, the rank-one form on
    direction e_i is the matrix unit E_ii and the direction e_i + e_j adds
    the symmetrized unit E_ij + E_ji, so diagonal entries ride on single
    directions and each off-diagonal entry on a (e_i + e_j, e_i, e_j)
    triple.  Coefficients on repeated directions are merged and zeros
    dropped.
    """
    if not m.is_symmetric():
        raise ValueError("form is not symmetric")
    if m.shape != (data.b3, data.b3):
        raise ValueError(f"form has shape {m.shape}, expected square of size {data.b3}")
    pinv = inverse_unimodular(data.P)
    dual = [pinv.column(i) for i in range(data.b1)]
    coeffs = {}

    def add(direction, l):
        if l:
            coeffs[direction] = coeffs.get(direction, 0) + l

    for i in range(data.b3):
        add(dual[i], m[i, i])
        for j in range(i + 1, data.b3):
            mij = m[i, j]
            if mij:
                add(tuple(a + b for a, b in zip(dual[i], dual[j])), mij)
                add(dual[i], -mij)
                add(dual[j], -mij)
    return [(s, l) for s, l in sorted(coeffs.items()) if l]


def tau_normal_form(l: int, b: int) -> tuple:
    """Normal form of a torus class: b is reduced mod 2|l| (left whole when
    l = 0, where distinct b stay distinct)."""
    if l == 0:
        return (0, b)
    return (l, b % (2 * abs(l)))


def tau_equal(l: int, b: int, lp: int, bp: int) -> bool:
    """Equality of torus classes: same l and b == b' mod 2l."""
    if l != lp:
        return False
    if l == 0:
        return b == bp
    return (b - bp) % (2 * abs(l)) == 0


def tau_compose(l: int, b: int, lp: int, bp: int) -> tuple:
    """A representative of the parametric sum of two torus classes, in
    normal form.  The geometric operation can be multi-valued; the sum of
    parameters is always one of its values."""
    return tau_normal_form(l + lp, b + bp)
