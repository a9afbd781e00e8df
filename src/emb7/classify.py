"""Class-level API: embedding classes modulo knots as (u, L, beta) triples,
equality decisions, and fiber groups over a fixed (u, L).

beta is stored in ambient H1 coordinates relative to an abstract basepoint
of its fiber; only differences of beta values are meaningful, and equality
is decided through the canonical coset normal form in K_{u,L}.  Which
geometric embedding the basepoint denotes is not recoverable from the
algebra, so the CLI prints a basepoint disclaimer alongside every beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import IntMatrix, coset_normal_form
from .invariants import KGroup, is_kappa_admissible, is_symmetric_pair, k_group
from .manifolds import ManifoldData

BASEPOINT_NOTE = ("beta values are coset representatives relative to an "
                  "abstract basepoint embedding of their (u, L) fiber; only "
                  "differences within one fiber are meaningful")


class BetaUnknownError(ValueError):
    """Raised when an operation needs a beta value that is not tracked."""


@dataclass(frozen=True)
class EmbeddingClass:
    """An isotopy class modulo knots, coordinatized by its invariants; u
    and beta are tuples of ints, taken as they are."""

    u: tuple
    L: IntMatrix
    beta: Optional[tuple] = None
    beta_known: bool = False

    def __post_init__(self):
        if self.beta is not None:
            object.__setattr__(self, "beta_known", True)


def _beta(data: ManifoldData, beta: Optional[Sequence[int]]) -> Optional[tuple]:
    if beta is None:
        return None
    if len(beta) != data.b1:
        raise ValueError(f"beta length {len(beta)} != b1 {data.b1}")
    return tuple(beta)


def embedding_class(data: ManifoldData, u: Sequence[int], L: IntMatrix,
                    beta: Optional[Sequence[int]] = None) -> EmbeddingClass:
    """Validated constructor: u must be admissible and (u, L) a symmetric
    pair, otherwise no embedding realizes the triple."""
    if not is_kappa_admissible(data, u):
        raise ValueError(f"kappa value {tuple(u)} is not admissible")
    if not is_symmetric_pair(data, u, L):
        raise ValueError("(u, L) is not a symmetric pair")
    return EmbeddingClass(u=tuple(u), L=L, beta=_beta(data, beta))


def same_fiber_class(data: ManifoldData, c: EmbeddingClass,
                     beta: Optional[Sequence[int]] = None) -> EmbeddingClass:
    """The class over the (u, L) of c with this beta.  c came from
    `embedding_class`, so its (u, L) passed the checks there and only beta
    is checked here."""
    return EmbeddingClass(u=c.u, L=c.L, beta=_beta(data, beta))


def classes_equal(data: ManifoldData, c1: EmbeddingClass,
                  c2: EmbeddingClass) -> bool:
    """Decide equality of two classes with known beta.

    Classes agree exactly when u and L agree and the beta cosets coincide
    in K_{u,L}.  Comparing betas across different (u, L) fibers is
    meaningless and classes then simply differ.
    """
    if not (c1.beta_known and c2.beta_known):
        raise BetaUnknownError("both classes need a known beta for equality")
    if c1.u != c2.u or c1.L != c2.L:
        return False
    kg = k_group(data, c1.u, c1.L)
    return (coset_normal_form(kg.group, c1.beta)
            == coset_normal_form(kg.group, c2.beta))


def fiber_group(data: ManifoldData, u: Sequence[int], L: IntMatrix) -> KGroup:
    """The beta value group over (u, L); u must be admissible."""
    if not is_kappa_admissible(data, u):
        raise ValueError(f"kappa value {tuple(u)} is not admissible")
    return k_group(data, u, L)


@dataclass(frozen=True)
class FiberEnumeration:
    representatives: tuple  # canonical coset normal forms
    truncated: bool
    fiber_group: KGroup  # the group the representatives live in


def _value_at(d: int, idx: int) -> int:
    # finite factor: 0..d-1 in order; infinite factor: 0, 1, -1, 2, -2, ...
    if d:
        return idx
    if idx == 0:
        return 0
    k = (idx + 1) // 2
    return k if idx % 2 else -k


def enumerate_fiber(data: ManifoldData, u: Sequence[int], L: IntMatrix,
                    cap: Optional[int] = None) -> FiberEnumeration:
    """Distinct canonical beta representatives over (u, L), in factor
    coordinates.

    Complete when the fiber is finite and within cap; an infinite fiber
    needs a cap and the result is flagged truncated.  The result carries
    the fiber group, so callers need not build it a second time.
    """
    from itertools import product

    kg = fiber_group(data, u, L)
    factors = kg.group.invariant_factors
    size = kg.size()
    if size is None and cap is None:
        raise ValueError("infinite fiber: a cap is required")
    limit = size if cap is None else (cap if size is None else min(size, cap))

    reps = []
    if not factors:
        if limit >= 1:
            reps.append(())
    elif size is not None:
        for combo in product(*(range(d) for d in factors)):
            if len(reps) >= limit:
                break
            reps.append(combo)
    else:
        # grow coordinate index ranges in rounds so truncation keeps small
        # representatives first, deterministically
        depth = 0
        while len(reps) < limit:
            depth += 1
            ranges = [range(min(depth, d) if d else depth) for d in factors]
            for idxs in product(*ranges):
                if max(idxs) == depth - 1:
                    reps.append(tuple(_value_at(d, i)
                                      for d, i in zip(factors, idxs)))
                    if len(reps) >= limit:
                        break
    truncated = size is None or limit < size
    return FiberEnumeration(representatives=tuple(reps), truncated=truncated,
                            fiber_group=kg)
