"""Class-level API: embedding classes modulo knots as (u, L, beta) triples,
equality decisions, and fiber groups over a fixed (u, L).

beta is stored in ambient H1 coordinates relative to an abstract basepoint
of its fiber; only differences of beta values are meaningful, and equality
reduces their difference against a basis of the relation subgroup of
K_{u,L}, checked and built once per fiber by the cached `fiber_basis`.
Which geometric embedding the basepoint denotes is not recoverable from
the algebra, so the CLI prints a basepoint disclaimer alongside every beta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import IntMatrix, in_lattice, lattice_basis
from .invariants import (KGroup, divisibility, is_kappa_admissible,
                         is_symmetric_pair, k_group)
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


FIBER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=FIBER_CACHE_SIZE)  # errors are raised, not kept
def fiber_basis(data: ManifoldData, u: tuple, L: IntMatrix) -> tuple:
    """(basis, d) for the fiber (u, L): u is checked admissible and (u, L)
    a symmetric pair, d = divisibility(u), and basis is the Hermite basis
    of 2L Z^b3 + d Z^b1 mod d (`exact.lattice_basis`).  The last
    FIBER_CACHE_SIZE keys (data, u, L) are kept; a failed check raises on
    every call."""
    if not is_kappa_admissible(data, u):
        raise ValueError(f"kappa value {u} is not admissible")
    if not is_symmetric_pair(data, u, L):
        raise ValueError("(u, L) is not a symmetric pair")
    d = divisibility(u)
    twice = IntMatrix.from_rows(tuple(tuple([2 * x for x in row])
                                      for row in L.data), cols=L.cols)
    return lattice_basis(twice, d), d


def embedding_class(data: ManifoldData, u: Sequence[int], L: IntMatrix,
                    beta: Optional[Sequence[int]] = None) -> EmbeddingClass:
    """Validated constructor: u must be admissible and (u, L) a symmetric
    pair, otherwise no embedding realizes the triple (`fiber_basis`)."""
    u = tuple(u)
    fiber_basis(data, u, L)
    return EmbeddingClass(u=u, L=L, beta=_beta(data, beta))


def classes_equal(data: ManifoldData, c1: EmbeddingClass,
                  c2: EmbeddingClass) -> bool:
    """Decide equality of two classes with known beta.

    Classes agree exactly when u and L agree and beta1 - beta2 lies in
    2*Lambda(H3) + d*H1, d = divisibility(u): with L = P Lambda and P
    unimodular, when P(beta1 - beta2) lies in 2L*Z^b3 + d*Z^b1, which is
    decided by reduction against the fiber's cached `fiber_basis`.
    Comparing betas across different (u, L) fibers is meaningless and
    classes then simply differ.
    """
    if not (c1.beta_known and c2.beta_known):
        raise BetaUnknownError("both classes need a known beta for equality")
    if c1.u != c2.u or c1.L != c2.L:
        return False
    basis, d = fiber_basis(data, c1.u, c1.L)
    diff = data.P.apply([x - y for x, y in zip(c1.beta, c2.beta)])
    return in_lattice(basis, diff, d)


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


def _shell(ranges: list, m: int, hit: bool = False):
    """The index tuples over `ranges` with largest entry m, in lexicographic
    order; a coordinate is only m when no later one can be, so each tuple
    costs O(len(ranges)**2) and no tuple is scanned and dropped."""
    if not ranges:
        yield ()
        return
    later = hit or any(len(r) > m for r in ranges[1:])
    for x in ranges[0] if later else ranges[0][m:m + 1]:
        for rest in _shell(ranges[1:], m, hit or x == m):
            yield (x,) + rest


def enumerate_fiber(data: ManifoldData, u: Sequence[int], L: IntMatrix,
                    cap: Optional[int] = None,
                    max_entries: Optional[int] = None) -> FiberEnumeration:
    """Distinct canonical beta representatives over (u, L), in factor
    coordinates.

    Complete when the fiber is finite and within cap; an infinite fiber
    needs a cap and the result is flagged truncated.  A listing of more
    than `max_entries` integers (classes times b1) is refused before any
    is built.  The result carries the fiber group, so callers need not
    build it a second time.
    """
    from itertools import chain, count, islice, product

    kg = fiber_group(data, u, L)
    factors = kg.factors
    size = kg.size()
    if size is None and cap is None:
        raise ValueError("infinite fiber: a cap is required")
    limit = size if cap is None else (cap if size is None else min(size, cap))
    width = max(data.b1, 1)
    if max_entries is not None and limit * width > max_entries:
        from .jsonio import encode_int
        raise ValueError(
            f"fiber of size {'infinite' if size is None else encode_int(size)}"
            f" is too large to list: more than {max_entries} entries "
            f"(classes x b1); pass --cap of at most {max_entries // width}")

    if size is not None:
        reps = list(islice(product(*map(range, factors)), limit))
    else:
        # index ranges grow in rounds, the m-th holding the tuples of
        # largest index m, so truncation keeps small representatives first
        rounds = chain.from_iterable(
            _shell([range(min(m + 1, d) if d else m + 1) for d in factors], m)
            for m in count())
        reps = [tuple(map(_value_at, factors, idxs))
                for idxs in islice(rounds, limit)]
    truncated = size is None or limit < size
    return FiberEnumeration(representatives=tuple(reps), truncated=truncated,
                            fiber_group=kg)
