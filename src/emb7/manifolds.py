"""Homological input data for a closed connected orientable 4-manifold N
with torsion-free first homology.

Everything downstream consumes only this basis-level data: the intersection
form Q on H2, the duality pairing P between H3 and H1, the triple
intersection tensor T, the mod-2 characteristic vector w2, and the
signature.  No chain complexes, no triangulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import jsonio
from .exact import IntMatrix, signature


@dataclass(frozen=True)
class ManifoldData:
    """Basis-level homology data of N.

    T is stored as b2 matrix slices: T[i][j, k] is the triple intersection
    of the i-th H2 basis class with the j-th and k-th H3 basis classes, so
    each slice is antisymmetric.
    """

    b1: int
    b2: int
    b3: int
    Q: IntMatrix
    P: IntMatrix
    T: tuple  # b2 slices of b3 x b3 IntMatrix
    w2: tuple  # b2 bits
    sigma: int
    name: Optional[str] = None

    def triple_contraction(self, u: Sequence[int]) -> IntMatrix:
        """The antisymmetric matrix sum_i u_i * T[i] on H3 x H3."""
        if len(u) != self.b2:
            raise ValueError(f"H2 vector length {len(u)} != b2 {self.b2}")
        out = [[0] * self.b3 for _ in range(self.b3)]
        for ui, slice_ in zip(u, self.T):
            if ui:
                for j in range(self.b3):
                    row = slice_.row(j)
                    for k in range(self.b3):
                        out[j][k] += ui * row[k]
        return IntMatrix(out, cols=self.b3)


def validate(data: ManifoldData) -> list:
    """Check the standing hypotheses; returns a list of violations (empty
    means the data is a legal input)."""
    v = []
    b1, b2, b3 = data.b1, data.b2, data.b3
    if b3 != b1:
        v.append(f"b3={b3} must equal b1={b1} (Poincare duality, torsion-free H1)")
    if data.Q.shape != (b2, b2):
        v.append(f"Q has shape {data.Q.shape}, expected {(b2, b2)}")
    elif not data.Q.is_symmetric():
        v.append("Q is not symmetric")
    else:
        d = data.Q.det()
        if abs(d) != 1:
            v.append(f"Q is not unimodular (det={d})")
        s = signature(data.Q)
        if s != data.sigma:
            v.append(f"signature(Q)={s} does not match sigma={data.sigma}")
    if data.P.shape != (b3, b1):
        v.append(f"P has shape {data.P.shape}, expected {(b3, b1)}")
    elif b1 > 0 and abs(data.P.det()) != 1:
        v.append(f"P is not unimodular (det={data.P.det()})")
    if len(data.T) != b2:
        v.append(f"T has {len(data.T)} slices, expected b2={b2}")
    else:
        for i, slice_ in enumerate(data.T):
            if slice_.shape != (b3, b3):
                v.append(f"T[{i}] has shape {slice_.shape}, expected {(b3, b3)}")
            elif any(slice_[j, k] != -slice_[k, j]
                     for j in range(b3) for k in range(j + 1)):
                v.append(f"T[{i}] is not antisymmetric in its last two indices")
    if len(data.w2) != b2 or any(bit not in (0, 1) for bit in data.w2):
        v.append(f"w2 must be {b2} bits")
    elif data.Q.shape == (b2, b2):
        # Wu condition: Q(x,x) == x . w2 (mod 2) on every basis vector
        qw = data.Q.apply(data.w2)
        for j in range(b2):
            if (data.Q[j, j] - qw[j]) % 2:
                v.append(f"Wu condition fails on basis vector {j}: "
                         f"Q[{j},{j}]={data.Q[j, j]} vs (Q w2)[{j}]={qw[j]} mod 2")
    return v


def is_valid(data: ManifoldData) -> bool:
    return not validate(data)


def _zero_tensor(b2: int, b3: int) -> tuple:
    return tuple(IntMatrix.zeros(b3, b3) for _ in range(b2))


def builtin(name: str) -> ManifoldData:
    """Built-in example manifolds; every one passes validate."""
    if name == "s4":
        return ManifoldData(b1=0, b2=0, b3=0, Q=IntMatrix.zeros(0, 0),
                            P=IntMatrix.zeros(0, 0), T=(), w2=(), sigma=0,
                            name="s4")
    if name == "s1xs3":
        return ManifoldData(b1=1, b2=0, b3=1, Q=IntMatrix.zeros(0, 0),
                            P=IntMatrix([[1]]), T=(), w2=(), sigma=0,
                            name="s1xs3")
    if name == "cp2":
        return ManifoldData(b1=0, b2=1, b3=0, Q=IntMatrix([[1]]),
                            P=IntMatrix.zeros(0, 0),
                            T=_zero_tensor(1, 0), w2=(1,), sigma=1,
                            name="cp2")
    if name == "s2xs2":
        return ManifoldData(b1=0, b2=2, b3=0,
                            Q=IntMatrix([[0, 1], [1, 0]]),
                            P=IntMatrix.zeros(0, 0),
                            T=_zero_tensor(2, 0), w2=(0, 0), sigma=0,
                            name="s2xs2")
    if name == "t2xs2":
        # H2 basis: e1 = [T^2 x pt] (torus class), e2 = [pt x S^2].
        # H3 basis: a x S^2, b x S^2 for the two circle factors a, b of T^2.
        # Triple product e1 . (a x S^2) . (b x S^2):
        #   (a x S^2) . (b x S^2) = (a . b)[pt x S^2] = [pt x S^2],
        #   then [T^2 x pt] . [pt x S^2] = 1, and swapping a, b negates it.
        torus_slice = IntMatrix([[0, 1], [-1, 0]])
        return ManifoldData(b1=2, b2=2, b3=2,
                            Q=IntMatrix([[0, 1], [1, 0]]),
                            P=IntMatrix.identity(2),
                            T=(torus_slice, IntMatrix.zeros(2, 2)),
                            w2=(0, 0), sigma=0,
                            name="t2xs2")
    raise ValueError(f"unknown builtin manifold {name!r}")


BUILTIN_NAMES = ("s4", "s1xs3", "cp2", "s2xs2", "t2xs2")


def to_json(data: ManifoldData) -> dict:
    obj = {
        "b1": data.b1,
        "b2": data.b2,
        "Q": jsonio.encode_matrix(data.Q),
        "P": jsonio.encode_matrix(data.P),
        "T": jsonio.encode_tensor(data.T),
        "w2": list(data.w2),
        "sigma": jsonio.encode_int(data.sigma),
    }
    if data.name is not None:
        obj["name"] = data.name
    return obj


_JSON_FIELDS = ("b1", "b2", "Q", "P", "T", "w2", "sigma")


def from_json(obj: dict) -> ManifoldData:
    """Decode `to_json` output; raises ValueError when the object lacks a
    field or a field does not decode."""
    if not isinstance(obj, dict):
        raise ValueError("manifold data must be a JSON object")
    missing = [k for k in _JSON_FIELDS if k not in obj]
    if missing:
        raise ValueError(f"manifold data lacks {', '.join(missing)}")
    b1 = jsonio.decode_int(obj["b1"])
    b2 = jsonio.decode_int(obj["b2"])
    return ManifoldData(
        b1=b1, b2=b2, b3=b1,
        Q=jsonio.decode_matrix(obj["Q"], cols=b2),
        P=jsonio.decode_matrix(obj["P"], cols=b1),
        T=jsonio.decode_tensor(obj["T"], slices=b2, cols=b1),
        w2=jsonio.decode_vector(obj["w2"]),
        sigma=jsonio.decode_int(obj["sigma"]),
        name=obj.get("name"),
    )
