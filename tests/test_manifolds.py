import dataclasses
import json

import pytest

from conftest import (basis_change, is_valid, random_form_manifold,
                      random_unimodular, to_json)
from emb7.exact import IntMatrix
from emb7.manifolds import BUILTIN_NAMES, builtin, from_json, validate


def test_builtins_validate(builtin_data):
    assert validate(builtin_data) == []


def test_builtin_shapes():
    s1s3 = builtin("s1xs3")
    assert (s1s3.b1, s1s3.b2, s1s3.b3) == (1, 0, 1)
    assert s1s3.P == IntMatrix([[1]])
    cp2 = builtin("cp2")
    assert cp2.Q == IntMatrix([[1]]) and cp2.sigma == 1 and cp2.w2 == (1,)
    s2s2 = builtin("s2xs2")
    assert s2s2.Q == IntMatrix([[0, 1], [1, 0]]) and s2s2.sigma == 0
    t2s2 = builtin("t2xs2")
    assert t2s2.T[0][0, 1] == 1 and t2s2.T[0][1, 0] == -1
    assert all(x == 0 for row in t2s2.T[1].data for x in row)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("k3")


def test_signature_mismatch_detected():
    bad = dataclasses.replace(builtin("s2xs2"), sigma=1)
    report = validate(bad)
    assert any("signature" in line for line in report)


def test_wu_condition_detected():
    bad = dataclasses.replace(builtin("cp2"), w2=(0,))
    report = validate(bad)
    assert any("Wu" in line for line in report)


def test_rank_mismatch_detected():
    bad = dataclasses.replace(builtin("s1xs3"), b3=2)
    assert any("b3" in line for line in validate(bad))


def test_nonunimodular_pairing_detected():
    bad = dataclasses.replace(builtin("s1xs3"), P=IntMatrix([[2]]))
    assert any("P is not unimodular" in line for line in validate(bad))


def test_tensor_antisymmetry_detected():
    t2s2 = builtin("t2xs2")
    bad = dataclasses.replace(
        t2s2, T=(IntMatrix([[0, 1], [1, 0]]), t2s2.T[1]))
    assert any("antisymmetric" in line for line in validate(bad))


def test_json_round_trip(builtin_data):
    blob = json.dumps(to_json(builtin_data))
    assert from_json(json.loads(blob)) == builtin_data


def test_json_uses_decimal_strings():
    obj = to_json(builtin("t2xs2"))
    assert obj["Q"] == [["0", "1"], ["1", "0"]]
    assert obj["sigma"] == "0"
    assert obj["w2"] == [0, 0]


def test_validate_invariant_under_basis_change(rng):
    for name in BUILTIN_NAMES:
        data = builtin(name)
        for _ in range(5):
            m2 = random_unimodular(rng, data.b2)
            a = random_unimodular(rng, data.b3)
            b = random_unimodular(rng, data.b1)
            assert is_valid(basis_change(data, m2, a, b))
    for _ in range(10):
        data = random_form_manifold(rng, rng.randint(1, 3))
        m2 = random_unimodular(rng, data.b2)
        changed = basis_change(data, m2, IntMatrix.zeros(0, 0),
                               IntMatrix.zeros(0, 0))
        assert is_valid(changed)
