"""Decimal-string JSON encoding for exact integer payloads.

Integers are serialized as decimal strings so arbitrary-precision values
survive consumers that parse JSON numbers into 64-bit types.  Decoding is
lenient and accepts plain JSON integers as well.

An array whose entries are all `int` (not `bool`) or `str` is converted in
one pass; any other array goes entry by entry through `decode_int`, which
gives the same result or names the first bad entry.

Encoding a vector is one `map(str, ...)` over its entries, which every
caller passes as Python ints; only when `str` refuses an integer longer
than `sys.get_int_max_str_digits()` does it go entry by entry through
`encode_int`, whose message names the integer's size.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .exact import IntMatrix

_INT = frozenset((int,))
_INT_OR_STR = frozenset((int, str))


def decode_int(obj) -> int:
    if isinstance(obj, bool):
        raise ValueError(f"expected integer, got {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        try:
            return int(obj, 10)
        except ValueError:
            # Python refuses more digits than sys.get_int_max_str_digits()
            digits = sum(map(str.isdecimal, obj))
            limit = sys.get_int_max_str_digits()
            if not limit or digits <= limit:
                raise
            raise ValueError(f"integer too long: {digits} digits, more than "
                             f"the limit of {limit}") from None
    raise ValueError(f"expected integer or decimal string, got {obj!r}")


def encode_int(x: int) -> str:
    x = int(x)
    try:
        return str(x)
    except ValueError:
        # Python refuses decimal strings beyond sys.get_int_max_str_digits()
        raise ValueError(f"result is too large to print: an integer has "
                         f"{x.bit_length()} bits") from None


def decode_vector(obj) -> tuple:
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"expected array, got {obj!r}")
    types = set(map(type, obj))
    if types <= _INT:
        return tuple(obj)
    if types <= _INT_OR_STR:
        try:
            return tuple(map(int, obj))
        except ValueError:
            pass  # decode_int names the entry and the reason
    return tuple(map(decode_int, obj))


def encode_vector(v: Sequence[int]) -> list:
    try:
        return list(map(str, v))
    except ValueError:
        return list(map(encode_int, v))  # names the integer str() refused


def decode_matrix(obj, cols: Optional[int] = None) -> IntMatrix:
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"expected array of arrays, got {obj!r}")
    return IntMatrix.from_rows(tuple(map(decode_vector, obj)), cols=cols)


def encode_matrix(M: IntMatrix) -> list:
    return [encode_vector(row) for row in M.data]


def decode_tensor(obj, slices: Optional[int] = None,
                  cols: Optional[int] = None) -> tuple:
    """Rank-3 tensor as a tuple of matrix slices."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"expected array of matrices, got {obj!r}")
    if slices is not None and len(obj) != slices:
        raise ValueError(f"expected {slices} tensor slices, got {len(obj)}")
    return tuple(decode_matrix(m, cols=cols) for m in obj)

