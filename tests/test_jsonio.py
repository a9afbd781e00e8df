import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emb7.exact import IntMatrix
from emb7.jsonio import (decode_int, decode_matrix, decode_vector,
                         encode_int, encode_vector)


def per_entry_vector(obj) -> tuple:
    """The reference route: every entry through `decode_int`."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"expected array, got {obj!r}")
    return tuple(decode_int(x) for x in obj)


def per_entry_matrix(obj, cols=None) -> IntMatrix:
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"expected array of arrays, got {obj!r}")
    return IntMatrix([per_entry_vector(row) for row in obj], cols=cols)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    entries = value.data if isinstance(value, IntMatrix) else (value,)
    return "ok", value, [type(x) for row in entries for x in row]


# what JSON can hold, and strings that int() reads, rejects or reads only
# because of spaces and underscores
decimal_strings = st.from_regex(r"\A\s?[+-]?[0-9]{1,4}(_[0-9]{1,3})?\s?\Z")
entries = st.one_of(
    st.integers(), st.integers().map(str), decimal_strings,
    st.text(alphabet=" _+-0123456789x", max_size=6),
    st.booleans(), st.floats(allow_nan=False), st.none(),
    st.lists(st.integers(), max_size=2))
int_like = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(str),
                     decimal_strings)
LONG = "9" * (sys.get_int_max_str_digits() + 1)


class TestOnePassDecode:
    @settings(derandomize=True, max_examples=300)
    @given(st.one_of(st.lists(int_like, max_size=6),
                     st.lists(entries, max_size=6), entries))
    @example([1, "2", LONG])
    @example(["3", True])
    @example((1, 2))
    def test_vector_matches_per_entry(self, obj):
        assert outcome(decode_vector, obj) == outcome(per_entry_vector, obj)

    @settings(derandomize=True, max_examples=200)
    @given(st.one_of(
        st.integers(0, 3).flatmap(lambda n: st.lists(
            st.lists(int_like, min_size=n, max_size=n), max_size=4)),
        st.lists(st.one_of(st.lists(entries, max_size=3), entries),
                 max_size=3)),
        st.sampled_from([None, 0, 2]))
    @example([["1", "2"], [3]], None)
    @example([[1, 2], [3, 4]], 3)
    @example([[1, 2.0], [3]], None)
    def test_matrix_matches_per_entry(self, obj, cols):
        assert outcome(decode_matrix, obj, cols) == \
            outcome(per_entry_matrix, obj, cols)


class TestIntegerTooLong:
    @pytest.mark.parametrize("text", [LONG, " -" + LONG, LONG[:9] + "_" + LONG])
    def test_names_digits_and_limit(self, text):
        limit = sys.get_int_max_str_digits()
        digits = sum(c.isdigit() for c in text)
        with pytest.raises(ValueError) as exc:
            decode_int(text)
        assert str(exc.value) == (f"integer too long: {digits} digits, more "
                                  f"than the limit of {limit}")

    def test_invalid_short_string_keeps_pythons_message(self):
        with pytest.raises(ValueError, match="invalid literal"):
            decode_int("12x")


class TestEncodeVector:
    @pytest.mark.parametrize("v", [
        [], [0], (0, 0), [-1, -7, 0, 12], [-(10 ** 40), 10 ** 40],
        [5, 10 ** sys.get_int_max_str_digits()],
        [-(10 ** sys.get_int_max_str_digits()), 0]])
    def test_matches_encode_int(self, v):
        def per_entry():
            return [encode_int(x) for x in v]

        assert outcome(encode_vector, v) == outcome(per_entry)

    def test_too_large_names_the_integer(self):
        big = 10 ** sys.get_int_max_str_digits()  # one digit past the limit
        with pytest.raises(ValueError) as exc:
            encode_vector([1, big])
        assert str(exc.value) == ("result is too large to print: an integer "
                                  f"has {big.bit_length()} bits")
