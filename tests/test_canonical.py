import base64
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoledger.canonical import (
    bytes_to_hex,
    canonical_json,
    parse_b64,
    parse_bare_hex64,
    parse_hex,
    parse_object,
    parse_uint,
    read_records,
    uint_to_str,
)

from .conftest import json_line


def test_sorted_keys_no_whitespace():
    assert canonical_json({"b": "2", "a": "1"}) == b'{"a":"1","b":"2"}'


def test_nested_structures():
    obj = {"z": ["1", {"y": "x"}], "a": "0"}
    assert canonical_json(obj) == b'{"a":"0","z":["1",{"y":"x"}]}'


def test_same_value_same_bytes():
    obj = {"k": ["a", "b"], "m": "3"}
    assert canonical_json(obj) == canonical_json({"m": "3", "k": ["a", "b"]})


@pytest.mark.parametrize("bad", [1, 1.5, True, None, {"a": 1}, ["x", None]])
def test_non_string_scalars_rejected(bad):
    with pytest.raises(ValueError):
        canonical_json(bad)


def test_uint_round_trip():
    for value in (0, 1, 10**18, 2**256 - 1):
        assert parse_uint(uint_to_str(value)) == value


@pytest.mark.parametrize("bad", ["", "-1", "+1", "01", " 1", "1 ", "0x1", "1.0", "1e3"])
def test_parse_uint_strict(bad):
    with pytest.raises(ValueError):
        parse_uint(bad)


def test_hex_round_trip():
    data = bytes(range(32))
    assert parse_hex(bytes_to_hex(data), length=32) == data
    assert parse_hex("0x", length=0) == b""


@pytest.mark.parametrize("bad", ["", "0X00", "0x0", "0xGG", "0x0A", "00ff", "0xff ", " 0xff"])
def test_parse_hex_strict(bad):
    with pytest.raises(ValueError):
        parse_hex(bad, length=1)


def test_parse_hex_length():
    with pytest.raises(ValueError):
        parse_hex("0x" + "00" * 31, length=32)


def test_bare_hex64():
    digest = "ab" * 32
    assert parse_bare_hex64(digest) == digest
    for bad in ("AB" * 32, "ab" * 31, "ab" * 33, "0x" + "ab" * 31):
        with pytest.raises(ValueError):
            parse_bare_hex64(bad)


@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_uint_round_trip_property(value):
    assert parse_uint(uint_to_str(value)) == value


@given(st.binary(max_size=128))
def test_hex_round_trip_property(data):
    assert parse_hex(bytes_to_hex(data), length=len(data)) == data


@given(
    st.dictionaries(
        st.text(max_size=8),
        st.recursive(st.text(max_size=8), lambda inner: st.lists(inner, max_size=3), max_leaves=6),
        max_size=4,
    )
)
def test_canonical_json_is_parseable_and_stable(obj):
    encoded = canonical_json(obj)
    assert json.loads(encoded) == obj
    assert canonical_json(json.loads(encoded)) == encoded


B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@given(st.binary(max_size=64))
def test_b64_round_trip_property(data):
    assert parse_b64(base64.b64encode(data), "field") == data


def test_parse_b64_accepts_exactly_the_canonical_quanta():
    # every padded last quantum: canonical iff it re-encodes to itself
    quanta = [b"AA%c=" % c for c in B64_ALPHABET] + [b"A%c==" % c for c in B64_ALPHABET]
    for text in quanta:
        canonical = base64.b64encode(base64.b64decode(text)) == text
        try:
            parse_b64(text, "field")
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == canonical, text


# parse_b64 reads bytes: the str "AAAA" is the wrong type, however canonical its characters
@pytest.mark.parametrize("bad", [b"AB==", b"AAB=", b"AAAA====", b"AAAA=", b"A===", b"====", b"AA=A", b"=AAA", b"AA==AAAA", b"AAA", b"AA AA A=", b"AA\xe9=", "AAAA", None])
def test_parse_b64_strict(bad):
    with pytest.raises(ValueError, match="field is not canonical base64"):
        parse_b64(bad, "field")


# json.loads alone takes the last two: a member named twice (the last value wins), and nesting past the recursion limit (RecursionError)
@pytest.mark.parametrize("raw", [
    b"\xff{}", b"{", b"[]", b'"x"', b'{"a":"1"}', b'{"a":"1","b":"2","c":"3"}',
    pytest.param(b'{"a":"1","a":"2","b":"3"}', id="member named twice"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested 100000 deep"),
])
def test_parse_object_strict(raw):
    with pytest.raises(ValueError):
        parse_object(raw, {"a", "b"}, "thing")


def test_parse_object_any_keys():
    assert parse_object(b'{"z":"1"}', None, "thing") == {"z": "1"}
    with pytest.raises(ValueError, match="malformed thing: not a JSON object"):
        parse_object(b"[]", None, "thing")


class _Bad(Exception):
    pass


@pytest.mark.parametrize("content, line", [(b'{"a":"1"}\n\n{"a":"2"}\n', 2), (b'{"a":"1"}\n{"b":"2"}\n', 2), (b"[]\n", 1)])
def test_read_records_names_the_bad_line(tmp_path, content, line):
    def decode(raw):
        obj = json_line(raw)
        if set(obj) != {"a"}:
            raise ValueError("want key a")
        return obj["a"]

    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    with pytest.raises(_Bad, match=f"^line {line}: "):
        read_records(path, decode, _Bad)
    path.write_bytes(b'{"a":"1"}\n{"a":"2"}')  # the last line may lack its newline
    assert read_records(path, decode, _Bad) == ["1", "2"]


@pytest.mark.parametrize("tail", [b'{"a":"', b"{", b'{"a":"2"', b"\xff"])
def test_read_records_drops_a_torn_final_line_that_does_not_parse(tmp_path, tail):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a":"1"}\n' + tail)
    assert read_records(path, json_line, _Bad) == [{"a": "1"}]
    path.write_bytes(b'{"a":"1"}\n' + tail + b"\n")  # a terminated line is no torn write
    with pytest.raises(_Bad, match="^line 2: "):
        read_records(path, json_line, _Bad)
