"""Key files against reference implementations.

The protocol layer checks, parses, hashes and writes key files with array
and string operations.  The references below are the plain definitions they
must match byte for byte: the regex-and-int loader, json.dumps(indent=2) for
the key file, and the sort_keys json.dumps whose bytes key_id_of and
key_fingerprint hash.
"""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpke.attacks import chosen_ciphertext_session
from qpke.protocol import (
    KEY_FILE_VERSION,
    KeyRegistry,
    PrivateKey,
    encrypt,
    key_fingerprint,
    key_id_of,
    keygen,
    load_private_key,
    private_key_from_json,
    private_key_to_json,
    save_private_key,
)

_REFERENCE_DECIMAL_LIST = re.compile(r"[0-9]+(?:,[0-9]+)*")


def reference_from_json(payload: dict) -> PrivateKey:
    if not isinstance(payload, dict):
        raise TypeError("key file must hold a JSON object")
    if type(payload.get("version")) is not int or payload["version"] != KEY_FILE_VERSION:
        raise ValueError(f"unsupported key file version {payload.get('version')!r}")
    n, s, perm = payload.get("n"), payload.get("s"), payload.get("perm")
    if not isinstance(s, list) or not set(map(type, s)) <= {int, str}:
        raise TypeError("key file field 's' must be a list of integers or decimal strings")
    strings = [v for v in s if type(v) is str]
    if strings and not _REFERENCE_DECIMAL_LIST.fullmatch(",".join(strings)):
        raise ValueError("key file field 's' holds a string that is not a decimal integer")
    if "perm" in payload and not (isinstance(perm, list) and set(map(type, perm)) <= {int}):
        raise TypeError("key file field 'perm' must be a list of integers")
    return PrivateKey(n=n, s=tuple(map(int, s)), perm=None if perm is None else tuple(perm))


def reference_key_file(key: PrivateKey) -> bytes:
    return (json.dumps(private_key_to_json(key), indent=2) + "\n").encode()


def reference_canonical(key: PrivateKey) -> bytes:
    return json.dumps(private_key_to_json(key), sort_keys=True, separators=(",", ":")).encode()


def reference_key_id(key: PrivateKey) -> str:
    return hashlib.sha256(b"qpke:key-id:" + reference_canonical(key)).hexdigest()[:16]


def reference_fingerprint(key: PrivateKey) -> str:
    return hashlib.sha256(b"qpke:fingerprint:" + reference_canonical(key)).hexdigest()


@st.composite
def key_payloads(draw) -> dict:
    """A valid key file payload: s as decimal strings, with or without
    leading zeros, as plain ints, or mixed; perm present or not."""
    n = draw(st.integers(1, 62))
    N = draw(st.integers(1, 64))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=N, max_size=N))
    form = draw(st.sampled_from(["strings", "leading-zeros", "ints", "mixed"]))
    if form == "strings":
        s = [str(v) for v in values]
    elif form == "leading-zeros":
        # 25 zeros put even a one-digit index past int64's 19 digits
        s = ["0" * draw(st.sampled_from([0, 1, 2, 25])) + str(v) for v in values]
    elif form == "ints":
        s = list(values)
    else:
        s = [draw(st.sampled_from([v, str(v), "00" + str(v)])) for v in values]
    payload = {"version": KEY_FILE_VERSION, "n": n, "s": s}
    if draw(st.booleans()):
        payload["perm"] = draw(st.permutations(range(N)))
    return payload


@given(payload=key_payloads())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_key_files_match_the_references(payload, tmp_path_factory):
    key = private_key_from_json(payload)
    reference = reference_from_json(payload)
    assert key == reference
    assert key_id_of(key) == reference_key_id(reference)
    assert key_fingerprint(key) == reference_fingerprint(reference)
    path = tmp_path_factory.mktemp("keys") / "key.json"
    save_private_key(key, path)
    assert path.read_bytes() == reference_key_file(reference)
    # a file written as plain JSON loads to the same key and the same hashes
    path.write_text(json.dumps(payload))
    loaded = load_private_key(path)
    assert loaded == reference
    assert key_id_of(loaded) == reference_key_id(reference)
    assert key_fingerprint(loaded) == reference_fingerprint(reference)


@given(
    data=st.data(),
    n=st.integers(1, 62),
    N=st.integers(1, 64),
    permuted=st.booleans(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_string_int_and_mixed_entries_load_one_key(data, n, N, permuted, tmp_path_factory):
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=N, max_size=N))
    as_int = data.draw(st.lists(st.booleans(), min_size=N, max_size=N))
    perm = data.draw(st.permutations(range(N))) if permuted else None
    files = {
        "strings": [str(v) for v in values],
        "ints": list(values),
        "mixed": [v if i else str(v) for v, i in zip(values, as_int)],
    }
    directory = tmp_path_factory.mktemp("forms")
    want = PrivateKey(n=n, s=tuple(values), perm=None if perm is None else tuple(perm))
    for form, s in files.items():
        payload = {"version": KEY_FILE_VERSION, "n": n, "s": s}
        if perm is not None:
            payload["perm"] = list(perm)
        path = directory / f"{form}.json"
        path.write_text(json.dumps(payload))
        key = load_private_key(path)
        assert key == reference_from_json(payload) == want
        assert key._s_text == want._s_text == ",".join(map(str, values))
        assert key_id_of(key) == reference_key_id(want)
        assert key_fingerprint(key) == reference_fingerprint(want)


def test_large_keys_match_the_references(tmp_path):
    rng = np.random.default_rng(16)
    for N, n in ((4096, 48), (1 << 16, 62)):
        s = tuple(rng.integers(0, 1 << n, size=N, dtype=np.int64).tolist())
        key = PrivateKey(n=n, s=s, perm=tuple(rng.permutation(N).tolist()))
        path = tmp_path / f"key-{N}.json"
        save_private_key(key, path)
        assert path.read_bytes() == reference_key_file(key)
        loaded = load_private_key(path)
        assert loaded == key
        assert key_id_of(loaded) == reference_key_id(key)
        assert key_fingerprint(loaded) == reference_fingerprint(key)


@pytest.mark.parametrize("N", [1, 7, 4096])
@pytest.mark.parametrize("permute", [False, True], ids=["plain", "permuted"])
@pytest.mark.parametrize("precision", [48, (32, 62)], ids=["fixed-n", "n-range"])
def test_keygen_keys_match_the_references(precision, permute, N, tmp_path):
    # keygen hands its draws to PrivateKey as int64 arrays
    key, public = keygen(precision, N, permute=permute, rng=np.random.default_rng(N))
    draws = np.random.default_rng(N)
    n = precision if isinstance(precision, int) else int(draws.integers(32, 63))
    s = tuple(draws.integers(0, 1 << n, size=N, dtype=np.int64).tolist())
    perm = tuple(draws.permutation(N).tolist()) if permute else None
    from_tuples = PrivateKey(n=n, s=s, perm=perm)
    assert key == from_tuples
    assert public.key_id == key_id_of(key) == reference_key_id(from_tuples)
    assert key_fingerprint(key) == reference_fingerprint(from_tuples)
    path = tmp_path / "key.json"
    save_private_key(key, path)
    assert path.read_bytes() == reference_key_file(from_tuples)


@pytest.mark.parametrize("n", range(1, 63))
@given(data=st.data())
@settings(max_examples=5, deadline=None, derandomize=True)
def test_decimal_text_is_the_str_join(n, data):
    top = (1 << n) - 1
    # 0 and 2**n - 1 are in every key
    middle = data.draw(st.lists(st.integers(0, top), max_size=30))
    s = [0, *middle, top]
    perm = data.draw(st.permutations(range(len(s))))
    for key in (
        PrivateKey(n=n, s=tuple(s), perm=tuple(perm)),
        PrivateKey(n=n, s=np.array(s, dtype=np.int64), perm=np.array(perm, dtype=np.int64)),
    ):
        assert key._s_text == ",".join(map(str, s))
        assert key._perm_text == ",".join(map(str, perm))


def _base(**fields) -> dict:
    return {"version": KEY_FILE_VERSION, "n": 8, "s": ["1", "2", "3"], **fields}


MALFORMED = {
    "empty string": (_base(s=["1", "", "3"]), ValueError),
    "empty last string": (_base(s=["1", "2", ""]), ValueError),
    "comma inside a string": (_base(s=["1", "1,2"]), ValueError),
    "plus sign": (_base(s=["1", "+1", "3"]), ValueError),
    "leading space": (_base(s=["1", " 1", "3"]), ValueError),
    "non-ASCII digit": (_base(s=["1", "١", "3"]), ValueError),
    "2**63 as a string": (_base(s=["1", str(2**63), "3"]), ValueError),
    "10**22 as a string": (_base(s=["1", str(10**22), "3"]), ValueError),
    "2**63 as an int": (_base(s=["1", 2**63, "3"]), ValueError),
    "10**22 as an int": (_base(s=[1, 10**22, 3]), ValueError),
    "index 2**n": (_base(s=["1", "256", "3"]), ValueError),
    "index 2**n as an int": (_base(s=[1, 256, 3]), ValueError),
    "negative int index": (_base(s=[1, -1, 3]), ValueError),
    "duplicate perm": (_base(perm=[0, 0, 1]), ValueError),
    "perm out of range": (_base(perm=[0, 1, 3]), ValueError),
    "negative perm": (_base(perm=[-1, 0, 1]), ValueError),
    "perm beyond int64": (_base(perm=[0, 1, 2**64]), ValueError),
    "perm of the wrong length": (_base(perm=[0, 1]), ValueError),
    "perm holds a bool": (_base(perm=[0, 1, True]), TypeError),
    "null perm": (_base(perm=None), TypeError),
    "boolean precision": (_base(n=True), TypeError),
    "precision above the cap": (_base(n=63), ValueError),
    "empty s": (_base(s=[]), ValueError),
    "s not a list": (_base(s="1,2,3"), TypeError),
    "bool in s": (_base(s=["1", True]), TypeError),
    # true == 1.0 == 1, but only the int 1 is the version
    "version true": (_base(version=True), ValueError),
    "version 1.0": (_base(version=1.0), ValueError),
    "version as a string": (_base(version="1"), ValueError),
    # two faults: the key's own checks refuse the precision before perm
    "boolean precision and perm beyond int64": (_base(n=True, perm=[0, 1, 2**64]), TypeError),
}


@pytest.mark.parametrize(
    "s", [["07", "1", "2"], ["7", "01", "2"], ["7", "1", "002"], ["00"], ["0", "0"]]
)
def test_leading_zeros_anywhere_hash_as_the_canonical_key(s):
    # the file's digits stand in for the key's decimal text only without leading zeros
    key = private_key_from_json(_base(s=s))
    canonical = PrivateKey(n=8, s=tuple(map(int, s)))
    assert key._s_text == canonical._s_text
    assert key_id_of(key) == key_id_of(canonical) == reference_key_id(canonical)


@pytest.mark.parametrize("s", [["", "2"], ["1", ""], ["1", "", "3"], [""], ["", 2]])
def test_an_empty_string_is_not_a_decimal_integer(s):
    with pytest.raises(ValueError, match="holds a string that is not a decimal integer"):
        private_key_from_json(_base(s=s))


@pytest.mark.parametrize("s", [[1, -1, 3], ["1", -1, "3"]], ids=["ints", "mixed"])
def test_a_negative_int_entry_fails_the_digit_rule_before_perm(s):
    # an int entry reads as its decimal text, "-1", and the entries are
    # checked before perm's types
    with pytest.raises(ValueError, match="holds a string that is not a decimal integer"):
        private_key_from_json(_base(s=s, perm=[0, 1, True]))


def _raised(load, payload) -> type | None:
    try:
        load(payload)
    except Exception as exc:  # the type is what the test compares
        return type(exc)
    return None


@pytest.mark.parametrize("payload, expected", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_key_files_raise_what_the_reference_raises(payload, expected):
    assert _raised(reference_from_json, payload) is expected
    assert _raised(private_key_from_json, payload) is expected


def test_cca_transcript_keeps_result_bits_packed():
    rng = np.random.default_rng(17)
    key = PrivateKey(n=16, s=tuple(range(1, 12)))
    registry = KeyRegistry()
    key_id = registry.add(key, copy_cap=3)
    messages = [rng.integers(0, 2, size=11) for _ in range(3)]
    submissions = [
        (f"m{i}", encrypt(registry.issue_copy(key_id), m)) for i, m in enumerate(messages)
    ]
    session = chosen_ciphertext_session(key, 2, submissions, rng)
    for entry, message in zip(session.transcript[:2], messages):
        assert entry.packed_result == np.packbits(message.astype(np.uint8)).tobytes()
        assert entry.result == tuple(message.tolist())
        assert entry.to_record()["result"] == "".join(map(str, message.tolist()))
    refused = session.transcript[2]
    assert refused.packed_result is None and refused.result is None
    assert refused.to_record()["result"] is None
