"""One rule per protocol input.

Every entry point that takes a precision n applies quantum_core.check_precision,
every count or cap goes through quantum_core.check_integer, and every entry
point that takes message bits or rotation flags applies the protocol's one
bit-vector rule, so they all refuse and accept the same values.
"""

import argparse
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import register_indices

from qpke.attacks import (
    CPA_PRECISION_CAP,
    CPA_TOTAL_QUBIT_CAP,
    ENUMERATION_ALPHA_CAP,
    FORWARD_SEARCH_CHUNK,
    chosen_plaintext_distinguishability,
    enumerate_forward_search_success,
    run_forward_search,
    single_use_constraint_check,
)
from qpke.cli import ATTACKS, CCA_USES_CAP
from qpke.protocol import (
    MAX_KEY_LENGTH,
    CipherState,
    CopyCapExceededError,
    DecryptionOracle,
    KeyRegistry,
    OracleDeactivatedError,
    PrivateKey,
    QuantumRegister,
    apply_encryption_flags,
    decrypt,
    encode_redundant,
    encrypt,
    key_fingerprint,
    key_id_of,
    keygen,
    load_private_key,
    prepare_register,
    private_key_from_json,
    save_private_key,
    swap_test_encrypted_copies,
    swap_test_registers,
)
from qpke.quantum_core import MAX_PRECISION_BITS, check_integer, check_precision
from qpke.security_analysis import (
    ENSEMBLE_ENUMERATION_CAP,
    MI_COPIES_CAP,
    MI_PRECISION_CAP,
    MI_TRIALS_CAP,
    KeyParams,
    MeasurementStrategy,
    ensemble_density_method,
    estimate_mutual_information,
    shifted_ensemble,
    shifted_ensembles,
)


def _rng():
    return np.random.default_rng(11)


# name -> (call with precision n, upper bound of n)
PRECISION_ENTRY_POINTS = {
    "check_precision": (check_precision, MAX_PRECISION_BITS),
    "PrivateKey": (lambda n: PrivateKey(n=n, s=(0,)), MAX_PRECISION_BITS),
    "keygen": (lambda n: keygen(n, 1, rng=_rng()), MAX_PRECISION_BITS),
    "keygen-range": (lambda n: keygen((n, n), 1, rng=_rng()), MAX_PRECISION_BITS),
    "run_forward_search": (
        lambda n: run_forward_search(1, 1, _rng(), precision=n), MAX_PRECISION_BITS
    ),
    "chosen_plaintext_distinguishability": (
        lambda n: chosen_plaintext_distinguishability(n, (0,), (1,)), CPA_PRECISION_CAP
    ),
    "single_use_constraint_check": (
        lambda n: single_use_constraint_check(1, _rng(), precision=n, index_offsets=(0,)),
        MAX_PRECISION_BITS,
    ),
    "estimate_mutual_information": (
        lambda n: estimate_mutual_information(MeasurementStrategy.fixed(), n, 1, 2, _rng()),
        MI_PRECISION_CAP,
    ),
    "shifted_ensemble": (shifted_ensemble, ENSEMBLE_ENUMERATION_CAP),
    # every precision is checked, not only the largest
    "shifted_ensembles": (lambda n: shifted_ensembles((2, n), (0.0,)), ENSEMBLE_ENUMERATION_CAP),
}


@pytest.mark.parametrize("entry", PRECISION_ENTRY_POINTS)
@pytest.mark.parametrize("n", [True, 3.0, np.int64(3)], ids=["bool", "float", "int64"])
def test_precision_must_be_a_plain_int(entry, n):
    call, _ = PRECISION_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match="integer"):
        call(n)


@pytest.mark.parametrize("entry", PRECISION_ENTRY_POINTS)
@pytest.mark.parametrize("offset", [0, 1], ids=["zero", "cap+1"])
def test_precision_outside_one_to_cap_is_refused(entry, offset):
    call, cap = PRECISION_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="precision"):
        call(offset * (cap + 1))


@pytest.mark.parametrize("entry", PRECISION_ENTRY_POINTS)
def test_precision_bounds_are_accepted(entry):
    call, cap = PRECISION_ENTRY_POINTS[entry]
    call(1)
    call(cap)


@pytest.mark.parametrize(
    "precision",
    [("a", 5), (None, 5), (5, "a"), (5, None)],
    ids=["str n_l", "None n_l", "str n_u", "None n_u"],
)
def test_precision_range_ends_must_be_plain_ints(precision):
    # each end is type-checked before the two are compared
    with pytest.raises(TypeError, match="integer"):
        keygen(precision, 1, rng=_rng())


@pytest.mark.parametrize(
    "precision", [(5, 4), (1, 2, 3), (5,)], ids=["reversed", "three ends", "one end"]
)
def test_precision_range_must_be_an_ordered_pair(precision):
    with pytest.raises(ValueError, match="precision range"):
        keygen(precision, 1, rng=_rng())


def _public_key():
    return keygen(40, 2, rng=_rng())[1]


def _cli_args(**flags):
    return argparse.Namespace(**{"n": 8, "N": 2, "alpha": 1, "k": 4, **flags})


# name -> (call with one count, least value, greatest value or None)
COUNT_ENTRY_POINTS = {
    "check_integer": (lambda v: check_integer(v, "value", 1, 9), 1, 9),
    "keygen N": (lambda v: keygen(40, v, rng=_rng()), 1, MAX_KEY_LENGTH),
    "CipherState num_bits": (
        lambda v: CipherState(QuantumRegister.of_computational([0, 0]), num_bits=v, alpha=1),
        1,
        None,
    ),
    "CipherState alpha": (
        lambda v: CipherState(QuantumRegister.of_computational([0, 0]), num_bits=1, alpha=v),
        1,
        None,
    ),
    "encode_redundant alpha": (lambda v: encode_redundant(1, v, _rng()), 1, None),
    "apply_encryption_flags alpha": (
        lambda v: apply_encryption_flags(_public_key(), [1], alpha=v), 1, None
    ),
    "encrypt alpha": (lambda v: encrypt(_public_key(), [1], alpha=v, rng=_rng()), 1, None),
    "KeyRegistry.add copy_cap": (
        lambda v: KeyRegistry().add(PrivateKey(n=4, s=(1,)), copy_cap=v), 1, None
    ),
    "DecryptionOracle uses_allowed": (
        lambda v: DecryptionOracle(PrivateKey(n=4, s=(1,)), uses_allowed=v), 1, None
    ),
    "run_forward_search alpha": (
        lambda v: run_forward_search(v, 1, _rng(), precision=4), 1, FORWARD_SEARCH_CHUNK
    ),
    "run_forward_search trials": (lambda v: run_forward_search(1, v, _rng()), 1, None),
    "enumerate_forward_search_success alpha": (
        lambda v: enumerate_forward_search_success(v, "parity-aware"), 1, ENUMERATION_ALPHA_CAP
    ),
    "chosen_plaintext_distinguishability alpha": (
        lambda v: chosen_plaintext_distinguishability(4, (0,), (1,), alpha=v), 1, None
    ),
    "single_use_constraint_check trials": (
        lambda v: single_use_constraint_check(v, _rng(), index_offsets=(0,)), 1, None
    ),
    # every offset is checked, before any trial runs; default precision 3
    "single_use_constraint_check index offset": (
        lambda v: single_use_constraint_check(1, _rng(), index_offsets=(0, v)), 0, 7
    ),
    "KeyParams n_l": (lambda v: KeyParams(v, 62, 1, 1), 1, None),
    "KeyParams n_u": (lambda v: KeyParams(3, v, 1, 1), 3, None),
    "KeyParams N": (lambda v: KeyParams(1, 1, v, 1), 1, None),
    "KeyParams k": (lambda v: KeyParams(1, 1, 1, v), 0, None),
    "ensemble_density_method n": (ensemble_density_method, 1, None),
    "estimate_mutual_information copies": (
        lambda v: estimate_mutual_information(MeasurementStrategy.fixed(), 1, v, 2, _rng()),
        1,
        MI_COPIES_CAP,
    ),
    "estimate_mutual_information trials": (
        lambda v: estimate_mutual_information(MeasurementStrategy.fixed(), 1, 1, v, _rng()),
        2,
        MI_TRIALS_CAP,
    ),
    "attack cpa --N": (lambda v: ATTACKS["cpa"](_cli_args(N=v), 0), 1, CPA_TOTAL_QUBIT_CAP),
    "attack cca --k": (lambda v: ATTACKS["cca"](_cli_args(k=v), 0), 1, CCA_USES_CAP),
}


def _count_bounds(entry):
    """(value, expected message) for lo - 1 and, when there is one, hi + 1."""
    _, lo, hi = COUNT_ENTRY_POINTS[entry]
    if hi is None:
        return [(lo - 1, f"must be at least {lo}, got {lo - 1}")]
    return [(v, f"must be in [{lo}, {hi}], got {v}") for v in (lo - 1, hi + 1)]


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize(
    "value",
    [True, 1.5, 2.0, np.int64(2), math.nan, math.inf],
    ids=["bool", "fraction", "float", "int64", "nan", "inf"],
)
def test_count_must_be_a_plain_int(entry, value):
    call, _, _ = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_outside_its_range_is_refused(entry):
    call, _, _ = COUNT_ENTRY_POINTS[entry]
    for value, message in _count_bounds(entry):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_count_bounds_are_accepted(entry):
    call, lo, hi = COUNT_ENTRY_POINTS[entry]
    call(lo)
    if hi is not None:
        call(hi)


def test_single_use_check_needs_an_offset():
    with pytest.raises(ValueError, match="at least one offset"):
        single_use_constraint_check(1, _rng(), index_offsets=())
    with pytest.raises(ValueError, match="at least one offset"):
        single_use_constraint_check(1, _rng(), index_offsets=iter(()))


def test_precision_keeps_its_messages():
    with pytest.raises(TypeError, match=re.escape("precision n must be an integer, got 3.0")):
        check_precision(3.0)
    with pytest.raises(ValueError, match=re.escape("precision n must be in [1, 12], got 13")):
        check_precision(13, cap=12)


@settings(max_examples=32, deadline=None)
@given(cap=st.integers(1, 32))
def test_exactly_cap_copies_and_decryptions_succeed(cap):
    key = PrivateKey(n=4, s=(1,))
    registry = KeyRegistry()
    key_id = registry.add(key, copy_cap=cap)
    oracle = DecryptionOracle(key, uses_allowed=cap)
    rng = _rng()
    for _ in range(cap):
        registry.issue_copy(key_id)
        decrypt(oracle, CipherState(prepare_register(key), num_bits=1, alpha=1), rng)
    assert registry.issued_count(key_id) == cap and oracle.remaining_uses == 0
    with pytest.raises(CopyCapExceededError):
        registry.issue_copy(key_id)
    with pytest.raises(OracleDeactivatedError):
        decrypt(oracle, CipherState(prepare_register(key), num_bits=1, alpha=1), rng)


def _encrypt(bit):
    key, public = keygen(40, 2, rng=_rng())
    cipher = encrypt(public, [bit, 0])
    return decrypt(DecryptionOracle(key, 1), cipher, _rng())[0]


def _apply_bit_rotations(bit):
    register = QuantumRegister.of_computational([0, 0])
    register.apply_bit_rotations([bit, 0])
    return register.measure_z(0, _rng())


def _swap_test_encrypted_copies(bit):
    # flag 0 always passes; flag 1 fails half the time, so 64 rows tell them apart
    passes = swap_test_encrypted_copies(PrivateKey(n=4, s=(3,)), [[bit]] * 64, _rng())
    return tuple(passes[:, 0].tolist())


# name -> call with one bit value, returning what that bit produced
BIT_ENTRY_POINTS = {
    "encrypt": _encrypt,
    "encode_redundant": lambda bit: encode_redundant(bit, 1, None),
    "apply_bit_rotations": _apply_bit_rotations,
    "of_computational": lambda bit: QuantumRegister.of_computational([bit, 0]).measure_z(0, _rng()),
    "swap_test_encrypted_copies": _swap_test_encrypted_copies,
    "chosen_plaintext_distinguishability": (
        lambda bit: chosen_plaintext_distinguishability(4, (bit, 0), (0, 0)).message_0
    ),
}


@pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
@pytest.mark.parametrize("value", [0.5, 1.7, 2, -1, "1"])
def test_non_bits_are_refused_not_truncated(entry, value):
    with pytest.raises(ValueError, match="0 or 1"):
        BIT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", BIT_ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, 1.0, np.int64(1)], ids=["bool", "float", "int64"])
def test_values_equal_to_one_count_as_one(entry, value):
    call = BIT_ENTRY_POINTS[entry]
    assert call(value) == call(1)
    assert call(1) != call(0)


def test_fractional_bits_are_refused_rather_than_truncated():
    _, public = keygen(40, 2, rng=_rng())
    with pytest.raises(ValueError, match="0 or 1"):
        encrypt(public, [0.5, 1.7])
    with pytest.raises(ValueError, match="0 or 1"):
        QuantumRegister.of_computational([0, 0]).apply_bit_rotations([1.7, 0.2])
    for message in ((0.5,), (1.9,)):
        with pytest.raises(ValueError, match="0 or 1"):
            chosen_plaintext_distinguishability(4, message, (0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: encrypt(keygen(40, 2, rng=_rng())[1], [[0, 1]]),
        lambda: encode_redundant([0, 1], 1, None),
        lambda: QuantumRegister.of_computational([[0, 1]]),
        lambda: chosen_plaintext_distinguishability(4, [[0, 1]], [[0, 1]]),
    ],
    ids=["encrypt", "encode_redundant", "of_computational", "cpa"],
)
def test_nested_bit_vectors_are_refused(call):
    with pytest.raises(ValueError):
        call()


# name -> (call on a two-qubit public-key copy, the message of its refusal)
FLAG_VECTOR_FAULTS = {
    "apply_encryption_flags matrix": (
        lambda pk: apply_encryption_flags(pk, np.array([[1, 0], [0, 1]]), 2), "must be flat"
    ),
    "apply_bit_rotations nested": (lambda pk: pk.register.apply_bit_rotations([[1]]), "must be flat"),
    "apply_encryption_flags empty": (lambda pk: apply_encryption_flags(pk, []), "at least one flag"),
    "apply_bit_rotations empty": (lambda pk: pk.register.apply_bit_rotations([]), "at least one flag"),
    "apply_encryption_flags alpha": (
        lambda pk: apply_encryption_flags(pk, [1], 2), "not a multiple of alpha"
    ),
    "apply_encryption_flags long": (lambda pk: apply_encryption_flags(pk, [1, 0, 1]), "longer"),
    "apply_bit_rotations long": (lambda pk: pk.register.apply_bit_rotations([1, 0, 1]), "longer"),
}


@pytest.mark.parametrize("entry", FLAG_VECTOR_FAULTS)
def test_flag_vector_faults_are_refused_before_the_register_turns(entry):
    call, message = FLAG_VECTOR_FAULTS[entry]
    key, public = keygen(40, 2, rng=_rng())
    with pytest.raises(ValueError, match=message):
        call(public)
    assert register_indices(public.register, key.n) == key.s
    # a refused encryption leaves the copy free to carry one
    cipher = apply_encryption_flags(public, [1, 0])
    assert decrypt(DecryptionOracle(key, 1), cipher, _rng()) == (1, 0)


# name -> call with a qubit position on register a or b of two exact registers
QUBIT_POSITION_ENTRY_POINTS = {
    "apply_rotation": lambda a, b, q: a.apply_rotation(q, 0.3),
    "measure_z": lambda a, b, q: a.measure_z(q, _rng()),
    "swap_test_registers first": lambda a, b, q: swap_test_registers(a, q, b, 1, _rng()),
    "swap_test_registers second": lambda a, b, q: swap_test_registers(a, 0, b, q, _rng()),
}


@pytest.mark.parametrize("entry", QUBIT_POSITION_ENTRY_POINTS)
@pytest.mark.parametrize(
    "position", [0.0, 1.5, True, np.True_], ids=["0.0", "1.5", "True", "np.True_"]
)
def test_non_integer_qubit_positions_are_refused_before_any_qubit_changes(entry, position):
    key = PrivateKey(n=8, s=(5, 9))
    registers = prepare_register(key), prepare_register(key)
    with pytest.raises(TypeError, match="qubit position must be an integer"):
        QUBIT_POSITION_ENTRY_POINTS[entry](*registers, position)
    for register in registers:
        assert register_indices(register, 8) == (5, 9)


@pytest.mark.parametrize("entry", QUBIT_POSITION_ENTRY_POINTS)
def test_numpy_integer_qubit_positions_act_as_their_ints(entry):
    key = PrivateKey(n=8, s=(5, 9))
    states = []
    for position in (1, np.int64(1)):
        # the same draws, so both positions must leave the same state
        registers = prepare_register(key), prepare_register(key)
        result = QUBIT_POSITION_ENTRY_POINTS[entry](*registers, position)
        states.append((result, [(r._indices.tolist(), sorted(r._groups)) for r in registers]))
    assert states[0] == states[1]


def _register_state(register):
    """Indices, group map and group amplitudes: everything a refusal must keep."""
    return (
        register._indices.tolist(),
        {pos: id(group) for pos, group in register._groups.items()},
        {pos: group.amps.tobytes() for pos, group in register._groups.items()},
    )


def _grouped_registers():
    """Two registers whose qubits 1 share an amplitude group, qubits 0 exact."""
    key = PrivateKey(n=8, s=(5, 9))
    a, b = prepare_register(key), prepare_register(key)
    a.apply_rotation(1, 0.3)
    swap_test_registers(a, 1, b, 1, _rng())
    return a, b


@pytest.mark.parametrize("entry", QUBIT_POSITION_ENTRY_POINTS)
@pytest.mark.parametrize("position", [2, -1, 1 << 70])
def test_out_of_range_qubit_positions_are_refused_before_any_qubit_changes(entry, position):
    registers = _grouped_registers()
    before = [_register_state(r) for r in registers]
    with pytest.raises(ValueError, match=f"qubit {position} out of range for 2 qubits"):
        QUBIT_POSITION_ENTRY_POINTS[entry](*registers, position)
    assert [_register_state(r) for r in registers] == before


@pytest.mark.parametrize("qubit", [0, 1], ids=["exact", "grouped"])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_rotation_angles_are_refused(qubit, theta):
    registers = _grouped_registers()
    before = [_register_state(r) for r in registers]
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        registers[0].apply_rotation(qubit, theta)
    assert [_register_state(r) for r in registers] == before


def test_registers_are_not_built_directly():
    with pytest.raises(TypeError, match="use prepare_register"):
        QuantumRegister()


def test_oracle_keeps_its_use_budget():
    key = PrivateKey(n=4, s=(1,))
    oracle = DecryptionOracle(key, uses_allowed=3)
    decrypt(oracle, CipherState(prepare_register(key), num_bits=1, alpha=1), _rng())
    assert (oracle.uses_allowed, oracle.remaining_uses) == (3, 2)


# key fields given as arrays: a 1-D int64 array is checked by its dtype, any
# other array is refused with the message of a non-integer entry
KEY_ARRAYS_OF_ANOTHER_KIND = {
    "bool": np.array([True, False]),
    "float": np.array([1.0, 0.0]),
    "int32": np.array([1, 0], dtype=np.int32),
    "uint64": np.array([1, 0], dtype=np.uint64),
    "object": np.array([1, 0], dtype=object),
    "2-D": np.array([[1, 0]], dtype=np.int64),
}


@pytest.mark.parametrize("field", ["s", "perm"])
@pytest.mark.parametrize(
    "values", KEY_ARRAYS_OF_ANOTHER_KIND.values(), ids=KEY_ARRAYS_OF_ANOTHER_KIND.keys()
)
def test_key_arrays_other_than_int64_vectors_are_refused(field, values):
    fields = {"s": (1, 0), "perm": (1, 0), field: values}
    with pytest.raises(TypeError, match="key indices and perm entries must be integers"):
        PrivateKey(n=3, **fields)


def test_int64_key_arrays_are_accepted_as_their_tuples():
    s = np.array([5, 0, 7], dtype=np.int64)
    perm = np.array([2, 0, 1], dtype=np.int64)
    key = PrivateKey(n=3, s=s, perm=perm)
    from_tuples = PrivateKey(n=3, s=(5, 0, 7), perm=(2, 0, 1))
    assert key == from_tuples and hash(key) == hash(from_tuples)
    assert repr(key) == repr(from_tuples)
    assert all(type(v) is int for v in key.s + key.perm)
    # the key holds its own copy of the entries
    s[:] = 1
    perm[:] = 0
    assert key.s == (5, 0, 7) and key.perm == (2, 0, 1)
    assert register_indices(prepare_register(key), 3) == register_indices(
        prepare_register(from_tuples), 3
    )


_OUTSIDE = "key index outside [0, 2**3)"
_NOT_PERM = "perm must be a permutation of the qubit positions"

# the same entries in every ordered form a key field accepts
ORDERED_KEY_FORMS = {
    "tuple": tuple,
    "list": list,
    "range": lambda values: range(values[0], values[0] + len(values)),
    "int64 array": lambda values: np.array(values, dtype=np.int64),
}


@pytest.mark.parametrize("field", ["s", "perm"])
@pytest.mark.parametrize("form", ORDERED_KEY_FORMS)
def test_ordered_key_forms_make_one_key(field, form, tmp_path):
    # consecutive entries, so that a range can spell them
    fields = {"s": (3, 4, 5), "perm": (0, 1, 2)}
    given = {**fields, field: ORDERED_KEY_FORMS[form](fields[field])}
    key, from_tuples = PrivateKey(n=3, **given), PrivateKey(n=3, **fields)
    assert type(key.s) is tuple and type(key.perm) is tuple
    assert key == from_tuples and hash(key) == hash(from_tuples)
    assert key_id_of(key) == key_id_of(from_tuples)
    assert key_fingerprint(key) == key_fingerprint(from_tuples)
    save_private_key(key, tmp_path / "given.json")
    save_private_key(from_tuples, tmp_path / "tuples.json")
    assert (tmp_path / "given.json").read_bytes() == (tmp_path / "tuples.json").read_bytes()
    assert load_private_key(tmp_path / "given.json") == key
    KeyRegistry().add(key)


@pytest.mark.parametrize("field", ["s", "perm"])
@pytest.mark.parametrize(
    "unordered", [set, frozenset, dict.fromkeys], ids=["set", "frozenset", "dict"]
)
def test_unordered_key_fields_are_refused(field, unordered):
    fields = {"s": (1, 0), "perm": (1, 0), field: unordered((1, 0))}
    with pytest.raises(TypeError, match="key indices and perm entries must be integers"):
        PrivateKey(n=3, **fields)


# name -> (fields replacing s = [1, 0], the message today's tuple form raises)
KEY_ARRAY_VALUE_FAULTS = {
    "empty s": ({"s": np.array([], dtype=np.int64)}, "at least one index"),
    "index 2**n": ({"s": np.array([8, 0])}, _OUTSIDE),
    "negative index": ({"s": np.array([-1, 0])}, _OUTSIDE),
    "duplicate perm": ({"perm": np.array([0, 0])}, _NOT_PERM),
    "perm out of range": ({"perm": np.array([0, 2])}, _NOT_PERM),
    "negative perm": ({"perm": np.array([-1, 0])}, _NOT_PERM),
    "perm of the wrong length": ({"perm": np.array([0])}, _NOT_PERM),
}


@pytest.mark.parametrize(
    "fields, message", KEY_ARRAY_VALUE_FAULTS.values(), ids=KEY_ARRAY_VALUE_FAULTS.keys()
)
def test_key_array_values_are_refused_as_their_tuples_are(fields, message):
    as_arrays = {"s": np.array([1, 0]), **fields}
    as_tuples = {name: tuple(values.tolist()) for name, values in as_arrays.items()}
    for form in (as_arrays, as_tuples):
        with pytest.raises(ValueError, match=re.escape(message)):
            PrivateKey(n=3, **form)


def test_perm_beyond_int64_is_a_value_error():
    with pytest.raises(ValueError, match=re.escape(_NOT_PERM)):
        PrivateKey(n=3, s=(1, 0), perm=(0, 2**64))
    with pytest.raises(ValueError, match=re.escape(_NOT_PERM)):
        private_key_from_json({"version": 1, "n": 3, "s": ["1", "0"], "perm": [0, 2**64]})
