"""One rule per protocol input.

Every entry point that takes a precision n applies quantum_core.check_precision,
and every entry point that takes message bits or rotation flags applies the
protocol's one bit-vector rule, so they all refuse and accept the same values.
"""

import numpy as np
import pytest

from qpke.attacks import CPA_PRECISION_CAP, chosen_plaintext_distinguishability, run_forward_search
from qpke.protocol import (
    DecryptionOracle,
    PrivateKey,
    QuantumRegister,
    decrypt,
    encode_redundant,
    encrypt,
    keygen,
    swap_test_encrypted_copies,
)
from qpke.quantum_core import MAX_PRECISION_BITS, AngleIndex, check_precision
from qpke.security_analysis import MI_PRECISION_CAP, MeasurementStrategy, estimate_mutual_information


def _rng():
    return np.random.default_rng(11)


# name -> (call with precision n, upper bound of n)
PRECISION_ENTRY_POINTS = {
    "check_precision": (check_precision, MAX_PRECISION_BITS),
    "AngleIndex": (lambda n: AngleIndex(0, n), MAX_PRECISION_BITS),
    "PrivateKey": (lambda n: PrivateKey(n=n, s=(0,)), MAX_PRECISION_BITS),
    "keygen": (lambda n: keygen(n, 1, rng=_rng()), MAX_PRECISION_BITS),
    "keygen-range": (lambda n: keygen((n, n), 1, rng=_rng()), MAX_PRECISION_BITS),
    "run_forward_search": (
        lambda n: run_forward_search(1, 1, _rng(), precision=n), MAX_PRECISION_BITS
    ),
    "chosen_plaintext_distinguishability": (
        lambda n: chosen_plaintext_distinguishability(n, (0,), (1,)), CPA_PRECISION_CAP
    ),
    "estimate_mutual_information": (
        lambda n: estimate_mutual_information(MeasurementStrategy.fixed(), n, 1, 2, _rng()),
        MI_PRECISION_CAP,
    ),
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
