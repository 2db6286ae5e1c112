"""Key generation, encryption, and decryption over rotation-indexed qubits.

A private key is the classical tuple (n, s_1..s_N, optional permutation);
the matching public key is a register of N qubits, qubit pi(j) prepared in
the state with exact rotation index s_j at precision n.  Encryption flips
qubits by R(pi) according to a parity-redundant encoding of the message;
decryption undoes the secret rotations and reads the z basis.

Registers are opaque: holders may rotate, measure, and run symmetry tests,
and no public path reads a qubit's state back.  Only the classical private
key, through the decryption device, undoes the secret rotations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import stat
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .quantum_core import (
    MAX_PRECISION_BITS,
    INDEX_SNAP_STEPS,
    check_integer,
    check_precision,
    draws_outcome_zero,
    index_amplitudes,
    measure_axis,
    outcome_one_probability,
    rotate_axis,
    sample_outcome,
    swap_parts,
    swap_project,
)

DEFAULT_KEY_LENGTH = 256
DEFAULT_COPY_CAP = 16
RECOMMENDED_MIN_PRECISION = 32
KEY_FILE_VERSION = 1
# largest amplitude group a symmetry test may build: 2**20 float64
# amplitudes, 8 MB, before the projection's temporary copies
MAX_GROUP_QUBITS = 20
# longest key keygen draws: 8 MB of int64 indices, far above any length used
MAX_KEY_LENGTH = 1 << 20


class LowPrecisionWarning(UserWarning):
    """Key generated with precision n below the recommended minimum."""


class MessageTooLongError(ValueError):
    """Message needs more qubits than the public key provides."""


class CopyCapExceededError(RuntimeError):
    """Public-key copy issuance attempted beyond the configured cap."""


class OracleDeactivatedError(RuntimeError):
    """Decryption attempted after the device exhausted its allowed uses."""


def _bit_array(values, name: str) -> np.ndarray:
    """The one bit-vector rule: values as int64, each equal to 0 or 1 (True, 1.0
    and np.int64(1) count as 1); 0.5, 1.7, 2, -1 and "1" are refused, never truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf" or not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} must be 0 or 1")
    return arr.astype(np.int64, copy=False)


def _flag_vector(flags, qubit_count: int, alpha: int = 1) -> np.ndarray:
    """The one flag-vector rule, applied before any qubit turns: a flat,
    non-empty bit vector whose length is a multiple of alpha and fits the register."""
    arr = _bit_array(flags, "flags")
    if arr.ndim != 1:
        raise ValueError(f"flag vector must be flat, got shape {arr.shape}")
    if not arr.size:
        raise ValueError("flag vector must hold at least one flag")
    if arr.size % alpha:
        raise ValueError(f"flag vector length {arr.size} is not a multiple of alpha = {alpha}")
    if arr.size > qubit_count:
        raise MessageTooLongError(
            f"flag vector of {arr.size} flags is longer than the register of {qubit_count} qubits"
        )
    return arr


# --- classical key material ---


_NOT_PERM = "perm must be a permutation of the qubit positions"


def _entry_array(values) -> np.ndarray | None:
    """The one rule for the entries of s and perm: a 1-D int64 array, checked
    by its dtype and copied, or an ordered sequence of plain ints, checked
    entry by entry, as a read-only int64 array; None if a plain int is beyond
    int64, which the field's own range check then refuses.  A bool or numpy
    integer entry would make a key file that cannot be saved or loaded, and a
    set or dict has no order to keep."""
    if isinstance(values, np.ndarray):
        if values.dtype != np.int64 or values.ndim != 1:
            raise TypeError("key indices and perm entries must be integers")
        arr = values.copy()
    elif not isinstance(values, (set, frozenset, dict)) and set(map(type, values)) <= {int}:
        try:
            arr = np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:
            return None
    else:
        raise TypeError("key indices and perm entries must be integers")
    arr.flags.writeable = False
    return arr


def _decimal_text(values: tuple[int, ...]) -> str:
    """Plain ints as comma-joined decimal text, in one C-level format ("%d" of
    a plain int is its str)."""
    return ("%d," * len(values) % values)[:-1]


@dataclass(frozen=True)
class PrivateKey:
    """Classical key: precision n, indices s_1..s_N, optional permutation.

    s and perm may be given as ordered sequences of plain ints (a tuple,
    list or range) or as 1-D int64 arrays; any of them but a tuple becomes
    its tuple.  A set, frozenset or dict is refused.  Everything derived
    from the key (placed indices, decimal texts, hashes, symmetry-test
    weights) is a cached property, built once per key.
    """

    n: int
    s: tuple[int, ...]
    perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_precision(self.n)
        if len(self.s) < 1:
            raise ValueError("key must contain at least one index")
        arr = _entry_array(self.s)
        perm = None if self.perm is None else _entry_array(self.perm)
        # the arithmetic shift leaves a negative index nonzero too
        if arr is None or (arr >> self.n).any():
            raise ValueError(f"key index outside [0, 2**{self.n})")
        if self.perm is not None:
            N = arr.size
            if (
                perm is None
                or perm.size != N
                or perm.min() < 0
                or perm.max() >= N
                or np.bincount(perm, minlength=N).max() > 1
            ):
                raise ValueError(_NOT_PERM)
        # a list, range or array becomes its tuple, so that equal entries
        # make equal, hashable keys
        for field, entries in (("s", arr), ("perm", perm)):
            if entries is not None and type(getattr(self, field)) is not tuple:
                object.__setattr__(self, field, tuple(entries.tolist()))
        object.__setattr__(self, "_index_array", arr)
        object.__setattr__(self, "_perm_array", perm)

    @property
    def length(self) -> int:
        """Number of qubits N in the matching public key."""
        return len(self.s)

    # cached_property writes the instance __dict__ directly, past the frozen
    # dataclass's __setattr__; the fields stay the only compared state

    @cached_property
    def _placed_indices(self) -> np.ndarray:
        """Read-only rotation index prepared at each register position (perm applied)."""
        if self._perm_array is None:
            return self._index_array
        placed = np.empty_like(self._index_array)
        placed[self._perm_array] = self._index_array
        placed.flags.writeable = False
        return placed

    @cached_property
    def _s_text(self) -> str:
        return _decimal_text(self.s)

    @cached_property
    def _perm_text(self) -> str:
        return _decimal_text(self.perm)

    @cached_property
    def _canonical_bytes(self) -> bytes:
        """json.dumps(private_key_to_json(key), sort_keys=True, separators=(",", ":"))."""
        perm = "" if self.perm is None else f'"perm":[{self._perm_text}],'
        s = self._s_text.replace(",", '","')
        return f'{{"n":{self.n},{perm}"s":["{s}"],"version":{KEY_FILE_VERSION}}}'.encode()

    @cached_property
    def _pair_weights(self) -> np.ndarray:
        """Pass and fail weights (2, N, 2) of swap_test_encrypted_copies'
        2 * N distinct pairs: qubit q of a fresh copy turned by flag * pi
        (flag 0 or 1, the last axis) against qubit q of another fresh copy."""
        period = 1 << self.n
        fresh = self._placed_indices
        # a qubit of the encrypted copy is in one of two states, flag 0 or 1
        shifted = (fresh[:, np.newaxis] + np.array([0, period >> 1])) % period
        cipher = index_amplitudes(shifted, self.n)
        # flag 0 leaves the index as it is: the reference is the flag-0 column
        reference = cipher[:, 0]
        pairs = cipher[:, :, :, np.newaxis] * reference[:, np.newaxis, np.newaxis, :]
        parts = np.stack(swap_parts(pairs, 2, 3)).reshape(-1, 4)
        return np.einsum("bi,bi->b", parts, parts).reshape(2, fresh.size, 2)


def private_key_to_json(key: PrivateKey) -> dict:
    """Serializable form; indices as decimal strings to stay bit-exact."""
    payload: dict = {
        "version": KEY_FILE_VERSION,
        "n": key.n,
        "s": [str(v) for v in key.s],
    }
    if key.perm is not None:
        payload["perm"] = list(key.perm)
    return payload


def _is_decimal_list(text: str, count: int) -> bool:
    """text is count nonempty runs of ASCII digits joined by single commas."""
    return (
        text.isascii()
        # count - 1 commas join count strings, so no string holds a comma
        and text.count(",") == count - 1
        and not text.encode().translate(None, b"0123456789,")
        and ",," not in text
        # "" has a digit at neither end
        and text[:1].isdigit()
        and text[-1:].isdigit()
    )


_LEADING_ZERO = re.compile(",0[0-9]")


def private_key_from_json(payload: dict) -> PrivateKey:
    """Inverse of private_key_to_json; rejects any field of the wrong type."""
    if not isinstance(payload, dict):
        raise TypeError("key file must hold a JSON object")
    # true and 1.0 equal 1 but are not the version
    if type(version := payload.get("version")) is not int or version != KEY_FILE_VERSION:
        raise ValueError(f"unsupported key file version {version!r}")
    n, s, perm = payload.get("n"), payload.get("s"), payload.get("perm")
    if not isinstance(s, list) or not (kinds := set(map(type, s))) <= {int, str}:
        raise TypeError("key file field 's' must be a list of integers or decimal strings")
    # an int entry reads as its decimal text, so every entry takes one parse
    text = ",".join(map(str, s) if int in kinds else s)
    # an empty s is left to the key's own check
    if s and not _is_decimal_list(text, len(s)):
        raise ValueError("key file field 's' holds a string that is not a decimal integer")
    if "perm" in payload and not (isinstance(perm, list) and set(map(type, perm)) <= {int}):
        raise TypeError("key file field 'perm' must be a list of integers")
    # strtoll saturates an entry beyond int64 at 2**63 - 1, which no
    # precision up to MAX_PRECISION_BITS = 62 admits
    values = np.fromstring(text, dtype=np.int64, sep=",")
    key = PrivateKey(n=n, s=values, perm=None if perm is None else tuple(perm))
    if not (text.startswith("0") and text[1:2].isdigit() or _LEADING_ZERO.search(text)):
        # without leading zeros the file's own digits are the key's decimal
        # text: the one value written into a key from outside its class
        key.__dict__["_s_text"] = text
    return key


@contextmanager
def _rewrite(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """UTF-8 text handle that overwrites path in place, the one way the
    package writes a file.  The file is opened without truncation and, on
    exit, cut at the written length, so it ends with the same bytes as after
    open(path, "w")."""
    # on ext4 (auto_da_alloc) closing a file truncated to zero starts its
    # writeback; overwriting in place and cutting at length does not
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        finally:
            handle.flush()
            # ftruncate refuses devices such as /dev/null
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def save_private_key(key: PrivateKey, path: str | Path) -> None:
    """Write json.dumps(private_key_to_json(key), indent=2) plus a newline."""
    parts = [
        f'{{\n  "version": {KEY_FILE_VERSION},\n  "n": {key.n},\n  "s": [\n    "',
        key._s_text.replace(",", '",\n    "'),
        '"\n  ]',
    ]
    if key.perm is not None:
        parts += [',\n  "perm": [\n    ', key._perm_text.replace(",", ",\n    "), "\n  ]"]
    parts.append("\n}\n")
    with _rewrite(path) as handle:
        handle.write("".join(parts))


def load_private_key(path: str | Path) -> PrivateKey:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("key file nests too deeply to be a key") from None
    return private_key_from_json(payload)


def key_id_of(key: PrivateKey) -> str:
    """Short stable identifier; reveals nothing beyond a hash."""
    return hashlib.sha256(b"qpke:key-id:" + key._canonical_bytes).hexdigest()[:16]


def key_fingerprint(key: PrivateKey) -> str:
    """Full-length hash of the key material, safe to publish."""
    return hashlib.sha256(b"qpke:fingerprint:" + key._canonical_bytes).hexdigest()


# --- simulated qubit storage ---
#
# Every register qubit has an exact rotation index at the register's
# precision (the protocol path).  A float operation (a symmetry test, an
# off-grid rotation) moves a qubit into an amplitude group: the possibly
# entangled state of every qubit such operations have coupled, an amplitude
# tensor with one axis per member.  A group lists its members as (register,
# position) pairs in axis order and may span registers, which is how symmetry
# tests entangle a ciphertext qubit with an adversary's public-key copy.  A
# qubit is exact if and only if it is in no group (a grouped qubit's index is
# stale); measuring a grouped qubit puts it back on the grid at its collapsed
# index.  The amplitude math is quantum_core's kernel.


class _Group:
    __slots__ = ("members", "amps")

    def __init__(self, members: list, amps: np.ndarray) -> None:
        self.members = members
        self.amps = amps


class QuantumRegister:
    """Opaque register of simulated qubits.

    Holders can count qubits, apply rotations, measure, and take part in
    symmetry tests.  Nothing on the public surface, repr included, reveals
    a qubit's rotation index or amplitudes.
    """

    def __init__(self) -> None:
        raise TypeError("use prepare_register or QuantumRegister.of_computational")

    @classmethod
    def _from_indices(cls, indices: Sequence[int], n: int) -> "QuantumRegister":
        reg = object.__new__(cls)
        reg._n = n
        reg._indices = np.array(indices, dtype=np.int64)
        reg._groups = {}
        reg._carries_cipher = False
        return reg

    @classmethod
    def of_computational(cls, bits: Sequence[int]) -> "QuantumRegister":
        """Register of unentangled z-basis states |b_0>...|b_k-1>."""
        arr = _bit_array(bits, "computational bits")
        if arr.ndim != 1 or not arr.size:
            raise ValueError("register needs a flat sequence of at least one bit")
        # at n = 1 index 1 is the half period, R(pi)|0> = |1>
        return cls._from_indices(arr, 1)

    def __repr__(self) -> str:
        return f"QuantumRegister(qubits={self.qubit_count})"

    @property
    def qubit_count(self) -> int:
        return self._indices.size

    def _check_qubit(self, qubit: int) -> None:
        """Refuse a position before any qubit changes: a bool, float or other
        non-integer would otherwise fail only when numpy indexes with it."""
        if isinstance(qubit, bool) or not isinstance(qubit, (int, np.integer)):
            raise TypeError(f"qubit position must be an integer, got {qubit!r}")
        if not 0 <= qubit < self.qubit_count:
            raise ValueError(f"qubit {qubit} out of range for {self.qubit_count} qubits")

    def _promote(self, qubit: int) -> _Group:
        """The qubit's amplitude group; an exact qubit first gets a group of
        its own (analysis/attack path)."""
        group = self._groups.get(qubit)
        if group is None:
            amps = index_amplitudes(self._indices[qubit], self._n)
            group = self._groups[qubit] = _Group([(self, qubit)], amps)
        return group

    def _rotate_amplitudes(self, qubit: int, theta: float) -> None:
        group = self._promote(qubit)
        group.amps = rotate_axis(group.amps, group.members.index((self, qubit)), theta)

    def _measure_grouped(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure a grouped qubit: it leaves its group for the index grid."""
        group = self._groups.pop(qubit)
        axis = group.members.index((self, qubit))
        outcome, _, group.amps = measure_axis(group.amps, axis, rng)
        del group.members[axis]
        self._indices[qubit] = outcome << (self._n - 1)
        return outcome

    def apply_rotation(self, qubit: int, theta: float) -> None:
        """Rotate one qubit by R(theta).

        An angle within INDEX_SNAP_STEPS (1e-9) steps of a multiple of the
        register's angular step pi / 2**(n-1) keeps an exact qubit on the
        index path; any other angle moves the qubit to floating-point
        amplitudes.  The snap is
        silent: a double holds only whole numbers from 2**52 up, so every
        finite angle of magnitude pi * 2**(53 - n) or more counts as a whole
        number of steps and snaps onto the grid: at n = 53 every angle of pi
        or more, at n = 62 every angle of pi / 2**9 or more.  An angle whose
        step count overflows a double takes the amplitude path.
        """
        self._check_qubit(qubit)
        if not math.isfinite(theta):
            raise ValueError("rotation angle must be finite")
        if qubit not in self._groups:
            ratio = theta / (math.pi * 2.0 ** (1 - self._n))
            if math.isfinite(ratio) and abs(ratio - round(ratio)) <= INDEX_SNAP_STEPS:
                period = 1 << self._n
                self._indices[qubit] = (int(self._indices[qubit]) + round(ratio)) % period
                return
        self._rotate_amplitudes(qubit, theta)

    def apply_bit_rotations(self, flags: Sequence[int]) -> None:
        """Apply R(flag * pi) across the leading qubits in one pass."""
        self._apply_index_steps(_flag_vector(flags, self.qubit_count), 1)

    def measure_z(self, qubit: int, rng: np.random.Generator) -> int:
        """Projective z measurement of one qubit; returns 0 or 1."""
        self._check_qubit(qubit)
        if qubit in self._groups:
            return self._measure_grouped(qubit, rng)
        p1 = float(outcome_one_probability(self._indices[qubit], self._n))
        outcome = sample_outcome([1.0 - p1, p1], rng)
        self._indices[qubit] = outcome << (self._n - 1)
        return outcome

    def _measure_all_z(self, rng: np.random.Generator) -> np.ndarray:
        """Measure every qubit in z; used by the decryption device."""
        p1 = outcome_one_probability(self._indices, self._n)
        u = rng.random(self.qubit_count)
        outcomes = (~draws_outcome_zero(1.0 - p1, p1, u)).astype(np.int64)
        self._indices = outcomes << (self._n - 1)
        for pos in sorted(self._groups):
            outcomes[pos] = self._measure_grouped(pos, rng)
        return outcomes

    def _apply_index_steps(self, steps: np.ndarray, step_precision: int) -> None:
        """Shift qubit j < steps.size by steps[j] units of pi / 2**(step_precision - 1).

        Steps must already be reduced, |steps[j]| < 2**step_precision.
        A register grid coarser than the step grid is refined first, exactly
        (index i at precision n is index i << d at precision n + d), so exact
        qubits stay exact; grouped qubits turn by the step angle.
        """
        length = steps.size
        if self._n < step_precision:
            self._indices <<= step_precision - self._n
            self._n = step_precision
        scaled = steps * (1 << (self._n - step_precision))
        self._indices[:length] = (self._indices[:length] + scaled) % (1 << self._n)
        for pos in self._groups:
            if pos < length and steps[pos]:
                theta = math.pi * (int(steps[pos]) / (1 << (step_precision - 1)))
                self._rotate_amplitudes(pos, theta)


@dataclass(frozen=True)
class PublicKey:
    """Quantum public key: an opaque register plus issuance metadata."""

    key_id: str
    N: int
    register: QuantumRegister
    copy_index: int


@dataclass(frozen=True)
class CipherState:
    """Encrypted message: the transformed register plus framing metadata."""

    register: QuantumRegister
    num_bits: int
    alpha: int

    def __post_init__(self) -> None:
        check_integer(self.num_bits, "num_bits")
        check_integer(self.alpha, "alpha")
        if self.num_bits * self.alpha > self.register.qubit_count:
            raise ValueError("message framing exceeds the register size")


# --- protocol operations ---


def prepare_register(key: PrivateKey) -> QuantumRegister:
    """Owner-side preparation of a fresh public-key register."""
    return QuantumRegister._from_indices(key._placed_indices, key.n)


def keygen(
    n: int | tuple[int, int],
    N: int = DEFAULT_KEY_LENGTH,
    *,
    permute: bool = False,
    rng: np.random.Generator,
) -> tuple[PrivateKey, PublicKey]:
    """Draw a fresh key pair.

    n may be a fixed precision or an inclusive range [n_l, n_u] to sample
    from.  Returns the classical private key and the owner's master public
    register (copy index 0); circulating copies go through KeyRegistry.
    """
    if isinstance(n, tuple):
        if len(n) != 2:
            raise ValueError(f"precision range must be a pair (n_l, n_u), got {len(n)} values")
        lo, hi = n
        check_integer(lo, "precision range n_l", 1, MAX_PRECISION_BITS)
        check_integer(hi, "precision range n_u", 1, MAX_PRECISION_BITS)
        if lo > hi:
            raise ValueError(f"precision range must satisfy n_l <= n_u, got ({lo}, {hi})")
        n = int(rng.integers(lo, hi + 1))
    check_precision(n)
    # checked before the draw, which a huge N cannot afford
    check_integer(N, "key length N", 1, MAX_KEY_LENGTH)
    if n < RECOMMENDED_MIN_PRECISION:
        warnings.warn(
            f"precision n={n} is below the recommended minimum "
            f"{RECOMMENDED_MIN_PRECISION}; fine for experiments, weak as a key",
            LowPrecisionWarning,
            stacklevel=2,
        )
    s = rng.integers(0, 1 << n, size=N, dtype=np.int64)
    perm = rng.permutation(N).astype(np.int64, copy=False) if permute else None
    key = PrivateKey(n=n, s=s, perm=perm)
    public = PublicKey(
        key_id=key_id_of(key), N=N, register=prepare_register(key), copy_index=0
    )
    return key, public


def swap_test_registers(
    reg_a: QuantumRegister,
    pos_a: int,
    reg_b: QuantumRegister,
    pos_b: int,
    rng: np.random.Generator,
) -> bool:
    """Symmetry test between one qubit of each register.

    Returns True on "pass".  The tested pair is left in the projected
    joint state, entangled across the two registers whenever the inputs
    were neither identical nor orthogonal.
    """
    reg_a._check_qubit(pos_a)
    reg_b._check_qubit(pos_b)
    if reg_a is reg_b and pos_a == pos_b:
        raise ValueError("cannot run a symmetry test of a qubit against itself")
    # the cap is checked before promotion, so a refused test leaves both
    # qubits as they were
    group_a, group_b = reg_a._groups.get(pos_a), reg_b._groups.get(pos_b)
    if group_a is None or group_a is not group_b:
        # an exact qubit joins as a group of one
        merged = (1 if group_a is None else len(group_a.members)) + (
            1 if group_b is None else len(group_b.members)
        )
        if merged > MAX_GROUP_QUBITS:
            raise ValueError(
                f"symmetry test would entangle {merged} qubits in one group; "
                f"the cap is MAX_GROUP_QUBITS = {MAX_GROUP_QUBITS}"
            )
        group_a, group_b = reg_a._promote(pos_a), reg_b._promote(pos_b)
        if group_a is not group_b:
            group_a.amps = np.multiply.outer(group_a.amps, group_b.amps)
            group_a.members += group_b.members
            for reg, pos in group_b.members:
                reg._groups[pos] = group_a
    members = group_a.members
    passed, _, group_a.amps = swap_project(
        group_a.amps, members.index((reg_a, pos_a)), members.index((reg_b, pos_b)), rng
    )
    return passed


def swap_test_encrypted_copies(
    key: PrivateKey, flags: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Owner-side batch of forward-search interceptions.

    Row b of the (B, alpha) 0/1 flag array encrypts a fresh public-key copy
    (qubit q rotated by flags[b, q] * pi), and each of its first alpha
    qubits meets the same qubit of another fresh copy in a symmetry test.
    Returns the (B, alpha) pass pattern: the outcomes of B * alpha calls of
    swap_test_registers in row order, from one rng.random((B, alpha)) draw.
    Nothing else leaves: no descriptor, no pass probability.  The weights
    are built once per key, for all of its qubits.
    """
    flags = _bit_array(flags, "flags")
    if flags.ndim != 2 or not 1 <= flags.shape[1] <= key.length:
        raise ValueError(
            f"flags must have shape (B, alpha) with 1 <= alpha <= {key.length}"
        )
    p_pass, p_fail = key._pair_weights[:, np.arange(flags.shape[1]), flags]
    return draws_outcome_zero(p_pass, p_fail, rng.random(flags.shape))


def _parity_masks(bits: np.ndarray, alpha: int, rng: np.random.Generator | None) -> np.ndarray:
    """Flat flag vector: per message bit, alpha-1 uniform bits then the bit
    that makes the block parity equal the message bit."""
    if alpha == 1:
        return bits
    head = rng.integers(0, 2, size=(bits.size, alpha - 1), dtype=np.int64)
    last = np.bitwise_xor.reduce(head, axis=1) ^ bits
    return np.concatenate([head, last[:, np.newaxis]], axis=1).reshape(-1)


def encode_redundant(bit: int, alpha: int, rng: np.random.Generator | None) -> tuple[int, ...]:
    """Uniform alpha-bit mask whose parity equals the message bit."""
    bits = _bit_array(bit, "message bit")
    if bits.ndim:
        raise ValueError("message bit must be a single 0 or 1")
    check_integer(alpha, "alpha")
    if alpha > 1 and rng is None:
        raise ValueError("redundant encoding with alpha > 1 needs an rng")
    return tuple(_parity_masks(bits.reshape(1), alpha, rng).tolist())


def apply_encryption_flags(pk: PublicKey, flags: Sequence[int], alpha: int = 1) -> CipherState:
    """Deterministic encryption core: rotate qubit j by flag_j * pi.

    flags is the already-masked per-qubit vector; its block parities are
    the message.  Qubits beyond the flag vector are left untouched.  A
    public-key copy carries one ciphertext: a second encryption on it is
    refused, since the two ciphertexts would share one register.
    """
    check_integer(alpha, "alpha")
    register = pk.register
    flag_arr = _flag_vector(flags, register.qubit_count, alpha)
    if register._carries_cipher:
        raise ValueError(
            f"public-key copy {pk.copy_index} already carries a ciphertext; "
            f"encrypt each message on a fresh copy"
        )
    register._carries_cipher = True
    register._apply_index_steps(flag_arr, 1)
    return CipherState(register=register, num_bits=flag_arr.size // alpha, alpha=alpha)


def encrypt(
    pk: PublicKey,
    message: Sequence[int],
    alpha: int = 1,
    *,
    rng: np.random.Generator | None = None,
) -> CipherState:
    """Encrypt message bits onto a public-key register.

    Each bit is expanded to a uniformly random alpha-qubit parity mask
    (rng required when alpha > 1), and masked qubits are flipped with
    R(pi).  The input register is consumed: its qubits become the cipher.
    """
    bits = _bit_array(message, "message bits")
    if bits.ndim != 1 or not bits.size:
        raise ValueError("message must be a sequence of at least one bit")
    check_integer(alpha, "alpha")
    if len(bits) * alpha > pk.register.qubit_count:
        raise MessageTooLongError(
            f"message of {len(bits)} bits at redundancy {alpha} needs "
            f"{len(bits) * alpha} qubits but the public key has "
            f"{pk.register.qubit_count}; ask Alice to increase the length of "
            f"her public key"
        )
    if alpha > 1 and rng is None:
        raise ValueError("encryption with alpha > 1 needs an rng for the parity masks")
    flags = _parity_masks(bits, alpha, rng)
    return apply_encryption_flags(pk, flags, alpha)


# --- issuance and decryption services ---


class _RegistryEntry:
    __slots__ = ("key", "copy_cap", "issued")

    def __init__(self, key: PrivateKey, copy_cap: int) -> None:
        self.key = key
        self.copy_cap = copy_cap
        self.issued = 0


class KeyRegistry:
    """Issues up to a fixed number of public-key copies per registered key."""

    def __init__(self) -> None:
        self._entries: dict[str, _RegistryEntry] = {}
        self._lock = threading.Lock()

    def add(self, key: PrivateKey, copy_cap: int = DEFAULT_COPY_CAP) -> str:
        """Register a key; copy_cap, a positive plain int, bounds its copies."""
        check_integer(copy_cap, "copy cap")
        key_id = key_id_of(key)
        with self._lock:
            if key_id in self._entries:
                raise ValueError(f"key {key_id} already registered")
            self._entries[key_id] = _RegistryEntry(key, copy_cap)
        return key_id

    def _entry(self, key_id: str) -> _RegistryEntry:
        try:
            return self._entries[key_id]
        except KeyError:
            raise ValueError(f"unknown key id {key_id!r}") from None

    def issue_copy(self, key_id: str) -> PublicKey:
        """Freshly prepared public-key copy; fails beyond the cap."""
        with self._lock:
            entry = self._entry(key_id)
            if entry.issued >= entry.copy_cap:
                raise CopyCapExceededError(
                    f"key {key_id} already issued {entry.issued} of {entry.copy_cap} copies"
                )
            entry.issued += 1
            copy_index = entry.issued
        return PublicKey(
            key_id=key_id,
            N=entry.key.length,
            register=prepare_register(entry.key),
            copy_index=copy_index,
        )

    def issued_count(self, key_id: str) -> int:
        with self._lock:
            return self._entry(key_id).issued


class DecryptionOracle:
    """Decryption device bound to one private key, good for k uses total.

    uses_allowed is a positive plain int.  Every accepted decryption call
    consumes one use, successful or not; after the last one the device is
    permanently inactive.
    """

    def __init__(self, key: PrivateKey, uses_allowed: int = DEFAULT_COPY_CAP) -> None:
        check_integer(uses_allowed, "uses_allowed")
        self.__key = key
        self._remaining = uses_allowed
        self._uses_allowed = uses_allowed
        self._lock = threading.Lock()

    @property
    def uses_allowed(self) -> int:
        return self._uses_allowed

    @property
    def remaining_uses(self) -> int:
        return self._remaining

    @property
    def active(self) -> bool:
        return self._remaining > 0

    @property
    def key_length(self) -> int:
        return self.__key.length

    def _consume(self) -> PrivateKey:
        with self._lock:
            if self._remaining <= 0:
                raise OracleDeactivatedError("decryption device is permanently inactive")
            self._remaining -= 1
            return self.__key


def decrypt(oracle: DecryptionOracle, cipher: CipherState, rng: np.random.Generator) -> tuple[int, ...]:
    """Decrypt a cipher register: undo the key rotations, measure z, and
    decode block parities.

    Consumes one oracle use per accepted call.  A register whose qubit
    count differs from the key length is rejected before any use is spent.
    """
    if cipher.register.qubit_count != oracle.key_length:
        raise ValueError(
            f"cipher has {cipher.register.qubit_count} qubits but the key expects "
            f"{oracle.key_length}"
        )
    key = oracle._consume()
    cipher.register._apply_index_steps(-key._placed_indices, key.n)
    outcomes = cipher.register._measure_all_z(rng)
    used = outcomes[: cipher.num_bits * cipher.alpha].reshape(cipher.num_bits, cipher.alpha)
    return tuple(np.bitwise_xor.reduce(used, axis=1).tolist())
