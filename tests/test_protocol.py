"""Tests for key generation, encryption, decryption, and register opacity."""

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import register_indices

import qpke.protocol
from qpke.protocol import (
    MAX_GROUP_QUBITS,
    MAX_KEY_LENGTH,
    CipherState,
    CopyCapExceededError,
    DecryptionOracle,
    KeyRegistry,
    LowPrecisionWarning,
    MessageTooLongError,
    OracleDeactivatedError,
    PrivateKey,
    PublicKey,
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
    private_key_to_json,
    save_private_key,
    swap_test_encrypted_copies,
    swap_test_registers,
)
from qpke.quantum_core import (
    MAX_PRECISION_BITS,
    draws_outcome_zero,
    index_amplitudes,
    outcome_one_probability,
    rotate_axis,
    swap_project,
)


def fresh_public(key: PrivateKey) -> PublicKey:
    """Owner-side public-key copy used by test harnesses."""
    return PublicKey(key_id=key_id_of(key), N=key.length, register=prepare_register(key), copy_index=0)


class TestPrivateKey:
    """Classical key material and its serialization."""

    def test_field_validation(self):
        with pytest.raises(ValueError, match="precision"):
            PrivateKey(n=0, s=(0,))
        with pytest.raises(ValueError, match="precision"):
            PrivateKey(n=63, s=(0,))
        with pytest.raises(ValueError, match="outside"):
            PrivateKey(n=2, s=(4,))
        with pytest.raises(ValueError, match="permutation"):
            PrivateKey(n=2, s=(0, 1), perm=(0, 0))
        with pytest.raises(ValueError, match="at least one"):
            PrivateKey(n=2, s=())

    @pytest.mark.parametrize(
        "perm", [(True, False), (np.int64(1), np.int64(0))], ids=["bool", "int64"]
    )
    def test_perm_entries_must_be_plain_ints(self, perm):
        # either would be accepted here but break save_private_key or load_private_key
        with pytest.raises(TypeError, match="perm"):
            PrivateKey(n=3, s=(1, 2), perm=perm)

    @pytest.mark.parametrize("n", [True, np.int64(3)], ids=["bool", "int64"])
    def test_precision_a_key_file_cannot_hold_is_refused(self, n):
        with pytest.raises(TypeError, match="precision"):
            PrivateKey(n=n, s=(1, 2))
        with pytest.raises(TypeError, match="precision"):
            keygen(n, 2, rng=np.random.default_rng(0))

    def test_length_and_prepared_indices(self):
        key = PrivateKey(n=3, s=(5, 2))
        assert key.length == 2
        assert register_indices(prepare_register(key), 3) == (5, 2)

    def test_json_roundtrip_is_bit_exact(self):
        key = PrivateKey(n=62, s=(2**62 - 1, 0, 123456789012345678), perm=(2, 0, 1))
        assert private_key_from_json(private_key_to_json(key)) == key

    def test_json_uses_decimal_strings(self):
        payload = private_key_to_json(PrivateKey(n=62, s=(2**62 - 1,)))
        assert payload["s"] == [str(2**62 - 1)]
        assert payload["version"] == 1

    def test_file_roundtrip(self, tmp_path):
        key = PrivateKey(n=40, s=(17, 2**39), perm=None)
        path = tmp_path / "key.json"
        save_private_key(key, path)
        assert load_private_key(path) == key
        assert json.loads(path.read_text())["n"] == 40

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            private_key_from_json({"version": 99, "n": 1, "s": ["0"]})

    def test_identifiers_are_stable_and_distinct(self):
        key = PrivateKey(n=4, s=(1, 2))
        assert key_id_of(key) == key_id_of(key)
        assert len(key_id_of(key)) == 16
        assert key_fingerprint(key) != key_fingerprint(PrivateKey(n=4, s=(1, 3)))


class TestKeygen:
    """Key drawing and public register preparation."""

    def test_known_key_prepares_expected_angles(self):
        key = PrivateKey(n=3, s=(5, 2))
        described = register_indices(prepare_register(key), 3)
        assert [math.pi * (s / (1 << (3 - 1))) for s in described] == pytest.approx(
            [5 * math.pi / 4, math.pi / 2], abs=1e-12
        )

    def test_zero_index_prepares_ground_state(self):
        key = PrivateKey(n=1, s=(0,))
        register = prepare_register(key)
        rng = np.random.default_rng(0)
        assert all(register.measure_z(0, rng) == 0 for _ in range(20))

    def test_fixed_precision(self):
        key, public = keygen(34, 8, rng=np.random.default_rng(1))
        assert key.n == 34
        assert key.length == 8
        assert public.N == 8
        assert public.copy_index == 0
        assert public.key_id == key_id_of(key)

    def test_precision_range_sampling(self):
        rng = np.random.default_rng(2)
        seen = {keygen((32, 35), 1, rng=rng)[0].n for _ in range(100)}
        assert seen <= {32, 33, 34, 35}
        assert len(seen) > 1

    def test_precision_cap(self):
        with pytest.raises(ValueError, match="precision"):
            keygen(70, 4, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="precision range"):
            keygen((30, 70), 4, rng=np.random.default_rng(3))

    def test_length_cap(self):
        for N in (0, MAX_KEY_LENGTH + 1, 10**12):
            with pytest.raises(ValueError, match="key length"):
                keygen(40, N, rng=np.random.default_rng(3))

    def test_low_precision_warns(self):
        with pytest.warns(LowPrecisionWarning):
            keygen(8, 2, rng=np.random.default_rng(4))

    def test_index_uniformity(self):
        rng = np.random.default_rng(5)
        trials = 100_000
        counts = np.zeros(16, dtype=np.int64)
        for _ in range(trials):
            key, _ = keygen(4, 1, rng=rng)
            counts[key.s[0]] += 1
        tolerance = 3.0 * math.sqrt((1 / 16) * (15 / 16) / trials)
        assert np.all(np.abs(counts / trials - 1 / 16) <= tolerance)

    def test_permutation_places_indices(self):
        rng = np.random.default_rng(6)
        key, public = keygen(33, 16, permute=True, rng=rng)
        described = register_indices(public.register, 33)
        for j, s_j in enumerate(key.s):
            assert described[key.perm[j]] == s_j


class TestRegisterOpacity:
    """No public path leads from a register to its qubits' indices."""

    def test_public_attributes_are_the_physical_operations(self):
        public = {name for name in dir(QuantumRegister) if not name.startswith("_")}
        assert public == {
            "apply_bit_rotations", "apply_rotation", "measure_z", "of_computational", "qubit_count"
        }

    def test_prepared_register_holds_the_key_indices(self):
        key, public = keygen(35, 4, rng=np.random.default_rng(7))
        assert register_indices(public.register, 35) == key.s

    def test_no_state_in_repr(self):
        key, public = keygen(35, 4, rng=np.random.default_rng(11))
        assert str(key.s[0]) not in repr(public.register)
        assert repr(public.register) == "QuantumRegister(qubits=4)"
        # nor for a grouped qubit or a computational register
        public.register.apply_rotation(0, 0.3)
        assert repr(public.register) == "QuantumRegister(qubits=4)"
        assert repr(QuantumRegister.of_computational([1, 0])) == "QuantumRegister(qubits=2)"

    def test_off_grid_rotation_groups_the_qubit(self):
        key, public = keygen(35, 2, rng=np.random.default_rng(12))
        public.register.apply_rotation(0, 0.3)
        assert 0 in public.register._groups
        assert 1 not in public.register._groups

    def test_encrypt_shifts_flagged_indices_by_half_a_period(self):
        key, public = keygen(35, 4, rng=np.random.default_rng(13))
        cipher = encrypt(public, [1, 0, 1, 1])
        described = register_indices(cipher.register, 35)
        half = 1 << (key.n - 1)
        expected = [(s + m * half) % (1 << key.n) for s, m in zip(key.s, [1, 0, 1, 1])]
        assert list(described) == expected


class TestRegisterOperations:
    """Physical operations available to any register holder."""

    def test_pi_rotation_stays_exact(self):
        key = PrivateKey(n=40, s=(123,))
        register = prepare_register(key)
        register.apply_rotation(0, math.pi)
        assert register_indices(register, 40)[0] == 123 + (1 << 39)

    def test_negative_pi_rotation(self):
        key = PrivateKey(n=5, s=(3,))
        register = prepare_register(key)
        register.apply_rotation(0, -math.pi)
        assert register_indices(register, 5)[0] == (3 + 16) % 32

    def test_step_multiple_rotation_stays_exact(self):
        key = PrivateKey(n=6, s=(10,))
        register = prepare_register(key)
        register.apply_rotation(0, 5 * math.pi / 32)
        assert register_indices(register, 6)[0] == 15

    def test_measure_z_statistics_match_born_rule(self):
        rng = np.random.default_rng(14)
        trials = 4000
        ones = 0
        for _ in range(trials):
            register = prepare_register(PrivateKey(n=3, s=(1,)))
            ones += register.measure_z(0, rng)
        expected = math.sin(math.pi / 8) ** 2
        assert abs(ones / trials - expected) <= 3 * math.sqrt(expected * (1 - expected) / trials)

    def test_measurement_collapses_to_basis(self):
        rng = np.random.default_rng(15)
        register = prepare_register(PrivateKey(n=3, s=(1,)))
        first = register.measure_z(0, rng)
        assert all(register.measure_z(0, rng) == first for _ in range(10))

    def test_measure_in_rotated_basis_aligned(self):
        rng = np.random.default_rng(16)
        key = PrivateKey(n=45, s=(2**44 + 12345,))
        register = prepare_register(key)
        register.apply_rotation(0, -math.pi * (key.s[0] / (1 << 44)))
        assert register.measure_z(0, rng) == 0

    def test_computational_register_measures_back(self):
        rng = np.random.default_rng(17)
        register = QuantumRegister.of_computational([1, 0, 1])
        assert [register.measure_z(q, rng) for q in range(3)] == [1, 0, 1]

    def test_entangled_register_correlations(self):
        rng = np.random.default_rng(18)
        branches = set()
        for _ in range(30):
            # |01> projects onto (|01> + |10>)/sqrt(2) or (|01> - |10>)/sqrt(2)
            pair = QuantumRegister.of_computational([0, 1])
            branches.add(swap_test_registers(pair, 0, pair, 1, rng))
            assert pair.measure_z(0, rng) + pair.measure_z(1, rng) == 1
        assert branches == {True, False}

    def test_swap_test_between_fresh_copies_passes(self):
        rng = np.random.default_rng(20)
        key = PrivateKey(n=37, s=(2**36 + 7,))
        a, b = prepare_register(key), prepare_register(key)
        assert all(swap_test_registers(a, 0, b, 0, rng) for _ in range(25))

    def test_swap_test_after_pass_always_passes_again(self):
        rng = np.random.default_rng(21)
        key = PrivateKey(n=4, s=(3,))
        seen_pass = False
        for _ in range(50):
            a, b = prepare_register(key), prepare_register(PrivateKey(n=4, s=(5,)))
            if swap_test_registers(a, 0, b, 0, rng):
                seen_pass = True
                assert all(swap_test_registers(a, 0, b, 0, rng) for _ in range(5))
        assert seen_pass

    def test_swap_test_orthogonal_rate(self):
        rng = np.random.default_rng(22)
        trials = 4000
        passes = 0
        key = PrivateKey(n=2, s=(0,))
        shifted = PrivateKey(n=2, s=(2,))
        for _ in range(trials):
            passes += swap_test_registers(
                prepare_register(key), 0, prepare_register(shifted), 0, rng
            )
        assert abs(passes / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)

    def test_identical_copies_pass_on_the_largest_draw(self):
        # p_pass of identical copies can round to 1 - 4.4e-16; the largest
        # draw must still not select the empty antisymmetric branch
        class TopDraw:
            def random(self):
                return 1.0 - 2.0**-53

        for s in range(256):
            key = PrivateKey(n=8, s=(s,))
            a, b = prepare_register(key), prepare_register(key)
            assert swap_test_registers(a, 0, b, 0, TopDraw()), s
            amps = a._groups[0].amps
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12), s

    @pytest.mark.parametrize(
        "n, theta, snaps",
        [(53, math.pi + 0.3, True), (53, -4.0, True), (53, 0.3, False),
         (62, 0.3, True), (62, math.pi / 2**9, True), (62, 0.001, False)],
    )
    def test_angles_of_2_52_steps_or_more_snap_to_the_grid(self, n, theta, snaps):
        key = PrivateKey(n=n, s=(5,))
        register = prepare_register(key)
        register.apply_rotation(0, theta)
        steps = theta / (math.pi * 2.0 ** (1 - n))
        if snaps:
            assert register_indices(register, n)[0] == (5 + round(steps)) % (1 << n)
        else:
            assert 0 in register._groups

    def test_angle_beyond_double_step_count_takes_amplitude_path(self):
        key = PrivateKey(n=62, s=(5,))
        register = prepare_register(key)
        register.apply_rotation(0, 1e300)
        assert 0 in register._groups
        amps = register._groups[0].amps
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_test_chain_stops_at_the_group_cap(self):
        rng = np.random.default_rng(36)
        key = PrivateKey(n=8, s=(3,))
        cipher = prepare_register(key)
        cipher.apply_bit_rotations([1])
        for _ in range(MAX_GROUP_QUBITS - 1):
            swap_test_registers(cipher, 0, prepare_register(key), 0, rng)
        group = cipher._groups[0]
        assert len(group.members) == MAX_GROUP_QUBITS
        amps = group.amps.copy()
        extra = prepare_register(key)
        with pytest.raises(ValueError, match="MAX_GROUP_QUBITS"):
            swap_test_registers(cipher, 0, extra, 0, rng)
        assert cipher._groups[0] is group
        assert len(group.members) == MAX_GROUP_QUBITS
        assert np.array_equal(group.amps, amps)
        # the refused test promotes nothing: the fresh copy stays exact
        assert extra._groups == {}
        assert register_indices(extra, 8) == (3,)

    def test_measured_grouped_qubit_leaves_its_group(self):
        rng = np.random.default_rng(40)
        key = PrivateKey(n=8, s=(3, 77))
        for _ in range(20):
            a, b = prepare_register(key), prepare_register(key)
            a.apply_bit_rotations([1])
            swap_test_registers(a, 0, b, 0, rng)
            group = a._groups[0]
            outcome = a.measure_z(0, rng)
            assert 0 not in a._groups
            assert group.members == [(b, 0)]
            assert b._groups[0] is group
            assert a._indices[0] == outcome << 7
            assert a._indices[0] in (0, 1 << 7)

    def test_grid_rotation_after_measurement_stays_exact(self):
        rng = np.random.default_rng(41)
        key = PrivateKey(n=8, s=(5,))
        register = prepare_register(key)
        register.apply_rotation(0, 0.3)
        outcome = register.measure_z(0, rng)
        # three index steps of pi / 2**7
        register.apply_rotation(0, 3 * math.pi / 2**7)
        assert register._groups == {}
        assert register_indices(register, 8) == ((outcome << 7) + 3,)

    def test_grouped_qubits_return_to_the_grid_when_measured(self):
        rng = np.random.default_rng(42)
        key = PrivateKey(n=8, s=(5, 9, 200))
        register = prepare_register(key)
        register.apply_rotation(0, 0.3)
        register.apply_rotation(2, -1.1)
        outcomes = {}
        for q in (0, 2):
            assert q in register._groups
            outcomes[q] = register.measure_z(q, rng)
        assert register_indices(register, 8) == (outcomes[0] << 7, 9, outcomes[2] << 7)

    @pytest.mark.parametrize("measure_all", [False, True])
    def test_measuring_a_swap_tested_pair_empties_both_registers_groups(self, measure_all):
        rng = np.random.default_rng(43)
        key = PrivateKey(n=8, s=(3, 100))
        a, b = prepare_register(key), prepare_register(key)
        a.apply_bit_rotations([1, 1])
        for q in range(2):
            swap_test_registers(a, q, b, q, rng)
        swap_test_registers(a, 0, b, 1, rng)
        assert len(a._groups[0].members) == 4
        for reg in (a, b):
            if measure_all:
                outcomes = reg._measure_all_z(rng)
                assert reg._indices.tolist() == (outcomes << 7).tolist()
            else:
                for q in range(2):
                    reg.measure_z(q, rng)
        assert a._groups == {} and b._groups == {}

    def test_self_swap_rejected(self):
        register = QuantumRegister.of_computational([0])
        with pytest.raises(ValueError, match="itself"):
            swap_test_registers(register, 0, register, 0, np.random.default_rng(0))

    def test_flag_vector_validation(self):
        register = QuantumRegister.of_computational([0, 0])
        with pytest.raises(ValueError, match="longer"):
            register.apply_bit_rotations([1, 1, 1])
        with pytest.raises(ValueError, match="0 or 1"):
            register.apply_bit_rotations([2, 0])

    def test_encrypted_copy_flag_validation(self):
        key = PrivateKey(n=4, s=(1, 5))
        rng = np.random.default_rng(0)
        for shape_error in ([1, 0], [[1, 0, 1]], np.zeros((2, 0), dtype=np.int64)):
            with pytest.raises(ValueError, match="shape"):
                swap_test_encrypted_copies(key, shape_error, rng)
        for value_error in ([[2, 0]], [[-1, 0]], [[0.5, 0]]):
            with pytest.raises(ValueError, match="0 or 1"):
                swap_test_encrypted_copies(key, value_error, rng)


class TestEncodeRedundant:
    """Parity-redundant bit masks."""

    def test_alpha_one_is_identity(self):
        assert encode_redundant(0, 1, None) == (0,)
        assert encode_redundant(1, 1, None) == (1,)

    def test_alpha_two_masks(self):
        rng = np.random.default_rng(23)
        masks = {encode_redundant(0, 2, rng) for _ in range(200)}
        assert masks == {(0, 0), (1, 1)}
        masks = {encode_redundant(1, 2, rng) for _ in range(200)}
        assert masks == {(0, 1), (1, 0)}

    def test_alpha_three_uniform_over_parity_class(self):
        rng = np.random.default_rng(24)
        trials = 8000
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(trials):
            mask = encode_redundant(1, 3, rng)
            counts[mask] = counts.get(mask, 0) + 1
        assert set(counts) == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
        tolerance = 3 * math.sqrt(0.25 * 0.75 / trials)
        assert all(abs(c / trials - 0.25) <= tolerance for c in counts.values())

    @given(bit=st.integers(0, 1), alpha=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_mask_parity_equals_bit(self, bit, alpha, seed):
        mask = encode_redundant(bit, alpha, np.random.default_rng(seed))
        assert len(mask) == alpha
        parity = 0
        for v in mask:
            parity ^= v
        assert parity == bit

    def test_requires_rng_beyond_alpha_one(self):
        with pytest.raises(ValueError, match="rng"):
            encode_redundant(0, 2, None)


class TestEncrypt:
    """Message-to-register encryption."""

    def test_all_zero_message_leaves_state(self):
        key, public = keygen(36, 6, rng=np.random.default_rng(25))
        cipher = encrypt(public, [0] * 6)
        assert register_indices(cipher.register, 36) == key.s
        assert (cipher.num_bits, cipher.alpha) == (6, 1)

    def test_single_bit_shift(self):
        key = PrivateKey(n=33, s=(99,))
        cipher = encrypt(fresh_public(key), [1])
        assert register_indices(cipher.register, 33)[0] == 99 + (1 << 32)

    def test_order_preserved_with_alpha(self):
        rng = np.random.default_rng(26)
        key, public = keygen(34, 12, rng=rng)
        message = [1, 0, 1]
        cipher = encrypt(public, message, alpha=2, rng=rng)
        described = register_indices(cipher.register, 34)
        half = 1 << (key.n - 1)
        flags = [(d - s) % (1 << key.n) == half for d, s in zip(described, key.s)]
        assert all((d - s) % (1 << key.n) in (0, half) for d, s in zip(described, key.s))
        for block, bit in enumerate(message):
            assert flags[2 * block] ^ flags[2 * block + 1] == bit
        assert not any(flags[6:])

    def test_message_too_long(self):
        _, public = keygen(36, 4, rng=np.random.default_rng(27))
        with pytest.raises(MessageTooLongError, match="increase the length"):
            encrypt(public, [0, 1, 1], alpha=2, rng=np.random.default_rng(0))

    def test_alpha_two_needs_rng(self):
        _, public = keygen(36, 4, rng=np.random.default_rng(28))
        with pytest.raises(ValueError, match="rng"):
            encrypt(public, [0, 1], alpha=2)

    def test_rejects_non_bits(self):
        _, public = keygen(36, 4, rng=np.random.default_rng(29))
        with pytest.raises(ValueError, match="bits"):
            encrypt(public, [0, 2])
        with pytest.raises(ValueError, match="at least one"):
            encrypt(public, [])

    def test_flag_framing_validation(self):
        _, public = keygen(36, 4, rng=np.random.default_rng(30))
        with pytest.raises(ValueError, match="multiple of alpha"):
            apply_encryption_flags(public, [1, 0, 1], alpha=2)

    def test_a_copy_is_encrypted_once(self):
        key = PrivateKey(n=8, s=(3, 77, 140, 9))
        public = fresh_public(key)
        first = encrypt(public, [1, 0, 1, 1])
        with pytest.raises(ValueError, match="already carries a ciphertext"):
            encrypt(public, [1, 1, 0, 0])
        with pytest.raises(ValueError, match="already carries a ciphertext"):
            apply_encryption_flags(public, [1, 1, 0, 0])
        # the refused encryptions left the first ciphertext as it was
        rng = np.random.default_rng(44)
        assert decrypt(DecryptionOracle(key, 1), first, rng) == (1, 0, 1, 1)

    def test_cipher_state_framing(self):
        register = QuantumRegister.of_computational([0, 0])
        with pytest.raises(ValueError, match="framing"):
            CipherState(register=register, num_bits=3, alpha=1)
        with pytest.raises(ValueError, match="num_bits must be at least 1, got 0"):
            CipherState(register=register, num_bits=0, alpha=1)


class TestDecrypt:
    """Round trips and the use-limited decryption device."""

    @pytest.mark.parametrize("n", [2, 8, 32, 62])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_roundtrip_grid(self, n, alpha):
        rng = np.random.default_rng(1000 + n * 10 + alpha)
        for permute in (False, True):
            key, public = keygen(n, 12, permute=permute, rng=rng)
            message = [int(b) for b in rng.integers(0, 2, size=12 // alpha)]
            cipher = encrypt(public, message, alpha=alpha, rng=rng)
            oracle = DecryptionOracle(key, uses_allowed=1)
            assert decrypt(oracle, cipher, rng) == tuple(message)

    def test_roundtrip_extreme_indices(self):
        rng = np.random.default_rng(31)
        key = PrivateKey(n=62, s=(2**62 - 1, 0, 2**61, 1))
        cipher = encrypt(fresh_public(key), [1, 1, 0, 1])
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == (1, 1, 0, 1)

    @given(
        n=st.integers(1, 12),
        alpha=st.integers(1, 3),
        blocks=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, n, alpha, blocks, seed):
        rng = np.random.default_rng(seed)
        key, public = keygen(n, alpha * blocks + int(rng.integers(0, 3)), rng=rng)
        message = [int(b) for b in rng.integers(0, 2, size=blocks)]
        cipher = encrypt(public, message, alpha=alpha, rng=rng)
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == tuple(message)

    def test_oracle_exhaustion(self):
        rng = np.random.default_rng(32)
        key, public = keygen(33, 2, rng=rng)
        oracle = DecryptionOracle(key, uses_allowed=1)
        decrypt(oracle, encrypt(public, [0, 1]), rng)
        assert not oracle.active
        second = encrypt(fresh_public(key), [1, 0])
        with pytest.raises(OracleDeactivatedError):
            decrypt(oracle, second, rng)

    def test_counter_counts_adversarial_calls(self):
        rng = np.random.default_rng(33)
        key, _ = keygen(33, 3, rng=rng)
        oracle = DecryptionOracle(key, uses_allowed=2)
        probe = CipherState(QuantumRegister.of_computational([0, 0, 0]), num_bits=3, alpha=1)
        decrypt(oracle, probe, rng)
        assert oracle.remaining_uses == 1

    def test_size_mismatch_rejected_without_consuming(self):
        rng = np.random.default_rng(34)
        key, _ = keygen(33, 3, rng=rng)
        oracle = DecryptionOracle(key, uses_allowed=1)
        bad = CipherState(QuantumRegister.of_computational([0, 0]), num_bits=2, alpha=1)
        with pytest.raises(ValueError, match="qubits"):
            decrypt(oracle, bad, rng)
        assert oracle.remaining_uses == 1

    def test_concurrent_consume_never_overspends(self):
        key = PrivateKey(n=4, s=(1,))
        oracle = DecryptionOracle(key, uses_allowed=50)
        successes: list[int] = []
        lock = threading.Lock()

        def worker():
            granted = 0
            while True:
                try:
                    oracle._consume()
                except OracleDeactivatedError:
                    break
                granted += 1
            with lock:
                successes.append(granted)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(successes) == 8
        assert sum(successes) == 50
        assert oracle.remaining_uses == 0
        assert not oracle.active

    def test_adversarial_zero_state_statistics(self):
        """Decrypting |00...0> yields bit j with rate sin^2(s_j theta_n / 2)."""
        rng = np.random.default_rng(35)
        key = PrivateKey(n=3, s=(1, 2, 4))
        trials = 3000
        oracle = DecryptionOracle(key, uses_allowed=trials)
        totals = np.zeros(3)
        for _ in range(trials):
            probe = CipherState(QuantumRegister.of_computational([0, 0, 0]), num_bits=3, alpha=1)
            totals += decrypt(oracle, probe, rng)
        expected = [math.sin(s * math.pi / 8) ** 2 for s in key.s]
        for rate, p in zip(totals / trials, expected):
            margin = 3 * math.sqrt(max(p * (1 - p), 0.25 / trials) / trials)
            assert abs(rate - p) <= max(margin, 0.03)

    def test_decryption_is_deterministic_for_honest_path(self):
        key, public = keygen(62, 64, rng=np.random.default_rng(36))
        message = [int(b) for b in np.random.default_rng(37).integers(0, 2, size=64)]
        cipher = encrypt(public, message)
        assert decrypt(DecryptionOracle(key, 1), cipher, np.random.default_rng(38)) == tuple(message)


class TestKeyRegistry:
    """Copy issuance caps."""

    def test_cap_of_one(self):
        registry = KeyRegistry()
        key, _ = keygen(33, 2, rng=np.random.default_rng(39))
        key_id = registry.add(key, copy_cap=1)
        copy = registry.issue_copy(key_id)
        assert copy.copy_index == 1
        with pytest.raises(CopyCapExceededError):
            registry.issue_copy(key_id)
        assert registry.issued_count(key_id) == 1

    def test_counter_is_monotonic(self):
        registry = KeyRegistry()
        key, _ = keygen(33, 2, rng=np.random.default_rng(40))
        key_id = registry.add(key, copy_cap=3)
        indices = [registry.issue_copy(key_id).copy_index for _ in range(3)]
        assert indices == [1, 2, 3]
        for _ in range(4):
            with pytest.raises(CopyCapExceededError):
                registry.issue_copy(key_id)
        assert registry.issued_count(key_id) == 3

    @pytest.mark.parametrize("permute", [False, True], ids=["plain", "permuted"])
    def test_copies_share_nothing_with_the_key(self, permute):
        key, _ = keygen(40, 6, permute=permute, rng=np.random.default_rng(43))
        placed, key_id = key._placed_indices.copy(), key_id_of(key)
        registry = KeyRegistry()
        registry.add(key, copy_cap=3)
        first, second, third = (registry.issue_copy(key_id) for _ in range(3))
        prepared = register_indices(third.register, 40)
        rng = np.random.default_rng(44)
        cipher = encrypt(first, [1, 0, 1, 1, 0, 1])
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == (1, 0, 1, 1, 0, 1)
        # an on-grid turn and a measurement rewrite indices in place; an
        # off-grid turn moves a qubit into a group
        second.register.apply_rotation(0, math.pi)
        second.register.measure_z(1, rng)
        second.register.apply_rotation(2, 0.3)
        assert register_indices(third.register, 40) == prepared
        assert np.array_equal(key._placed_indices, placed)
        assert key_id_of(key) == key_id
        with pytest.raises(ValueError, match="read-only"):
            key._placed_indices[0] = 1

    def test_unknown_and_duplicate_keys(self):
        registry = KeyRegistry()
        key, _ = keygen(33, 2, rng=np.random.default_rng(41))
        registry.add(key)
        with pytest.raises(ValueError, match="already registered"):
            registry.add(key)
        with pytest.raises(ValueError, match="unknown"):
            registry.issue_copy("no-such-id")
        with pytest.raises(ValueError, match="copy cap"):
            registry.add(PrivateKey(n=4, s=(1,)), copy_cap=0)

    def test_concurrent_issuance_respects_cap(self):
        registry = KeyRegistry()
        key, _ = keygen(33, 1, rng=np.random.default_rng(42))
        key_id = registry.add(key, copy_cap=16)
        outcomes: list[bool] = []
        lock = threading.Lock()

        def worker():
            for _ in range(4):
                try:
                    registry.issue_copy(key_id)
                    ok = True
                except CopyCapExceededError:
                    ok = False
                with lock:
                    outcomes.append(ok)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(outcomes) == 16
        assert registry.issued_count(key_id) == 16

    def test_copies_are_independent(self):
        """Measuring one issued copy does not disturb another."""
        rng = np.random.default_rng(43)
        key = PrivateKey(n=2, s=(1,))
        trials = 4000
        joint = np.zeros((2, 2), dtype=np.int64)
        for _ in range(trials):
            registry = KeyRegistry()
            key_id = registry.add(key, copy_cap=2)
            first = registry.issue_copy(key_id).register.measure_z(0, rng)
            second = registry.issue_copy(key_id).register.measure_z(0, rng)
            joint[first, second] += 1
        rate_given_0 = joint[0, 1] / joint[0].sum()
        rate_given_1 = joint[1, 1] / joint[1].sum()
        margin = 4 * math.sqrt(0.25 / joint[0].sum()) + 4 * math.sqrt(0.25 / joint[1].sum())
        assert abs(rate_given_0 - rate_given_1) <= margin


@st.composite
def private_keys(draw, max_length=6):
    """Keys over every precision, with edge indices 0 and period/2 likely."""
    n = draw(st.integers(1, MAX_PRECISION_BITS))
    index = st.sampled_from([0, 1 << (n - 1)]) | st.integers(0, (1 << n) - 1)
    s = draw(st.lists(index, min_size=1, max_size=max_length))
    perm = draw(st.none() | st.permutations(range(len(s))))
    return PrivateKey(n=n, s=tuple(s), perm=None if perm is None else tuple(perm))


def _groups(*registers):
    return {id(g): g for r in registers for g in r._groups.values()}.values()


class TestRegisterProperties:
    """Register invariants over every precision, with and without a permutation."""

    @given(key=private_keys())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exact_outcome_probability_equals_promoted_born_weight(self, key):
        register = prepare_register(key)
        p1 = outcome_one_probability(register._indices, key.n)
        for q in range(key.length):
            amps = register._promote(q).amps
            assert abs(float(abs(amps[1]) ** 2) - p1[q]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 8, 40, MAX_PRECISION_BITS])
    def test_z_basis_states_promote_exactly(self, n):
        period = 1 << n
        register = prepare_register(PrivateKey(n=n, s=(0, period >> 1)))
        p1 = outcome_one_probability(register._indices, n)
        assert p1.tolist() == [0.0, 1.0]
        for q in range(2):
            amps = register._promote(q).amps
            assert (np.abs(amps) ** 2).tolist() == [1.0 - p1[q], p1[q]]
            assert amps.tolist() == [[1.0, 0.0], [0.0, 1.0]][q]

    def test_exact_measurements_build_no_amplitudes(self, monkeypatch):
        # measuring exact qubits needs only the Born rule, not the (cos, sin) map
        def no_map(*args):
            raise AssertionError("exact measurement built amplitudes")

        monkeypatch.setattr(qpke.protocol, "index_amplitudes", no_map)
        key = PrivateKey(n=40, s=(0, 1 << 39, 12345, 7))
        rng = np.random.default_rng(3)
        assert prepare_register(key).measure_z(1, rng) == 1
        assert prepare_register(key)._measure_all_z(rng)[:2].tolist() == [0, 1]
        cipher = encrypt(fresh_public(key), (1, 0, 1, 1), rng=rng)
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == (1, 0, 1, 1)

    @pytest.mark.parametrize("n", [1, 2, 8, 40, MAX_PRECISION_BITS])
    def test_state_builders_agree_bit_for_bit(self, n):
        # QuantumRegister._promote must hand out the index map's amplitudes,
        # and the Born rule of exact measurements the square of their |1> entry
        period = 1 << n
        s = sorted({0, 1, period >> 2, period >> 1, period - 1})
        promoted = prepare_register(PrivateKey(n=n, s=tuple(s)))
        mapped = index_amplitudes(np.array(s, dtype=np.int64), n)
        born = outcome_one_probability(np.array(s, dtype=np.int64), n)
        for q in range(len(s)):
            prepared = mapped[q].tolist()
            assert promoted._promote(q).amps.tolist() == prepared
            assert born[q] == prepared[1] ** 2
        assert mapped[s.index(period >> 1)].tolist() == [0.0, 1.0]
        assert born[s.index(period >> 1)] == 1.0

    @given(
        key=private_keys(),
        rows=st.integers(1, 4),
        flag_bits=st.integers(0, (1 << 24) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_encrypted_copy_tests_equal_register_tests(self, key, rows, flag_bits, seed):
        # row r takes bits 6r.. of flag_bits; the register loop runs the rows
        # in order, so it pins the row-major order of the uniforms
        flags = np.array(
            [[(flag_bits >> (6 * r + q)) & 1 for q in range(key.length)] for r in range(rows)]
        )
        passes = swap_test_encrypted_copies(key, flags, np.random.default_rng(seed))
        p_pass = key._pair_weights[0, np.arange(key.length), flags]
        loop_rng = np.random.default_rng(seed)
        for r in range(rows):
            cipher, reference = prepare_register(key), prepare_register(key)
            cipher.apply_bit_rotations(flags[r])
            for q in range(key.length):
                joint = np.multiply.outer(
                    cipher._promote(q).amps, reference._promote(q).amps
                )
                p_register = swap_project(joint, 0, 1, np.random.default_rng(0))[1]
                assert abs(p_pass[r, q] - p_register) <= 1e-12
                assert passes[r, q] == swap_test_registers(cipher, q, reference, q, loop_rng)

    @given(key=private_keys(max_length=9), alpha=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_encrypt_then_decrypt_is_exact(self, key, alpha, seed):
        rng = np.random.default_rng(seed)
        alpha = min(alpha, key.length)
        message = [int(b) for b in rng.integers(0, 2, size=key.length // alpha)]
        cipher = encrypt(fresh_public(key), message, alpha=alpha, rng=rng)
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == tuple(message)

    @given(key=private_keys(), data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_decryption_refines_a_coarser_grid_exactly(self, key, data):
        # a register prepared at a coarser precision, with at most one qubit
        # moved into a group by an off-grid rotation
        coarse_n = data.draw(st.integers(1, key.n))
        index = st.integers(0, (1 << coarse_n) - 1)
        coarse = PrivateKey(
            n=coarse_n, s=tuple(data.draw(st.lists(index, min_size=key.length, max_size=key.length)))
        )
        register = prepare_register(coarse)
        grouped = data.draw(st.none() | st.integers(0, key.length - 1))
        if grouped is not None:
            register.apply_rotation(grouped, 0.3)
        steps = -key._placed_indices
        register._apply_index_steps(steps, key.n)
        assert register._n == key.n
        # every refined qubit stays exact; only the grouped one holds amplitudes
        assert set(register._groups) == ({grouped} - {None})
        for q in set(range(key.length)) - {grouped}:
            # the state the amplitude path builds: the coarse state turned by the step angle
            theta = math.pi * (int(steps[q]) / (1 << (key.n - 1)))
            turned = rotate_axis(np.array(index_amplitudes(coarse.s[q], coarse_n)), 0, theta)
            exact = np.array(index_amplitudes(int(register._indices[q]), key.n))
            assert abs(float(exact @ turned)) == pytest.approx(1.0, abs=1e-12)

    @given(key=private_keys(max_length=9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_decrypting_a_prepared_register_is_unchanged(self, key, seed):
        # the register's grid equals the key's, so decryption measures every
        # qubit exactly with one uniform each, in qubit order
        message = [int(b) for b in np.random.default_rng(seed).integers(0, 2, size=key.length)]
        cipher = encrypt(fresh_public(key), message)
        rng = np.random.default_rng(seed)
        assert decrypt(DecryptionOracle(key, 1), cipher, rng) == tuple(message)
        assert cipher.register._n == key.n and not cipher.register._groups
        reference = np.random.default_rng(seed)
        reference.random(key.length)
        assert rng.random() == reference.random()

    def test_decrypting_computational_states_draws_one_uniform_per_qubit(self):
        # |b> at n = 1 is refined to the key's grid and measured exactly
        key = PrivateKey(n=40, s=(0, 1 << 38, 12345, (1 << 40) - 1, 1 << 39))
        bits = np.array([1, 0, 1, 1, 0])
        register = QuantumRegister.of_computational(bits)
        cipher = CipherState(register, 5, 1)
        outcomes = decrypt(DecryptionOracle(key, 1), cipher, np.random.default_rng(9))
        assert register._groups == {}
        turned = ((bits << 39) - np.array(key.s)) % (1 << 40)
        p1 = outcome_one_probability(turned, 40)
        expected = ~draws_outcome_zero(1.0 - p1, p1, np.random.default_rng(9).random(5))
        assert outcomes == tuple(expected.astype(int).tolist())

    @given(
        key=private_keys(),
        other_n=st.integers(1, MAX_PRECISION_BITS),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["rotate", "step", "flags", "measure", "basis", "swap", "decrypt"]),
                st.integers(0, 11),
                st.integers(0, 11),
                st.floats(-10.0, 10.0, allow_nan=False),
            ),
            max_size=MAX_GROUP_QUBITS - 1,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_public_operations_keep_every_group_normalized(self, key, other_n, ops, seed):
        # at most MAX_GROUP_QUBITS - 1 operations, so symmetry tests never reach the cap
        rng = np.random.default_rng(seed)
        registers = [prepare_register(key), prepare_register(key)]
        size = key.length
        other = PrivateKey(n=other_n, s=tuple(j % (1 << other_n) for j in range(size)))
        for op, i, j, theta in ops:
            reg, q = registers[i % 2], i % size
            if op == "rotate":
                reg.apply_rotation(q, theta)
            elif op == "step":
                reg.apply_rotation(q, j * math.pi / 2 ** (key.n - 1))
            elif op == "flags":
                reg.apply_bit_rotations([(i >> b) & 1 for b in range(j % size + 1)])
            elif op == "measure":
                assert reg.measure_z(q, rng) in (0, 1)
            elif op == "basis":
                reg.apply_rotation(q, -theta)
                assert reg.measure_z(q, rng) in (0, 1)
            elif op == "swap":
                swap_test_registers(reg, q, registers[(i + 1) % 2], j % size, rng)
            else:
                decrypt(DecryptionOracle(other, 1), CipherState(reg, size, 1), rng)
            for group in _groups(*registers):
                # protocol states are real: every group keeps the index map's float64
                assert group.amps.dtype == np.float64
                assert np.linalg.norm(group.amps) == pytest.approx(1.0, abs=1e-12)
            for r in registers:
                # a decryption at a finer precision refines the register's grid
                assert key.n <= r._n <= MAX_PRECISION_BITS
                assert np.all((r._indices >= 0) & (r._indices < 1 << r._n))
