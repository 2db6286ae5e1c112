"""Tests for the adversary harness: rates, transcripts, and exact oracles."""

import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qpke.attacks
from qpke.attacks import (
    CPA_PRECISION_CAP,
    CPA_TOTAL_QUBIT_CAP,
    FORWARD_SEARCH_CHUNK,
    CcaSessionResult,
    chosen_ciphertext_session,
    chosen_plaintext_distinguishability,
    enumerate_forward_search_success,
    forward_search_trial,
    identify_rotations,
    parity_from_fails,
    run_forward_search,
    single_use_constraint_check,
)
from qpke.protocol import (
    CipherState,
    PrivateKey,
    PublicKey,
    QuantumRegister,
    apply_encryption_flags,
    encrypt,
    key_id_of,
    keygen,
    prepare_register,
    swap_test_registers,
)
from qpke.quantum_core import (
    DensityMatrix, draws_outcome_zero, index_amplitudes, measure_axis, swap_parts,
)
from qpke.security_analysis import shifted_ensemble


def three_se(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


class TestDecisionRules:
    """The two forward-search decision rules as pure functions."""

    def test_identify_rotations_marks_failures(self):
        assert identify_rotations([False, True, False]) == (0, 1, 0)
        assert identify_rotations([]) == ()

    def test_parity_counts_failures(self):
        assert parity_from_fails([False, False]) == 0
        assert parity_from_fails([True, False, True]) == 0
        assert parity_from_fails([True, True, True]) == 1


class TestEnumerationOracle:
    """Exact branch enumeration against the closed-form rates."""

    def test_identify_all_closed_form(self):
        for alpha in range(1, 7):
            exact = enumerate_forward_search_success(alpha, "identify-all")
            assert exact == Fraction(3, 4) ** alpha

    def test_parity_aware_closed_form(self):
        for alpha in range(1, 7):
            exact = enumerate_forward_search_success(alpha, "parity-aware")
            assert exact == Fraction(1, 2) + Fraction(1, 1 << (alpha + 1))

    def test_two_qubit_values(self):
        assert enumerate_forward_search_success(2, "identify-all") == Fraction(9, 16)
        assert float(enumerate_forward_search_success(2, "identify-all")) == 0.5625
        assert enumerate_forward_search_success(2, "parity-aware") == Fraction(5, 8)

    def test_parity_rule_dominates_identify_all(self):
        for alpha in range(1, 9):
            parity = enumerate_forward_search_success(alpha, "parity-aware")
            identify = enumerate_forward_search_success(alpha, "identify-all")
            assert parity >= identify
            if alpha > 1:
                assert parity > identify

    def test_report_closed_forms_match_enumeration(self):
        rng = np.random.default_rng(12)
        for alpha in range(1, 9):
            reports = run_forward_search(alpha, 1, rng)
            for rule in ("identify-all", "parity-aware"):
                exact = enumerate_forward_search_success(alpha, rule)
                assert qpke.attacks._closed_form_success(alpha, rule) == exact
                assert reports[rule].predicted_rate == float(exact)

    def test_validation(self):
        with pytest.raises(ValueError, match="rule"):
            enumerate_forward_search_success(2, "majority")
        with pytest.raises(ValueError, match="alpha"):
            enumerate_forward_search_success(0, "identify-all")


class TestForwardSearchTrial:
    """Single-trial mechanics at the register level."""

    def test_unrotated_block_never_fails(self):
        rng = np.random.default_rng(11)
        key = PrivateKey(n=4, s=(9,))
        for _ in range(200):
            fails, flags = forward_search_trial(key, 0, 1, rng)
            assert flags == (0,)
            assert fails == [False]

    def test_rotated_block_fails_half_the_time(self):
        rng = np.random.default_rng(12)
        key = PrivateKey(n=4, s=(3,))
        trials = 4000
        fail_count = 0
        for _ in range(trials):
            fails, flags = forward_search_trial(key, 1, 1, rng)
            assert flags == (1,)
            fail_count += fails[0]
        assert abs(fail_count / trials - 0.5) < three_se(0.5, trials)

    def test_flags_carry_message_parity(self):
        rng = np.random.default_rng(13)
        key = PrivateKey(n=4, s=(1, 5, 9))
        for bit in (0, 1):
            fails, flags = forward_search_trial(key, bit, 3, rng)
            assert len(fails) == 3
            assert sum(flags) % 2 == bit


class TestRunForwardSearch:
    """Monte Carlo rates against the exact oracle."""

    def test_single_qubit_rate(self):
        rng = np.random.default_rng(26)
        reports = run_forward_search(1, 10000, rng)
        for rule in ("identify-all", "parity-aware"):
            report = reports[rule]
            assert report.predicted_rate == 0.75
            assert abs(report.success_rate - 0.75) < three_se(0.75, report.trials)
        assert reports["identify-all"].successes == reports["parity-aware"].successes

    def test_two_qubit_rates(self):
        rng = np.random.default_rng(22)
        reports = run_forward_search(2, 10000, rng)
        identify = reports["identify-all"]
        parity = reports["parity-aware"]
        assert identify.predicted_rate == 0.5625
        assert abs(identify.success_rate - 0.5625) < three_se(0.5625, 10000)
        assert parity.predicted_rate == 0.625
        assert abs(parity.success_rate - 0.625) < three_se(0.625, 10000)

    def test_three_qubit_rates(self):
        rng = np.random.default_rng(23)
        reports = run_forward_search(3, 6000, rng)
        identify = reports["identify-all"]
        assert identify.predicted_rate == pytest.approx(27 / 64)
        assert abs(identify.deviation) < three_se(27 / 64, 6000)
        parity = reports["parity-aware"]
        assert parity.predicted_rate == pytest.approx(9 / 16)
        assert abs(parity.deviation) < three_se(9 / 16, 6000)

    def test_deterministic_for_fixed_seed(self):
        a = run_forward_search(2, 400, np.random.default_rng(99))
        b = run_forward_search(2, 400, np.random.default_rng(99))
        assert a == b

    def test_report_record(self):
        rng = np.random.default_rng(24)
        report = run_forward_search(1, 200, rng)["parity-aware"]
        assert report.rule == "parity-aware"
        assert (report.alpha, report.trials) == (1, 200)
        assert report.success_rate == report.successes / 200
        assert report.deviation == pytest.approx(report.success_rate - report.predicted_rate)
        assert report.stderr > 0.0

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="alpha"):
            run_forward_search(0, 10, rng)
        with pytest.raises(ValueError, match="trials"):
            run_forward_search(1, 0, rng)
        for alpha in (FORWARD_SEARCH_CHUNK + 1, 10**12):
            with pytest.raises(
                ValueError, match=rf"alpha must be in \[1, {FORWARD_SEARCH_CHUNK}\], got {alpha}"
            ):
                run_forward_search(alpha, 1, rng)

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (50_000, 200_000):
            tracemalloc.start()
            try:
                run_forward_search(2, trials, np.random.default_rng(25))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestSingleUseConstraint:
    """Repeating a symmetry test on the projected pair is uninformative."""

    def test_identical_pair_always_passes(self):
        rng = np.random.default_rng(31)
        result = single_use_constraint_check(300, rng, index_offsets=(0,))
        stats = result.scenarios[0]
        assert stats.overlap == 1.0
        assert stats.first_pass_rate == 1.0
        assert stats.second_pass_given_pass == 1.0
        assert math.isnan(stats.second_pass_given_fail)

    def test_orthogonal_pair_conditionals_are_deterministic(self):
        rng = np.random.default_rng(32)
        result = single_use_constraint_check(3000, rng, index_offsets=(4,))
        stats = result.scenarios[0]
        assert stats.overlap == pytest.approx(0.0, abs=1e-15)
        assert abs(stats.first_pass_rate - 0.5) < three_se(0.5, 3000)
        assert stats.second_pass_given_pass == 1.0
        assert stats.second_pass_given_fail == 0.0

    def test_partial_overlap_second_use_differs_from_first_use_law(self):
        rng = np.random.default_rng(33)
        result = single_use_constraint_check(4000, rng, index_offsets=(1,))
        stats = result.scenarios[0]
        first_law = (1.0 + math.cos(math.pi / 8) ** 2) / 2.0
        assert stats.predicted_first_pass == pytest.approx(first_law)
        assert abs(stats.first_pass_rate - first_law) < three_se(first_law, 4000)
        assert stats.second_pass_given_pass == 1.0
        assert stats.second_pass_given_fail == 0.0
        assert abs(stats.second_pass_given_pass - first_law) > 0.07
        assert abs(stats.second_pass_given_fail - first_law) > 0.9

    @pytest.mark.parametrize("precision", [3, 8])
    def test_theory_values_are_the_closed_form_bit_for_bit(self, precision):
        offsets = tuple(range(1 << precision))
        result = single_use_constraint_check(
            1, np.random.default_rng(35), precision=precision, index_offsets=offsets
        )
        for offset, stats in zip(offsets, result.scenarios):
            inner = math.cos(math.pi * (offset / (1 << precision)))
            assert stats.overlap.hex() == inner.hex(), offset
            assert stats.predicted_first_pass.hex() == ((1.0 + inner * inner) / 2.0).hex(), offset

    def test_records_one_row_per_overlap(self):
        rng = np.random.default_rng(34)
        result = single_use_constraint_check(50, rng)
        assert len(result.scenarios) == 4
        assert all(s.trials == 50 for s in result.scenarios)
        assert [round(s.overlap, 4) for s in result.scenarios] == [
            1.0,
            round(math.cos(math.pi / 8), 4),
            round(math.cos(math.pi / 4), 4),
            0.0,
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            single_use_constraint_check(0, np.random.default_rng(1))

    def test_offsets_from_a_generator_are_the_tuple(self):
        # the offsets are checked before any pair is built: a generator must
        # still reach the work loop
        rngs = np.random.default_rng(37), np.random.default_rng(37)
        from_tuple = single_use_constraint_check(20, rngs[0], index_offsets=(1, 2, 4))
        from_generator = single_use_constraint_check(
            20, rngs[1], index_offsets=(o for o in (1, 2, 4))
        )
        assert from_generator == from_tuple
        assert rngs[0].random() == rngs[1].random()

    def test_an_offset_array_gets_the_integer_rule(self):
        offsets = np.array([0, 1], dtype=np.int64)
        with pytest.raises(TypeError, match="index offset must be an integer"):
            single_use_constraint_check(1, np.random.default_rng(1), index_offsets=offsets)

    def test_runs_on_the_kernel_without_keys_or_registers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the single-use check builds no key or register")

        def run():
            # offset 0 is left out: its repeat-after-fail rate is NaN, unequal to itself
            return single_use_constraint_check(
                200, np.random.default_rng(36), index_offsets=(1, 2, 4)
            )

        expected = run()
        monkeypatch.setattr(PrivateKey, "__post_init__", refuse)
        monkeypatch.setattr(QuantumRegister, "_from_indices", classmethod(refuse))
        with pytest.raises(AssertionError):
            PrivateKey(n=3, s=(0,))
        with pytest.raises(AssertionError):
            QuantumRegister._from_indices((0,), 3)
        assert run() == expected
        assert not hasattr(qpke.attacks, "prepare_register")
        assert not hasattr(qpke.attacks, "swap_test_registers")

    @pytest.mark.parametrize("trials", [1, 2, 7, 600])
    @pytest.mark.parametrize(
        "precision, offsets", [(3, (0, 1, 2, 4)), (5, (0, 3, 7, 16, 31)), (1, (0, 1))]
    )
    def test_batched_reference_draws_the_same_outcomes(self, precision, offsets, trials):
        for seed in range(6):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result = single_use_constraint_check(
                trials, rng, precision=precision, index_offsets=offsets
            )
            expected = batched_single_use_reference(trials, reference_rng, precision, offsets)
            for stats, (first_passes, given_pass, given_fail) in zip(result.scenarios, expected):
                assert stats.first_pass_rate == first_passes / trials
                for observed, (fails, passes) in (
                    (stats.second_pass_given_pass, given_pass),
                    (stats.second_pass_given_fail, given_fail),
                ):
                    if fails + passes:
                        assert observed == passes / (fails + passes)
                    else:
                        assert math.isnan(observed)
            # both consumed the same uniforms
            assert rng.random() == reference_rng.random()


def _test_weights(state: np.ndarray) -> list[float]:
    return [float(np.vdot(part, part).real) for part in swap_parts(state, 0, 1)]


def batched_single_use_reference(trials, rng, precision, offsets):
    """Batched single_use_constraint_check: each offset's pair is split once,
    and one rng.random((trials, 2)) draw gives every trial's first-test and
    repeat-test uniforms.  The first column is drawn with the pair's weights,
    the second with the weights of the projection the first outcome left.
    Returns per offset the first-test passes and the (fail, pass) counts of
    the repeat test after a pass and after a failure."""
    counts = []
    for offset in offsets:
        pair = np.multiply.outer(
            np.array(index_amplitudes(0, precision)), np.array(index_amplitudes(offset, precision))
        )
        weights = _test_weights(pair)
        # the repeat test's weights on each projection; a branch of weight 0 is never drawn
        repeat = [
            _test_weights(part / math.sqrt(weight)) if weight > 0.0 else [0.0, 0.0]
            for part, weight in zip(swap_parts(pair, 0, 1), weights)
        ]
        u = rng.random((trials, 2))
        first = draws_outcome_zero(weights[0], weights[1], u[:, 0])
        after = np.where(first[:, np.newaxis], repeat[0], repeat[1])
        second = draws_outcome_zero(after[:, 0], after[:, 1], u[:, 1])
        counts.append(
            (
                int(first.sum()),
                np.bincount(second[first], minlength=2).tolist(),
                np.bincount(second[~first], minlength=2).tolist(),
            )
        )
    return counts


def complex_reference_distances(n, m0, m1, alpha):
    """The three CPA trace distances on complex128 densities: complex kron,
    then Hermitian eigvalsh of the complex differences."""

    def density(message, a):
        out = np.ones((1, 1), dtype=np.complex128)
        for bit in message:
            for _ in range(a):
                p_flag = float(bit) if a == 1 else 0.5
                out = np.kron(out, shifted_ensemble(n, p_flag).astype(np.complex128))
        return out

    def distance(a, b):
        return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))

    rho_0, rho_1 = density(m0, alpha), density(m1, alpha)
    public = density((0,) * (len(m0) * alpha), 1)
    return distance(rho_0, rho_1), distance(rho_0, public), distance(rho_1, public)


def message_density(n, message, alpha):
    flags = qpke.attacks._flag_probabilities(message, alpha)
    factors = {p: shifted_ensemble(n, p) for p in set(flags)}
    return qpke.attacks._message_density(flags, factors)


def count_densities(monkeypatch):
    """Record the flag sequence of every density the CPA report builds."""
    built = []
    build = qpke.attacks._message_density

    def counting(flags, factors):
        built.append(flags)
        return build(flags, factors)

    monkeypatch.setattr(qpke.attacks, "_message_density", counting)
    return built


class TestChosenPlaintext:
    """Exact indistinguishability of ciphertext ensembles."""

    def test_single_bit_messages_indistinguishable(self):
        for n in (1, 4, 8, 12):
            report = chosen_plaintext_distinguishability(n, (0,), (1,))
            assert report.distance_between_messages < 1e-12
            assert report.distance_m0_to_public < 1e-12
            assert report.distance_m1_to_public < 1e-12

    def test_four_bit_messages_indistinguishable(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            m0 = tuple(int(b) for b in rng.integers(0, 2, size=4))
            m1 = tuple(int(b) for b in rng.integers(0, 2, size=4))
            report = chosen_plaintext_distinguishability(6, m0, m1)
            assert report.distance_between_messages < 1e-12

    def test_redundant_encoding_indistinguishable(self):
        report = chosen_plaintext_distinguishability(8, (0, 1), (1, 1), alpha=2)
        assert report.distance_between_messages < 1e-12
        assert report.distance_m0_to_public < 1e-12

    def test_record_fields(self):
        report = chosen_plaintext_distinguishability(4, (0, 1), (1, 0))
        assert report.message_0 == (0, 1)
        assert report.message_1 == (1, 0)
        assert (report.n, report.num_bits, report.alpha) == (4, 2, 1)

    def test_each_flag_probability_builds_its_ensemble_once(self, monkeypatch):
        calls = []
        build = qpke.attacks.shifted_ensemble

        def counting(n, flag_probability=0.0):
            calls.append((n, flag_probability))
            return build(n, flag_probability)

        monkeypatch.setattr(qpke.attacks, "shifted_ensemble", counting)
        chosen_plaintext_distinguishability(12, (0,) * 8, (1,) * 8)
        # one ensemble per distinct flag probability across the report's
        # three densities, where one per qubit position made 24
        assert sorted(calls) == [(12, 0.0), (12, 1.0)]
        calls.clear()
        chosen_plaintext_distinguishability(8, (0, 1, 1, 0), (1, 1, 0, 0), alpha=2)
        assert sorted(calls) == [(8, 0.0), (8, 0.5)]

    @pytest.mark.parametrize("alpha", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", range(1, CPA_PRECISION_CAP + 1))
    def test_distances_equal_the_per_density_route(self, n, alpha):
        # the route that built each of the three densities on its own and
        # solved every distance, kept as the bit-for-bit reference
        def density(message, a):
            out = np.ones((1, 1))
            for bit in message:
                for _ in range(a):
                    out = np.kron(out, shifted_ensemble(n, float(bit) if a == 1 else 0.5))
            return DensityMatrix(out)

        def distance(a, b):
            return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries))))

        rng = np.random.default_rng([n, alpha, 28])
        length = CPA_TOTAL_QUBIT_CAP // alpha
        random_pair = tuple(tuple(int(b) for b in rng.integers(0, 2, size=length)) for _ in "ab")
        for m0, m1 in [((0,) * length, (1,) * length), ((1,) * length, (0,) * length),
                       ((0,) * length, (0,) * length), random_pair]:
            rho_0, rho_1 = density(m0, alpha), density(m1, alpha)
            rho_public = density((0,) * (length * alpha), 1)
            report = chosen_plaintext_distinguishability(n, m0, m1, alpha)
            assert report.distance_between_messages == distance(rho_0, rho_1)
            assert report.distance_m0_to_public == distance(rho_0, rho_public)
            assert report.distance_m1_to_public == distance(rho_1, rho_public)

    def test_shared_density_skips_its_eigen_solve(self, monkeypatch):
        calls = []
        solve = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        # every density is a product of factors close to I/2, so the Gershgorin
        # certificate validates it with no solve; only distances solve.  The
        # CLI's report at n=12: the factors for flags 0 and 1 are byte-equal,
        # so all three densities are one object and no distance solves
        chosen_plaintext_distinguishability(12, (0,) * 8, (1,) * 8)
        assert calls == []
        # at alpha >= 2 every flag is 0.5, and at n=8 its factor is byte-equal
        # to the public density's flag-0 factor
        chosen_plaintext_distinguishability(8, (0, 1, 1, 0), (1, 1, 0, 0), alpha=2)
        assert calls == []
        # at n=6 the public density is apart: the messages' shared density and
        # it are one ordered pair, solved once for both distances
        assert shifted_ensemble(6, 0.0).tobytes() != shifted_ensemble(6, 0.5).tobytes()
        chosen_plaintext_distinguishability(6, (0, 1, 1, 0), (1, 1, 0, 0), alpha=2)
        assert calls == [(256, 256)]
        calls.clear()
        chosen_plaintext_distinguishability(6, (0, 1, 1, 0), (1, 1, 0, 0))
        assert calls == [(16, 16)] * 3

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("n", range(1, CPA_PRECISION_CAP + 1))
    def test_one_density_per_distinct_factor_sequence(self, monkeypatch, n, alpha):
        built = count_densities(monkeypatch)
        for m0, m1 in [((0,) * 4, (1,) * 4), ((0, 1, 1, 0), (1, 1, 0, 0))]:
            built.clear()
            chosen_plaintext_distinguishability(n, m0, m1, alpha)
            flags = [qpke.attacks._flag_probabilities(m, a)
                     for m, a in [(m0, alpha), (m1, alpha), ((0,) * (4 * alpha), 1)]]
            sequences = {tuple(shifted_ensemble(n, p).tobytes() for p in f) for f in flags}
            assert len(built) == len(sequences)

    def test_factors_apart_by_the_sign_of_a_zero_are_not_merged(self, monkeypatch):
        def signed_zero_ensemble(n, flag_probability=0.0):
            zero = -0.0 if flag_probability else 0.0
            return np.array([[0.5, zero], [zero, 0.5]])

        assert np.array_equal(signed_zero_ensemble(1, 1.0), signed_zero_ensemble(1, 0.0))
        built = count_densities(monkeypatch)
        monkeypatch.setattr(qpke.attacks, "shifted_ensemble", signed_zero_ensemble)
        report = chosen_plaintext_distinguishability(4, (0, 0), (1, 1))
        assert len(built) == 2
        assert report.distance_between_messages == 0.0

    @pytest.mark.parametrize(
        "n, message, alpha",
        [(1, (0, 1), 1), (6, (1, 0, 1, 1), 1), (12, (0,) * 8, 1), (12, (1,) * 8, 1),
         (8, (0, 1), 2), (4, (1,), 8)],
    )
    def test_message_density_matches_per_position_build(self, n, message, alpha):
        # the loop that built one ensemble per qubit position, kept as the reference
        want = np.ones((1, 1))
        for bit in message:
            for _ in range(alpha):
                p_flag = float(bit) if alpha == 1 else 0.5
                want = np.kron(want, shifted_ensemble(n, p_flag))
        got = message_density(n, message, alpha).entries
        assert got.tobytes() == want.tobytes()

    def test_message_density_is_real(self):
        for message, alpha in [((0, 1, 1), 1), ((1, 0), 2)]:
            entries = message_density(6, message, alpha).entries
            assert entries.dtype == np.float64

    @pytest.mark.parametrize("alpha", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 12])
    def test_distances_match_complex_reference(self, n, alpha):
        rng = np.random.default_rng([n, alpha])
        for _ in range(3):
            length = int(rng.integers(1, CPA_TOTAL_QUBIT_CAP // alpha + 1))
            m0 = tuple(int(b) for b in rng.integers(0, 2, size=length))
            m1 = tuple(int(b) for b in rng.integers(0, 2, size=length))
            report = chosen_plaintext_distinguishability(n, m0, m1, alpha)
            got = (
                report.distance_between_messages,
                report.distance_m0_to_public,
                report.distance_m1_to_public,
            )
            want = complex_reference_distances(n, m0, m1, alpha)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15
                assert g < 1e-12

    def test_caps_and_validation(self):
        with pytest.raises(ValueError, match=str(CPA_PRECISION_CAP)):
            chosen_plaintext_distinguishability(CPA_PRECISION_CAP + 1, (0,), (1,))
        with pytest.raises(ValueError, match=str(CPA_TOTAL_QUBIT_CAP)):
            chosen_plaintext_distinguishability(4, (0,) * 5, (1,) * 5, alpha=2)
        with pytest.raises(ValueError, match="equal length"):
            chosen_plaintext_distinguishability(4, (0,), (1, 1))
        with pytest.raises(ValueError, match="bits"):
            chosen_plaintext_distinguishability(4, (2,), (1,))
        with pytest.raises(ValueError, match="alpha"):
            chosen_plaintext_distinguishability(4, (0,), (1,), alpha=0)


def fresh_copy(key: PrivateKey, copy_index: int = 1) -> PublicKey:
    return PublicKey(
        key_id=key_id_of(key),
        N=key.length,
        register=prepare_register(key),
        copy_index=copy_index,
    )


class TestChosenCiphertext:
    """Bounded-oracle sessions: transcripts, caps, and consumption."""

    def test_session_respects_use_budget(self):
        rng = np.random.default_rng(51)
        key, _ = keygen(8, N=3, rng=rng)
        submissions = []
        for i in range(6):
            cipher = encrypt(fresh_copy(key, i + 1), (1, 0, 1), rng=rng)
            submissions.append((f"probe-{i}", cipher))
        session = chosen_ciphertext_session(key, 4, submissions, rng)
        assert session.uses_allowed == 4
        assert session.uses_consumed == 4
        accepted = [s for s in session.transcript if s.accepted]
        rejected = [s for s in session.transcript if not s.accepted]
        assert len(accepted) == 4
        assert len(rejected) == 2
        assert all("inactive" in s.error for s in rejected)
        assert session.bits_received == 12
        assert session.information_ceiling_bits == 12.0

    def test_eve_encrypted_message_comes_back(self):
        rng = np.random.default_rng(52)
        key, _ = keygen(16, N=4, rng=rng)
        message = (1, 1, 0, 1)
        cipher = encrypt(fresh_copy(key), message, rng=rng)
        session = chosen_ciphertext_session(key, 1, [("known", cipher)], rng)
        assert session.transcript[0].accepted
        assert session.transcript[0].result == message

    def test_malformed_submission_consumes_nothing(self):
        rng = np.random.default_rng(53)
        key, _ = keygen(8, N=3, rng=rng)
        short_reg = QuantumRegister.of_computational((0, 0))
        bad = CipherState(register=short_reg, num_bits=2, alpha=1)
        good = encrypt(fresh_copy(key), (0, 1, 0), rng=rng)
        session = chosen_ciphertext_session(
            key, 2, [("bad", bad), ("good", good)], rng
        )
        assert not session.transcript[0].accepted
        assert session.transcript[0].error is not None
        assert session.transcript[1].accepted
        assert session.uses_consumed == 1

    def test_entangled_ancilla_submission_is_decrypted(self):
        rng = np.random.default_rng(54)
        key = PrivateKey(n=4, s=(2, 11))
        front = QuantumRegister.of_computational((0, 0))
        back = QuantumRegister.of_computational((0,))
        back.apply_rotation(0, math.pi / 3)
        # the symmetry test entangles qubit 1 of the submission with the ancilla
        swap_test_registers(front, 1, back, 0, rng)
        cipher = CipherState(register=front, num_bits=2, alpha=1)
        session = chosen_ciphertext_session(key, 1, [("ancilla", cipher)], rng)
        assert session.transcript[0].accepted
        assert session.transcript[0].result is not None
        assert len(session.transcript[0].result) == 2
        assert back.qubit_count == 1

    def test_labels_are_digested(self):
        rng = np.random.default_rng(55)
        key, _ = keygen(8, N=2, rng=rng)
        cipher = encrypt(fresh_copy(key), (0, 0), rng=rng)
        session = chosen_ciphertext_session(key, 1, [("my-label", cipher)], rng)
        entry = session.transcript[0]
        assert entry.label == "my-label"
        assert len(entry.label_digest) == 16
        assert entry.label_digest != "my-label"
        assert isinstance(session, CcaSessionResult)

    def test_record_summary(self):
        rng = np.random.default_rng(56)
        key, _ = keygen(8, N=2, rng=rng)
        cipher = encrypt(fresh_copy(key), (1, 0), rng=rng)
        record = chosen_ciphertext_session(key, 2, [("x", cipher)], rng).to_record()
        assert record["attack"] == "chosen_ciphertext"
        assert record["accepted"] == 1
        assert record["uses_consumed"] == 1
        assert record["information_ceiling_bits"] == 4.0


def forward_fidelities(n: int, trials: int, rng: np.random.Generator) -> list[float]:
    """Measure-and-forward on uniform key entries at precision n: z-measure
    the copy, forward the collapsed basis state, and score its fidelity to
    the original, which is the Born weight of the realized outcome."""
    fidelities = []
    for s in rng.integers(0, 1 << n, size=trials):
        state = np.array(index_amplitudes(int(s), n), dtype=np.complex128)
        fidelities.append(measure_axis(state, 0, rng)[1])
    return fidelities


class TestKeyRecovery:
    """Disturbance an intercept-and-measure eavesdropper leaves behind."""

    def test_forward_fidelity_three_quarters(self):
        rng = np.random.default_rng(63)
        fidelities = forward_fidelities(8, 20000, rng)
        assert abs(np.mean(fidelities) - 0.75) < 0.015

    def test_single_bit_precision_is_undisturbed_in_aligned_basis(self):
        rng = np.random.default_rng(64)
        assert forward_fidelities(1, 2000, rng) == [1.0] * 2000


class TestNoHiddenInformation:
    """Attack code must act through public operations only."""

    def test_attack_module_never_reads_descriptors(self):
        source = inspect.getsource(qpke.attacks)
        assert "describe_register" not in source
        assert "_owner_tag" not in source
        assert "._indices" not in source
        assert "._index_array" not in source

    def test_decision_rules_see_only_test_outcomes(self):
        signature = inspect.signature(identify_rotations)
        assert list(signature.parameters) == ["fails"]
        signature = inspect.signature(parity_from_fails)
        assert list(signature.parameters) == ["fails"]
