"""Tests for entropy accounting, ensemble densities, and leakage estimation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpke.security_analysis
from qpke.quantum_core import DensityMatrix, index_amplitudes, rotate_axis, von_neumann_entropy
from qpke.security_analysis import (
    BOOTSTRAP_RESAMPLES,
    DEFAULT_MARGIN_THRESHOLD,
    DEFAULT_RANDOM_BASIS_ANGLES,
    ENSEMBLE_ENUMERATION_CAP,
    MI_COPIES_CAP,
    MI_PRECISION_CAP,
    MI_TRIALS_CAP,
    KeyParams,
    MeasurementStrategy,
    MutualInfoEstimate,
    POVM_ATOL,
    ensemble_density,
    ensemble_density_method,
    estimate_mutual_information,
    holevo_cap,
    permuted_key_entropy,
    private_key_entropy,
    secrecy_condition,
    shifted_ensemble,
    _outcome_probability,
)


def brute_force_key_entropy(n_l: int, n_u: int, N: int) -> float:
    """Materialize the full key probability vector and sum -p log2 p."""
    sizes = n_u - n_l + 1
    pieces = []
    for nu in range(n_l, n_u + 1):
        count = 1 << (nu * N)
        pieces.append(np.full(count, 1.0 / (sizes * count)))
    probs = np.concatenate(pieces)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    return float(-(probs @ np.log2(probs)))


class TestKeyParams:
    """Validation and derived quantities of the key distribution parameters."""

    def test_mean_precision(self):
        assert KeyParams(32, 62, 256, 16).mean_precision == 47.0
        assert KeyParams(5, 5, 1, 0).mean_precision == 5.0

    def test_accounting_allows_precision_above_simulator_limit(self):
        params = KeyParams(32, 64, 1, 1)
        assert params.n_u == 64

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="n_l"):
            KeyParams(0, 4, 1, 1)
        with pytest.raises(ValueError, match="n_u"):
            KeyParams(5, 4, 1, 1)
        with pytest.raises(ValueError, match="N"):
            KeyParams(4, 4, 0, 1)
        with pytest.raises(ValueError, match="k"):
            KeyParams(4, 4, 1, -1)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            KeyParams(4.0, 4, 1, 1)
        with pytest.raises(TypeError):
            KeyParams(4, 4, True, 1)

    @pytest.mark.parametrize(
        "n_u, N, k",
        [(4, 1, 10**400), (4, 10**400, 1), (10**400, 1, 1), (10**300, 10**300, 1)],
        ids=["k", "N", "n_u", "entropy"],
    )
    def test_rejects_a_ledger_beyond_the_float_range(self, n_u, N, k):
        # the first three overflow a conversion to float, the last a product
        with pytest.raises(ValueError, match="float range"):
            KeyParams(1, n_u, N, k)

    def test_accepts_any_finite_ledger(self):
        report = secrecy_condition(KeyParams(1, 10**300, 1, 1))
        assert all(math.isfinite(r["value_bits"]) for r in report.to_records())


class TestClosedFormEntropy:
    """Closed-form key entropies against direct enumeration."""

    def test_fixed_precision_is_bits_times_length(self):
        for nu, N in [(1, 1), (4, 3), (48, 256), (62, 1024)]:
            params = KeyParams(nu, nu, N, 0)
            assert private_key_entropy(params) == pytest.approx(N * nu)

    def test_single_entry_wide_range(self):
        params = KeyParams(32, 64, 1, 1)
        expected = math.log2(33) + 48.0
        assert private_key_entropy(params) == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_enumeration(self):
        for n_l in range(1, 7):
            for n_u in range(n_l, 7):
                for N in range(1, 4):
                    params = KeyParams(n_l, n_u, N, 0)
                    assert private_key_entropy(params) == pytest.approx(
                        brute_force_key_entropy(n_l, n_u, N), abs=1e-9
                    )

    def test_permuted_adds_log_factorial(self):
        for N in range(1, 21):
            params = KeyParams(3, 5, N, 0)
            expected = private_key_entropy(params) + math.log2(math.factorial(N))
            assert permuted_key_entropy(params) == pytest.approx(expected, abs=1e-6)

    def test_permuted_two_qubit_example(self):
        assert permuted_key_entropy(KeyParams(1, 1, 2, 0)) == pytest.approx(3.0)

    def test_permuted_brute_force_pairs(self):
        params = KeyParams(1, 1, 2, 0)
        outcomes = 2 * (1 << 2)
        assert permuted_key_entropy(params) == pytest.approx(math.log2(outcomes))


class TestHolevoCap:
    """Ceiling on extractable bits from issued copies."""

    def test_single_qubit_single_copy(self):
        assert holevo_cap(KeyParams(1, 1, 1, 1)) == 1.0

    def test_default_scale(self):
        assert holevo_cap(KeyParams(32, 62, 256, 16)) == 4096.0

    def test_no_copies_no_leakage(self):
        assert holevo_cap(KeyParams(32, 62, 256, 0)) == 0.0


class TestSecrecyCondition:
    """Margin computation, thresholding, and residual entropy."""

    def test_margin_three(self):
        report = secrecy_condition(KeyParams(48, 48, 256, 16), threshold=2.0)
        assert report.margin == pytest.approx(3.0)
        assert report.satisfied

    def test_margin_three_fails_default_threshold(self):
        report = secrecy_condition(KeyParams(48, 48, 256, 16))
        assert report.threshold == DEFAULT_MARGIN_THRESHOLD
        assert not report.satisfied

    def test_default_parameter_margin(self):
        report = secrecy_condition(KeyParams(32, 62, 256, 16))
        assert report.margin == pytest.approx(2.9387, abs=1e-4)

    def test_copies_equal_mean_precision_gives_unit_margin(self):
        report = secrecy_condition(KeyParams(48, 48, 256, 48))
        assert report.margin == pytest.approx(1.0)
        assert report.residual_key_entropy_bits == pytest.approx(0.0)

    def test_zero_copies_infinite_margin(self):
        report = secrecy_condition(KeyParams(32, 62, 256, 0))
        assert math.isinf(report.margin)
        assert report.satisfied
        assert report.residual_key_entropy_bits == pytest.approx(
            report.key_entropy_bits
        )

    def test_complete_leakage_possible_at_unit_scale(self):
        report = secrecy_condition(KeyParams(1, 1, 1, 1))
        assert report.margin == pytest.approx(1.0)
        assert not report.satisfied
        assert report.residual_key_entropy_bits == pytest.approx(0.0)

    def test_residual_entropy_is_gap_above_cap(self):
        report = secrecy_condition(KeyParams(48, 48, 256, 16))
        assert report.residual_key_entropy_bits == pytest.approx(12288.0 - 4096.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            secrecy_condition(KeyParams(4, 4, 1, 1), threshold=0.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            secrecy_condition(KeyParams(4, 4, 1, 1), threshold=math.nan)

    def test_records_cover_all_quantities(self):
        report = secrecy_condition(KeyParams(48, 48, 256, 16))
        records = report.to_records()
        names = [r["quantity"] for r in records]
        assert names == [
            "private_key_entropy",
            "permuted_key_entropy",
            "holevo_cap",
            "secrecy_margin",
            "residual_key_entropy",
        ]
        for record in records:
            assert record["params"] == {"n_l": 48, "n_u": 48, "N": 256, "k": 16}
            assert record["stderr_bits"] is None
        by_name = dict(zip(names, records))
        assert by_name["secrecy_margin"]["satisfied"] is False
        assert by_name["private_key_entropy"]["value_bits"] == pytest.approx(12288.0)

    def test_margin_monotone_in_copies(self):
        margins = [
            secrecy_condition(KeyParams(32, 62, 256, k)).margin for k in range(1, 101)
        ]
        assert all(a >= b for a, b in zip(margins, margins[1:]))

    def test_margin_monotone_in_precision(self):
        margins = [
            secrecy_condition(KeyParams(nu, nu, 256, 16)).margin
            for nu in range(1, 101)
        ]
        assert all(b >= a for a, b in zip(margins, margins[1:]))


class TestEnsembleDensity:
    """Average rotation state over a uniform key entry."""

    def test_single_bit_is_maximally_mixed(self):
        rho = ensemble_density(1).entries
        np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-15)

    def test_all_enumerable_precisions_maximally_mixed(self):
        for n in range(1, ENSEMBLE_ENUMERATION_CAP + 1):
            rho = ensemble_density(n).entries
            assert np.abs(rho - np.eye(2) / 2.0).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("flag_probability", [0.0, 0.5, 1.0])
    def test_smallest_precisions_are_exactly_maximally_mixed(self, n, flag_probability):
        # index period/2 is exactly |1>, so no cos(pi/2) residue reaches rho[0, 1]
        half = np.eye(2) / 2.0
        assert shifted_ensemble(n, flag_probability).tolist() == half.tolist()
        assert ensemble_density(n).entries.tolist() == half.tolist()

    def test_analytic_route_above_cap(self):
        rho = ensemble_density(30).entries
        np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=0.0)

    @pytest.mark.parametrize("n", list(range(1, ENSEMBLE_ENUMERATION_CAP + 1)) + [30])
    def test_entries_are_real(self, n):
        assert ensemble_density(n).entries.dtype == np.float64

    def test_rejects_complex_ensemble(self):
        rho = shifted_ensemble(4).astype(np.complex128)
        rho[0, 1] += 1e-3j
        rho[1, 0] -= 1e-3j
        with pytest.raises(ValueError, match="real"):
            DensityMatrix(rho)

    def test_method_selection(self):
        assert ensemble_density_method(1) == "enumerated"
        assert ensemble_density_method(ENSEMBLE_ENUMERATION_CAP) == "enumerated"
        assert ensemble_density_method(ENSEMBLE_ENUMERATION_CAP + 1) == "analytic"

    def test_matches_general_ensemble_average(self):
        for n in range(1, 9):
            states = np.array([index_amplitudes(s, n) for s in range(1 << n)])
            direct = states.T @ states / (1 << n)
            np.testing.assert_allclose(ensemble_density(n).entries, direct, atol=1e-12)

    def test_entropy_is_one_bit(self):
        assert von_neumann_entropy(ensemble_density(8)) == pytest.approx(1.0, abs=1e-9)

    def test_validation_makes_no_eigen_solve(self):
        # every ensemble is close to I/2, so the Gershgorin certificate holds
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
            for n in list(range(1, ENSEMBLE_ENUMERATION_CAP + 1)) + [30]:
                ensemble_density(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            ensemble_density(0)
        with pytest.raises(TypeError):
            ensemble_density(2.0)
        with pytest.raises(TypeError):
            ensemble_density_method(True)


class TestMeasurementStrategy:
    """Strategy construction and POVM validation."""

    def test_fixed_default_angle(self):
        strategy = MeasurementStrategy.fixed()
        assert strategy.kind == "fixed-basis"
        assert strategy.settings == ((0.0, 0.0, 1.0),)

    def test_random_default_angles(self):
        strategy = MeasurementStrategy.random()
        assert [a for a, _, _ in strategy.settings] == list(DEFAULT_RANDOM_BASIS_ANGLES)
        assert len(strategy.settings) == 8
        assert all((w0, w1) == (0.0, 1.0) for _, w0, w1 in strategy.settings)

    def test_random_needs_angles(self):
        with pytest.raises(ValueError, match="angle"):
            MeasurementStrategy("random-basis", ())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            MeasurementStrategy(kind="adaptive", settings=((0.0, 0.0, 1.0),))

    def test_projective_povm_accepted(self):
        e0 = np.diag([1.0, 0.0])
        e1 = np.diag([0.0, 1.0])
        strategy = MeasurementStrategy.two_outcome(e0, e1)
        assert strategy.kind == "custom-two-outcome"
        # the z-basis projector pair is the aligned projective setting
        assert strategy.settings == ((0.0, 0.0, 1.0),)

    def test_povm_weights_are_the_eigenvalues_of_e1(self):
        ray = np.array([-math.sin(0.35), math.cos(0.35)])  # R(0.7)|1>
        e1 = 0.3 * np.outer(ray, ray) + 0.2 * np.eye(2)
        ((angle, w0, w1),) = MeasurementStrategy.two_outcome(np.eye(2) - e1, e1).settings
        assert (w0, w1) == pytest.approx((0.2, 0.5), abs=1e-15)
        assert math.sin((angle - 0.7) / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_povm_must_be_hermitian(self):
        e1 = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            MeasurementStrategy.two_outcome(np.eye(2) - e1, e1)

    def test_povm_must_be_positive(self):
        e1 = np.diag([1.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            MeasurementStrategy.two_outcome(np.eye(2) - e1, e1)

    def test_povm_must_complete(self):
        e0 = np.diag([0.4, 0.4])
        e1 = np.diag([0.4, 0.4])
        with pytest.raises(ValueError, match="identity"):
            MeasurementStrategy.two_outcome(e0, e1)

    def test_povm_shape_checked(self):
        with pytest.raises(ValueError, match="2x2"):
            MeasurementStrategy.two_outcome(np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MeasurementStrategy.fixed(math.nan),
            lambda: MeasurementStrategy.fixed(math.inf),
            lambda: MeasurementStrategy(
                "random-basis", ((0.0, 0.0, 1.0), (-math.inf, 0.0, 1.0))
            ),
            lambda: MeasurementStrategy("custom-two-outcome", ((math.nan, 0.0, 1.0),)),
        ],
        ids=["fixed nan", "fixed inf", "random -inf", "custom nan"],
    )
    def test_refuses_non_finite_angles(self, build):
        with pytest.raises(ValueError, match="angle must be finite"):
            build()

    @pytest.mark.parametrize(
        "weights",
        [(2.0, -1.0), (-5e-324, 1.0), (0.0, math.nextafter(1.0, 2.0)), (math.nan, 1.0),
         (0.0, math.inf)],
        ids=["2 and -1", "below 0", "above 1", "nan", "inf"],
    )
    def test_refuses_weights_outside_the_unit_interval(self, weights):
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            MeasurementStrategy("fixed-basis", ((0.0, *weights),))

    @pytest.mark.parametrize(
        "e1",
        [np.diag([-0.5 * POVM_ATOL, 1.0]), np.diag([0.0, 1.0 + 0.5 * POVM_ATOL])],
        ids=["below 0", "above 1"],
    )
    def test_povm_eigenvalues_within_tolerance_are_clamped(self, e1):
        ((_, w0, w1),) = MeasurementStrategy.two_outcome(np.eye(2) - e1, e1).settings
        assert (w0, w1) == (0.0, 1.0)


class TestMutualInformation:
    """Simulated measurement leakage against known limits."""

    def test_single_bit_key_fully_revealed_by_aligned_basis(self):
        rng = np.random.default_rng(101)
        est = estimate_mutual_information(
            MeasurementStrategy.fixed(0.0), n=1, copies_per_trial=1, trials=4000, rng=rng
        )
        assert est.value_bits == pytest.approx(1.0, abs=0.02)
        assert est.stderr_bits < 0.02
        assert not est.undersampled

    def test_high_precision_key_leaks_under_one_bit(self):
        rng = np.random.default_rng(202)
        est = estimate_mutual_information(
            MeasurementStrategy.fixed(0.0), n=8, copies_per_trial=4, trials=20000, rng=rng
        )
        assert 0.0 < est.value_bits < 2.0
        assert est.value_bits < 8.0 - 5.0

    def test_leakage_bounded_by_copies(self):
        rng = np.random.default_rng(303)
        est = estimate_mutual_information(
            MeasurementStrategy.fixed(0.0), n=4, copies_per_trial=1, trials=20000, rng=rng
        )
        assert est.value_bits <= 1.0 + 3.0 * est.stderr_bits

    def test_uninformative_povm_learns_nothing(self):
        rng = np.random.default_rng(404)
        strategy = MeasurementStrategy.two_outcome(np.eye(2) / 2.0, np.eye(2) / 2.0)
        est = estimate_mutual_information(
            strategy, n=4, copies_per_trial=4, trials=8000, rng=rng
        )
        assert abs(est.value_bits) < 0.01

    def test_random_basis_strategy_runs_stratified(self):
        rng = np.random.default_rng(505)
        est = estimate_mutual_information(
            MeasurementStrategy.random(), n=3, copies_per_trial=2, trials=24000, rng=rng
        )
        assert 0.0 <= est.value_bits <= 2.0
        assert est.strategy_kind == "random-basis"

    def test_undersampled_flag(self):
        rng = np.random.default_rng(606)
        est = estimate_mutual_information(
            MeasurementStrategy.fixed(0.0), n=8, copies_per_trial=8, trials=64, rng=rng
        )
        assert est.undersampled

    def test_record_shape(self):
        rng = np.random.default_rng(707)
        est = estimate_mutual_information(
            MeasurementStrategy.fixed(0.0), n=2, copies_per_trial=1, trials=500, rng=rng
        )
        record = est.to_record()
        assert record["quantity"] == "mutual_information"
        assert record["params"]["n"] == 2
        assert record["satisfied"] is None
        assert isinstance(est, MutualInfoEstimate)

    def test_precision_cap_enforced(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=str(MI_PRECISION_CAP)):
            estimate_mutual_information(
                MeasurementStrategy.fixed(0.0),
                n=MI_PRECISION_CAP + 1,
                copies_per_trial=1,
                trials=100,
                rng=rng,
            )

    def test_copies_cap_enforced(self):
        rng = np.random.default_rng(1)
        strategy = MeasurementStrategy.random()
        with pytest.raises(ValueError, match=str(MI_COPIES_CAP)):
            estimate_mutual_information(strategy, 2, MI_COPIES_CAP + 1, 100, rng)
        with pytest.raises(ValueError, match=str(MI_COPIES_CAP)):
            estimate_mutual_information(strategy, 2, 10**12, 2, rng)
        at_cap = estimate_mutual_information(strategy, 2, MI_COPIES_CAP, 100, rng)
        assert at_cap.copies_per_trial == MI_COPIES_CAP

    def test_trials_cap_enforced_before_any_draw(self):
        strategy = MeasurementStrategy.fixed(0.0)
        for trials in (MI_TRIALS_CAP + 1, 10**12):
            rng = np.random.default_rng(1)
            with pytest.raises(ValueError, match=str(MI_TRIALS_CAP)):
                estimate_mutual_information(strategy, 2, 1, trials, rng)
            assert rng.random() == np.random.default_rng(1).random()

    def test_input_validation(self):
        rng = np.random.default_rng(1)
        strategy = MeasurementStrategy.fixed(0.0)
        with pytest.raises(ValueError, match="copies"):
            estimate_mutual_information(strategy, 2, 0, 100, rng)
        with pytest.raises(ValueError, match="trials"):
            estimate_mutual_information(strategy, 2, 1, 1, rng)
        with pytest.raises(TypeError):
            estimate_mutual_information(strategy, 2.0, 1, 100, rng)

    def test_bootstrap_count(self):
        assert BOOTSTRAP_RESAMPLES == 32


def _reference_miller_madow(s: np.ndarray, y: np.ndarray, y_card: int) -> tuple[float, int]:
    """The np.unique estimator the count-based one replaced, kept as its oracle."""
    total = s.size
    _, s_counts = np.unique(s, return_counts=True)
    _, y_counts = np.unique(y, return_counts=True)
    _, joint_counts = np.unique(s.astype(np.int64) * y_card + y, return_counts=True)

    def entropy(counts):
        return math.log2(total) - float(counts @ np.log2(counts)) / total

    plugin = entropy(s_counts) + entropy(y_counts) - entropy(joint_counts)
    correction = (
        (s_counts.size - 1) + (y_counts.size - 1) - (joint_counts.size - 1)
    ) / (2.0 * total * math.log(2.0))
    return plugin + correction, joint_counts.size


def _reference_stratified(s, y, strata, y_card) -> tuple[float, int]:
    if strata is None:
        return _reference_miller_madow(s, y, y_card)
    value = 0.0
    support = 0
    for label in np.unique(strata):
        pick = strata == label
        mi, sup = _reference_miller_madow(s[pick], y[pick], y_card)
        value += (int(pick.sum()) / s.size) * mi
        support += sup
    return value, support


def reference_mutual_information(strategy, n, copies_per_trial, trials, rng):
    """estimate_mutual_information as it was with one np.unique pass per
    marginal, per stratum and per bootstrap resample; same draws."""
    s = rng.integers(0, 1 << n, size=trials, dtype=np.int64)
    if len(strategy.settings) > 1:
        strata = rng.integers(0, len(strategy.settings), size=trials)
    else:
        strata = None
    p1 = _outcome_probability(s, n, strategy, strata)
    y = rng.binomial(copies_per_trial, p1).astype(np.int64)
    y_card = copies_per_trial + 1
    value, support = _reference_stratified(s, y, strata, y_card)
    resamples = np.empty(BOOTSTRAP_RESAMPLES)
    for i in range(BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, trials, size=trials)
        resamples[i] = _reference_stratified(
            s[pick], y[pick], None if strata is None else strata[pick], y_card
        )[0]
    return MutualInfoEstimate(
        value_bits=float(value),
        stderr_bits=float(np.std(resamples, ddof=1)),
        trials=trials,
        copies_per_trial=copies_per_trial,
        n=n,
        strategy_kind=strategy.kind,
        undersampled=trials < 10 * support,
    )


REFERENCE_STRATEGIES = {
    "fixed 0": MeasurementStrategy.fixed(0.0),
    "fixed pi/8": MeasurementStrategy.fixed(math.pi / 8),
    "random basis": MeasurementStrategy.random(),
    "two-outcome povm": MeasurementStrategy.two_outcome(
        np.array([[0.7, 0.2], [0.2, 0.4]]),
        np.array([[0.3, -0.2], [-0.2, 0.6]]),
    ),
}


# the benchmark's MI jobs as (copies, trials): long count vectors, up to
# 120000 trials, for the per-setting dot products
BENCH_MI_JOBS = {
    ("random basis", 16): [(1, 20000)],
    ("fixed 0", 16): [(1, 60000)],
    ("random basis", 8): [(4, 30000)],
    ("fixed 0", 8): [(4, 120000)],
}


class TestMutualInformationReference:
    """The count-based estimator returns the np.unique estimator's numbers
    bit for bit from the same draws."""

    @pytest.mark.parametrize("label", sorted(REFERENCE_STRATEGIES))
    @pytest.mark.parametrize("n", [1, 4, 8, 16])
    def test_equals_np_unique_reference(self, label, n):
        strategy = REFERENCE_STRATEGIES[label]
        # 2 and 40 trials leave cells, and random-basis strata, out of
        # resamples; 16 and 257 copies leave many outcome bins empty
        cases = [
            (copies, trials, seed)
            for copies in (1, 4, 16, 257)
            for trials in (2, 40, 5000)
            for seed in (0, 1, 2)
        ]
        cases += [(copies, trials, 3) for copies, trials in BENCH_MI_JOBS.get((label, n), ())]
        for copies, trials, seed in cases:
            args = (strategy, n, copies, trials)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = estimate_mutual_information(*args, got_rng)
            want = reference_mutual_information(*args, want_rng)
            assert got == want, (label, n, copies, trials, seed)
            # the same number of draws
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_sorts_once_per_estimate(self, monkeypatch):
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        estimate_mutual_information(
            MeasurementStrategy.random(), 8, 2, 3000, np.random.default_rng(9)
        )
        assert len(calls) == 1


class TestOutcomeProbabilityConsistency:
    """Vectorized outcome probabilities against the state-level simulator."""

    def test_rotated_basis_matches_state_measurement(self):
        for n in (1, 2, 4, 8):
            for phi in (0.0, math.pi / 8, math.pi / 3):
                s_values = np.arange(1 << min(n, 4), dtype=np.int64)
                strategy = MeasurementStrategy.fixed(phi)
                p1 = _outcome_probability(s_values, n, strategy, None)
                for s, p in zip(s_values, p1):
                    state = np.array(index_amplitudes(int(s), n))
                    # outcome 1 of the rotated basis is outcome 1 after R(phi)^-1
                    born_one = abs(rotate_axis(state, 0, -phi)[1]) ** 2
                    assert p == pytest.approx(born_one, abs=1e-12)

    def test_povm_probability_matches_quadratic_form(self):
        phi_vec = np.array([math.cos(0.7), math.sin(0.7)])
        e1 = 0.3 * np.outer(phi_vec, phi_vec) + 0.2 * np.eye(2)
        strategy = MeasurementStrategy.two_outcome(np.eye(2) - e1, e1)
        n = 6
        s_values = np.arange(1 << n, dtype=np.int64)
        p1 = _outcome_probability(s_values, n, strategy, None)
        for s, p in zip(s_values, p1):
            amps = np.array(index_amplitudes(int(s), n))
            direct = np.vdot(amps, e1 @ amps).real
            assert p == pytest.approx(direct, abs=1e-12)


# weights and Born probabilities in [0, 1], their extremes drawn often
UNIT_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1074 * 3, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(w0=UNIT_FLOATS, w1=UNIT_FLOATS, born=st.lists(UNIT_FLOATS, min_size=1, max_size=8))
def test_rounded_mix_of_unit_weights_stays_in_the_unit_interval(w0, w1, born):
    """w0 + (w1 - w0) * q, rounded op by op, lies in [0, 1] for weights and q
    in [0, 1], so the outcome probability needs no clip."""
    q = np.array(born + [0.0, 1.0])
    strategy = MeasurementStrategy("custom-two-outcome", ((0.0, w0, w1),))
    with mock.patch.object(
        qpke.security_analysis, "outcome_one_probability", lambda s, n, angle: q
    ):
        p1 = _outcome_probability(np.zeros(q.size, dtype=np.int64), 4, strategy, None)
    assert np.all((p1 >= 0.0) & (p1 <= 1.0)), (w0, w1, q[(p1 < 0.0) | (p1 > 1.0)])


def parent_outcome_probability(s, n, kind, basis_choice, angle=0.0, angles=(), e1=None):
    """_outcome_probability as it was: a switch on the strategy kind over its
    own copy of the half-angle map.  The settings form must reproduce it."""
    half = s.astype(np.float64) * (np.pi / float(1 << n))
    if kind == "custom-two-outcome":
        a, b = np.cos(half), np.sin(half)
        p1 = a * a * e1[0, 0].real + 2.0 * a * b * e1[0, 1].real + b * b * e1[1, 1].real
    else:
        if kind == "fixed-basis":
            phi = angle
        else:
            phi = np.asarray(angles, dtype=np.float64)[basis_choice]
        p1 = np.square(np.sin(half - phi / 2.0))
    return np.clip(p1, 0.0, 1.0)


class TestSettingsReproduceTheKindSwitch:
    """Strategies as (angle, w0, w1) settings on the kernel's Born rule give
    the outcome probabilities of the kind switch they replaced."""

    @pytest.mark.parametrize("n", [1, 4, 8, 16])
    @pytest.mark.parametrize("angle", [0.0, math.pi / 8])
    def test_fixed_basis_bit_for_bit(self, n, angle):
        s = np.arange(1 << n, dtype=np.int64)
        got = _outcome_probability(s, n, MeasurementStrategy.fixed(angle), None)
        want = parent_outcome_probability(s, n, "fixed-basis", None, angle=angle)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 4, 8, 16])
    def test_random_basis_bit_for_bit(self, n):
        # every index under every setting
        settings = len(DEFAULT_RANDOM_BASIS_ANGLES)
        s = np.repeat(np.arange(1 << n, dtype=np.int64), settings)
        strata = np.tile(np.arange(settings), 1 << n)
        got = _outcome_probability(s, n, MeasurementStrategy.random(), strata)
        want = parent_outcome_probability(
            s, n, "random-basis", strata, angles=DEFAULT_RANDOM_BASIS_ANGLES
        )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 4, 8, 16])
    @pytest.mark.parametrize(
        "e1",
        [
            np.array([[0.3, -0.2], [-0.2, 0.6]]),
            np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]]),
            np.eye(2) / 2.0,
            np.diag([0.0, 1.0]),
        ],
        ids=["real", "complex", "uninformative", "projective"],
    )
    def test_povm_within_rounding(self, n, e1):
        s = np.arange(1 << n, dtype=np.int64)
        strategy = MeasurementStrategy.two_outcome(np.eye(2) - e1, e1)
        got = _outcome_probability(s, n, strategy, None)
        want = parent_outcome_probability(s, n, "custom-two-outcome", None, e1=e1)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_lone_random_angle_draws_as_fixed(self):
        # the parent drew rng.integers(0, 1, size) for one angle: no bits
        rng = np.random.default_rng(4)
        rng.integers(0, 1, size=1000)
        assert rng.random() == np.random.default_rng(4).random()
        args = (5, 3, 4000)
        lone_angle = MeasurementStrategy("random-basis", ((0.3, 0.0, 1.0),))
        lone = estimate_mutual_information(lone_angle, *args, np.random.default_rng(8))
        fixed = estimate_mutual_information(
            MeasurementStrategy.fixed(0.3), *args, np.random.default_rng(8)
        )
        assert lone == dataclasses.replace(fixed, strategy_kind="random-basis")
