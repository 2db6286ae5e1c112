"""Tests for the rotation-state simulation kernel.

Frozen expected values come from direct evaluation of the defining
formulas: amplitudes (cos(s pi / 2**n), sin(s pi / 2**n)), swap-test pass
probability (1 + |<a|b>|^2) / 2, and entropy -sum p log2 p.
"""

import inspect
import math
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qpke.attacks
import qpke.protocol
import qpke.security_analysis
from qpke.quantum_core import (
    ATOL,
    EIGENVALUE_FLOOR,
    MAX_PRECISION_BITS,
    DensityMatrix,
    draws_outcome_zero,
    index_amplitudes,
    measure_axis,
    outcome_one_probability,
    rotate_axis,
    rotation_matrix,
    sample_outcome,
    swap_parts,
    swap_project,
    trace_distance,
    von_neumann_entropy,
)


def three_se(p: float, trials: int) -> float:
    """Three binomial standard errors for a rate estimated over `trials`."""
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def product_tensor(*factors: np.ndarray) -> np.ndarray:
    """Product of single-qubit amplitude vectors as a (2,)*k kernel tensor."""
    joint = np.ones(1, dtype=np.complex128)
    for factor in factors:
        joint = np.kron(joint, factor)
    return joint.reshape((2,) * len(factors))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two amplitude tensors of one shape."""
    return float(abs(np.vdot(a, b)) ** 2)


def single(s: int, n: int) -> np.ndarray:
    """Amplitudes of the indexed one-qubit rotation state, s reduced mod 2**n."""
    return np.array(index_amplitudes(s % (1 << n), n), dtype=np.complex128)


def rotation_angle(s: int, n: int) -> float:
    """The angle s * pi / 2**(n-1) of R whose |0> image is index state s,
    s reduced mod 2**n."""
    return math.pi * ((s % (1 << n)) / (1 << (n - 1)))


def closed_form_overlap(a: int, b: int, n: int) -> float:
    """<psi_a|psi_b> = cos((a - b) * pi / 2**n) of index states a and b."""
    return math.cos(math.pi * ((a - b) / (1 << n)))


def map_overlap(a: int, b: int, n: int) -> float:
    """<psi_a|psi_b> from the kernel's index-to-state map, unreduced indices."""
    return float(np.dot(index_amplitudes(a, n), index_amplitudes(b, n)))


def reduced_purity(pair: np.ndarray) -> float:
    """tr(rho^2) of qubit 0 of a two-qubit amplitude tensor."""
    rho = np.outer(pair, pair.conj()).reshape(2, 2, 2, 2)
    reduced = np.einsum("ajbj->ab", rho)
    return float(np.trace(reduced @ reduced).real)


class _FixedUniform:
    """Stand-in generator whose random() always returns one value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


class TestIndexPeriod:
    """Indices are exact dyadic rotation angles with period 2**n."""

    def test_reduction_modulo_period(self):
        # a full period of 2**n steps is a turn by 2 pi, R(2 pi) = -1: the
        # same state, up to its sign
        for s, reduced in ((19, 3), (-1, 15), (16, 0)):
            inner = map_overlap(s, reduced, 4)
            assert inner == pytest.approx(closed_form_overlap(s, reduced, 4), abs=1e-15)
            assert abs(inner) == pytest.approx(1.0, abs=1e-15)


class TestRotationMatrix:
    """Matrix form of R(theta) = exp(-i theta Y / 2)."""

    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)

    def test_full_period_is_minus_identity(self):
        np.testing.assert_allclose(rotation_matrix(2 * math.pi), -np.eye(2), atol=1e-12)

    def test_half_period(self):
        np.testing.assert_allclose(
            rotation_matrix(math.pi), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12
        )

    def test_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.uniform(-2 * math.pi, 2 * math.pi, 2)
            np.testing.assert_allclose(
                rotation_matrix(a) @ rotation_matrix(b),
                rotation_matrix(a + b),
                atol=1e-12,
            )

    def test_orthogonality(self):
        m = rotation_matrix(0.731)
        np.testing.assert_allclose(m.T @ m, np.eye(2), atol=1e-14)


class TestIndexAmplitudes:
    """Amplitudes of the indexed rotation states."""

    def test_zero_index(self):
        for n in (1, 4, 62):
            np.testing.assert_allclose(single(0, n), [1.0, 0.0], atol=1e-12)

    def test_antipodal_index(self):
        for n in (1, 4, 32):
            np.testing.assert_allclose(single(1 << (n - 1), n), [0.0, 1.0], atol=1e-12)

    def test_quarter_turn(self):
        np.testing.assert_allclose(single(1, 2), [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    @pytest.mark.parametrize("n", range(1, MAX_PRECISION_BITS + 1))
    def test_batch_matches_the_stacked_form(self, n):
        def stacked(indices):
            half = np.pi * (indices / (1 << n))
            amps = np.stack([np.cos(half), np.sin(half)], axis=-1)
            amps[indices == 1 << (n - 1)] = (0.0, 1.0)
            return amps

        rng = np.random.default_rng(n)
        half_period = 1 << (n - 1)
        for shape in [(), (9,), (3, 4)]:
            indices = rng.integers(0, 1 << n, size=shape, dtype=np.int64)
            indices.flat[0] = half_period
            for idx in (indices, indices.flat[-1], int(indices.flat[-1])):
                got = index_amplitudes(idx, n)
                want = stacked(idx)
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, MAX_PRECISION_BITS + 1))
    def test_matches_the_scalar_map(self, n):
        # a copy of the scalar map on math.cos and math.sin: the map hands out
        # its bytes for a plain int, an np.int64 and an element of an int64 array
        def scalar(s):
            if s == 1 << (n - 1):
                return 0.0, 1.0
            half = math.pi * (s / (1 << n))
            return math.cos(half), math.sin(half)

        period = 1 << n
        if n <= 16:
            indices = np.arange(period, dtype=np.int64)
        else:
            sampled = np.random.default_rng(n).integers(0, period, size=2000, dtype=np.int64)
            indices = np.concatenate([sampled, [period >> 1, period - 1]])
        want = np.array([scalar(s) for s in indices.tolist()]).tobytes()
        assert index_amplitudes(indices, n).tobytes() == want
        assert np.array([index_amplitudes(s, n) for s in indices.tolist()]).tobytes() == want
        assert np.array([index_amplitudes(s, n) for s in indices]).tobytes() == want

    @given(n=st.integers(1, MAX_PRECISION_BITS), s=st.integers(0, 2**62 - 1))
    @settings(max_examples=80, deadline=None)
    def test_normalization(self, n, s):
        assert abs(np.linalg.norm(single(s, n)) - 1.0) <= ATOL

    @pytest.mark.parametrize("n", range(1, 13))
    def test_uniform_dyadic_ensemble_is_maximally_mixed(self, n):
        """The uniform mixture is I/2 at every precision, including n = 1, 2."""
        states = np.array([single(s, n) for s in range(1 << n)])
        rho = states.T @ states.conj() / (1 << n)
        assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12


class TestApplyRotation:
    """One-qubit rotations on one axis of a multi-qubit amplitude tensor."""

    def test_rotates_selected_qubit(self):
        zz = product_tensor(single(0, 1), single(0, 1))
        rotated = rotate_axis(zz, 1, math.pi)
        np.testing.assert_allclose(rotated.reshape(-1), [0, 1.0, 0, 0], atol=1e-12)
        rotated = rotate_axis(zz, 0, math.pi)
        np.testing.assert_allclose(rotated.reshape(-1), [0, 0, 1.0, 0], atol=1e-12)

    def test_matches_index_composition(self):
        for n in (2, 5, 8):
            for s, k in ((0, 1), (3, 5), (2 ** (n - 1), 2 ** (n - 1) + 1)):
                theta = k * math.pi * 2.0 ** (1 - n)
                rotated = rotate_axis(single(s, n), 0, theta)
                assert fidelity(rotated, single(s + k, n)) == pytest.approx(1.0, abs=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), theta=st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_preserves_norm(self, seed, theta):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = (raw / np.linalg.norm(raw)).reshape(2, 2)
        rotated = rotate_axis(state, int(seed) % 2, theta)
        assert abs(np.linalg.norm(rotated) - 1.0) <= ATOL


class TestOverlap:
    """Inner products of the kernel's index states: cos((a - b) pi / 2**n)."""

    def test_equal_indices(self):
        assert map_overlap(9, 9, 5) == pytest.approx(1.0, abs=1e-15)

    def test_adjacent_indices(self):
        for n in (1, 2, 8, 30):
            got = map_overlap(1, 0, n)
            assert got == pytest.approx(math.cos(math.pi / 2**n), abs=1e-15)

    def test_antipodal_indices(self):
        for n in (1, 4, 40, 62):
            s = 12345 % (1 << n)
            antipode = (s + (1 << (n - 1))) % (1 << n)
            assert map_overlap(s, antipode, n) == pytest.approx(0.0, abs=1e-12)

    def test_matches_prepared_inner_product_exhaustively(self):
        # Every index pair at n <= 8 agrees with the closed form.
        for n in range(1, 9):
            states = [single(s, n) for s in range(1 << n)]
            gram = np.real(np.array(states) @ np.array(states).T)
            for a in range(1 << n):
                for b in range(1 << n):
                    assert abs(closed_form_overlap(a, b, n) - gram[a, b]) <= 1e-12

    def test_matches_prepared_inner_product_sampled(self):
        rng = np.random.default_rng(11)
        for n in range(9, 17):
            for _ in range(100):
                a, b = (int(v) for v in rng.integers(0, 1 << n, 2))
                inner = float(np.vdot(single(a, n), single(b, n)).real)
                assert abs(closed_form_overlap(a, b, n) - inner) <= 1e-12


class TestSampleOutcome:
    """Cumulative sampling with the zero-branch and tie-break rules."""

    def test_zero_probability_branch_never_selected(self):
        assert sample_outcome([0.0, 1.0], _FixedUniform(0.0)) == 1
        rng = np.random.default_rng(3)
        assert all(sample_outcome([0.0, 1.0], rng) == 1 for _ in range(1000))

    def test_tie_breaks_toward_lower_label(self):
        assert sample_outcome([0.25, 0.75], _FixedUniform(0.25)) == 0
        assert sample_outcome([0.25, 0.75], _FixedUniform(0.2500001)) == 1

    def test_certain_outcome(self):
        rng = np.random.default_rng(4)
        assert all(sample_outcome([1.0, 0.0], rng) == 0 for _ in range(100))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="positive probability"):
            sample_outcome([0.0, 0.0], _FixedUniform(0.5))


def _cumulative_rule(probabilities, u):
    """Reference: the cumulative loop sample_outcome ran before the rule
    moved into draws_outcome_zero."""
    cumulative = 0.0
    last = -1
    for label, p in enumerate(probabilities):
        if p <= 0.0:
            continue
        cumulative += float(p)
        last = label
        if u <= cumulative:
            return label
    return last


def _batch_mask_rule(p_pass, p_fail, u):
    """Reference: the pass mask of the former batched symmetry test, outcome 0 = pass."""
    return 0 if (p_pass > 0.0) & ((u <= p_pass) | (p_fail <= 0.0)) else 1


def _exact_register_rule(p1, u):
    """Reference: the nested np.where of the register's exact measurements."""
    return int(np.where(p1 <= 0.0, 0, np.where(p1 >= 1.0, 1, int(u > 1.0 - p1))))


class TestOutcomeRule:
    """draws_outcome_zero against the three outcome rules it replaced."""

    @staticmethod
    def check(p1, u):
        p0 = 1.0 - p1
        drawn = 0 if draws_outcome_zero(p0, p1, u) else 1
        assert drawn == _cumulative_rule([p0, p1], u)
        assert drawn == _batch_mask_rule(p0, p1, u)
        assert drawn == _exact_register_rule(p1, u)
        assert drawn == sample_outcome([p0, p1], _FixedUniform(u))

    @pytest.mark.parametrize("p1", [0.0, 1.0, 0.25, 0.5, 1.0 - 2.0**-53, 2.0**-60])
    def test_edges(self, p1):
        p0 = 1.0 - p1
        for u in (0.0, p0, float(np.nextafter(p0, 1.0)), 1.0):
            self.check(p1, u)

    @given(p1=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_references(self, p1, u):
        self.check(p1, u)

    @given(p0=st.floats(0.0, 1.0), p1=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_unnormalized_branch_weights(self, p0, p1, u):
        # symmetry-test branches carry their own norms, which need not sum to 1
        if p0 <= 0.0 and p1 <= 0.0:
            return
        drawn = 0 if draws_outcome_zero(p0, p1, u) else 1
        assert drawn == _cumulative_rule([p0, p1], u) == _batch_mask_rule(p0, p1, u)

    def test_elementwise_over_arrays(self):
        p1 = np.array([0.0, 1.0, 0.5, 0.5])
        u = np.array([0.9, 0.0, 0.5, 0.6])
        assert draws_outcome_zero(1.0 - p1, p1, u).tolist() == [True, False, True, False]


class TestKernelOwnsConventions:
    """The index-to-state map lives in the kernel, not in its callers."""

    @pytest.mark.parametrize("module", [qpke.protocol, qpke.attacks, qpke.security_analysis])
    def test_module_calls_no_sin_or_cos(self, module):
        assert not re.search(r"\b(sin|cos)\(", inspect.getsource(module))


class TestOutcomeOneProbability:
    """The Born rule of index states in a rotated basis."""

    def test_aligned_basis_is_the_map_column_squared(self):
        # bit for bit at every precision, so exact register measurements
        # draw as they did from the squared |1> column
        rng = np.random.default_rng(0)
        for n in range(1, MAX_PRECISION_BITS + 1):
            period = 1 << n
            special = [0, 1, period >> 2, period >> 1, period - 1]
            s = np.array(special + rng.integers(0, period, size=200).tolist(), dtype=np.int64)
            want = np.square(index_amplitudes(s, n)[:, 1])
            assert outcome_one_probability(s, n).tobytes() == want.tobytes(), n
            assert outcome_one_probability(s[3], n) == 1.0
            assert outcome_one_probability(s[0], n) == 0.0


class TestMeasureZ:
    """Projective z-basis measurement of one axis."""

    def test_basis_state_is_deterministic(self):
        rng = np.random.default_rng(0)
        one = single(1, 1)
        for _ in range(50):
            outcome, probability, _ = measure_axis(one, 0, rng)
            assert outcome == 1
            assert probability == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_probability(self):
        rng = np.random.default_rng(1)
        _, probability, _ = measure_axis(single(1, 2), 0, rng)
        assert probability == pytest.approx(0.5, abs=1e-12)

    def test_equal_superposition_statistics(self):
        rng = np.random.default_rng(2)
        plus = single(1, 2)
        trials = 10_000
        ones = sum(measure_axis(plus, 0, rng)[0] for _ in range(trials))
        assert abs(ones / trials - 0.5) <= three_se(0.5, trials)

    def test_post_state_is_projected(self):
        """Measuring qubit 0 of a|0>|u> + b|1>|v> leaves |u> or |v> on the
        other axis; measuring the projected state again repeats the outcome."""
        rng = np.random.default_rng(5)
        u, v = single(3, 4), single(6, 4)
        joint = np.stack([math.sqrt(0.5) * u, math.sqrt(0.5) * v])
        for _ in range(20):
            outcome, probability, remainder = measure_axis(joint, 0, rng)
            assert probability == pytest.approx(0.5, abs=1e-12)
            assert fidelity(remainder, (u, v)[outcome]) == pytest.approx(1.0, abs=1e-12)
            post = np.zeros_like(joint)
            post[outcome] = remainder
            again, certainty, _ = measure_axis(post, 0, rng)
            assert again == outcome
            assert certainty == pytest.approx(1.0, abs=1e-12)

    def test_multi_qubit_measurement(self):
        rng = np.random.default_rng(6)
        zo = product_tensor(single(0, 1), single(1, 1))
        assert measure_axis(zo, 0, rng)[0] == 0
        assert measure_axis(zo, 1, rng)[0] == 1


class TestMeasureInRotatedBasis:
    """Measurement in {R(phi)|0>, R(phi)|1>}: undo R(phi), then measure z."""

    def test_aligned_basis_is_deterministic(self):
        rng = np.random.default_rng(8)
        for s, n in ((3, 4), (1, 1), (2**61 + 17, 62)):
            aligned = rotate_axis(single(s, n), 0, -rotation_angle(s, n))
            outcome, probability, _ = measure_axis(aligned, 0, rng)
            assert outcome == 0
            assert probability == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_basis_flips_outcome(self):
        rng = np.random.default_rng(9)
        phi = rotation_angle(5 + 8, 4)
        outcome, probability, _ = measure_axis(rotate_axis(single(5, 4), 0, -phi), 0, rng)
        assert outcome == 1
        assert probability == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_reduces_to_measure_z(self):
        state = single(3, 4)
        a = measure_axis(rotate_axis(state, 0, 0.0), 0, np.random.default_rng(10))
        b = measure_axis(state, 0, np.random.default_rng(10))
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], abs=1e-12)


@st.composite
def real_densities(draw, k=None):
    """Real symmetric PSD unit-trace matrix over k qubits (1 to 4 if not given),
    the normalized Gram matrix of a random real square matrix."""
    if k is None:
        k = draw(st.integers(1, 4))
    dim = 1 << k
    factor = draw(arrays(np.float64, (dim, dim), elements=st.floats(-1.0, 1.0)))
    gram = factor @ factor.T
    trace = float(np.trace(gram))
    assume(trace > 1e-6)
    rho = gram / trace
    return 0.5 * (rho + rho.T)


def complex_spectrum(mat: np.ndarray) -> np.ndarray:
    """Hermitian eigenvalues of the matrix cast to complex128."""
    return np.linalg.eigvalsh(mat.astype(np.complex128))


class TestDensityMatrix:
    """Density matrices are stored real."""

    def test_complex_with_zero_imaginary_part_stores_real_bytes(self):
        real = np.array([[0.75, 0.25], [0.25, 0.25]])
        from_real = DensityMatrix(real).entries
        from_complex = DensityMatrix(real.astype(np.complex128)).entries
        assert from_real.dtype == from_complex.dtype == np.float64
        assert from_real.tobytes() == from_complex.tobytes() == real.tobytes()

    def test_entries_are_a_read_only_copy(self):
        real = np.eye(2) / 2
        entries = DensityMatrix(real).entries
        assert not entries.flags.writeable
        assert real.flags.writeable

    @pytest.mark.parametrize("imag", [1e-300, -1e-17, 0.25, np.nan])
    def test_rejects_nonzero_imaginary_part(self, imag):
        mat = (np.eye(2) / 2).astype(np.complex128)
        mat[0, 1] += 1j * imag
        mat[1, 0] -= 1j * imag
        with pytest.raises(ValueError, match="real"):
            DensityMatrix(mat)

    @pytest.mark.parametrize(
        "entries",
        [
            [[0.5, 0.25], [0.25, 0.5]],
            [[0.5, 0.0], [2e-12, 0.5]],
            [[0.5, 0.25], [0.25 + 1e-7, 0.5]],
            [[0.5, np.inf], [np.inf, 0.5]],
            [[0.5, -np.inf], [-np.inf, 0.5]],
            [[0.5, np.inf], [0.0, 0.5]],
            [[0.5, np.nan], [np.nan, 0.5]],
        ],
        ids=["exact", "asymmetric-2e-12", "inside-rtol", "inf", "minus-inf",
             "asymmetric-inf", "nan"],
    )
    def test_symmetry_fast_path_keeps_the_allclose_outcome(self, entries, monkeypatch):
        def outcome():
            try:
                return DensityMatrix(np.array(entries)).entries.tobytes()
            except ValueError as exc:
                return str(exc)

        got = outcome()
        # with exact equality never found, only allclose decides
        monkeypatch.setattr(np, "array_equal", lambda a, b: False)
        assert got == outcome()

    def test_rejects_asymmetric_and_off_trace(self):
        with pytest.raises(ValueError, match="symmetric"):
            DensityMatrix(np.array([[0.5, 0.25], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "minus-inf", "nan"])
    @pytest.mark.parametrize(
        "cells", [((0, 0),), ((0, 1), (1, 0)), ((0, 0), (1, 1))], ids=["diagonal", "off", "both"]
    )
    def test_rejects_non_finite_entries(self, value, cells):
        mat = np.eye(2) / 2
        for cell in cells:
            mat[cell] = value
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(mat)

    @pytest.mark.parametrize(
        "entries",
        [np.ones(2) / 2, np.full((2, 4), 0.25), np.ones((2, 2, 2)) / 4],
        ids=["1-D", "2x4", "3-D"],
    )
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(entries)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_rejects_dimension_other_than_a_power_of_two(self, dim):
        with pytest.raises(ValueError, match="power of two"):
            DensityMatrix(np.eye(dim) / dim)

    @given(a=real_densities(), data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_real_spectra_match_complex_cast(self, a, data):
        k = a.shape[0].bit_length() - 1
        b = data.draw(real_densities(k))
        rho_a, rho_b = DensityMatrix(a), DensityMatrix(b)
        d = trace_distance(rho_a, rho_b)
        assert d == pytest.approx(
            0.5 * np.sum(np.abs(complex_spectrum(a - b))), abs=1e-13
        )
        assert d == pytest.approx(trace_distance(rho_b, rho_a), abs=1e-13)
        assert 0.0 <= d <= 1.0 + 1e-13
        eigs = complex_spectrum(a)
        eigs = np.where((eigs < 0.0) & (eigs >= EIGENVALUE_FLOOR), 0.0, eigs)
        positive = eigs[eigs > 0.0]
        entropy = float(-np.sum(positive * np.log2(positive)))
        assert von_neumann_entropy(rho_a) == pytest.approx(entropy, abs=1e-13)


@contextmanager
def counted_solves():
    """The shapes np.linalg.eigvalsh is called with inside the block."""
    calls = []
    solve = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return solve(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigvalsh", counting):
        yield calls


def gershgorin_bound(mat: np.ndarray) -> float:
    """min_i 2 a_ii - sum_j |a_ij|, a lower bound on every eigenvalue."""
    return float((2.0 * np.diagonal(mat) - np.abs(mat).sum(axis=1)).min())


def eigen_rule(mat: np.ndarray) -> str | None:
    """The positivity rule before the Gershgorin certificate: one eigen solve
    on every matrix.  The refusal message, or None when it accepts."""
    if float(np.linalg.eigvalsh(mat).min()) < EIGENVALUE_FLOOR:
        return f"density matrix has an eigenvalue below {EIGENVALUE_FLOOR}"
    return None


def dominant_integer_matrix(rng, dim: int, slack: int) -> np.ndarray:
    """Symmetric matrix of small integers over a power of two, with diagonal
    sum_{j != i} |a_ij| + slack_i, slack_i in [slack, 2 * slack], and the
    padding to a power-of-two trace in row 0.  Every entry and row sum is
    exact, so the Gershgorin bound is exactly 0 at slack 0."""
    upper = np.triu(rng.integers(-4, 5, (dim, dim)), 1)
    mat = upper + upper.T
    diag = np.abs(mat).sum(axis=1) + rng.integers(slack, 2 * slack + 1, dim)
    total = int(diag.sum())
    diag[0] += (1 << max(total - 1, 0).bit_length()) - total
    mat = mat + np.diag(diag)
    return mat / float(np.trace(mat))


@st.composite
def symmetric_unit_trace(draw):
    """(kind, matrix): an exactly symmetric float64 matrix of dimension 2 to 64
    with trace within ATOL of 1, of a kind that tests either side of the
    certificate."""
    kind = draw(st.sampled_from(
        ["dominant-zero", "dominant-tiny", "dominant-large", "kron", "pure", "noise",
         "indefinite"]
    ))
    k = draw(st.integers(1, 6))
    dim = 1 << k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dominant-zero":
        mat = dominant_integer_matrix(rng, dim, 0)
    elif kind == "dominant-tiny":
        # a bound of about +-1e-15: mix a bound-0 matrix with I/d
        bound = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-16.0, -14.0))
        t = dim * bound
        mat = (1.0 - t) * dominant_integer_matrix(rng, dim, 0) + t * np.eye(dim) / dim
    elif kind == "dominant-large":
        mat = dominant_integer_matrix(rng, dim, 4)
    elif kind == "kron":
        mat = np.ones((1, 1))
        coherence = 10.0 ** draw(st.floats(-3.0, 0.0))
        for p in rng.uniform(0.0, 1.0, k):
            c = coherence * rng.uniform(-1.0, 1.0) * math.sqrt(p * (1.0 - p))
            mat = np.kron(mat, np.array([[p, c], [c, 1.0 - p]]))
    elif kind == "pure":
        amps = rng.standard_normal(dim) * (rng.uniform(size=dim) < draw(st.floats(0.0, 1.0)))
        assume(np.any(amps))
        amps /= np.linalg.norm(amps)
        mat = np.outer(amps, amps)
    elif kind == "noise":
        noise = rng.standard_normal((dim, dim))
        noise = noise + noise.T
        np.fill_diagonal(noise, 0.0)
        mat = np.eye(dim) / dim + 10.0 ** draw(st.floats(-18.0, -3.0)) * noise
    else:
        sym = rng.standard_normal((dim, dim)) / dim
        sym = sym + sym.T
        mat = sym + (1.0 - np.trace(sym)) / dim * np.eye(dim)
    return kind, mat


class TestGershgorinCertificate:
    """An exactly symmetric, diagonally dominant density is validated with
    no eigen solve; the accepted set and the refusal message stay those of
    the eigen rule."""

    @given(drawn=symmetric_unit_trace())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_accepts_exactly_what_the_eigen_rule_accepts(self, drawn):
        kind, mat = drawn
        note(f"kind={kind} bound={gershgorin_bound(mat)!r}")
        assert np.array_equal(mat, mat.T)
        assert abs(np.trace(mat) - 1.0) <= ATOL
        want = eigen_rule(mat)
        with counted_solves() as solves:
            try:
                DensityMatrix(mat)
                got = None
            except ValueError as exc:
                got = str(exc)
        assert got == want
        assert len(solves) == (0 if gershgorin_bound(mat) >= 0.0 else 1)

    @pytest.mark.parametrize(
        "entries, solves",
        [
            ([[0.5, 0.25], [0.25, 0.5]], 0),
            (np.eye(256) / 256, 0),
            # a bound of exactly 0
            ([[0.5, 0.5], [0.5, 0.5]], 0),
            # a pure state with unequal amplitudes is not diagonally dominant
            (np.outer([0.6, 0.8], [0.6, 0.8]), 1),
            # symmetric within ATOL but not exactly: the solve decides
            ([[0.5, 0.25], [0.25 + 1e-13, 0.5]], 1),
        ],
        ids=["dominant", "mixed-256", "bound-zero", "pure-unequal", "near-symmetric"],
    )
    def test_solve_count(self, entries, solves):
        with counted_solves() as calls:
            DensityMatrix(np.array(entries))
        assert len(calls) == solves


class TestDensityIdentity:
    """A density equals only itself and hashes by identity."""

    def test_equal_entries_compare_unequal_without_raising(self):
        a = DensityMatrix(np.eye(2) / 2)
        b = DensityMatrix(np.eye(2) / 2)
        assert a == a
        assert not a == b
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestVonNeumannEntropy:
    """Spectral entropy in bits."""

    def test_pure_state_has_zero_entropy(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_biased_mixture(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.8113, abs=5e-5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_maximally_mixed_k_qubits(self, k):
        rho = DensityMatrix(np.eye(1 << k) / (1 << k))
        assert von_neumann_entropy(rho) == pytest.approx(float(k), abs=1e-9)

    def test_entropy_bounds_on_random_mixtures(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            rho = sum(
                float(p) * np.outer(single(int(s), 6), single(int(s), 6).conj())
                for p, s in zip(probs, rng.integers(0, 64, 4))
            )
            entropy = von_neumann_entropy(DensityMatrix(rho))
            assert -1e-12 <= entropy <= 1.0 + 1e-12


class TestTraceDistance:
    """Distinguishability metric on density matrices."""

    def test_identical_matrices(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_distance_to_itself_skips_the_eigen_solve(self, monkeypatch):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        calls = []
        solve = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert trace_distance(rho, rho) == 0.0
        assert calls == []
        # equal entries in a distinct density are still solved
        copy = DensityMatrix(rho.entries.copy())
        calls.clear()
        assert trace_distance(rho, copy) == 0.0
        assert calls == [(2, 2)]

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_shift(self):
        a = DensityMatrix(np.eye(2) / 2)
        b = DensityMatrix(np.diag([0.75, 0.25]))
        assert trace_distance(a, b) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pa, pb = rng.uniform(0.0, 1.0, 2)
            a = DensityMatrix(np.diag([pa, 1 - pa]))
            b = DensityMatrix(np.diag([pb, 1 - pb]))
            d = trace_distance(a, b)
            assert d == pytest.approx(trace_distance(b, a), abs=1e-14)
            assert -1e-12 <= d <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            trace_distance(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(4) / 4))


class TestSwapTest:
    """Symmetry test of two axes and its post-test states."""

    def test_identical_states_always_pass(self):
        rng = np.random.default_rng(14)
        pair = product_tensor(single(5, 4), single(5, 4))
        for _ in range(200):
            passed, p_pass, _ = swap_project(pair, 0, 1, rng)
            assert passed
            assert p_pass == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_leave_product_intact(self):
        rng = np.random.default_rng(15)
        pair = product_tensor(single(5, 4), single(5, 4))
        _, _, post = swap_project(pair, 0, 1, rng)
        assert fidelity(post, pair) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_pass_half_the_time(self):
        rng = np.random.default_rng(16)
        pair = product_tensor(single(0, 1), single(1, 1))
        trials = 10_000
        passes = sum(swap_project(pair, 0, 1, rng)[0] for _ in range(trials))
        assert swap_project(pair, 0, 1, rng)[1] == pytest.approx(0.5, abs=1e-12)
        assert abs(passes / trials - 0.5) <= three_se(0.5, trials)

    def test_orthogonal_failure_projects_onto_singlet(self):
        rng = np.random.default_rng(17)
        pair = product_tensor(single(0, 1), single(1, 1))
        singlet = np.array([[0, 1.0], [-1.0, 0]]) / math.sqrt(2)
        seen_fail = False
        for _ in range(100):
            passed, _, post = swap_project(pair, 0, 1, rng)
            if not passed:
                seen_fail = True
                assert fidelity(post, singlet) == pytest.approx(1.0, abs=1e-12)
        assert seen_fail

    def test_pass_probability_formula(self):
        rng = np.random.default_rng(18)
        for delta in (1, 2, 3):
            pair = product_tensor(single(0, 4), single(delta, 4))
            ov = closed_form_overlap(0, delta, 4)
            _, p_pass, _ = swap_project(pair, 0, 1, rng)
            assert p_pass == pytest.approx((1 + ov**2) / 2, abs=1e-12)

    def test_partial_overlap_pass_leaves_entangled_pair(self):
        rng = np.random.default_rng(19)
        _, _, post = swap_project(product_tensor(single(0, 3), single(1, 3)), 0, 1, rng)
        assert reduced_purity(post.reshape(-1)) < 1.0 - 1e-9

    def test_post_state_has_definite_exchange_symmetry(self):
        rng = np.random.default_rng(20)
        pair = product_tensor(single(0, 3), single(2, 3))
        for _ in range(20):
            passed, _, post = swap_project(pair, 0, 1, rng)
            sign = 1.0 if passed else -1.0
            np.testing.assert_allclose(post, sign * post.T, atol=1e-12)


class TestSwapParts:
    """The draw-free symmetry-test split that swap_project and the forward
    search share."""

    @pytest.mark.parametrize("k, axes", [(2, (0, 1)), (3, (0, 2))])
    def test_parts_of_one_state(self, k, axes):
        state = np.random.default_rng(21).normal(size=(2,) * k)
        state /= np.linalg.norm(state)
        symmetric, antisymmetric = swap_parts(state, *axes)
        np.testing.assert_allclose(symmetric + antisymmetric, state, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(np.swapaxes(symmetric, *axes), symmetric)
        np.testing.assert_array_equal(np.swapaxes(antisymmetric, *axes), -antisymmetric)
        weight = np.vdot(symmetric, symmetric) + np.vdot(antisymmetric, antisymmetric)
        assert abs(weight - 1.0) <= 1e-12

    @pytest.mark.parametrize("k, axes", [(2, (0, 1)), (3, (0, 2))])
    def test_leading_axes_index_states(self, k, axes):
        shape = (8, 8) + (2,) * k
        states = np.random.default_rng(22).normal(size=shape + (2,)).view(np.complex128)
        states = states.reshape(shape)
        # a symmetric and an antisymmetric state: one part has zero weight
        states[0, 0] = np.swapaxes(states[0, 0], *axes) + states[0, 0]
        states[0, 1] = np.swapaxes(states[0, 1], *axes) - states[0, 1]
        states /= np.linalg.norm(states.reshape(8, 8, -1), axis=2).reshape((8, 8) + (1,) * k)
        symmetric, antisymmetric = swap_parts(states, *(a + 2 for a in axes))
        rng = np.random.default_rng(5)
        for b in np.ndindex(8, 8):
            alone = swap_parts(states[b], *axes)
            np.testing.assert_array_equal(symmetric[b], alone[0])
            np.testing.assert_array_equal(antisymmetric[b], alone[1])
            passed, p_pass, post = swap_project(states[b], *axes, rng)
            assert p_pass == np.vdot(symmetric[b], symmetric[b]).real
            part = symmetric[b] if passed else antisymmetric[b]
            np.testing.assert_array_equal(post, part / math.sqrt(np.vdot(part, part).real))
        assert not antisymmetric[0, 0].any() and not symmetric[0, 1].any()

    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
    def test_weights_draw_as_swap_project(self, u):
        pairs = np.stack([
            product_tensor(single(5, 4), single(5, 4)),  # p_fail = 0
            product_tensor(single(0, 1), single(1, 1)),  # p_pass = 0.5 exactly
            np.array([[0, 1.0], [-1.0, 0]]) / math.sqrt(2),  # p_pass = 0
        ])
        symmetric, antisymmetric = swap_parts(pairs, 1, 2)
        p_pass = np.einsum("bij,bij->b", symmetric.conj(), symmetric).real
        p_fail = np.einsum("bij,bij->b", antisymmetric.conj(), antisymmetric).real
        passed = draws_outcome_zero(p_pass, p_fail, u)
        expected = [swap_project(pair, 0, 1, _FixedUniform(u))[0] for pair in pairs]
        assert passed.tolist() == expected
        assert passed[0] and not passed[2]
        assert passed[1] == (u <= 0.5)
