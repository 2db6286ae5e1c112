"""Simulation kernel for qubits prepared by dyadic y-axis rotations.

States that arise in the protocol all live on the x-z great circle of the
Bloch sphere: starting from |0>, a rotation R(theta) = exp(-i theta Y / 2)
by theta = s * pi / 2**(n-1) produces the state with amplitudes
(cos(s pi / 2**n), sin(s pi / 2**n)).  Because adjacent states differ by an
angle far below double precision once n is large, protocol-path states are
tracked as exact integer indices s at precision n and only converted to
floating-point amplitudes at measurement or analysis boundaries.

The kernel owns the qubit conventions: one index-to-state map
(index_amplitudes, for an index or an index array), one Born rule for
index states measured in a rotated basis (outcome_one_probability), one
two-outcome sampling rule (draws_outcome_zero), one symmetry-test split
(swap_parts), and array functions (rotate_axis, measure_axis, swap_project)
over tensors of shape (2,)*k, one axis per qubit; register amplitude groups,
the forward search's distinct pairs and the single-use check's pairs run on
them.  Density matrices, real symmetric because every state is real, are the
values the ensemble and entropy tools exchange.

Amplitude-index convention: qubit 0 is the leftmost tensor factor, i.e. the
most significant bit of the amplitude index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
# an angle within this many index steps of the grid snaps onto it
INDEX_SNAP_STEPS = 1e-9
# least Bernoulli variance a Monte Carlo standard error uses, so that an
# observed rate of 0 or 1 still reports a nonzero stderr
STDERR_VARIANCE_FLOOR = 1e-12
MAX_PRECISION_BITS = 62


def check_integer(value: int, name: str, lo: int = 1, hi: int | None = None) -> None:
    """The one rule for every count, cap and precision: value is an int, not
    a bool, float or numpy integer, in [lo, hi] (no upper bound if hi is None)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if hi is None:
        if value < lo:
            raise ValueError(f"{name} must be at least {lo}, got {value}")
    elif not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def check_precision(n: int, cap: int = MAX_PRECISION_BITS) -> None:
    """The precision rule: n is an integer in [1, cap]."""
    check_integer(n, "precision n", 1, cap)


# --- density matrices ---


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Real symmetric, unit-trace, positive-semidefinite matrix over k qubits.

    Protocol states lie on the x-z great circle, so their densities are
    real.  Complex input is accepted only when every imaginary part is
    exactly zero; it is stored as the same float64 values.

    Positivity is proved by the Gershgorin certificate when the matrix is
    exactly symmetric and diagonally dominant (min_i 2 a_ii - sum_j |a_ij|
    >= 0); otherwise an eigen solve checks the least eigenvalue against
    EIGENVALUE_FLOOR.  Either way the same matrices are accepted.

    A density equals only itself and hashes by identity, as trace_distance
    treats it: equal entries in two densities do not make them one.
    """

    entries: npt.NDArray[np.float64]

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries)
        if np.iscomplexobj(mat):
            if np.any(mat.imag != 0.0):
                raise ValueError("density matrix must be real: an imaginary part is nonzero")
            mat = mat.real
        mat = np.array(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        dim = mat.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError("density matrix dimension must be a power of two >= 2")
        # an infinite entry would pass every later check: eigvalsh gives NaN,
        # and NaN is not below the floor
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        # exact symmetry implies allclose for finite entries
        exactly_symmetric = np.array_equal(mat, mat.T)
        if not (exactly_symmetric or np.allclose(mat, mat.T, atol=ATOL)):
            raise ValueError(f"density matrix must be symmetric within {ATOL}")
        trace = float(np.trace(mat))
        if abs(trace - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {trace} deviates from 1")
        # Gershgorin: every eigenvalue of a symmetric matrix is at least
        # min_i a_ii - sum_{j != i} |a_ij| >= min_i 2 a_ii - sum_j |a_ij|, so
        # a bound >= 0 proves positivity with no solve.  2 a_ii and |a_ij| are
        # exact and a rounded difference keeps its sign, so a bound read as
        # >= 0 errs only by the rounding of a row sum.  That sum is at most
        # 2 a_ii <= 2 * trace, and the rounding of d terms is at most
        # d * 2**-53 of it: below 1e-13 at the package's largest density
        # (d = 256), far inside EIGENVALUE_FLOOR, so every certified matrix
        # is one the solve accepts.  Only an exactly symmetric matrix is
        # certified: of any other, eigvalsh reads just the lower triangle.
        certified = exactly_symmetric and bool(
            (2.0 * np.diagonal(mat) - np.abs(mat).sum(axis=1)).min() >= 0.0
        )
        if not certified and float(np.linalg.eigvalsh(mat).min()) < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has an eigenvalue below {EIGENVALUE_FLOOR}")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)


# --- state preparation and unitaries ---


def rotation_matrix(theta: float) -> npt.NDArray[np.float64]:
    """Real 2x2 matrix of R(theta) = exp(-i theta Y / 2).

    [[cos(theta/2), -sin(theta/2)],
     [sin(theta/2),  cos(theta/2)]]
    """
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -s], [s, c]])


def index_amplitudes(indices, n: int) -> np.ndarray:
    """Amplitudes (..., 2), (cos, sin) of the half angle s * pi / 2**n, of an
    index or index array at precision n: shape (2,) for a plain int or numpy
    integer.  Index period/2 is exactly [0, 1]: cos(pi/2) would leave 6.1e-17
    on |0>."""
    half = np.pi * (indices / (1 << n))
    amps = np.empty(np.shape(half) + (2,))
    np.cos(half, out=amps[..., 0])
    np.sin(half, out=amps[..., 1])
    amps[indices == 1 << (n - 1)] = (0.0, 1.0)
    return amps


def rotate_axis(arr: np.ndarray, axis: int, theta: float) -> np.ndarray:
    """Kernel: apply R(theta) to the qubit on one axis of an amplitude tensor."""
    rotated = np.tensordot(rotation_matrix(theta), arr, axes=([1], [axis]))
    return np.moveaxis(rotated, 0, axis)


# --- measurements ---


def outcome_one_probability(indices, n: int, angle=0.0) -> np.ndarray:
    """Born rule: P(outcome 1) = sin^2(s * pi / 2**n - angle / 2) of index state
    s in the basis R(angle)|0>, R(angle)|1>, elementwise.  At angle 0 it is the
    map's |1> column squared bit for bit, so index period/2 gives exactly 1."""
    half = np.asarray(indices, dtype=np.float64) * (np.pi / float(1 << n))
    return np.square(np.sin(half - angle / 2.0))


def draws_outcome_zero(p0, p1, u):
    """Kernel: the two-outcome rule, on scalars or elementwise.  Outcome 0 is
    drawn for the uniform u when p0 > 0 and (u <= p0 or p1 <= 0): a
    zero-weight branch is never drawn, and u equal to p0 draws outcome 0."""
    return (p0 > 0.0) & ((u <= p0) | (p1 <= 0.0))


def sample_outcome(probabilities: Sequence[float], rng: np.random.Generator) -> int:
    """Draw outcome 0 or 1 from the two weights (p0, p1) by draws_outcome_zero.

    The uniform is drawn before all-zero weights are rejected.
    """
    p0, p1 = probabilities
    u = float(rng.random())
    if p0 <= 0.0 and p1 <= 0.0:
        raise ValueError("no outcome has positive probability")
    return 0 if draws_outcome_zero(p0, p1, u) else 1


def measure_axis(
    arr: np.ndarray, axis: int, rng: np.random.Generator
) -> tuple[int, float, np.ndarray]:
    """Kernel: z-measure the qubit on one axis; returns the outcome, its Born
    probability, and the normalized state of the remaining axes."""
    moved = np.moveaxis(arr, axis, 0)
    weights = [float(np.sum(np.abs(moved[b]) ** 2)) for b in (0, 1)]
    outcome = sample_outcome(weights, rng)
    return outcome, weights[outcome], moved[outcome] / math.sqrt(weights[outcome])


# --- entropy and distance ---


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i in bits (0 log 0 = 0)."""
    eigs = np.linalg.eigvalsh(rho.entries)
    # rounding negatives, like zeros, add no entropy
    positive = eigs[eigs > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """D(a, b) = 0.5 * sum |eigenvalues(a - b)|, in [0, 1].

    A density's distance to itself (a is b) is 0.0 without an eigen solve,
    the value the solve gives for the zero matrix.  Two distinct densities
    are always solved, even when their entries are equal.
    """
    if a.entries.shape != b.entries.shape:
        raise ValueError("trace distance requires matrices of equal dimension")
    if a is b:
        return 0.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries))))


# --- symmetry (SWAP) test ---


def swap_parts(arr: np.ndarray, axis_a: int, axis_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel: the parts 0.5 * (arr +- swapped) of a tensor under the exchange
    of two axes, whose squared norms are the symmetry test's pass and fail
    weights.  The axes are explicit, so leading axes may index states."""
    swapped = np.swapaxes(arr, axis_a, axis_b)
    return 0.5 * (arr + swapped), 0.5 * (arr - swapped)


def swap_project(
    arr: np.ndarray, axis_a: int, axis_b: int, rng: np.random.Generator
) -> tuple[bool, float, np.ndarray]:
    """Kernel: symmetry test of the qubits on two axes; returns whether it
    passed, the pass probability, and the normalized projection.  Each branch
    is weighted by its own norm, so a zero-weight branch is never sampled."""
    symmetric, antisymmetric = swap_parts(arr, axis_a, axis_b)
    p_pass = float(np.vdot(symmetric, symmetric).real)
    p_fail = float(np.vdot(antisymmetric, antisymmetric).real)
    if sample_outcome([p_pass, p_fail], rng) == 0:
        return True, p_pass, symmetric / math.sqrt(p_pass)
    return False, p_pass, antisymmetric / math.sqrt(p_fail)
