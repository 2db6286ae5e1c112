"""Adversary harness: concrete attacks and their measured success rates.

Every attack here plays by the rules an eavesdropper actually faces: it
touches registers only through public operations (symmetry tests, rotations,
measurements, oracle queries) and never reads hidden descriptors.  Each
harness reports the observed rate next to the exact prediction so deviations
are visible at a glance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .protocol import (
    CipherState,
    DecryptionOracle,
    OracleDeactivatedError,
    PrivateKey,
    _bit_array,
    _parity_masks,
    decrypt,
    encode_redundant,
    swap_test_encrypted_copies,
)
from .quantum_core import (
    STDERR_VARIANCE_FLOOR, DensityMatrix, check_integer, check_precision, index_amplitudes,
    rotation_matrix, swap_project, trace_distance,
)
from .security_analysis import shifted_ensembles

FORWARD_SEARCH_RULES = ("identify-all", "parity-aware")
CPA_PRECISION_CAP = 12
CPA_TOTAL_QUBIT_CAP = 8
DEFAULT_ATTACK_PRECISION = 8
# symmetry tests per batched call of run_forward_search, and the largest alpha:
# it fixes the seeded draw order, and only a chunk's flags and uniforms grow with it
FORWARD_SEARCH_CHUNK = 1 << 14
# enumerate_forward_search_success walks 3^alpha branches: 4 s at 12, hours at 20
ENUMERATION_ALPHA_CAP = 12


# --- forward search over public-key copies ---


def identify_rotations(fails: Sequence[bool]) -> tuple[int, ...]:
    """Identify-all decision rule: claim a pi rotation exactly where a
    symmetry test failed.  A failure certifies the rotation; a pass leaves
    the more likely unrotated explanation."""
    return tuple(int(bool(f)) for f in fails)


def parity_from_fails(fails: Sequence[bool] | np.ndarray) -> int | np.ndarray:
    """Parity-aware decision rule: guess the message bit as the parity of
    observed failures, ignoring which qubits produced them.  An array of
    failure patterns gets one guess per pattern (its last axis)."""
    return np.count_nonzero(fails, axis=-1) & 1


def forward_search_trial(
    key: PrivateKey, bit: int, alpha: int, rng: np.random.Generator
) -> tuple[list[bool], tuple[int, ...]]:
    """One interception trial: encrypt bit, test each ciphertext qubit
    against a fresh public copy, and return (failure pattern, true flags).

    The true flags are returned for scoring only; the decision rules see
    nothing but the failure pattern.  This is run_forward_search's batched
    call with one row.
    """
    flags = encode_redundant(bit, alpha, rng)
    passes = swap_test_encrypted_copies(key, np.array([flags]), rng)[0]
    return (~passes).tolist(), flags


@dataclass(frozen=True)
class ForwardSearchReport:
    """Observed vs predicted success of one forward-search decision rule."""

    rule: str
    alpha: int
    trials: int
    successes: int
    success_rate: float
    predicted_rate: float
    stderr: float
    deviation: float


def _closed_form_success(alpha: int, rule: str) -> Fraction:
    """Closed-form success probability of a decision rule (Nikolopoulos &
    Ioannou 2009).  identify-all needs every rotated qubit to fail,
    (3/4)**alpha; parity-aware is always right when no qubit was rotated and
    right half the time otherwise, 1/2 + 2**-(alpha+1).  Tests check both
    against enumerate_forward_search_success."""
    if rule == "identify-all":
        return Fraction(3, 4) ** alpha
    return Fraction(1, 2) + Fraction(1, 2 ** (alpha + 1))


def _forward_report(
    rule: str, alpha: int, trials: int, successes: int
) -> ForwardSearchReport:
    rate = successes / trials
    predicted = float(_closed_form_success(alpha, rule))
    stderr = math.sqrt(max(rate * (1.0 - rate), STDERR_VARIANCE_FLOOR) / trials)
    return ForwardSearchReport(
        rule=rule,
        alpha=alpha,
        trials=trials,
        successes=successes,
        success_rate=rate,
        predicted_rate=predicted,
        stderr=stderr,
        deviation=rate - predicted,
    )


def run_forward_search(
    alpha: int,
    trials: int,
    rng: np.random.Generator,
    *,
    precision: int = DEFAULT_ATTACK_PRECISION,
) -> dict[str, ForwardSearchReport]:
    """Monte Carlo forward search, scoring both decision rules per trial.

    identify-all succeeds when every per-qubit rotation flag is guessed
    correctly; parity-aware succeeds when the recovered message bit is
    correct.  Both rules consume the same symmetry-test outcomes, so the
    comparison is paired.  Trials run in chunks of at most
    FORWARD_SEARCH_CHUNK symmetry tests; each chunk draws its message bits,
    then their parity masks, then one uniform per symmetry test.
    """
    # checked before the key draw, which a huge alpha cannot afford
    check_integer(alpha, "alpha", 1, FORWARD_SEARCH_CHUNK)
    check_integer(trials, "trials")
    # checked before 1 << precision, which a huge precision cannot afford
    check_precision(precision)
    key = PrivateKey(
        n=precision, s=tuple(int(v) for v in rng.integers(0, 1 << precision, size=alpha))
    )
    identify_hits = 0
    parity_hits = 0
    per_chunk = FORWARD_SEARCH_CHUNK // alpha
    for start in range(0, trials, per_chunk):
        size = min(per_chunk, trials - start)
        bits = rng.integers(0, 2, size=size)
        flags = _parity_masks(bits, alpha, rng).reshape(size, alpha)
        fails = ~swap_test_encrypted_copies(key, flags, rng)
        # identify-all claims a rotation exactly where a test failed
        identify_hits += int(np.count_nonzero(np.all(fails == flags, axis=1)))
        parity_hits += int(np.count_nonzero(parity_from_fails(fails) == bits))
    return {
        "identify-all": _forward_report("identify-all", alpha, trials, identify_hits),
        "parity-aware": _forward_report("parity-aware", alpha, trials, parity_hits),
    }


def enumerate_forward_search_success(alpha: int, rule: str) -> Fraction:
    """Exact success probability of a decision rule by branch enumeration.

    Walks every flag configuration (uniform given a uniform message bit)
    and every symmetry-test branch: unrotated qubits always pass, rotated
    qubits fail with probability exactly 1/2.
    """
    check_integer(alpha, "alpha", 1, ENUMERATION_ALPHA_CAP)
    if rule not in FORWARD_SEARCH_RULES:
        raise ValueError(f"unknown rule: {rule!r}")
    total = Fraction(0)
    flag_weight = Fraction(1, 1 << alpha)
    for flags in product((0, 1), repeat=alpha):
        ones = [q for q, f in enumerate(flags) if f]
        branch_weight = flag_weight * Fraction(1, 1 << len(ones))
        bit = len(ones) & 1
        for fail_choice in product((False, True), repeat=len(ones)):
            fails = [False] * alpha
            for q, failed in zip(ones, fail_choice):
                fails[q] = failed
            if rule == "identify-all":
                success = identify_rotations(fails) == flags
            else:
                success = parity_from_fails(fails) == bit
            if success:
                total += branch_weight
    return total


# --- repeated symmetry tests on one pair ---


@dataclass(frozen=True)
class ScenarioStats:
    """Pass statistics for repeated symmetry tests at one overlap."""

    overlap: float
    trials: int
    first_pass_rate: float
    predicted_first_pass: float
    second_pass_given_pass: float
    second_pass_given_fail: float


@dataclass(frozen=True)
class SingleUseCheckResult:
    """Why repeating a symmetry test on the same pair gains nothing."""

    scenarios: tuple[ScenarioStats, ...]


def single_use_constraint_check(
    trials: int,
    rng: np.random.Generator,
    *,
    precision: int = 3,
    index_offsets: Iterable[int] = (0, 1, 2, 4),
) -> SingleUseCheckResult:
    """Measure first-test and repeat-test pass rates across overlaps.

    Each trial runs the kernel's symmetry test twice on a fresh pair, the
    states of index 0 and of the given offset, and tallies the first and
    repeat outcomes.  The first test follows (1 + overlap^2)/2; the
    projected pair then answers deterministically, so a second test on the
    same pair is worthless.  Each offset is an index in [0, 2^precision);
    at least one is given.
    """
    check_integer(trials, "trials")
    # checked before 1 << precision, which a huge precision cannot afford
    check_precision(precision)
    # taken once: a generator would be used up by the checks below
    index_offsets = tuple(index_offsets)
    if not index_offsets:
        raise ValueError("index_offsets must hold at least one offset")
    for offset in index_offsets:
        check_integer(offset, "index offset", 0, (1 << precision) - 1)
    reference = index_amplitudes(0, precision)
    scenarios = []
    for offset in index_offsets:
        # the reference is |0>, so the inner product is <0|R(theta)|0>, the
        # cosine of theta / 2, for the angle theta that prepares index offset
        inner = float(rotation_matrix(math.pi * (offset / (1 << (precision - 1))))[0, 0])
        pair = np.multiply.outer(reference, index_amplitudes(offset, precision))
        # counts[first][repeat], indexed by pass (1) or fail (0)
        counts = [[0, 0], [0, 0]]
        for _ in range(trials):
            first, _, projected = swap_project(pair, 0, 1, rng)
            counts[first][swap_project(projected, 0, 1, rng)[0]] += 1
        fails, passes = map(sum, counts)
        scenarios.append(
            ScenarioStats(
                overlap=inner,
                trials=trials,
                first_pass_rate=passes / trials,
                predicted_first_pass=(1.0 + inner * inner) / 2.0,
                second_pass_given_pass=counts[1][1] / passes if passes else math.nan,
                second_pass_given_fail=counts[0][1] / fails if fails else math.nan,
            )
        )
    return SingleUseCheckResult(scenarios=tuple(scenarios))


# --- chosen plaintext ---


@dataclass(frozen=True)
class CpaReport:
    """Trace distances between ciphertext ensembles for two chosen messages."""

    n: int
    num_bits: int
    alpha: int
    message_0: tuple[int, ...]
    message_1: tuple[int, ...]
    distance_between_messages: float
    distance_m0_to_public: float
    distance_m1_to_public: float


def _flag_probabilities(message: Sequence[int], alpha: int) -> tuple[float, ...]:
    """Per-qubit probability that encryption rotates the qubit by pi, which
    alone sets the message's ciphertext density: the bit itself at alpha 1,
    0.5 at alpha >= 2, where the mask makes every flag a fair coin."""
    return tuple(float(bit) if alpha == 1 else 0.5 for bit in message for _ in range(alpha))


def _message_density(
    flags: Sequence[float], factors: dict[float, np.ndarray]
) -> DensityMatrix:
    """Ciphertext density for a flag sequence, averaged over key and mask.

    Key entries are independent, so the register density is the tensor
    product of per-qubit averages; within a block the mask positions are
    parity-correlated, but each per-qubit average is identical for either
    flag value, so the product form is exact.  A CPA report builds one
    density per distinct factor sequence, comparing factors by their
    bytes; the public density is the all-zero message's density at alpha
    1.  factors maps each flag probability to its shifted_ensemble.  Each
    step is np.kron(out, factor): every entry is the same product of
    factors, multiplied in the same order.
    """
    out = np.ones((1, 1))
    for p_flag in flags:
        rows, cols = out.shape
        out = (out[:, None, :, None] * factors[p_flag][None, :, None, :]).reshape(
            2 * rows, 2 * cols
        )
    return DensityMatrix(out)


def chosen_plaintext_distinguishability(
    n: int,
    message_0: Sequence[int],
    message_1: Sequence[int],
    alpha: int = 1,
) -> CpaReport:
    """Exact distinguishability of two chosen plaintexts without the key.

    Builds the full ciphertext density matrix of each message averaged
    over the key distribution, plus the unencrypted public-key density,
    and reports the pairwise trace distances.  One shifted_ensembles call
    builds one factor per distinct flag probability, from one amplitude
    table, and one density is built per distinct sequence of those
    factors.  Factors are compared by their bytes, so 0.0 and -0.0 stay
    apart and a shared density has the bits its own build would.  At
    every precision but 5, 6 and 7 the factors for flags 0, 0.5 and 1 are
    byte-equal, so all three densities are one object and every distance
    is 0 with no solve.  Each distinct ordered pair is solved
    once; (a, b) stays apart from (b, a), since a solve of the negated
    matrix need not return exactly negated eigenvalues.  All three states
    coincide, so every distance is numerically zero: encryption is a
    phase-free relabeling of an already maximally mixed ensemble.
    """
    check_precision(n, cap=CPA_PRECISION_CAP)
    check_integer(alpha, "alpha")
    bits_0 = _bit_array(message_0, "message bits")
    bits_1 = _bit_array(message_1, "message bits")
    if bits_0.ndim != 1 or bits_0.shape != bits_1.shape or not bits_0.size:
        raise ValueError("messages must be non-empty and of equal length")
    m0, m1 = tuple(bits_0.tolist()), tuple(bits_1.tolist())
    total_qubits = len(m0) * alpha
    if total_qubits > CPA_TOTAL_QUBIT_CAP:
        raise ValueError(
            f"exact enumeration is limited to {CPA_TOTAL_QUBIT_CAP} qubits, "
            f"got {total_qubits}"
        )
    flags = (
        _flag_probabilities(m0, alpha),
        _flag_probabilities(m1, alpha),
        _flag_probabilities((0,) * total_qubits, 1),
    )
    probabilities = set().union(*flags)
    ensembles = shifted_ensembles((n,), probabilities)
    factors = {p: ensembles[n, p] for p in probabilities}
    # each flag probability names the first probability with its factor's bytes
    first: dict[bytes, float] = {}
    alias = {p: first.setdefault(factor.tobytes(), p) for p, factor in factors.items()}
    keys = [tuple(alias[p] for p in f) for f in flags]
    densities = {k: _message_density(k, factors) for k in dict.fromkeys(keys)}
    rho_0, rho_1, rho_public = (densities[k] for k in keys)
    # densities hash by identity, so this solves each ordered pair once
    distance = cache(trace_distance)
    return CpaReport(
        n=n,
        num_bits=len(m0),
        alpha=alpha,
        message_0=m0,
        message_1=m1,
        distance_between_messages=distance(rho_0, rho_1),
        distance_m0_to_public=distance(rho_0, rho_public),
        distance_m1_to_public=distance(rho_1, rho_public),
    )


# --- chosen ciphertext sessions against the bounded oracle ---


@dataclass(frozen=True)
class OracleSubmission:
    """Transcript entry for one decryption request.

    An accepted request keeps its result_length decoded bits packed eight
    to a byte (np.packbits); result expands them.
    """

    label: str
    label_digest: str
    accepted: bool
    packed_result: bytes | None
    result_length: int
    error: str | None

    def _result_bits(self) -> np.ndarray | None:
        if self.packed_result is None:
            return None
        packed = np.frombuffer(self.packed_result, dtype=np.uint8)
        return np.unpackbits(packed, count=self.result_length)

    @property
    def result(self) -> tuple[int, ...] | None:
        """The decoded bits, or None for a refused request."""
        bits = self._result_bits()
        return None if bits is None else tuple(bits.tolist())

    def to_record(self) -> dict:
        """JSON form: the fields, with result as one string of bits ("0110")
        or None."""
        bits = self._result_bits()
        return {
            "label": self.label,
            "label_digest": self.label_digest,
            "accepted": self.accepted,
            "result": None if bits is None else (bits + ord("0")).tobytes().decode("ascii"),
            "error": self.error,
        }


@dataclass(frozen=True)
class CcaSessionResult:
    """Outcome of a bounded-use chosen-ciphertext session."""

    key_length: int
    uses_allowed: int
    uses_consumed: int
    transcript: tuple[OracleSubmission, ...]
    bits_received: int
    information_ceiling_bits: float

    def to_record(self) -> dict:
        return {
            "attack": "chosen_ciphertext",
            "key_length": self.key_length,
            "uses_allowed": self.uses_allowed,
            "uses_consumed": self.uses_consumed,
            "submissions": len(self.transcript),
            "accepted": sum(1 for s in self.transcript if s.accepted),
            "bits_received": self.bits_received,
            "information_ceiling_bits": self.information_ceiling_bits,
        }


def chosen_ciphertext_session(
    key: PrivateKey,
    uses_allowed: int,
    submissions: Iterable[tuple[str, CipherState]],
    rng: np.random.Generator,
) -> CcaSessionResult:
    """Run labeled decryption requests against a fresh bounded oracle.

    Every submission is recorded; requests after exhaustion are rejected,
    and malformed requests are rejected without consuming a use.  The
    information ceiling is the total classical capacity of the allowed
    responses: the key length times the use budget.
    """
    oracle = DecryptionOracle(key, uses_allowed=uses_allowed)
    transcript: list[OracleSubmission] = []
    bits_received = 0
    for label, cipher in submissions:
        digest = hashlib.sha256(label.encode()).hexdigest()[:16]
        try:
            result = decrypt(oracle, cipher, rng)
        except (OracleDeactivatedError, ValueError) as exc:
            transcript.append(OracleSubmission(label, digest, False, None, 0, str(exc)))
        else:
            bits_received += len(result)
            packed = np.packbits(np.array(result, dtype=np.uint8)).tobytes()
            transcript.append(OracleSubmission(label, digest, True, packed, len(result), None))
    return CcaSessionResult(
        key_length=key.length,
        uses_allowed=uses_allowed,
        uses_consumed=uses_allowed - oracle.remaining_uses,
        transcript=tuple(transcript),
        bits_received=bits_received,
        information_ceiling_bits=float(key.length * uses_allowed),
    )
