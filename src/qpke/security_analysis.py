"""Information-theoretic security accounting for the rotation cryptosystem.

Closed-form entropy bookkeeping for the private key, the Holevo ceiling on
what any measurement of the public copies can reveal, and the resulting
secrecy margin.  Alongside the exact accounting, this module builds the
mixed-state ensembles an eavesdropper actually faces and estimates, by
simulated measurement, how much key information concrete strategies
extract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quantum_core import (
    DensityMatrix, check_integer, check_precision, index_amplitudes, outcome_one_probability
)

ENSEMBLE_ENUMERATION_CAP = 16
MI_PRECISION_CAP = 16
MI_COPIES_CAP = 1 << 16  # every resample counts copies + 1 outcome bins per setting
MI_TRIALS_CAP = 1 << 22  # an estimate's arrays peak at 32 to 70 bytes per trial
DEFAULT_MARGIN_THRESHOLD = 100.0
BOOTSTRAP_RESAMPLES = 32
POVM_ATOL = 1e-10
DEFAULT_RANDOM_BASIS_ANGLES = tuple(j * math.pi / 8 for j in range(8))

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class KeyParams:
    """Distribution parameters of a private key draw.

    The precision of each key entry is uniform on [n_l, n_u] and the entry
    itself uniform on [0, 2**n).  Entropy accounting stays closed-form, so
    n_u may exceed the simulator's representable precision, as far as the
    key entropies and the Holevo cap stay finite doubles.
    """

    n_l: int
    n_u: int
    N: int
    k: int

    def __post_init__(self) -> None:
        check_integer(self.n_l, "n_l")
        check_integer(self.n_u, "n_u", self.n_l)
        check_integer(self.N, "N")
        check_integer(self.k, "k", 0)
        try:
            ledger = (private_key_entropy(self), permuted_key_entropy(self), holevo_cap(self))
        except OverflowError:
            ledger = (math.inf,)
        if not all(map(math.isfinite, ledger)):
            # an infinite entropy would report secrecy it cannot show, and
            # JSON has no infinity
            raise ValueError("key parameters put the entropy ledger beyond the float range")

    @property
    def mean_precision(self) -> float:
        return (self.n_l + self.n_u) / 2.0


def private_key_entropy(params: KeyParams) -> float:
    """Shannon entropy in bits of the private key distribution.

    The precision choice contributes log2(n_u - n_l + 1) bits and each of
    the N entries contributes the mean precision in expectation.
    """
    choices = params.n_u - params.n_l + 1
    return math.log2(choices) + params.N * params.mean_precision


def permuted_key_entropy(params: KeyParams) -> float:
    """Entropy in bits when a secret qubit permutation augments the key."""
    return private_key_entropy(params) + math.lgamma(params.N + 1) / _LN2


def holevo_cap(params: KeyParams) -> float:
    """Upper bound in bits on key information extractable from k copies.

    Each public-key copy carries N qubits, and the accessible information
    from any measurement of all copies is at most one bit per qubit held.
    """
    return float(params.N * params.k)


def _record(
    quantity: str,
    value_bits: float | None,
    params: dict,
    stderr_bits: float | None = None,
    satisfied: bool | None = None,
) -> dict:
    """The five-key analysis record every reported quantity shares."""
    return {
        "quantity": quantity,
        "value_bits": value_bits,
        "stderr_bits": stderr_bits,
        "params": params,
        "satisfied": satisfied,
    }


@dataclass(frozen=True)
class SecrecyReport:
    """Entropy ledger comparing key uncertainty against the Holevo cap."""

    params: KeyParams
    key_entropy_bits: float
    permuted_key_entropy_bits: float
    holevo_cap_bits: float
    margin: float
    threshold: float
    satisfied: bool
    residual_key_entropy_bits: float

    def to_records(self) -> list[dict]:
        """Flat analysis records, one per reported quantity.  JSON has no
        infinity, so the unbounded margin of zero copies is None (null)."""
        params = {
            "n_l": self.params.n_l,
            "n_u": self.params.n_u,
            "N": self.params.N,
            "k": self.params.k,
        }
        return [
            _record("private_key_entropy", self.key_entropy_bits, params),
            _record("permuted_key_entropy", self.permuted_key_entropy_bits, params),
            _record("holevo_cap", self.holevo_cap_bits, params),
            _record(
                "secrecy_margin",
                self.margin if math.isfinite(self.margin) else None,
                params,
                satisfied=self.satisfied,
            ),
            _record("residual_key_entropy", self.residual_key_entropy_bits, params),
        ]


def secrecy_condition(
    params: KeyParams, threshold: float = DEFAULT_MARGIN_THRESHOLD
) -> SecrecyReport:
    """Evaluate the key-entropy-to-leakage margin against a threshold.

    The margin is H(d) / (N k); secrecy by a wide margin means the key
    retains essentially all its entropy even if the adversary extracts the
    full Holevo bound.  With no copies issued the cap is zero and the
    margin infinite.  The residual entropy H(d|x) lower-bounds what stays
    hidden after the best possible measurement.
    """
    if not 0 < threshold < math.inf:
        # a payload records the threshold, and JSON has no infinity
        raise ValueError("threshold must be positive and finite")
    h_key = private_key_entropy(params)
    cap = holevo_cap(params)
    margin = math.inf if cap == 0.0 else h_key / cap
    return SecrecyReport(
        params=params,
        key_entropy_bits=h_key,
        permuted_key_entropy_bits=permuted_key_entropy(params),
        holevo_cap_bits=cap,
        margin=margin,
        threshold=threshold,
        satisfied=margin >= threshold,
        residual_key_entropy_bits=h_key - min(h_key, cap),
    )


def shifted_ensembles(ns, flag_probabilities) -> dict[tuple[int, float], np.ndarray]:
    """Average qubit state, as a 2x2 array, over all 2**n key indices at
    precision n, each rotated by pi with probability p, for every n in ns
    and p in flag_probabilities, keyed (n, p).

    Enumerated directly rather than simplified; this is the one enumerator
    behind the ensemble densities and the chosen-plaintext ciphertext
    densities.  One amplitude table is built per call, at the largest n,
    top: index k at precision n is index k * 2**(top - n) at top, so the
    table at n is every 2**(top - n)-th row of it, and the rotation by pi,
    index k + 2**(n - 1), is that row of the table rolled by 2**(top - 1).
    Each mean runs over the same products in the same order as over a
    table built at n, and numpy's pairwise sum does not depend on the
    stride, so every entry has the bits of its own build.  Every input is
    checked before the table is allocated.
    """
    ns = tuple(ns)
    probabilities = tuple(flag_probabilities)
    for n in ns:
        check_precision(n, cap=ENSEMBLE_ENUMERATION_CAP)
    for p in probabilities:
        # NaN fails both comparisons
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flag probability must lie in [0, 1], got {p}")
    if not (ns and probabilities):
        return {}
    top = max(ns)
    c, s = index_amplitudes(np.arange(1 << top), top).T
    tables = [(c * c, c * s, s * s)]
    if any(probabilities):
        # row k of the rolled products is index (k + 2**(top - 1)) % 2**top
        tables.append(tuple(np.roll(x, 1 << (top - 1)) for x in tables[0]))
    ensembles = {}
    for n in dict.fromkeys(ns):
        rows = slice(None, None, 1 << (top - n))
        means = [[np.mean(x[rows]) for x in table] for table in tables]
        for p in probabilities:
            rho = np.zeros((2, 2))
            # a term of weight 0 is skipped, not added as a signed zero
            for weight, (cc, cs, ss) in zip((1.0 - p, p), means):
                if weight == 0.0:
                    continue
                rho[0, 0] += weight * cc
                rho[0, 1] += weight * cs
                rho[1, 1] += weight * ss
            rho[1, 0] = rho[0, 1]
            ensembles[n, p] = rho
    return ensembles


def shifted_ensemble(n: int, flag_probability: float = 0.0) -> np.ndarray:
    """shifted_ensembles at one precision and one flag probability."""
    return shifted_ensembles((n,), (flag_probability,))[n, flag_probability]


def ensemble_densities(ns) -> list[DensityMatrix]:
    """ensemble_density at each precision in ns, in order.  The enumerated
    precisions share one amplitude table; a grid wholly beyond
    ENSEMBLE_ENUMERATION_CAP builds none."""
    ns = tuple(ns)
    methods = [ensemble_density_method(n) for n in ns]
    factors = shifted_ensembles(
        [n for n, method in zip(ns, methods) if method == "enumerated"], (0.0,)
    )
    return [
        DensityMatrix(np.eye(2) / 2.0 if method == "analytic" else factors[n, 0.0])
        for n, method in zip(ns, methods)
    ]


def ensemble_density(n: int) -> DensityMatrix:
    """Average single-qubit state over a uniform key entry at precision n.

    Enumerates all 2**n rotation states up to ENSEMBLE_ENUMERATION_CAP
    bits; beyond that the average is the maximally mixed state exactly
    (the off-diagonal sums telescope to zero for every n >= 1), so the
    closed form is returned directly.
    """
    return ensemble_densities((n,))[0]


def ensemble_density_method(n: int) -> str:
    """Which route ensemble_density takes at precision n."""
    check_integer(n, "n")
    return "enumerated" if n <= ENSEMBLE_ENUMERATION_CAP else "analytic"


@dataclass(frozen=True)
class MeasurementStrategy:
    """A repeatable single-qubit measurement an eavesdropper applies: each
    setting (angle, w0, w1) measures in the basis R(angle)|0>, R(angle)|1>
    and reports outcome 1 with weight w0 on the first ray, w1 on the second.
    A trial draws its setting uniformly when there are several; kind only
    labels the record ("fixed-basis", "random-basis", "custom-two-outcome").
    """

    kind: str
    settings: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("fixed-basis", "random-basis", "custom-two-outcome"):
            raise ValueError(f"unknown strategy kind: {self.kind!r}")
        if len(self.settings) == 0:
            raise ValueError("a strategy needs at least one basis angle")
        settings = tuple((float(a), float(w0), float(w1)) for a, w0, w1 in self.settings)
        for angle, w0, w1 in settings:
            if not math.isfinite(angle):
                raise ValueError(f"basis angle must be finite, got {angle}")
            if not (0.0 <= w0 <= 1.0 and 0.0 <= w1 <= 1.0):
                raise ValueError(f"outcome weights must lie in [0, 1], got ({w0}, {w1})")
        object.__setattr__(self, "settings", settings)

    @staticmethod
    def fixed(angle: float = 0.0) -> "MeasurementStrategy":
        return MeasurementStrategy("fixed-basis", ((angle, 0.0, 1.0),))

    @staticmethod
    def random() -> "MeasurementStrategy":
        """The j * pi / 8 grid; any other set goes through the constructor."""
        return MeasurementStrategy(
            "random-basis", tuple((a, 0.0, 1.0) for a in DEFAULT_RANDOM_BASIS_ANGLES)
        )

    @staticmethod
    def two_outcome(e0: np.ndarray, e1: np.ndarray) -> "MeasurementStrategy":
        """The POVM {e0, e1} as one setting: the eigenbasis of e1's real part
        (the key states are real, so only it acts), its eigenvalues the weights."""
        elements = []
        for e in (e0, e1):
            e = np.asarray(e, dtype=np.complex128)
            if e.shape != (2, 2):
                raise ValueError("POVM elements must be 2x2 matrices")
            if not np.allclose(e, e.conj().T, atol=POVM_ATOL):
                raise ValueError("POVM elements must be Hermitian")
            if np.linalg.eigvalsh(e).min() < -POVM_ATOL:
                raise ValueError("POVM elements must be positive semidefinite")
            elements.append(e)
        if not np.allclose(elements[0] + elements[1], np.eye(2), atol=POVM_ATOL):
            raise ValueError("POVM elements must sum to the identity")
        eigenvalues, rays = np.linalg.eigh(elements[1].real)
        # the checks above leave each eigenvalue within POVM_ATOL of [0, 1]
        w0, w1 = np.clip(eigenvalues, 0.0, 1.0)
        # the w1 ray (x0, x1) is R(angle)|1> up to sign, so atan2(-x0, x1) is angle / 2
        angle = 2.0 * math.atan2(-rays[0, 1], rays[1, 1])
        return MeasurementStrategy("custom-two-outcome", ((angle, w0, w1),))


@dataclass(frozen=True)
class MutualInfoEstimate:
    """Estimated information a measurement strategy gains about a key entry."""

    value_bits: float
    stderr_bits: float
    trials: int
    copies_per_trial: int
    n: int
    strategy_kind: str
    undersampled: bool

    def to_record(self) -> dict:
        params = {
            "n": self.n,
            "copies_per_trial": self.copies_per_trial,
            "trials": self.trials,
            "strategy": self.strategy_kind,
        }
        return _record("mutual_information", self.value_bits, params, self.stderr_bits)


def _outcome_probability(
    s: np.ndarray, n: int, strategy: MeasurementStrategy, strata: np.ndarray | None
) -> np.ndarray:
    """P(outcome 1) per trial for key entries s, each measured under its
    drawn setting (strata), or under the only setting when strata is None.
    Weights in [0, 1] keep the rounded mix in [0, 1] with no clip.

    The mix w0 + (w1 - w0) * q is taken in q's buffer, and each of its
    per-setting factors is gathered per trial only when it is applied, so
    at most one gathered column is alive at a time; each rounding is the
    one the whole-array expression makes."""
    angle, w0, w1 = np.asarray(strategy.settings).T

    def per_trial(column: np.ndarray):
        return column[0] if strata is None else column[strata]

    p = outcome_one_probability(s, n, per_trial(angle))
    p *= per_trial(w1 - w0)
    p += per_trial(w0)
    return p


def _run_ids(keys: np.ndarray) -> np.ndarray:
    """For each element of a sorted array, the index of its run of equal values."""
    return np.cumsum(np.r_[False, keys[1:] != keys[:-1]])


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _block_sums(counts: np.ndarray, setting_starts: np.ndarray) -> list[tuple[float, int]]:
    """For each setting's block of counts, given where each block starts,
    the sum of c * log2(c) over its nonzero counts c, in order, and how
    many there are.  The zeros are dropped and the log2 taken once for all
    blocks; each sum is then one dot product over a contiguous slice."""
    nonzero = counts > 0
    kept = counts.compress(nonzero).astype(np.float64, copy=False)
    logs = np.log2(kept)
    sizes = np.add.reduceat(nonzero, setting_starts, dtype=np.int64).tolist()
    bounds = [0, *itertools.accumulate(sizes)]
    return [(float(kept[a:b] @ logs[a:b]), b - a) for a, b in zip(bounds, bounds[1:])]


class _JointCells:
    """The observed (setting, key entry, outcome count) cells of one
    estimate's trials, in ascending key order, and each trial's cell id.

    The cells and ids are np.unique's sorted values and inverse.  When the
    cell space, settings * 2**n * y_card keys, is no larger than the trial
    count, they are found by counting, with no sort: the observed keys are
    marked in a bool array of the space, the marks ranked by a cumulative
    sum, and each trial's rank gathered.  A larger space, as with random
    bases at n=16, goes through np.unique.

    A resample of the trials is a count vector over these cells, from
    which its entry counts (one bincount) and outcome counts (one sum over
    each run of cells ordered by outcome) follow without another sort, in
    the ascending order np.unique would give them.  Each of the three
    vectors drops its zeros and takes its log2 once; a setting's counts
    are then one contiguous block of it, so each of the setting's entropy
    sums is one dot product over the same nonzero counts, in the same
    order, as over np.unique counts, and rounds exactly as it would there.
    """

    def __init__(self, keys: np.ndarray, space: int, n: int, y_card: int) -> None:
        if space <= keys.size:
            seen = np.zeros(space, dtype=bool)
            seen[keys] = True
            cells = np.flatnonzero(seen)
            rank = np.cumsum(seen, dtype=np.intp) - 1
            self.cell_of_trial = rank[keys]
        else:
            cells, self.cell_of_trial = np.unique(keys, return_inverse=True)
        self.size = cells.size
        # per-cell arrays are as long as the trials when most cells hold
        # one trial, so each is shifted or freed as soon as it is used
        cell_setting = cells // y_card
        self.entry_of_cell = _run_ids(cell_setting)
        cell_setting >>= n
        outcome_of_cell = cells % y_card
        del cells
        outcome_of_cell += cell_setting * y_card
        # the outcome counts are integer sums, so the order within a bin is free
        self.by_outcome = np.argsort(outcome_of_cell)
        outcomes = outcome_of_cell[self.by_outcome]
        self.outcome_starts = _run_starts(outcomes)
        # where each setting starts among the cells, entries and outcomes
        self.setting_cells = _run_starts(cell_setting)
        self.setting_entries = self.entry_of_cell[self.setting_cells]
        self.setting_outcomes = _run_starts(outcomes[self.outcome_starts] // y_card)

    def mutual_info(self, cell_ids: np.ndarray) -> tuple[float, int]:
        """Mutual information and joint support of the trials in the given
        cells, one cell id per trial (a bootstrap resample repeats some).

        With a per-trial random setting the relevant quantity is the gain
        conditional on the setting, so the bias-corrected (Miller-Madow)
        plug-in estimate is taken per setting and weighted by setting
        frequency; a fixed setting is one stratum.
        """
        counts = np.bincount(cell_ids, minlength=self.size)
        entries = _block_sums(
            np.bincount(self.entry_of_cell, weights=counts), self.setting_entries
        )
        outcomes = _block_sums(
            np.add.reduceat(counts.take(self.by_outcome), self.outcome_starts),
            self.setting_outcomes,
        )
        joint = _block_sums(counts, self.setting_cells)
        total = cell_ids.size
        value = 0.0
        for count, (s_sum, s_size), (y_sum, y_size), (joint_sum, joint_size) in zip(
            np.add.reduceat(counts, self.setting_cells).tolist(), entries, outcomes, joint
        ):
            if count == 0:
                continue
            h = math.log2(count)
            plugin = (h - s_sum / count) + (h - y_sum / count) - (h - joint_sum / count)
            correction = ((s_size - 1) + (y_size - 1) - (joint_size - 1)) / (2.0 * count * _LN2)
            value += (count / total) * (plugin + correction)
        return value, sum(size for _, size in joint)


def estimate_mutual_information(
    strategy: MeasurementStrategy,
    n: int,
    copies_per_trial: int,
    trials: int,
    rng: np.random.Generator,
) -> MutualInfoEstimate:
    """Simulate key-entry measurements and estimate the information gained.

    Each trial draws a uniform key entry at precision n, measures
    copies_per_trial independent copies of its rotation state under the
    strategy, and records the number of 1 outcomes (a sufficient statistic
    when every copy uses the same setting).  The mutual information
    between entry and count is estimated with the bias-corrected
    (Miller-Madow) plug-in estimator, per measurement setting when the
    setting is random; the standard error is the spread over
    BOOTSTRAP_RESAMPLES resamples of the trials, drawn with replacement.

    Each trial becomes one joint (setting, entry, count) cell, its key
    built in the buffer of the entry draws.  The observed cells are
    numbered by counting when the cell space, settings * 2**n *
    (copies_per_trial + 1), is no larger than the trial count, and by one
    sort otherwise; either way the draws are dropped before the bootstrap,
    which holds only the per-trial cell ids and one resample's ids while
    it counts.  The point estimate and every resample count their trials
    with one bincount over the observed cells.  From it the entry and
    outcome counts follow, each setting's counts one block of each vector,
    so a resample drops zeros and takes log2 once per vector, not once per
    setting.  The estimate is flagged undersampled when trials are scarce
    relative to the observed joint support.
    """
    check_precision(n, cap=MI_PRECISION_CAP)
    check_integer(copies_per_trial, "copies_per_trial", 1, MI_COPIES_CAP)
    # checked before the draws, which a huge trial count cannot afford
    check_integer(trials, "trials", 2, MI_TRIALS_CAP)

    s = rng.integers(0, 1 << n, size=trials, dtype=np.int64)
    settings = len(strategy.settings)
    # a lone setting needs no draw, and rng.integers(0, 1) would consume none
    strata = rng.integers(0, settings, size=trials) if settings > 1 else None
    y = rng.binomial(copies_per_trial, _outcome_probability(s, n, strategy, strata))
    y_card = copies_per_trial + 1

    # the key ((setting << n) + s) * y_card + y, built in s's buffer
    keys = s
    if strata is not None:
        strata <<= n
        keys += strata
    keys *= y_card
    keys += y
    del s, strata, y
    cells = _JointCells(keys, settings * y_card << n, n, y_card)
    del keys
    value, support = cells.mutual_info(cells.cell_of_trial)

    resamples = np.empty(BOOTSTRAP_RESAMPLES)
    for i in range(BOOTSTRAP_RESAMPLES):
        # the picks are freed once gathered, before the resample is counted
        ids = cells.cell_of_trial[rng.integers(0, trials, size=trials)]
        resamples[i] = cells.mutual_info(ids)[0]
    stderr = float(np.std(resamples, ddof=1))

    return MutualInfoEstimate(
        value_bits=float(value),
        stderr_bits=stderr,
        trials=trials,
        copies_per_trial=copies_per_trial,
        n=n,
        strategy_kind=strategy.kind,
        undersampled=trials < 10 * support,
    )
