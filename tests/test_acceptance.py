"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee, prints a single PASS/FAIL line,
and enforces the stated tolerance (and runtime budget where one applies).
Run with `pytest -v tests/test_acceptance.py` to get one verdict per
criterion.
"""

from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qpke.attacks import (
    chosen_plaintext_distinguishability,
    enumerate_forward_search_success,
    run_forward_search,
)
from qpke.protocol import (
    CopyCapExceededError,
    DecryptionOracle,
    KeyRegistry,
    OracleDeactivatedError,
    PublicKey,
    encrypt,
    decrypt,
    key_id_of,
    keygen,
    prepare_register,
)
from qpke.quantum_core import draws_outcome_zero, index_amplitudes, swap_parts
from qpke.security_analysis import (
    KeyParams,
    MeasurementStrategy,
    estimate_mutual_information,
    holevo_cap,
    private_key_entropy,
    secrecy_condition,
    ensemble_density,
)
from qpke.seeding import rng_stream

MASTER_SEED = 20260825


def report(criterion: int, passed: bool, detail: str) -> None:
    """One verdict line per criterion; assert after printing so the line
    shows up in captured output even when the criterion fails."""
    print(f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def three_se(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def factorized_public_key_density(N: int) -> np.ndarray:
    """The key-averaged public-key density as a product of N per-qubit
    averages.  Each factor is the mean projector of the n = 1 index states
    |0> and |1>, which the kernel maps exactly, so it is I/2 with no rounding;
    the single-qubit check covers the enumerations at n = 1..16."""
    states = np.array([index_amplitudes(s, 1) for s in (0, 1)], dtype=np.complex128)
    per_qubit = states.T @ states.conj() / 2.0
    out = per_qubit
    for _ in range(N - 1):
        out = np.kron(out, per_qubit)
    return out


def reduced_purity(pair: np.ndarray) -> float:
    """tr(rho^2) of qubit 0 of a two-qubit amplitude vector."""
    rho = np.outer(pair, pair.conj()).reshape(2, 2, 2, 2)
    reduced = np.einsum("ajbj->ab", rho)
    return float(np.trace(reduced @ reduced).real)


class TestAcceptance:
    def test_criterion_1_round_trips_decrypt_exactly(self):
        """10^4 randomized round trips over n in {2, 8, 32, 62}, key lengths
        up to 1024, alpha in {1, 2, 3}, permutation on and off: every
        decryption must reproduce the message exactly, in under 10 s."""
        rng = rng_stream(MASTER_SEED, "acceptance", "roundtrip")
        grid = [
            (n, alpha, permute)
            for n in (2, 8, 32, 62)
            for alpha in (1, 2, 3)
            for permute in (False, True)
        ]
        # Key lengths biased toward the cheap end so the 10 s budget holds,
        # with the N = 1024 extreme exercised in every grid cell.
        length_pool = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024)
        trials = 10_000
        start = time.perf_counter()
        mismatches = 0
        largest = 0
        for trial in range(trials):
            n, alpha, permute = grid[trial % len(grid)]
            if trial % len(length_pool) == 0:
                N = 1024
            else:
                N = length_pool[int(rng.integers(len(length_pool) - 3))]
            N = max(N, alpha)
            largest = max(largest, N)
            key, public = keygen(n, N, permute=permute, rng=rng)
            num_bits = int(rng.integers(1, N // alpha + 1))
            message = tuple(int(b) for b in rng.integers(0, 2, size=num_bits))
            cipher = encrypt(public, message, alpha=alpha, rng=rng)
            oracle = DecryptionOracle(key, uses_allowed=1)
            if decrypt(oracle, cipher, rng) != message:
                mismatches += 1
        elapsed = time.perf_counter() - start
        passed = mismatches == 0 and elapsed < 10.0 and largest == 1024
        report(
            1,
            passed,
            f"{trials} round trips, {mismatches} mismatches, "
            f"max N {largest}, {elapsed:.2f} s (< 10 s)",
        )

    def test_criterion_2_ensembles_maximally_mixed(self):
        """Uniform single-qubit ensemble equals I/2 entrywise within 1e-12
        for every precision 1..16, and the full multi-qubit public-key
        density equals I/2^N for N <= 4, in under 5 s."""
        start = time.perf_counter()
        worst_single = 0.0
        for n in range(1, 17):
            rho = ensemble_density(n)
            dev = float(np.abs(rho.entries - np.eye(2) / 2.0).max())
            worst_single = max(worst_single, dev)

        # Factorized description, materialized.
        worst_product = 0.0
        for N in range(1, 5):
            full = factorized_public_key_density(N)
            target = np.eye(1 << N) / float(1 << N)
            worst_product = max(worst_product, float(np.abs(full - target).max()))

        # Independent brute force: average the joint projector over every
        # key vector, without assuming the density factorizes.
        worst_joint = 0.0
        for n, N in ((1, 4), (2, 2), (2, 3), (3, 2), (3, 4), (4, 2)):
            count = 1 << n
            singles = [
                np.array(
                    [math.cos(s * math.pi / count), math.sin(s * math.pi / count)]
                )
                for s in range(count)
            ]
            dim = 1 << N
            acc = np.zeros((dim, dim))
            for combo in itertools.product(singles, repeat=N):
                vec = combo[0]
                for nxt in combo[1:]:
                    vec = np.kron(vec, nxt)
                acc += np.outer(vec, vec)
            acc /= float(count**N)
            worst_joint = max(worst_joint, float(np.abs(acc - np.eye(dim) / dim).max()))

        elapsed = time.perf_counter() - start
        passed = (
            worst_single < 1e-12
            and worst_product < 1e-12
            and worst_joint < 1e-12
            and elapsed < 5.0
        )
        report(
            2,
            passed,
            f"max deviation single {worst_single:.2e}, product {worst_product:.2e}, "
            f"joint {worst_joint:.2e} (all < 1e-12), {elapsed:.2f} s (< 5 s)",
        )

    def test_criterion_3_forward_search_rates(self):
        """Forward-search interception: 0.75 within +/-0.01 at alpha=1 over
        10^5 trials; identify-all matches (3/4)^alpha within 3 se for
        alpha 1..4, including 0.5625 at alpha=2; the parity-aware rule
        matches its exact enumeration (0.625 at alpha=2) within 3 se.
        All in under 30 s."""
        rng = rng_stream(MASTER_SEED, "acceptance", "forward-search")
        start = time.perf_counter()
        failures: list[str] = []

        big = run_forward_search(1, 100_000, rng)
        rate_1 = big["identify-all"].success_rate
        if abs(rate_1 - 0.75) > 0.01:
            failures.append(f"alpha=1 rate {rate_1:.4f} outside 0.75 +/- 0.01")

        reports = {1: big}
        for alpha in (2, 3, 4):
            reports[alpha] = run_forward_search(alpha, 6_000, rng)
        for alpha, rep in reports.items():
            identify = rep["identify-all"]
            predicted = 0.75**alpha
            if identify.predicted_rate != pytest.approx(predicted, abs=1e-15):
                failures.append(f"alpha={alpha} identify-all prediction wrong")
            if abs(identify.success_rate - predicted) > three_se(predicted, identify.trials):
                failures.append(
                    f"alpha={alpha} identify-all rate {identify.success_rate:.4f} "
                    f"beyond 3 se of {predicted:.4f}"
                )

        if reports[2]["identify-all"].predicted_rate != 0.5625:
            failures.append("alpha=2 identify-all closed form is not 0.5625")

        parity_2 = reports[2]["parity-aware"]
        oracle_value = float(enumerate_forward_search_success(2, "parity-aware"))
        if oracle_value != 0.625:
            failures.append(f"alpha=2 parity enumeration gave {oracle_value}, not 0.625")
        if abs(parity_2.success_rate - oracle_value) > three_se(oracle_value, parity_2.trials):
            failures.append(
                f"alpha=2 parity-aware rate {parity_2.success_rate:.4f} beyond 3 se of 0.625"
            )

        elapsed = time.perf_counter() - start
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.1f} s exceeds 30 s")
        report(
            3,
            not failures,
            "; ".join(failures)
            or (
                f"alpha=1 rate {rate_1:.4f} (0.75 +/- 0.01), identify-all within 3 se "
                f"for alpha 1..4 incl. 0.5625, parity-aware {parity_2.success_rate:.4f} "
                f"vs exact 0.625, {elapsed:.1f} s (< 30 s)"
            ),
        )

    def test_criterion_4_swap_test_law_and_entanglement(self):
        """Symmetry-test pass rate matches (1 + |<a|b>|^2)/2 within 3 se at
        10^5 trials for overlaps {0, cos(pi/8), cos(pi/4), 1}, and the
        post-test pair is entangled (reduced purity < 1) for overlaps
        strictly between 0 and 1."""
        rng = rng_stream(MASTER_SEED, "acceptance", "swap-law")
        trials = 100_000
        failures: list[str] = []
        rates: list[str] = []
        reference = np.array(index_amplitudes(0, 3), dtype=np.complex128)
        for offset in (0, 1, 2, 4):
            other = np.array(index_amplitudes(offset, 3), dtype=np.complex128)
            ov = math.cos(offset * math.pi / 8.0)
            expected = (1.0 + ov * ov) / 2.0
            joint = np.kron(reference, other).reshape(2, 2)
            # the pair is split once; rng.random(trials) draws the same
            # uniforms as `trials` scalar symmetry tests
            parts = dict(zip(("pass", "fail"), swap_parts(joint, 0, 1)))
            weights = {o: float(np.vdot(p, p).real) for o, p in parts.items()}
            passed = draws_outcome_zero(weights["pass"], weights["fail"], rng.random(trials))
            posts = {}
            for outcome, hits in (("pass", passed), ("fail", ~passed)):
                if hits.any():
                    posts[outcome] = (parts[outcome] / math.sqrt(weights[outcome])).reshape(-1)
            rate = int(np.count_nonzero(passed)) / trials
            rates.append(f"|<a|b>|={ov:.3f}: {rate:.4f} vs {expected:.4f}")
            tolerance = three_se(expected, trials)
            if offset == 0:
                if rate != 1.0:
                    failures.append(f"identical states must always pass, got {rate}")
            elif abs(rate - expected) > tolerance:
                failures.append(
                    f"overlap {ov:.3f}: rate {rate:.4f} beyond 3 se of {expected:.4f}"
                )
            if 0.0 < ov < 1.0:
                for outcome, post in posts.items():
                    purity = reduced_purity(post)
                    if not purity < 1.0 - 1e-9:
                        failures.append(
                            f"overlap {ov:.3f} {outcome}: reduced purity {purity} not < 1"
                        )
        report(
            4,
            not failures,
            "; ".join(failures)
            or f"{trials} trials per overlap, all within 3 se ({'; '.join(rates)}); "
            "post-test reduced purity < 1 for intermediate overlaps",
        )

    def test_criterion_5_chosen_plaintext_exactly_indistinguishable(self):
        """Ciphertext ensembles of any two equal-length messages coincide:
        exact trace distance < 1e-12 across every enumerable size
        (n <= 12, up to 4 message bits), including redundant encoding."""
        rng = rng_stream(MASTER_SEED, "acceptance", "cpa")
        worst = 0.0
        checked = 0
        for n in range(1, 13):
            for num_bits in range(1, 5):
                pairs = []
                if num_bits <= 2:
                    messages = list(itertools.product((0, 1), repeat=num_bits))
                    pairs = list(itertools.combinations(messages, 2))
                else:
                    zeros = (0,) * num_bits
                    ones = (1,) * num_bits
                    pairs.append((zeros, ones))
                    for _ in range(3):
                        m0 = tuple(int(b) for b in rng.integers(0, 2, size=num_bits))
                        m1 = tuple(int(b) for b in rng.integers(0, 2, size=num_bits))
                        if m0 != m1:
                            pairs.append((m0, m1))
                for m0, m1 in pairs:
                    rep = chosen_plaintext_distinguishability(n, m0, m1)
                    worst = max(
                        worst,
                        rep.distance_between_messages,
                        rep.distance_m0_to_public,
                        rep.distance_m1_to_public,
                    )
                    checked += 1
        # Redundant encoding keeps the ensembles identical as well.
        for n, num_bits in ((4, 2), (8, 3), (12, 4)):
            rep = chosen_plaintext_distinguishability(
                n, (0,) * num_bits, (1,) * num_bits, alpha=2
            )
            worst = max(
                worst,
                rep.distance_between_messages,
                rep.distance_m0_to_public,
                rep.distance_m1_to_public,
            )
            checked += 1
        passed = worst < 1e-12
        report(5, passed, f"{checked} message pairs, worst trace distance {worst:.2e} (< 1e-12)")

    def test_criterion_6_entropy_and_holevo_accounting(self):
        """Closed-form key entropy matches a brute-force enumeration within
        1e-9 bits for n_u <= 6 and N <= 3; the leakage ceiling is exactly
        N*k bits; the secrecy margin moves the right way across a
        100-point grid; and every implemented single-copy measurement
        strategy extracts at most 1 bit per qubit (within 3 se)."""
        failures: list[str] = []

        worst_gap = 0.0
        for n_l in range(1, 7):
            for n_u in range(n_l, 7):
                span = n_u - n_l + 1
                for N in range(1, 4):
                    chunks = [
                        np.full(1 << (n * N), 1.0 / (span * (1 << (n * N))))
                        for n in range(n_l, n_u + 1)
                    ]
                    probs = np.concatenate(chunks)
                    brute = float(-(probs * np.log2(probs)).sum())
                    closed = private_key_entropy(KeyParams(n_l, n_u, N, 1))
                    worst_gap = max(worst_gap, abs(closed - brute))
        if worst_gap >= 1e-9:
            failures.append(f"entropy vs enumeration gap {worst_gap:.2e} >= 1e-9")

        for N, k in [(1, 0), (1, 1), (3, 7), (256, 16), (2**20, 2**20)]:
            if holevo_cap(KeyParams(1, 1, N, k)) != float(N * k):
                failures.append(f"information cap not exactly N*k at N={N}, k={k}")

        # 100-point grid: more circulating copies never increase the
        # margin; more key precision never decreases it.
        margins = np.array(
            [
                [secrecy_condition(KeyParams(8, n_u, 64, k)).margin for k in range(1, 11)]
                for n_u in range(8, 57, 5)
            ]
        )
        assert margins.shape == (10, 10)
        if not np.all(np.diff(margins, axis=1) <= 1e-12):
            failures.append("margin increased when more copies circulate")
        if not np.all(np.diff(margins, axis=0) >= -1e-12):
            failures.append("margin decreased when key precision grew")

        strategies = {
            "fixed aligned": MeasurementStrategy.fixed(0.0),
            "fixed tilted": MeasurementStrategy.fixed(math.pi / 8.0),
            "random basis": MeasurementStrategy.random(),
            "two-outcome povm": MeasurementStrategy.two_outcome(
                np.array([[0.7, 0.2], [0.2, 0.4]]),
                np.array([[0.3, -0.2], [-0.2, 0.6]]),
            ),
        }
        bounds: list[str] = []
        for label, strategy in strategies.items():
            rng = rng_stream(MASTER_SEED, "acceptance", "mi", label)
            est = estimate_mutual_information(
                strategy, n=4, copies_per_trial=1, trials=20_000, rng=rng
            )
            bounds.append(f"{label} {est.value_bits:.3f}b")
            if not est.value_bits <= 1.0 + 3.0 * est.stderr_bits:
                failures.append(
                    f"{label}: estimated {est.value_bits:.3f} bits exceeds "
                    f"1 + 3 se ({est.stderr_bits:.3f})"
                )

        report(
            6,
            not failures,
            "; ".join(failures)
            or (
                f"entropy gap {worst_gap:.2e} (< 1e-9), cap exact, margins monotone "
                f"on 10x10 grid, single-copy info <= 1 bit: {', '.join(bounds)}"
            ),
        )

    def test_criterion_7_copy_and_use_caps(self):
        """For caps k in {1, 4, 16}: exactly k public-key copies can be
        issued and exactly k decryptions succeed; attempt k+1 fails."""
        rng = rng_stream(MASTER_SEED, "acceptance", "caps")
        failures: list[str] = []
        for k in (1, 4, 16):
            key, _ = keygen(8, 4, rng=rng)
            registry = KeyRegistry()
            key_id = registry.add(key, copy_cap=k)

            issued = []
            for _ in range(k):
                issued.append(registry.issue_copy(key_id))
            if len(issued) != k or registry.issued_count(key_id) != k:
                failures.append(f"k={k}: could not issue exactly {k} copies")
            try:
                registry.issue_copy(key_id)
            except CopyCapExceededError:
                pass
            else:
                failures.append(f"k={k}: issuance {k + 1} was allowed")

            oracle = DecryptionOracle(key, uses_allowed=k)
            for use in range(k):
                public = PublicKey(
                    key_id=key_id, N=4, register=prepare_register(key), copy_index=use + 1
                )
                message = tuple(int(b) for b in rng.integers(0, 2, size=4))
                cipher = encrypt(public, message, rng=rng)
                if decrypt(oracle, cipher, rng) != message:
                    failures.append(f"k={k}: use {use + 1} decrypted incorrectly")
            if oracle.remaining_uses != 0 or oracle.active:
                failures.append(f"k={k}: device still active after {k} uses")
            extra = PublicKey(
                key_id=key_id, N=4, register=prepare_register(key), copy_index=k + 1
            )
            cipher = encrypt(extra, (1, 0, 1, 0), rng=rng)
            try:
                decrypt(oracle, cipher, rng)
            except OracleDeactivatedError:
                pass
            else:
                failures.append(f"k={k}: decryption {k + 1} was allowed")
        report(
            7,
            not failures,
            "; ".join(failures)
            or "k in {1, 4, 16}: exactly k issuances and k decryptions, k+1 rejected",
        )

    def test_criterion_8_limitations_documented(self):
        """The README must state the deliberately excluded analyses:
        large-precision asymptotics, collective-attack optimality, and
        cloning-fidelity decay with key length."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        failures: list[str] = []
        if not readme.is_file():
            failures.append("README.md missing")
            text = ""
        else:
            text = readme.read_text(encoding="utf-8").lower()
        if "out of scope" not in text:
            failures.append("no out-of-scope section")
        for topic, needle in [
            ("asymptotics", "asymptotic"),
            ("collective attacks", "collective"),
            ("cloning fidelity", "cloning"),
        ]:
            if needle not in text:
                failures.append(f"{topic} not documented")
        report(
            8,
            not failures,
            "; ".join(failures)
            or "README documents out-of-scope items: asymptotics, collective "
            "attacks, cloning-fidelity decay",
        )
