"""The package's public surface, pinned name by name.

Adding a name to or removing one from `qpke.__all__` must show up as a diff
here, so that every change to the public surface is a deliberate one.
"""

from pathlib import Path

import pytest

import qpke

PUBLIC_NAMES = [
    "AccessDeniedError",
    "AngleIndex",
    "CcaSessionResult",
    "CipherState",
    "CopyCapExceededError",
    "CpaReport",
    "DecryptionOracle",
    "DensityMatrix",
    "ForwardSearchReport",
    "KeyParams",
    "KeyRegistry",
    "LowPrecisionWarning",
    "MAX_PRECISION_BITS",
    "MeasurementStrategy",
    "MessageTooLongError",
    "MutualInfoEstimate",
    "OracleDeactivatedError",
    "OracleSubmission",
    "PrecisionMismatchError",
    "PrivateKey",
    "PublicKey",
    "PublicKeyDensity",
    "PureState",
    "QuantumRegister",
    "ScenarioStats",
    "SecrecyReport",
    "SingleUseCheckResult",
    "TamperedRegisterError",
    "chosen_ciphertext_session",
    "chosen_plaintext_distinguishability",
    "decrypt",
    "density_from_ensemble",
    "describe_register",
    "encode_redundant",
    "encrypt",
    "ensemble_density",
    "enumerate_forward_search_success",
    "estimate_mutual_information",
    "forward_search_trial",
    "holevo_cap",
    "identify_rotations",
    "index_add",
    "key_fingerprint",
    "key_id_of",
    "keygen",
    "load_private_key",
    "overlap",
    "parity_from_fails",
    "partial_trace",
    "permuted_key_entropy",
    "prepare_register",
    "prepare_state",
    "private_key_entropy",
    "public_key_density_description",
    "rng_stream",
    "run_forward_search",
    "save_private_key",
    "secrecy_condition",
    "seed_sequence",
    "single_use_constraint_check",
    "swap_test_registers",
    "trace_distance",
    "von_neumann_entropy",
]


def test_all_is_the_pinned_list():
    assert qpke.__all__ == PUBLIC_NAMES


def test_version_matches_pyproject():
    # the version is part of every payload's run id
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert qpke.__version__ == tomllib.load(handle)["project"]["version"]
