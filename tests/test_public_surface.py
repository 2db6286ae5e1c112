"""The package's public surface, pinned name by name.

Adding a name to or removing one from `qpke.__all__` must show up as a diff
here, so that every change to the public surface is a deliberate one.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qpke

PUBLIC_NAMES = [
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
    "PrivateKey",
    "PublicKey",
    "QuantumRegister",
    "ScenarioStats",
    "SecrecyReport",
    "SingleUseCheckResult",
    "chosen_ciphertext_session",
    "chosen_plaintext_distinguishability",
    "decrypt",
    "encode_redundant",
    "encrypt",
    "ensemble_density",
    "enumerate_forward_search_success",
    "estimate_mutual_information",
    "forward_search_trial",
    "holevo_cap",
    "identify_rotations",
    "key_fingerprint",
    "key_id_of",
    "keygen",
    "load_private_key",
    "parity_from_fails",
    "permuted_key_entropy",
    "prepare_register",
    "private_key_entropy",
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


ROOT = Path(__file__).resolve().parent.parent


def bench_bindings() -> list[tuple[str, str]]:
    """(module, name) for every qpke name the benchmark tracer looks up: the
    TRACED and COUNTED literals of bench/tracing.py, read with ast so that
    nothing under bench/ is imported.  A dotted name is a method on a class;
    a counted name must resolve both where it is defined and where it is
    counted."""
    literals = {}
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TRACED", "COUNTED"):
                literals[target.id] = ast.literal_eval(node.value)
    bindings = [(layer, name) for layer, names in literals["TRACED"].items() for name in names]
    for layer, name, caller in literals["COUNTED"]:
        bindings += [(layer, name), (caller, name)]
    return bindings


def test_all_is_the_pinned_list():
    assert qpke.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", bench_bindings())
def test_bench_bound_names_resolve(module, name):
    # a removal the benchmark depends on fails here, not in the benchmark
    target = importlib.import_module(f"qpke.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_version_matches_pyproject():
    # the version is part of every payload's run id; the [project] table's
    # version line is read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert qpke.__version__ == version
