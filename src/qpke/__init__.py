"""qpke: simulator and analysis toolkit for a rotation-based quantum
public-key cryptosystem with exact dyadic-angle bookkeeping.

The top-level namespace re-exports the working surface: exact angle/state
primitives (`quantum_core`), the key lifecycle and cipher operations
(`protocol`), entropy and leakage accounting (`security_analysis`), the
adversary harness (`attacks`), and labeled deterministic random streams
(`seeding`).  The `qpke` console script lives in `qpke.cli`.
"""

from types import ModuleType as _ModuleType

from .attacks import (
    CcaSessionResult,
    CpaReport,
    ForwardSearchReport,
    OracleSubmission,
    ScenarioStats,
    SingleUseCheckResult,
    chosen_ciphertext_session,
    chosen_plaintext_distinguishability,
    enumerate_forward_search_success,
    forward_search_trial,
    identify_rotations,
    parity_from_fails,
    run_forward_search,
    single_use_constraint_check,
)
from .protocol import (
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
    decrypt,
    encode_redundant,
    encrypt,
    key_fingerprint,
    key_id_of,
    keygen,
    load_private_key,
    prepare_register,
    save_private_key,
    swap_test_registers,
)
from .quantum_core import (
    MAX_PRECISION_BITS,
    DensityMatrix,
    trace_distance,
    von_neumann_entropy,
)
from .security_analysis import (
    KeyParams,
    MeasurementStrategy,
    MutualInfoEstimate,
    SecrecyReport,
    ensemble_density,
    estimate_mutual_information,
    holevo_cap,
    permuted_key_entropy,
    private_key_entropy,
    secrecy_condition,
)
from .seeding import rng_stream, seed_sequence

__version__ = "0.3.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
