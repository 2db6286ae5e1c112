"""Command-line front end: key lifecycle, round trips, attack experiments,
security reports, and parameter sweeps with reproducible seeding.

Every run derives its randomness from one master 64-bit seed (flag, then the
QPKE_SEED environment variable, then fresh entropy) expanded into labeled
substreams, and every emitted data file carries the run id of the manifest
that produced it, so identical flags plus seed reproduce identical payloads
byte for byte.  Timestamps live only in the manifest file.

Exit codes: 0 success, 2 usage or validation, 3 I/O failure, 4 protocol
precondition violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    CPA_TOTAL_QUBIT_CAP,
    CcaSessionResult,
    chosen_ciphertext_session,
    chosen_plaintext_distinguishability,
    run_forward_search,
)
from .protocol import (
    DEFAULT_COPY_CAP,
    CopyCapExceededError,
    DecryptionOracle,
    KeyRegistry,
    LowPrecisionWarning,
    MessageTooLongError,
    OracleDeactivatedError,
    decrypt,
    encrypt,
    key_fingerprint,
    keygen,
    load_private_key,
    save_private_key,
)
from .quantum_core import check_integer, von_neumann_entropy
from .security_analysis import (
    KeyParams,
    MeasurementStrategy,
    ensemble_density,
    ensemble_density_method,
    estimate_mutual_information,
    secrecy_condition,
)
from .seeding import rng_stream

SCHEMA_VERSION = 1
SWEEP_CELL_CAP = 10000
# a cca run builds --k + 2 ciphertexts, each 8 MiB of int64 indices at
# MAX_KEY_LENGTH qubits: 528 MiB at the cap
CCA_USES_CAP = 64
SEED_ENV_VAR = "QPKE_SEED"
_SEED_MASK = (1 << 64) - 1
# parsed flags that stay out of a run's params: bookkeeping, the seed (hashed
# on its own) and output paths, which never change a payload
_UNRECORDED_FLAGS = ("command", "func", "seed", "out", "json", "csv", "manifest")


# --- manifests and output plumbing ---


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record for one CLI invocation.

    The run id hashes the command, parameters, seed, and tool version;
    the timestamp and output paths are recorded but excluded, so reruns
    with identical inputs share the run id and produce byte-identical
    data payloads.
    """

    command: str
    params: dict
    seed: int
    tool_version: str
    timestamp: str

    @functools.cached_property
    def run_id(self) -> str:
        """Hashed once per manifest; no command changes params after building it."""
        canonical = json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "seed": self.seed,
                "tool_version": self.tool_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def payload_header(self) -> dict:
        """Deterministic part embedded in every data file."""
        return {
            "command": self.command,
            "params": self.params,
            "run_id": self.run_id,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }

    def to_json(self, outputs: list[str]) -> dict:
        body = self.payload_header()
        body["timestamp"] = self.timestamp
        body["outputs"] = outputs
        return body


def _make_manifest(args, seed: int, params: dict | None = None) -> RunManifest:
    """Manifest of one run; params default to every recorded parsed flag."""
    if params is None:
        params = {k: v for k, v in vars(args).items() if k not in _UNRECORDED_FLAGS}
    return RunManifest(
        command=args.command,
        params=params,
        seed=seed,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def _resolve_seed(flag_value: int | None) -> tuple[int, str]:
    """Master seed and where it came from: flag, environment, or entropy."""
    if flag_value is not None:
        return flag_value & _SEED_MASK, "flag"
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env) & _SEED_MASK, "env"
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    entropy = np.random.SeedSequence().entropy
    return int(entropy) & _SEED_MASK, "entropy"


def _write_envelope(path: str, **body) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **body}
    # json.dump writes as it encodes; json.dumps with indent would first hold
    # every chunk of the text, tens of bytes per bit of a cca transcript
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit(
    args, manifest: RunManifest, results=None, csv_rows=None, csv_fields=None,
    csv_path=None, written=(),
) -> None:
    """Write the data files (--json, --csv or csv_path) plus the manifest
    that cross-references them and any file the command wrote itself."""
    outputs = list(written)
    json_path = getattr(args, "json", None)
    csv_path = csv_path or getattr(args, "csv", None)
    if json_path:
        _write_envelope(json_path, manifest=manifest.payload_header(), results=results)
        outputs.append(json_path)
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=csv_fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(csv_rows)
        outputs.append(csv_path)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path is None and outputs:
        manifest_path = outputs[0] + ".manifest.json"
    if manifest_path:
        _write_envelope(manifest_path, manifest=manifest.to_json(outputs))


# --- flag parsing helpers ---


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{flag} must look like LOW:HIGH, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{flag} bounds must be integers, got {text!r}") from None
    return lo, hi


def _output_path(text: str) -> str:
    """Type of every output-path flag.  An empty path would write nothing,
    drop the manifest, or write into the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("output path must not be empty")
    return text


def _parse_message(text: str) -> np.ndarray:
    """Message as an int64 bit array, from bits ('0110') or hex ('0xD6',
    four bits per digit)."""
    if text.lower().startswith("0x"):
        digits = text[2:]
        # int() alone would also take signs, spaces, underscores and non-ASCII digits
        if not re.fullmatch("[0-9a-fA-F]+", digits):
            raise ValueError(f"invalid hex message {text!r}")
        text = format(int(digits, 16), f"0{4 * len(digits)}b")
    if re.fullmatch("[01]+", text):
        return np.frombuffer(text.encode(), dtype=np.uint8).astype(np.int64) - ord("0")
    raise ValueError(f"message must be bits or 0x-prefixed hex, got {text!r}")


# --- subcommands ---


def cmd_keygen(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise ValueError("exactly one of --n or --n-range is required")
    if args.n_range is not None:
        precision: int | tuple[int, int] = _parse_range(args.n_range, "--n-range")
    else:
        precision = args.n
    seed, seed_source = _resolve_seed(args.seed)
    rng = rng_stream(seed, "keygen")
    key, public = keygen(precision, args.N, permute=args.permute, rng=rng)

    save_private_key(key, args.out)
    manifest = _make_manifest(args, seed)
    _emit(args, manifest, written=[args.out])
    print(f"key_id={public.key_id}")
    print(f"fingerprint={key_fingerprint(key)}")
    print(f"n={key.n} N={args.N} copy_cap={DEFAULT_COPY_CAP}")
    print(f"seed={seed} ({seed_source}) run_id={manifest.run_id}")
    print(f"wrote {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    seed, seed_source = _resolve_seed(args.seed)
    key = load_private_key(args.key)
    message = _parse_message(args.message)
    registry = KeyRegistry()
    public = registry.issue_copy(registry.add(key, copy_cap=1))
    oracle = DecryptionOracle(key, uses_allowed=1)

    t0 = time.perf_counter()
    cipher = encrypt(public, message, alpha=args.alpha, rng=rng_stream(seed, "encrypt"))
    t1 = time.perf_counter()
    decoded = decrypt(oracle, cipher, rng_stream(seed, "decrypt"))
    t2 = time.perf_counter()

    match = decoded == tuple(message.tolist())
    results = {
        "match": match,
        "num_bits": len(message),
        "alpha": args.alpha,
        "n": key.n,
        "N": key.length,
    }
    manifest = _make_manifest(args, seed)
    _emit(args, manifest, results)
    print(f"match={'true' if match else 'false'}")
    print(f"encrypt_ms={1e3 * (t1 - t0):.2f} decrypt_ms={1e3 * (t2 - t1):.2f}")
    print(f"seed={seed} ({seed_source}) run_id={manifest.run_id}")
    return 0 if match else 1


# the statistic columns of every attack and forward-search sweep row, in CSV order
_STAT_FIELDS = ["rule", "trials", "success_rate", "stderr", "theory"]
_ATTACK_FIELDS = ["attack", "alpha", "n", "N", *_STAT_FIELDS, "seed", "run_id"]


def _row(rule, trials, observed, stderr, theory, seed, run_id, **columns) -> dict:
    """One attack or sweep row: the statistic columns in _STAT_FIELDS order,
    seed and run id, plus the caller's own columns."""
    return dict(columns, rule=rule, trials=trials, success_rate=observed, stderr=stderr,
                theory=theory, seed=seed, run_id=run_id)


def _forward_search_rows(
    reports: dict, rule: str, seed: int, run_id: str, **columns
) -> list[dict]:
    """One row per selected rule; each row's alpha is the report's."""
    return [
        _row(r.rule, r.trials, r.success_rate, r.stderr, r.predicted_rate, seed, run_id,
             alpha=r.alpha, **columns)
        for r in reports.values()
        if rule in ("both", r.rule)
    ]


def _forward_search_records(args, seed: int, run_id: str) -> list[dict]:
    rng = rng_stream(seed, "attack", "forward-search")
    reports = run_forward_search(args.alpha, args.trials, rng, precision=args.n)
    # N holds alpha in these rows; the golden payloads pin that column
    return _forward_search_rows(
        reports, args.rule, seed, run_id, attack="forward-search", n=args.n, N=args.alpha
    )


def _cpa_records(args, seed: int, run_id: str) -> list[dict]:
    # bounded before the messages below are built, so a huge N allocates nothing
    check_integer(args.N, "cpa --N", 1, CPA_TOTAL_QUBIT_CAP)
    report = chosen_plaintext_distinguishability(
        args.n, (0,) * args.N, (1,) * args.N, alpha=args.alpha
    )
    worst = max(
        report.distance_between_messages,
        report.distance_m0_to_public,
        report.distance_m1_to_public,
    )
    return [_row("trace-distance", 0, worst, 0.0, 0.0, seed, run_id,
                 attack="cpa", alpha=args.alpha, n=args.n, N=args.N)]


def _cca_session(args, seed: int) -> CcaSessionResult:
    """Encrypt k + 2 random messages under a fresh key and submit them all.
    The ciphertexts are freed on return, before the transcript is expanded."""
    rng = rng_stream(seed, "attack", "cca")
    with warnings.catch_warnings():
        # attack experiments run at reduced precision on purpose
        warnings.simplefilter("ignore", LowPrecisionWarning)
        key, _ = keygen(args.n, args.N, rng=rng)
    registry = KeyRegistry()
    key_id = registry.add(key, copy_cap=args.k + 2)
    submissions = []
    for i in range(args.k + 2):
        message = rng.integers(0, 2, size=args.N)
        public = registry.issue_copy(key_id)
        cipher = encrypt(public, message, rng=rng)
        submissions.append((f"probe-{i}", cipher))
    return chosen_ciphertext_session(key, args.k, submissions, rng)


def _cca_records(args, seed: int, run_id: str) -> tuple[list[dict], dict]:
    # bounded before keygen and the submissions, which a huge k cannot afford
    check_integer(args.k, "cca --k", 1, CCA_USES_CAP)
    session = _cca_session(args, seed)
    summary = session.to_record()
    summary["seed"] = seed
    summary["run_id"] = run_id
    detail = {
        "session": summary,
        "transcript": [entry.to_record() for entry in session.transcript],
    }
    row = _row(
        f"uses:{session.uses_consumed}/{session.uses_allowed}", len(session.transcript),
        session.uses_consumed / session.uses_allowed, 0.0, 1.0, seed, run_id,
        attack="cca", alpha=1, n=args.n, N=args.N,
    )
    return [row], detail


def cmd_attack(args) -> int:
    seed, seed_source = _resolve_seed(args.seed)
    manifest = _make_manifest(args, seed)
    if args.attack == "forward-search":
        rows = _forward_search_records(args, seed, manifest.run_id)
        results: object = rows
    elif args.attack == "cpa":
        rows = _cpa_records(args, seed, manifest.run_id)
        results = rows
    else:
        rows, results = _cca_records(args, seed, manifest.run_id)
    _emit(args, manifest, results, csv_rows=rows, csv_fields=_ATTACK_FIELDS)
    for row in rows:
        print(
            f"{row['attack']} rule={row['rule']} observed={row['success_rate']:.6g} "
            f"theory={row['theory']:.6g}"
        )
    print(f"seed={seed} ({seed_source}) run_id={manifest.run_id}")
    return 0


def cmd_analyze(args) -> int:
    seed, seed_source = _resolve_seed(args.seed)
    n_l, n_u = _parse_range(args.n_range, "--n-range")
    params = KeyParams(n_l, n_u, args.N, args.k)
    report = secrecy_condition(params, threshold=args.threshold)
    records = report.to_records()
    if args.mi_strategy != "none":
        strategy = (
            MeasurementStrategy.fixed(0.0)
            if args.mi_strategy == "fixed"
            else MeasurementStrategy.random()
        )
        estimate = estimate_mutual_information(
            strategy,
            args.mi_n,
            args.mi_copies,
            args.trials,
            rng_stream(seed, "analyze", "mi"),
        )
        records.append(estimate.to_record())
    manifest = _make_manifest(args, seed)
    fields = ["quantity", "value_bits", "stderr_bits", "satisfied", "run_id"]
    rows = [dict(r, run_id=manifest.run_id) for r in records]
    _emit(args, manifest, records, csv_rows=rows, csv_fields=fields)
    margin = "inf" if math.isinf(report.margin) else f"{report.margin:.4f}"
    print(f"H(d)={report.key_entropy_bits:.4f} bits cap={report.holevo_cap_bits:.1f} bits")
    print(
        f"margin={margin} threshold={report.threshold:g} "
        f"satisfied={'true' if report.satisfied else 'false'}"
    )
    print(f"seed={seed} ({seed_source}) run_id={manifest.run_id}")
    return 0


def cmd_sweep(args) -> int:
    seed, seed_source = _resolve_seed(args.seed)
    if args.experiment == "forward-search":
        grid_flag, grid = "--alphas", args.alphas
    else:
        grid_flag, grid = "--n", args.n
    lo, hi = _parse_range(grid, grid_flag)
    if lo < 1 or hi < lo:
        raise ValueError(f"{grid_flag} {lo}:{hi} spans no valid cells")
    # counted before any cell exists, so a huge span costs nothing
    if hi - lo + 1 > SWEEP_CELL_CAP:
        raise ValueError(
            f"grid has {hi - lo + 1} cells; the cap is {SWEEP_CELL_CAP}"
        )
    cells = range(lo, hi + 1)

    # the normalized grid stands for --alphas or --n: only the swept flag counts
    params = {
        "experiment": args.experiment,
        "grid": f"{lo}:{hi}",
        "trials": args.trials,
        "rule": args.rule,
    }
    manifest = _make_manifest(args, seed, params)
    out_dir = Path(args.out)
    csv_path = out_dir / f"sweep-{args.experiment}.csv"

    if args.experiment == "forward-search":
        fields = ["experiment", "alpha", *_STAT_FIELDS, "deviation", "seed", "run_id"]
        rows = []
        for alpha in cells:
            rng = rng_stream(seed, "sweep", "forward-search", alpha)
            reports = run_forward_search(alpha, args.trials, rng)
            for row in _forward_search_rows(
                reports, args.rule, seed, manifest.run_id, experiment="forward-search"
            ):
                row["deviation"] = reports[row["rule"]].deviation
                rows.append(row)
    else:
        fields = [
            "experiment",
            "n",
            "method",
            "max_abs_deviation",
            "entropy_bits",
            "seed",
            "run_id",
        ]
        rows = []
        for n in cells:
            rho = ensemble_density(n)
            deviation = float(np.abs(rho.entries - np.eye(2) / 2.0).max())
            rows.append(
                {
                    "experiment": "ensemble",
                    "n": n,
                    "method": ensemble_density_method(n),
                    "max_abs_deviation": deviation,
                    "entropy_bits": von_neumann_entropy(rho),
                    "seed": seed,
                    "run_id": manifest.run_id,
                }
            )

    # made once every cell has run, so a refused cell leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit(args, manifest, csv_rows=rows, csv_fields=fields, csv_path=str(csv_path))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    print(f"seed={seed} ({seed_source}) run_id={manifest.run_id}")
    return 0


# --- parser and entry points ---

# flags that several subcommands take, declared once
_SHARED_FLAGS = {
    "--rule": dict(
        choices=["identify-all", "parity-aware", "both"],
        default="both",
        help="forward-search decision rule",
    ),
    "--seed": dict(type=int, default=None),
    "--json": dict(type=_output_path, default=None, help="write the report as JSON"),
    "--csv": dict(type=_output_path, default=None, help="write report rows as CSV"),
    "--manifest": dict(type=_output_path, default=None, help="manifest path override"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qpke parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qpke",
        description="Rotation-based quantum public-key cryptosystem simulator.",
    )
    parser.add_argument("--version", action="version", version=f"qpke {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="draw a key pair and write the private key")
    p.add_argument("--n", type=int, default=None, help="fixed precision in bits")
    p.add_argument("--n-range", default=None, help="precision range LOW:HIGH")
    p.add_argument("--N", type=int, default=256, help="key length in qubits")
    p.add_argument("--permute", action="store_true", help="add a secret permutation")
    _add_shared(p, "--seed")
    p.add_argument("--out", type=_output_path, required=True, help="private-key file to write")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("roundtrip", help="encrypt then decrypt one message")
    p.add_argument("--key", required=True, help="private-key file from keygen")
    p.add_argument("--message", required=True, help="bits ('0110') or hex ('0xd6')")
    p.add_argument("--alpha", type=int, default=1, help="qubits per message bit")
    _add_shared(p, "--seed", "--json", "--manifest")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("attack", help="run one adversary experiment")
    p.add_argument(
        "--attack",
        required=True,
        choices=["forward-search", "cpa", "cca"],
        help="which experiment to run",
    )
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", type=int, default=8, help="key precision in bits")
    p.add_argument("--N", type=int, default=2, help="key length in qubits")
    p.add_argument("--k", type=int, default=4, help="oracle use budget (cca)")
    p.add_argument("--trials", type=int, default=10000)
    _add_shared(p, "--rule", "--seed", "--json", "--csv", "--manifest")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="entropy, Holevo cap, and secrecy margin")
    p.add_argument("--n-range", default="32:62", help="precision range LOW:HIGH")
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--k", type=int, default=16, help="public copies issued")
    p.add_argument("--threshold", type=float, default=100.0)
    p.add_argument(
        "--mi-strategy",
        choices=["none", "fixed", "random"],
        default="none",
        help="optionally estimate measured information per key entry",
    )
    p.add_argument("--mi-n", type=int, default=8, help="precision for the estimate")
    p.add_argument("--mi-copies", type=int, default=1, help="copies per trial")
    p.add_argument("--trials", type=int, default=20000)
    _add_shared(p, "--seed", "--json", "--csv", "--manifest")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="parameter sweep to a CSV matrix")
    p.add_argument(
        "--experiment",
        required=True,
        choices=["forward-search", "ensemble"],
    )
    p.add_argument("--alphas", default="1:4", help="alpha grid LOW:HIGH")
    p.add_argument("--n", default="1:16", help="precision grid LOW:HIGH")
    p.add_argument("--trials", type=int, default=20000)
    _add_shared(p, "--rule", "--seed")
    p.add_argument("--out", type=_output_path, required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse stores an empty list for "--flag=--"; no flag here takes a list
    for name, value in vars(args).items():
        if value == []:
            print(f"error: argument --{name.replace('_', '-')} needs a value", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (MessageTooLongError, CopyCapExceededError, OracleDeactivatedError) as exc:
        # before ValueError: MessageTooLongError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
