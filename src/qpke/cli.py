"""Command-line front end: key lifecycle, round trips, attack experiments,
security reports, and parameter sweeps with reproducible seeding.

Every run derives its randomness from one master 64-bit seed (flag, then the
QPKE_SEED environment variable, then fresh entropy) expanded into labeled
substreams.  Each command computes its records and stdout lines and returns
them; main resolves the seed, stamps the run header (command, params, seed,
tool version, run id) and writes every file, so identical flags plus seed
reproduce identical payloads byte for byte.  Timestamps and timings live only
in the manifest file.

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
import stat
import sys
import time
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (
    CPA_TOTAL_QUBIT_CAP,
    DEFAULT_ATTACK_PRECISION,
    FORWARD_SEARCH_RULES,
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
    PrivateKey,
    _rewrite,
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
    ensemble_densities,
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
# the run identity, added by the writer as the last two columns of every CSV
_IDENTITY_FIELDS = ["seed", "run_id"]


# --- the run frame: what a command returns, and what main writes ---


@dataclass
class CommandOutput:
    """What one command computed, before any file is written.

    results is the JSON payload (--json), rows and fields the CSV rows and
    their columns (--csv, or csv_path for sweep); params replaces the parsed
    flags as the run's params, key is the private key keygen writes to --out,
    and stats are measurements that vary between reruns (timings), so they go
    to the manifest only.
    """

    lines: list[str]
    results: object = None
    rows: list[dict] = field(default_factory=list)
    fields: list[str] = field(default_factory=list)
    params: dict | None = None
    csv_path: str | None = None
    key: PrivateKey | None = None
    stats: dict | None = None
    exit_code: int = 0


def _run_header(args, seed: int, params: dict | None) -> dict:
    """Deterministic header embedded in every data file of one run.

    The run id hashes the command, parameters, seed and tool version; the
    timestamp and output paths stay out, so reruns with identical inputs
    share the run id and produce byte-identical data payloads.  params
    default to every recorded parsed flag.
    """
    if params is None:
        params = {k: v for k, v in vars(args).items() if k not in _UNRECORDED_FLAGS}
    header = {
        "command": args.command,
        "params": params,
        "seed": seed,
        "tool_version": __version__,
    }
    canonical = json.dumps(header, sort_keys=True, separators=(",", ":"))
    header["run_id"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return header


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
    # every chunk of the text
    with _rewrite(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _refuse_shared_paths(paths: dict[str, str | None]) -> None:
    """Refuse a run in which two of its files, named by flag, are one file,
    before any is written: the later write would replace the earlier one,
    or the private key a roundtrip reads.  An existing file is known by its
    device and inode, which also catches a hard link; a path not written yet
    by os.path.realpath.  A device such as /dev/null may be named twice."""
    seen: dict[object, str] = {}
    for flag, path in paths.items():
        if not path:
            continue
        try:
            info = os.stat(path)
        except OSError:
            file: object = os.path.realpath(path)
        else:
            if not stat.S_ISREG(info.st_mode):
                continue
            file = (info.st_dev, info.st_ino)
        if file in seen:
            raise ValueError(f"{seen[file]} and {flag} name the same file {path!r}")
        seen[file] = flag


def _write_run(args, header: dict, out: CommandOutput) -> None:
    """Write a run's files: keygen's key, the JSON envelope, the CSV with the
    run identity as its last columns, and the manifest that cross-references
    them."""
    key_path = args.out if out.key is not None else None
    json_path = getattr(args, "json", None)
    csv_path = out.csv_path or getattr(args, "csv", None)
    outputs = [path for path in (key_path, json_path, csv_path) if path]
    manifest_path = getattr(args, "manifest", None)
    manifest_flag = "--manifest"
    if manifest_path is None:
        manifest_flag = "the manifest"
        # beside the first output that is or becomes a regular file: a
        # device's directory, such as /dev, is not the run's to write into
        manifest_path = next(
            (path + ".manifest.json" for path in outputs
             if os.path.isfile(path) or not os.path.exists(path)),
            None,
        )
    _refuse_shared_paths({
        "--key": getattr(args, "key", None),
        "--out": key_path,
        "--json": json_path,
        "the sweep CSV" if out.csv_path else "--csv": csv_path,
        manifest_flag: manifest_path,
    })
    if key_path:
        save_private_key(out.key, key_path)
    if json_path:
        _write_envelope(json_path, manifest=header, results=out.results)
    if csv_path:
        if out.csv_path:
            Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        identity = {name: header[name] for name in _IDENTITY_FIELDS}
        with _rewrite(csv_path, newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=out.fields + _IDENTITY_FIELDS, extrasaction="ignore"
            )
            writer.writeheader()
            writer.writerows(dict(row, **identity) for row in out.rows)
    if manifest_path:
        manifest = dict(
            header,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            outputs=outputs,
        )
        if out.stats is not None:
            manifest["stats"] = out.stats
        _write_envelope(manifest_path, manifest=manifest)


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


def _show_warning(show, message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning with show as the fallback: a LowPrecisionWarning
    is one "warning:" line, without the source location and line that
    Python's format adds; any other warning goes to show."""
    if issubclass(category, LowPrecisionWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, filename, lineno, file, line)


def cmd_keygen(args, seed: int) -> CommandOutput:
    if (args.n is None) == (args.n_range is None):
        raise ValueError("exactly one of --n or --n-range is required")
    if args.n_range is not None:
        precision: int | tuple[int, int] = _parse_range(args.n_range, "--n-range")
    else:
        precision = args.n
    with warnings.catch_warnings():
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        key, public = keygen(
            precision, args.N, permute=args.permute, rng=rng_stream(seed, "keygen")
        )
    lines = [
        f"key_id={public.key_id}",
        f"fingerprint={key_fingerprint(key)}",
        f"n={key.n} N={args.N} copy_cap={DEFAULT_COPY_CAP}",
        f"wrote {args.out}",
    ]
    return CommandOutput(lines, key=key)


def cmd_roundtrip(args, seed: int) -> CommandOutput:
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
    return CommandOutput(
        [f"match={'true' if match else 'false'}"],
        results,
        stats={"encrypt_ms": 1e3 * (t1 - t0), "decrypt_ms": 1e3 * (t2 - t1)},
        exit_code=0 if match else 1,
    )


# the statistic columns of every attack and forward-search sweep row, in CSV order
_STAT_FIELDS = ["rule", "trials", "success_rate", "stderr", "theory", "deviation"]
_ATTACK_FIELDS = ["attack", "alpha", "n", "N", *_STAT_FIELDS]


def _row(rule, trials, observed, stderr, theory, **columns) -> dict:
    """One attack or sweep row: the caller's columns plus the statistic
    columns, with deviation = observed - theory."""
    return dict(columns, rule=rule, trials=trials, success_rate=observed, stderr=stderr,
                theory=theory, deviation=observed - theory)


def _forward_search_rows(args, alpha: int, n: int, rng, **columns) -> list[dict]:
    """Run the forward search at alpha and precision n: one row per rule
    that --rule selects, each row's alpha the report's."""
    reports = run_forward_search(alpha, args.trials, rng, precision=n)
    return [
        _row(r.rule, r.trials, r.success_rate, r.stderr, r.predicted_rate,
             alpha=r.alpha, n=n, **columns)
        for r in reports.values()
        if args.rule in ("both", r.rule)
    ]


def _forward_search_attack(args, seed: int) -> tuple[list[dict], list[dict]]:
    rng = rng_stream(seed, "attack", "forward-search")
    rows = _forward_search_rows(args, args.alpha, args.n, rng, attack="forward-search")
    return rows, rows


def _cpa_attack(args, seed: int) -> tuple[list[dict], list[dict]]:
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
    rows = [_row("trace-distance", 0, worst, 0.0, 0.0,
                 attack="cpa", alpha=args.alpha, n=args.n, N=args.N)]
    return rows, rows


def _cca_session(args, rng: np.random.Generator) -> CcaSessionResult:
    """Encrypt k + 2 random messages under a fresh key and submit them all.
    The ciphertexts are freed on return, before the transcript is expanded."""
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


def _cca_attack(args, seed: int) -> tuple[list[dict], dict]:
    # bounded before keygen and the submissions, which a huge k cannot afford
    check_integer(args.k, "cca --k", 1, CCA_USES_CAP)
    session = _cca_session(args, rng_stream(seed, "attack", "cca"))
    detail = {
        "session": session.to_record(),
        "transcript": [entry.to_record() for entry in session.transcript],
    }
    row = _row(
        f"uses:{session.uses_consumed}/{session.uses_allowed}", len(session.transcript),
        session.uses_consumed / session.uses_allowed, 0.0, 1.0,
        attack="cca", alpha=1, n=args.n, N=args.N,
    )
    return [row], detail


# --attack name -> (args, seed) -> (CSV rows, JSON results)
ATTACKS = {
    "forward-search": _forward_search_attack,
    "cpa": _cpa_attack,
    "cca": _cca_attack,
}


def cmd_attack(args, seed: int) -> CommandOutput:
    rows, results = ATTACKS[args.attack](args, seed)
    lines = [
        f"{row['attack']} rule={row['rule']} observed={row['success_rate']:.6g} "
        f"theory={row['theory']:.6g}"
        for row in rows
    ]
    return CommandOutput(lines, results, rows, _ATTACK_FIELDS)


def cmd_analyze(args, seed: int) -> CommandOutput:
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
    margin = "inf" if math.isinf(report.margin) else f"{report.margin:.4f}"
    lines = [
        f"H(d)={report.key_entropy_bits:.4f} bits cap={report.holevo_cap_bits:.1f} bits",
        f"margin={margin} threshold={report.threshold:g} "
        f"satisfied={'true' if report.satisfied else 'false'}",
    ]
    fields = ["quantity", "value_bits", "stderr_bits", "satisfied"]
    return CommandOutput(lines, records, records, fields)


def _forward_search_grid(args, seed: int, alphas: range) -> list[dict]:
    # one rng stream per alpha, so a cell's rows do not depend on the grid
    rows = []
    for alpha in alphas:
        rng = rng_stream(seed, "sweep", "forward-search", alpha)
        rows += _forward_search_rows(args, alpha, DEFAULT_ATTACK_PRECISION, rng,
                                     experiment="forward-search")
    return rows


def _ensemble_grid(args, seed: int, ns: range) -> list[dict]:
    rows = []
    for n, rho in zip(ns, ensemble_densities(ns)):
        deviation = float(np.abs(rho.entries - np.eye(2) / 2.0).max())
        rows.append({"experiment": "ensemble", "n": n, "method": ensemble_density_method(n),
                     "max_abs_deviation": deviation, "entropy_bits": von_neumann_entropy(rho)})
    return rows


# --experiment name -> (grid flag, CSV fields, (args, seed, grid range) -> rows)
SWEEPS = {
    "forward-search": ("--alphas", ["experiment", "alpha", "n", *_STAT_FIELDS],
                       _forward_search_grid),
    "ensemble": ("--n", ["experiment", "n", "method", "max_abs_deviation", "entropy_bits"],
                 _ensemble_grid),
}


def cmd_sweep(args, seed: int) -> CommandOutput:
    grid_flag, fields, grid_rows = SWEEPS[args.experiment]
    lo, hi = _parse_range(getattr(args, grid_flag[2:]), grid_flag)
    if lo < 1 or hi < lo:
        raise ValueError(f"{grid_flag} {lo}:{hi} spans no valid cells")
    # counted before any cell exists, so a huge span costs nothing
    if hi - lo + 1 > SWEEP_CELL_CAP:
        raise ValueError(
            f"grid has {hi - lo + 1} cells; the cap is {SWEEP_CELL_CAP}"
        )
    rows = grid_rows(args, seed, range(lo, hi + 1))

    # the normalized grid stands for --alphas or --n: only the swept flag counts
    params = {
        "experiment": args.experiment,
        "grid": f"{lo}:{hi}",
        "trials": args.trials,
        "rule": args.rule,
    }
    # main makes the directory once every cell has run, so a refused cell
    # leaves nothing behind
    csv_path = str(Path(args.out) / f"sweep-{args.experiment}.csv")
    return CommandOutput(
        [f"wrote {csv_path} ({len(rows)} rows)"], None, rows, fields,
        params=params, csv_path=csv_path,
    )


# --- parser and entry points ---

# flags that several subcommands take, declared once
_SHARED_FLAGS = {
    "--rule": dict(
        choices=[*FORWARD_SEARCH_RULES, "both"],
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
        choices=list(ATTACKS),
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
        choices=list(SWEEPS),
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
        seed, seed_source = _resolve_seed(args.seed)
        out = args.func(args, seed)
        header = _run_header(args, seed, out.params)
        _write_run(args, header, out)
        for line in out.lines:
            print(line)
        print(f"seed={seed} ({seed_source}) run_id={header['run_id']}")
        return out.exit_code
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
