"""Byte check of this tree's command outputs against another commit.

    python tests/parent_identity.py REF

Checks REF out with `git worktree add` in a temporary directory and runs
one fixed command list, COMMANDS, through `python -m qpke.cli` in that
tree and in this one (the working tree, uncommitted edits included), each
in its own empty run directory with the same relative output paths.  It
then compares:

- every command's exit status and stdout, line by line;
- every file the commands write (JSON, CSV and key files), byte for byte;
- manifests without their `timestamp` and `stats`, the fields a rerun
  moves on its own.

Each differing output is printed with its first differing record (a line
of stdout, CSV or indented JSON), and so is each step that exits nonzero
in this tree, since a step refused in both would compare equal.  The exit
status is 0 when nothing differs, 1 when something does and 2 when REF or
the worktree cannot be set up.  The worktree is removed at the end.  Pytest does not collect this
file, and it needs no network.

A perf or simplicity change that claims "no output byte moved" cites this
script's output against its parent.  The value goldens
(tests/test_golden_values.py) compare within abs 1e-12, so they let a
change of one ulp through; this check does not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the key files the key steps read: (file, keygen argv)
KEYS = [
    ("key.json", ["keygen", "--n", "48", "--N", "16", "--seed", "1"]),
    ("permuted.json", ["keygen", "--n-range", "32:62", "--N", "64", "--permute", "--seed", "10"]),
    ("small.json", ["keygen", "--n", "12", "--N", "8", "--seed", "3"]),
]
# derived key files: (file, source, which entries of s become JSON integers)
DERIVED_KEYS = [
    ("keyint.json", "key.json", "all"),
    ("keymixed.json", "key.json", "even"),
    ("permuted-int.json", "permuted.json", "all"),
    ("small-mixed.json", "small.json", "odd"),
]
# prints the key id and fingerprint of the key file named by argv[1]
KEY_ID_SCRIPT = (
    "import sys\n"
    "from qpke.protocol import key_fingerprint, key_id_of, load_private_key\n"
    "key = load_private_key(sys.argv[1])\n"
    "print(key_id_of(key))\n"
    "print(key_fingerprint(key))\n"
)


def _cpa(n: int, N: int, alpha: int, seed: int = 7) -> tuple[str, list[str]]:
    name = f"cpa-n{n}-N{N}-a{alpha}-s{seed}"
    return name, ["attack", "--attack", "cpa", "--n", str(n), "--N", str(N),
                  "--alpha", str(alpha), "--seed", str(seed),
                  "--json", f"{name}.json", "--csv", f"{name}.csv"]


def _ensemble(grid: str, seed: int) -> tuple[str, list[str]]:
    name = f"ensemble-n{grid.replace(':', '-')}-s{seed}"
    return name, ["sweep", "--experiment", "ensemble", "--n", grid, "--seed", str(seed),
                  "--out", name]


def _golden(name: str, argv: list[str]) -> tuple[str, list[str]]:
    """A tests/test_golden_values.py command with the outputs that file adds."""
    if argv[0] == "sweep":
        return name, [*argv, "--out", name]
    return name, [*argv, "--json", f"{name}.json", "--csv", f"{name}.csv"]


def _roundtrip(key: str, message: str, alpha: int, seed: int) -> tuple[str, list[str]]:
    name = f"roundtrip-{Path(key).stem}-a{alpha}-s{seed}"
    return name, ["roundtrip", "--key", key, "--message", message, "--alpha", str(alpha),
                  "--seed", str(seed), "--json", f"{name}.json"]


# the commands of tests/test_golden_values.py, which
# test_golden_values.py::test_parent_identity_runs_every_golden_command keeps in step
GOLDEN = {
    "cpa-n4-N2": ["attack", "--attack", "cpa", "--n", "4", "--N", "2", "--seed", "7"],
    "cpa-n12-N8": ["attack", "--attack", "cpa", "--n", "12", "--N", "8", "--seed", "7"],
    "cpa-n8-N4-a2": ["attack", "--attack", "cpa", "--n", "8", "--N", "4", "--alpha", "2",
                     "--seed", "7"],
    "mi-random-n16-c1": ["analyze", "--mi-strategy", "random", "--mi-n", "16",
                         "--mi-copies", "1", "--trials", "20000", "--seed", "11"],
    "mi-fixed-n16-c1": ["analyze", "--mi-strategy", "fixed", "--mi-n", "16",
                        "--mi-copies", "1", "--trials", "60000", "--seed", "12"],
    "mi-random-n8-c4": ["analyze", "--mi-strategy", "random", "--mi-n", "8",
                        "--mi-copies", "4", "--trials", "30000", "--seed", "13"],
    "mi-fixed-n8-c4": ["analyze", "--mi-strategy", "fixed", "--mi-n", "8",
                       "--mi-copies", "4", "--trials", "120000", "--seed", "14"],
    "ensemble-n1-16": ["sweep", "--experiment", "ensemble", "--n", "1:16", "--seed", "9"],
}

# (name, argv) run in order as `python -m qpke.cli ARGV`; names are unique
COMMANDS = [
    ("version", ["--version"]),
    ("attack-help", ["attack", "--help"]),
    ("sweep-help", ["sweep", "--help"]),
    *[(f"keygen-{Path(path).stem}", [*argv, "--out", path]) for path, argv in KEYS],
    *[_golden(name, argv) for name, argv in GOLDEN.items()],
    # the CPA points of earlier byte checks, and n = 5, 6 and 7 at alpha 1
    # and 2, the only precisions whose flag factors differ
    *[_cpa(n, N, alpha) for n, N, alpha in [
        (12, 8, 1), (8, 4, 2), (6, 4, 2), (6, 2, 1), (5, 4, 1), (7, 3, 2), (4, 2, 1),
        (9, 8, 1), (5, 4, 2), (6, 4, 1), (7, 4, 1), (1, 8, 1), (2, 1, 8)]],
    # enumerated and analytic cells in one grid, and a grid with no table
    *[_ensemble(grid, seed) for grid, seed in [
        ("1:20", 7), ("1:20", 9), ("17:20", 7), ("2:4", 9), ("5:16", 1), ("16:17", 1)]],
    ("forward-search", ["attack", "--attack", "forward-search", "--alpha", "2", "--trials",
                        "200", "--seed", "3", "--json", "fs.json", "--csv", "fs.csv"]),
    ("cca", ["attack", "--attack", "cca", "--k", "4", "--seed", "8",
             "--json", "cca.json", "--csv", "cca.csv"]),
    ("sweep-forward-search", ["sweep", "--experiment", "forward-search", "--alphas", "1:2",
                              "--trials", "100", "--seed", "6", "--out", "fs-sweep"]),
    ("analyze", ["analyze", "--seed", "4", "--json", "an.json", "--csv", "an.csv"]),
    ("analyze-mi-n4", ["analyze", "--N", "16", "--k", "2", "--mi-strategy", "random",
                       "--mi-n", "4", "--trials", "500", "--seed", "5",
                       "--json", "mi-n4.json"]),
    # fixed n=8 with 4 copies has 1280 joint cells: 1279 trials sort them
    # and 1280 count them
    *[(f"analyze-mi-fixed-t{trials}",
       ["analyze", "--mi-strategy", "fixed", "--mi-n", "8", "--mi-copies", "4",
        "--trials", str(trials), "--seed", "15",
        "--json", f"mi-t{trials}.json", "--csv", f"mi-t{trials}.csv"])
      for trials in (1279, 1280)],
    *[_roundtrip(key, "0xd6", alpha, seed) for key, alpha, seed in [
        ("key.json", 1, 2), ("keyint.json", 1, 2), ("keymixed.json", 1, 2),
        ("key.json", 2, 2), ("permuted.json", 4, 11), ("permuted-int.json", 2, 11),
        ("small-mixed.json", 1, 5)]],
]


def derive_key(source: Path, target: Path, which: str) -> None:
    """Write source's key with some entries of s as JSON integers, a step
    that runs no code of either tree."""
    payload = json.loads(source.read_text(encoding="utf-8"))
    payload["s"] = [
        int(v) if which == "all" or (i % 2 == 0) == (which == "even") else v
        for i, v in enumerate(payload["s"])
    ]
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_commands(tree: Path, workdir: Path) -> dict[str, bytes]:
    """Run every step with tree's src/ on the path, in workdir, and return
    each step's exit status and stdout as bytes, by step name.  Every path
    a step names is relative to workdir."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    workdir.mkdir(parents=True)

    def run(name: str, argv: list[str]) -> None:
        done = subprocess.run([sys.executable, *argv], cwd=workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        outputs[name] = b"exit %d\n" % done.returncode + done.stdout

    outputs: dict[str, bytes] = {}
    derived = {target: (source, which) for target, source, which in DERIVED_KEYS}
    for name, argv in COMMANDS:
        for path in argv:
            source, which = derived.get(path, (None, None))
            # a missing source fails the step that reads the derived file
            if source and (workdir / source).exists() and not (workdir / path).exists():
                derive_key(workdir / source, workdir / path, which)
        run(name, ["-m", "qpke.cli", *argv])
    for path in [path for path, _ in KEYS] + list(derived):
        run(f"key-id-{Path(path).stem}", ["-c", KEY_ID_SCRIPT, path])
    return outputs


def _records(path: Path) -> list[bytes]:
    """A file's records: its lines, after a manifest drops the fields a
    rerun moves on its own."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        envelope = json.loads(data)
        for field in ("timestamp", "stats"):
            envelope["manifest"].pop(field, None)
        data = json.dumps(envelope, indent=1).encode()
    return data.splitlines()


def _first_difference(what: str, parent: list[bytes], change: list[bytes]) -> str | None:
    for i in range(max(len(parent), len(change))):
        a = parent[i] if i < len(parent) else b"<end>"
        b = change[i] if i < len(change) else b"<end>"
        if a != b:
            return (f"{what}: record {i + 1} differs\n"
                    f"  parent: {a[:240].decode(errors='replace')}\n"
                    f"  change: {b[:240].decode(errors='replace')}")
    return None


def compare(parent_dir: Path, change_dir: Path, parent_out: dict[str, bytes],
            change_out: dict[str, bytes]) -> list[str]:
    """Every difference between two runs, one report per differing output."""
    reports = []
    for name in parent_out:
        report = _first_difference(f"stdout of {name}", parent_out[name].splitlines(),
                                   change_out[name].splitlines())
        if report:
            reports.append(report)
    files = {
        side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
        for side, root in (("parent", parent_dir), ("change", change_dir))
    }
    for path in sorted(files["parent"] ^ files["change"]):
        side = "parent" if path in files["parent"] else "change"
        reports.append(f"{path}: written only by the {side}")
    for path in sorted(files["parent"] & files["change"]):
        report = _first_difference(str(path), _records(parent_dir / path),
                                   _records(change_dir / path))
        if report:
            reports.append(report)
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="the commit to compare against, usually the parent")
    args = parser.parse_args(argv)
    resolved = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{args.ref}^{{commit}}"],
        capture_output=True, text=True,
    )
    if resolved.returncode != 0:
        print(f"error: {args.ref!r} names no commit", file=sys.stderr)
        return 2
    commit = resolved.stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="qpke-parent-identity-"))
    ref_tree = scratch / "ref"
    try:
        added = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
             str(ref_tree), commit],
            capture_output=True, text=True,
        )
        if added.returncode != 0:
            print(f"error: git worktree add failed: {added.stderr.strip()}", file=sys.stderr)
            return 2
        parent_out = run_commands(ref_tree, scratch / "run-parent")
        change_out = run_commands(ROOT, scratch / "run-change")
        reports = compare(scratch / "run-parent", scratch / "run-change", parent_out, change_out)
        # a step refused in both trees would compare equal and check nothing
        reports += [f"{name}: exited nonzero" for name, out in change_out.items()
                    if not out.startswith(b"exit 0\n")]
        files = sum(1 for p in (scratch / "run-change").rglob("*") if p.is_file())
        for report in reports:
            print(report)
        print(f"{commit[:7]} against the working tree: {len(change_out)} commands, "
              f"{files} files, {len(reports)} differing outputs")
        return 1 if reports else 0
    finally:
        if ref_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(ref_tree)], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
