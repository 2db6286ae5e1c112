"""Golden digests of seeded CLI payloads.

The determinism tests in test_cli.py compare two runs of the same code; this
file pins the payload bytes themselves, so a refactor that changes any random
draw or any reported number shows up here.  A deliberate change of seeded
output must bump the package version (it is part of every payload's run id)
and record new digests.

CPA, mutual-information and ensemble payloads are left out: their last bits
depend on LAPACK and on the SIMD implementation of np.sin, so they differ
between numpy builds.  `analyze --mi-strategy none` reports closed forms
computed with `math` only, so its payloads are pinned.

Each command's manifest run id is pinned as well: it hashes the command's
run parameters, so it is what covers `keygen`, whose key file holds no run id.

The commands run twice: into an empty directory, and again into one where
every output path already holds a longer file of junk.  Files are overwritten
in place and cut at the written length, never truncated when opened, so both
runs must leave the same bytes, and no run may open a file it writes with
O_TRUNC.
"""

import hashlib
import json
import os
import sys

import pytest

from qpke.cli import main

COMMANDS = [
    ["keygen", "--n", "48", "--N", "32", "--seed", "5", "--out", "key.json"],
    ["attack", "--attack", "forward-search", "--alpha", "1", "--trials", "2000",
     "--seed", "101", "--json", "fs1.json", "--csv", "fs1.csv"],
    ["attack", "--attack", "forward-search", "--alpha", "3", "--trials", "2000",
     "--seed", "103", "--json", "fs3.json", "--csv", "fs3.csv"],
    ["sweep", "--experiment", "forward-search", "--alphas", "1:4", "--trials", "500",
     "--seed", "104", "--out", "sweep"],
    ["roundtrip", "--key", "key.json", "--message", "0xd6b1", "--alpha", "1",
     "--seed", "105", "--json", "rt1.json"],
    ["roundtrip", "--key", "key.json", "--message", "0xd6b1", "--alpha", "2",
     "--seed", "105", "--json", "rt2.json"],
    ["roundtrip", "--key", "key.json", "--message", "10110010", "--alpha", "4",
     "--seed", "105", "--json", "rt4.json"],
    ["attack", "--attack", "cca", "--n", "48", "--N", "16", "--k", "4",
     "--seed", "106", "--json", "cca.json", "--csv", "cca.csv"],
    ["analyze", "--mi-strategy", "none", "--seed", "107", "--json", "an.json",
     "--csv", "an.csv"],
]

GOLDEN = {
    "key.json": "c838fb5696121f9df52324a7da85516c6139aaf208f8d161bd0fdac9836d4073",
    "fs1.json": "e1441ca823f4b1cbaab01c4aaa8c3a973219e14cc3c506bf51308fab4e5beb4b",
    "fs1.csv": "3f375d62a1c542c4487ac145edadf9b0e4b78083a180b1036b61a16622ab15ee",
    "fs3.json": "cc49e8281d3e3637b30895f3d79305f30f513939a571586ecf6778e96655b41a",
    "fs3.csv": "16ffdf22fb44c01f5eaf6bb6aaccbae8f8649b565f12d952444eb1dfbc66725c",
    "sweep/sweep-forward-search.csv": "e295b18fd73e56f468e3fe1ed58cbc26c3f9ecdc5d7a72002cd23b9231b5476f",
    "rt1.json": "7c68be56b86610dce04999ceef6aaa8669077ff06d2c14f57477954986bd8585",
    "rt2.json": "74a81d14e479607283fe3748706814fa5545c9472d9bd5e88d508c1f87b9f560",
    "rt4.json": "10cfcb59a5f73ae5d26a83116c3eab0714fd67a69cdd8c5ffc3c905a2e8c6889",
    "cca.json": "425b810b4e5084cffbafcc5b7dc0e1daf95913b02c625477d746d64e277bea8e",
    "cca.csv": "056b3bcc6c8ba2a797e4fd6fee90b43560ab6f2b5cb470b42a8db00bd8215938",
    "an.json": "9aa9a52fa9b56cd4dbefe07ee9b381f80e2310145ac055e7eca604a80a64af60",
    "an.csv": "cf0e5d6d5c9375ab1f7225adf263187eff26a66a433d544b9426822337fd175f",
}

# manifest file -> the run id it records
RUN_IDS = {
    "key.json.manifest.json": "a9753de7fcb62aea",
    "fs1.json.manifest.json": "73d4d1acac9477dc",
    "fs3.json.manifest.json": "27ad04450f660c8e",
    "sweep/sweep-forward-search.csv.manifest.json": "048f3853b6c299af",
    "rt1.json.manifest.json": "0fbdf4fcd0a3ad2b",
    "rt2.json.manifest.json": "db0fc1765ab9f530",
    "rt4.json.manifest.json": "da98ec9f98b7d530",
    "cca.json.manifest.json": "ff1d22633f552af5",
    "an.json.manifest.json": "ce0627973b0376c0",
}


# every file the commands write, and what a stale rerun finds at each path
WRITTEN = sorted({*GOLDEN, *RUN_IDS})
STALE_BYTES = bytes(range(256)) * 256  # 64 KiB, not UTF-8

# (path, os flags) of every open for writing while _opened is a list; the
# "open" audit event reports builtin open, io.open, pathlib and os.open alike
_opened = None


def _record_write_opens(event, args):
    if event == "open" and _opened is not None:
        path, _, flags = args
        # an int path rewraps a descriptor that is already open
        if not isinstance(path, int) and flags & (os.O_WRONLY | os.O_RDWR):
            _opened.append((os.fsdecode(path), flags))


# an audit hook stays for the life of the process: it is added once, here
sys.addaudithook(_record_write_opens)


def _run_commands(workdir):
    """Run COMMANDS in workdir; return the (path, flags) of each write open."""
    global _opened
    # relative paths: the roundtrip payload records its --key argument
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        _opened = []
        try:
            for argv in COMMANDS:
                assert main(argv) == 0, argv
            return _opened
        finally:
            _opened = None


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, _run_commands(workdir)


@pytest.fixture(scope="module")
def golden_dir(golden_run):
    return golden_run[0]


@pytest.fixture(scope="module")
def stale_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("stale")
    (workdir / "sweep").mkdir()
    for name in WRITTEN:
        (workdir / name).write_bytes(STALE_BYTES)
    return workdir, _run_commands(workdir)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_golden_digest(name, golden_dir):
    assert hashlib.sha256((golden_dir / name).read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUN_IDS))
def test_manifest_records_golden_run_id(name, golden_dir):
    manifest = json.loads((golden_dir / name).read_text(encoding="utf-8"))["manifest"]
    assert manifest["run_id"] == RUN_IDS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rerun_over_stale_files_matches_golden_digest(name, stale_run):
    stale_dir, _ = stale_run
    assert hashlib.sha256((stale_dir / name).read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUN_IDS))
def test_rerun_over_stale_files_records_golden_run_id(name, stale_run):
    stale_dir, _ = stale_run
    manifest = json.loads((stale_dir / name).read_text(encoding="utf-8"))["manifest"]
    assert manifest["run_id"] == RUN_IDS[name]


@pytest.mark.parametrize("run", ["golden_run", "stale_run"])
def test_every_file_is_opened_once_without_truncation(run, request):
    _, opened = request.getfixturevalue(run)
    assert sorted(path for path, _ in opened) == WRITTEN
    truncating = [path for path, flags in opened if flags & os.O_TRUNC]
    assert truncating == []
