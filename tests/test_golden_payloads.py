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
"""

import hashlib
import json

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
    "fs1.json": "1dd5aaa4ca65d2579e282d04d0f9923e258f6bc4e0e45c032f9b0d6ba994a089",
    "fs1.csv": "261f4e40883a76877ce2c944bb19dc9f38accfe12d82e855e5d3f14653ab1b2b",
    "fs3.json": "b2dd8d6fb6d6c5e62d7a408a1a05d84e282c83b4f9d95a3ae83f41bb0c6d730e",
    "fs3.csv": "4ecda85942ef70982db8bb5fe3fdc8a7808306fe0377ed1597471fdb7bd4b16f",
    "sweep/sweep-forward-search.csv": "278ab7ccd31e041427bdd7cf59f15a1c1e8503cff5705d8e9593b23f0b748e85",
    "rt1.json": "f0b32156a63b480624002e8295c3d27015ab6e9524823abe9d950f67191f0245",
    "rt2.json": "ef8d05e43891117d4d4a6a424f53c4b1aaf3707e2cc6fb5daece06dd2dd9bac3",
    "rt4.json": "36838ab2a2fff5966919d30978b6079257198c17a7a88f6e4109fd9aede34c7a",
    "cca.json": "1399addfc76c9b1fa6c0315d1789bba3a8877af79b5634055d3177fdcc5fb415",
    "cca.csv": "af407c0535f593935155c575e370593280e8e60fed39528dbac8974d1b282fba",
    "an.json": "c4a5a34316fd256003be94f3e524f2064a27230c18e68c031a25985dee34c6a6",
    "an.csv": "5d2fa2c82aca9a1a54d5fad0da39b3898b7c2bcae16a4e0474bcd5a9e2e16be5",
}

# manifest file -> the run id it records
RUN_IDS = {
    "key.json.manifest.json": "fdf68b6a44fd330d",
    "fs1.json.manifest.json": "f11ba8290f60fe41",
    "fs3.json.manifest.json": "47318e51450c460f",
    "sweep/sweep-forward-search.csv.manifest.json": "4de504b2d67f9bbf",
    "rt1.json.manifest.json": "00a51685edd76fed",
    "rt2.json.manifest.json": "dbc07a8860c0fe15",
    "rt4.json.manifest.json": "bdd4bbf7fb9a8624",
    "cca.json.manifest.json": "05857a576d83727c",
    "an.json.manifest.json": "fd78b6c45272ae07",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    # relative paths: the roundtrip payload records its --key argument
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    return workdir


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_golden_digest(name, golden_dir):
    assert hashlib.sha256((golden_dir / name).read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUN_IDS))
def test_manifest_records_golden_run_id(name, golden_dir):
    manifest = json.loads((golden_dir / name).read_text(encoding="utf-8"))["manifest"]
    assert manifest["run_id"] == RUN_IDS[name]
