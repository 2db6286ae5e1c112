"""Golden digests of seeded CLI payloads.

The determinism tests in test_cli.py compare two runs of the same code; this
file pins the payload bytes themselves, so a refactor that changes any random
draw or any reported number shows up here.  A deliberate change of seeded
output must bump the package version (it is part of every payload's run id)
and record new digests.

CPA, mutual-information and ensemble payloads are left out: their last bits
depend on LAPACK and on the SIMD implementation of np.sin, so they differ
between numpy builds.
"""

import hashlib

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
]

GOLDEN = {
    "key.json": "c838fb5696121f9df52324a7da85516c6139aaf208f8d161bd0fdac9836d4073",
    "fs1.json": "43dabd7718f2c08d681164dac1295be1484e2f1826611261a6eddeb9c2727fbd",
    "fs1.csv": "19dc62acf4dd829bd3634d21f11d434102bf72eb17c6e1931ee26a118ab1f512",
    "fs3.json": "56b2f73c022fd8d0a93b12b49205f91f0b03eb8b8a04a5b5b43c21f1b3031e22",
    "fs3.csv": "36e6d96b5afbd7599e0eba58c2364d253aa40b1f49887fa900046f0098a35aa0",
    "sweep/sweep-forward-search.csv": "db093a3b50a01d224ae06623d688bbdcdfc68792d9276cc93559cf63991a8cd0",
    "rt1.json": "30b21f3b94a630fab2d996a1be5fcb7ccbbc2359d4417a479e4ff0a1471c5bb8",
    "rt2.json": "f01e3061936b0658e3bbd78e73f1aa9cfa9775a1ba72ed5b94384f8c05cbf03e",
    "rt4.json": "39e7de79a28dce1a7e4715346850d6e2f9d485386c14c8807b1947dd99012ec4",
    "cca.json": "f44cb0ac6e3a9130f6f5d4afbe819885bcb2b915f70abe761553844099476e25",
    "cca.csv": "94c31e82aa6f26ef48fe9a5897504ff823cb5542f336080e971b2944c4319d5f",
}


@pytest.fixture(scope="module")
def payload_digests(tmp_path_factory):
    # relative paths: the roundtrip payload records its --key argument
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    return {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_matches_golden_digest(name, payload_digests):
    assert payload_digests[name] == GOLDEN[name]
