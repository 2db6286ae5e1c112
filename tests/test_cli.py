"""Tests for the command-line front end: exit codes, files, determinism."""

import argparse
import csv
import hashlib
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpke.cli
import qpke.protocol
from qpke.attacks import FORWARD_SEARCH_RULES
from qpke.cli import CCA_USES_CAP, _parse_message, _parse_range, build_parser, main
from qpke.protocol import load_private_key
from qpke.security_analysis import MI_TRIALS_CAP
from qpke.seeding import rng_stream


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlagParsing:
    """Message and range parsing helpers, and the flags' choices."""

    def test_bit_message(self):
        bits = _parse_message("0110")
        assert bits.dtype == np.int64
        assert bits.tolist() == [0, 1, 1, 0]
        assert _parse_message("1").tolist() == [1]

    def test_hex_message(self):
        assert _parse_message("0xd6").tolist() == [1, 1, 0, 1, 0, 1, 1, 0]
        assert _parse_message("0x1").tolist() == [0, 0, 0, 1]

    @given(
        digits=st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=1024),
        zeros=st.integers(0, 8),
        prefix=st.sampled_from(["0x", "0X"]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_hex_message_is_every_digit_as_four_bits(self, digits, zeros, prefix):
        digits = ("0" * zeros + digits)[:1024]
        bits = _parse_message(prefix + digits)
        assert len(bits) == 4 * len(digits)
        assert int("".join(map(str, bits)), 2) == int(digits, 16)

    def test_invalid_message(self):
        for bad in ("", "012", "0x", "0xZZ", "abc"):
            with pytest.raises(ValueError):
                _parse_message(bad)

    def test_range(self):
        assert _parse_range("32:62", "--n-range") == (32, 62)
        with pytest.raises(ValueError, match="LOW:HIGH"):
            _parse_range("32", "--n-range")
        with pytest.raises(ValueError, match="integers"):
            _parse_range("a:b", "--n-range")

    @pytest.mark.parametrize("command", ["attack", "sweep"])
    def test_rule_choices_are_the_forward_search_rules(self, command):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (rule,) = [a for a in commands.choices[command]._actions if a.dest == "rule"]
        assert rule.choices == [*FORWARD_SEARCH_RULES, "both"]
        assert rule.default == "both"


class TestOutputPaths:
    """Every output-path flag is checked while the flags are parsed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--attack", "cpa", "--json", ""],
            ["attack", "--attack", "cpa", "--csv", ""],
            ["attack", "--attack", "cpa", "--json", "k.json", "--manifest", ""],
            ["analyze", "--csv=", "--json", "a.json"],
            ["sweep", "--experiment", "ensemble", "--n", "1:2", "--out", ""],
            ["keygen", "--n", "8", "--N", "4", "--out", ""],
        ],
        ids=["json", "csv", "manifest", "csv-equals", "sweep-out", "keygen-out"],
    )
    def test_empty_path_is_usage_error_and_writes_nothing(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run_cli(argv, capsys)
        assert code == 2
        assert "error:" in stderr
        assert "output path must not be empty" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(
        not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
        reason="needs a character-device null file",
    )
    @pytest.mark.parametrize(
        "paths",
        [
            ["--json", os.devnull, "--manifest", "m.json"],
            ["--csv", os.devnull, "--manifest", "m.json"],
            ["--manifest", os.devnull],
        ],
        ids=["json", "csv", "manifest"],
    )
    def test_device_output_is_written_not_truncated(
        self, paths, tmp_path, capsys, monkeypatch
    ):
        # files are cut to the written length only when they are regular:
        # ftruncate on a device fails
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run_cli(["analyze", "--seed", "1", *paths], capsys)
        assert code == 0, stderr
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.skipif(
        not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
        reason="needs a character-device null file",
    )
    @pytest.mark.parametrize(
        "paths, manifest",
        [
            (["--json", os.devnull], None),
            (["--json", os.devnull, "--csv", "a.csv"], "a.csv.manifest.json"),
            (["--json", os.devnull, "--manifest", "m.json"], "m.json"),
        ],
        ids=["device-only", "regular-file-after-a-device", "explicit"],
    )
    def test_default_manifest_goes_beside_a_regular_file(
        self, paths, manifest, tmp_path, capsys, monkeypatch
    ):
        # the envelopes are recorded, not written, so that a manifest put
        # beside the device would not be written into its directory
        written = []
        monkeypatch.setattr(qpke.cli, "_write_envelope", lambda path, **body: written.append(path))
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run_cli(
            ["attack", "--attack", "forward-search", "--trials", "10", "--seed", "1", *paths],
            capsys,
        )
        assert code == 0, stderr
        assert written == [os.devnull] + ([manifest] if manifest else [])

    def test_directory_as_output_is_io_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["analyze", "--seed", "1", "--json", str(tmp_path)], capsys
        )
        assert code == 3
        assert stderr.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


def _tree(root: Path) -> dict:
    """Every path under root: a symlink's target, a file's bytes, or None
    for a directory."""
    return {
        path: os.readlink(path) if path.is_symlink()
        else None if path.is_dir() else path.read_bytes()
        for path in root.rglob("*")
    }


ROUNDTRIP = ["roundtrip", "--message", "01", "--seed", "1"]
CPA = ["attack", "--attack", "cpa", "--n", "4", "--seed", "1"]


class TestSharedOutputPaths:
    """Two of a run's files that are one file are refused before any file
    is written: the private key a roundtrip reads, --out, --json, --csv,
    --manifest, sweep's CSV and the default manifest beside the first
    output."""

    @pytest.mark.parametrize(
        "key, links, argv, flags",
        [
            ("k.json", {}, ROUNDTRIP + ["--key", "k.json", "--manifest", "k.json"],
             "--key and --manifest"),
            ("k.json", {}, ROUNDTRIP + ["--key", "k.json", "--json", "./k.json"],
             "--key and --json"),
            ("r.json.manifest.json", {},
             ROUNDTRIP + ["--key", "r.json.manifest.json", "--json", "r.json"],
             "--key and the manifest"),
            ("k.json", {}, ROUNDTRIP + ["--key", "k.json", "--json", "r.json", "--manifest",
                                        "r.json"], "--json and --manifest"),
            (None, {}, CPA + ["--json", "a.json", "--csv", "a.json"], "--json and --csv"),
            (None, {}, CPA + ["--csv", "a.csv", "--manifest", "a.csv"], "--csv and --manifest"),
            (None, {}, ["analyze", "--seed", "1", "--json", "a.json", "--csv",
                        "a.json.manifest.json"], "--csv and the manifest"),
            (None, {"key.json.manifest.json": "key.json"},
             ["keygen", "--n", "40", "--N", "2", "--seed", "1", "--out", "key.json"],
             "--out and the manifest"),
            (None, {"sweep/sweep-ensemble.csv.manifest.json": "sweep-ensemble.csv"},
             ["sweep", "--experiment", "ensemble", "--n", "1:2", "--seed", "1", "--out",
              "sweep"], "the sweep CSV and the manifest"),
        ],
        ids=["key-manifest", "key-json", "key-default-manifest", "json-manifest",
             "json-csv", "csv-manifest", "csv-default-manifest", "out-default-manifest",
             "sweep-csv-default-manifest"],
    )
    def test_two_outputs_naming_one_file_are_refused(
        self, key, links, argv, flags, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        if key:
            assert main(["keygen", "--n", "40", "--N", "8", "--seed", "5", "--out", key]) == 0
        for link, target in links.items():
            Path(link).parent.mkdir(exist_ok=True)
            os.symlink(target, link)
        before = _tree(tmp_path)
        capsys.readouterr()
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 2
        assert stderr.startswith(f"error: {flags} name the same file ")
        assert stderr.count("\n") == 1
        assert "seed=" not in stdout
        assert _tree(tmp_path) == before

    def test_roundtrip_keeps_its_key_when_the_manifest_names_it(self, key_file, capsys):
        key_bytes = key_file.read_bytes()
        argv = ROUNDTRIP + ["--key", str(key_file)]
        code, _, stderr = run_cli(argv + ["--manifest", str(key_file)], capsys)
        assert code == 2 and stderr.startswith("error: ")
        assert key_file.read_bytes() == key_bytes
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0 and "match=true" in stdout

    def test_a_hard_link_to_the_key_is_refused(self, key_file, capsys):
        link = key_file.with_name("link.json")
        os.link(key_file, link)
        key_bytes = key_file.read_bytes()
        code, _, stderr = run_cli(ROUNDTRIP + ["--key", str(key_file), "--json", str(link)],
                                  capsys)
        assert code == 2
        assert stderr.startswith("error: --key and --json name the same file ")
        assert key_file.read_bytes() == key_bytes

    @pytest.mark.skipif(
        not (os.path.exists(os.devnull) and stat.S_ISCHR(os.stat(os.devnull).st_mode)),
        reason="needs a character-device null file",
    )
    def test_a_device_may_be_named_twice(self, capsys):
        code, _, stderr = run_cli(CPA + ["--json", os.devnull, "--csv", os.devnull], capsys)
        assert code == 0, stderr


class TestLowPrecisionWarning:
    """keygen below the recommended precision warns in one line."""

    WARNING = ("warning: precision n=8 is below the recommended minimum 32; "
               "fine for experiments, weak as a key\n")

    def test_console_prints_one_warning_line(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(qpke.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        done = subprocess.run(
            [sys.executable, "-m", "qpke.cli", "keygen", "--n", "8", "--N", "4", "--seed", "1",
             "--out", "key.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stderr == self.WARNING
        assert done.stdout.splitlines()[-2] == "wrote key.json"
        assert load_private_key(tmp_path / "key.json").n == 8

    def test_other_warnings_reach_the_usual_handler(self, tmp_path, capsys, monkeypatch):
        keygen = qpke.cli.keygen

        def keygen_that_also_warns(*args, **kwargs):
            warnings.warn("another warning", RuntimeWarning)
            return keygen(*args, **kwargs)

        monkeypatch.setattr(qpke.cli, "keygen", keygen_that_also_warns)
        # pytest.warns records every warning the usual handler is shown
        with pytest.warns(RuntimeWarning, match="another warning") as shown:
            code, _, stderr = run_cli(
                ["keygen", "--n", "8", "--N", "4", "--seed", "1",
                 "--out", str(tmp_path / "key.json")],
                capsys,
            )
        assert code == 0
        assert stderr == self.WARNING
        assert [w.category for w in shown] == [RuntimeWarning]


class TestTextEncoding:
    """Every file is written and read as UTF-8, whatever the locale."""

    def test_no_command_uses_the_locale_encoding(self, tmp_path):
        # the package directory's parent, so a child process imports this qpke
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(qpke.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ))
        cli = [sys.executable, "-X", "warn_default_encoding",
               "-W", "error::EncodingWarning", "-m", "qpke.cli"]
        for argv in (
            ["keygen", "--n", "40", "--N", "8", "--seed", "1", "--out", "key.json"],
            ["roundtrip", "--key", "key.json", "--message", "0xd6", "--seed", "2"],
            ["attack", "--attack", "forward-search", "--trials", "50", "--seed", "3",
             "--json", "fs.json", "--csv", "fs.csv"],
            ["sweep", "--experiment", "ensemble", "--n", "1:2", "--seed", "4",
             "--out", "sweep"],
        ):
            done = subprocess.run(
                cli + argv, cwd=tmp_path, env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, (argv, done.stderr)
            assert done.stderr == "", argv


class TestRegisterEngine:
    """No command reaches the register engine: every command path runs on
    exact indices or on the amplitude kernel directly."""

    def test_no_command_promotes_a_qubit_or_tests_registers(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a command reached the register engine")

        monkeypatch.setattr(qpke.protocol.QuantumRegister, "_promote", refuse)
        monkeypatch.setattr(qpke.protocol, "swap_test_registers", refuse)
        monkeypatch.chdir(tmp_path)
        roundtrip = ["roundtrip", "--key", "permuted.json", "--message", "0xd6", "--seed", "3"]
        analyze = ["analyze", "--N", "16", "--k", "2", "--mi-n", "4", "--trials", "200"]
        for argv in (
            ["keygen", "--n", "48", "--N", "16", "--seed", "1", "--out", "key.json"],
            ["keygen", "--n-range", "32:62", "--N", "64", "--permute", "--seed", "2",
             "--out", "permuted.json"],
            roundtrip,
            roundtrip + ["--alpha", "2"],
            roundtrip + ["--alpha", "4"],
            ["attack", "--attack", "forward-search", "--alpha", "2", "--trials", "50",
             "--seed", "4"],
            ["attack", "--attack", "cpa", "--n", "6", "--N", "2", "--seed", "5"],
            ["attack", "--attack", "cca", "--k", "4", "--seed", "6"],
            analyze + ["--mi-strategy", "fixed", "--seed", "7"],
            analyze + ["--mi-strategy", "random", "--seed", "8"],
            ["sweep", "--experiment", "forward-search", "--alphas", "1:2", "--trials", "50",
             "--seed", "9", "--out", "sweep"],
            ["sweep", "--experiment", "ensemble", "--n", "1:3", "--seed", "10",
             "--out", "sweep"],
        ):
            code, _, stderr = run_cli(argv, capsys)
            assert code == 0, (argv, stderr)


class TestKeygenCommand:
    """Key generation: files, determinism, and validation."""

    def test_writes_loadable_key(self, tmp_path, capsys):
        out = tmp_path / "key.json"
        code, stdout, _ = run_cli(
            ["keygen", "--n", "48", "--N", "8", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        key = load_private_key(out)
        assert key.n == 48
        assert key.length == 8
        assert "key_id=" in stdout
        assert "fingerprint=" in stdout
        assert (tmp_path / "key.json.manifest.json").exists()

    def test_deterministic_key_file(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["keygen", "--n", "40", "--N", "4", "--seed", "3", "--out", str(out)],
                capsys,
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_range_sampling(self, tmp_path, capsys):
        out = tmp_path / "key.json"
        code, _, _ = run_cli(
            ["keygen", "--n-range", "32:62", "--N", "2", "--seed", "11", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert 32 <= load_private_key(out).n <= 62

    def test_precision_cap_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["keygen", "--n", "70", "--N", "2", "--seed", "1", "--out", str(tmp_path / "k")],
            capsys,
        )
        assert code == 2
        assert "error" in stderr

    def test_requires_exactly_one_precision_flag(self, tmp_path, capsys):
        base = ["--N", "2", "--seed", "1", "--out", str(tmp_path / "k")]
        code, _, _ = run_cli(["keygen"] + base, capsys)
        assert code == 2
        code, _, _ = run_cli(
            ["keygen", "--n", "40", "--n-range", "32:62"] + base, capsys
        )
        assert code == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "key.json"
        code, _, stderr = run_cli(
            ["keygen", "--n", "40", "--N", "2", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 3
        assert "error" in stderr


@pytest.fixture
def key_file(tmp_path, capsys):
    out = tmp_path / "key.json"
    code = main(["keygen", "--n", "40", "--N", "8", "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


class TestRoundtripCommand:
    """Encrypt-then-decrypt through the CLI."""

    def test_bit_message_matches(self, key_file, tmp_path, capsys):
        report = tmp_path / "rt.json"
        code, stdout, _ = run_cli(
            [
                "roundtrip",
                "--key",
                str(key_file),
                "--message",
                "01101001",
                "--seed",
                "2",
                "--json",
                str(report),
            ],
            capsys,
        )
        assert code == 0
        assert "match=true" in stdout
        assert "encrypt_ms=" not in stdout
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 1
        assert payload["results"]["match"] is True
        assert payload["results"]["num_bits"] == 8
        assert payload["manifest"]["run_id"]

    def test_hex_message(self, key_file, capsys):
        code, stdout, _ = run_cli(
            ["roundtrip", "--key", str(key_file), "--message", "0xA5", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert "match=true" in stdout

    def test_full_length_hex_message(self, tmp_path, capsys):
        key = tmp_path / "key4096.json"
        code = main(["keygen", "--n", "40", "--N", "4096", "--seed", "6", "--out", str(key)])
        assert code == 0
        message = "0x" + "".join(f"{(37 * i) % 256:02X}" for i in range(512))
        code, stdout, _ = run_cli(
            ["roundtrip", "--key", str(key), "--message", message, "--seed", "7"], capsys
        )
        assert code == 0
        assert "match=true" in stdout

    def test_redundant_encoding(self, key_file, capsys):
        code, stdout, _ = run_cli(
            [
                "roundtrip",
                "--key",
                str(key_file),
                "--message",
                "0110",
                "--alpha",
                "2",
                "--seed",
                "9",
            ],
            capsys,
        )
        assert code == 0
        assert "match=true" in stdout

    def test_oversize_message_exits_4_with_remedy(self, key_file, capsys):
        code, _, stderr = run_cli(
            ["roundtrip", "--key", str(key_file), "--message", "0" * 9, "--seed", "2"],
            capsys,
        )
        assert code == 4
        assert "increase the length of her public key" in stderr

    def test_missing_key_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["roundtrip", "--key", str(tmp_path / "nope.json"), "--message", "01"],
            capsys,
        )
        assert code == 3

    def test_malformed_message_is_usage_error(self, key_file, capsys):
        code, _, _ = run_cli(
            ["roundtrip", "--key", str(key_file), "--message", "21", "--seed", "2"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"version": 1, "s": ["1", "2"]},
            [1, 2],
            {"version": 1, "n": 8, "s": "12"},
            {"version": 1, "n": 8.5, "s": ["1", "2"]},
            {"version": 1, "n": True, "s": ["1"]},
            {"version": 1, "n": "8", "s": ["1"]},
            {"version": 1, "n": 8},
            {"version": 1, "n": 8, "s": [1.5, 2]},
            {"version": 1, "n": 8, "s": [" 7", "2"]},
            {"version": 1, "n": 8, "s": ["+5", "1_0"]},
            {"version": 1, "n": 8, "s": [True, 2]},
            {"version": 1, "n": 8, "s": ["1", "2"], "perm": "10"},
            {"version": 1, "n": 8, "s": ["1", "2"], "perm": [1.0, 0]},
            {"version": 1, "n": 8, "s": ["1", "2"], "perm": None},
            "key",
        ],
    )
    def test_malformed_key_file_is_usage_error(self, payload, tmp_path, capsys):
        key_path = tmp_path / "bad.json"
        key_path.write_text(json.dumps(payload))
        code, _, stderr = run_cli(
            ["roundtrip", "--key", str(key_path), "--message", "01", "--seed", "2"],
            capsys,
        )
        assert code == 2
        assert "error:" in stderr
        assert "Traceback" not in stderr


class TestAttackCommand:
    """Attack experiments through the CLI."""

    def test_forward_search_at_large_alpha_prints_closed_forms(self, capsys):
        # branch enumeration would walk 3**20 branches per rule here
        code, stdout, _ = run_cli(
            ["attack", "--attack", "forward-search", "--alpha", "20", "--trials", "1",
             "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert "rule=identify-all observed=" in stdout
        assert f"theory={0.75**20:.6g}" in stdout
        assert f"theory={0.5 + 2.0**-21:.6g}" in stdout

    def test_forward_search_files(self, tmp_path, capsys):
        json_path = tmp_path / "fs.json"
        csv_path = tmp_path / "fs.csv"
        code, stdout, _ = run_cli(
            [
                "attack",
                "--attack",
                "forward-search",
                "--alpha",
                "1",
                "--trials",
                "2000",
                "--seed",
                "4",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        assert "theory=0.75" in stdout
        payload = json.loads(json_path.read_text())
        assert {r["rule"] for r in payload["results"]} == {
            "identify-all",
            "parity-aware",
        }
        for record in payload["results"]:
            assert record["theory"] == 0.75
            assert abs(record["success_rate"] - 0.75) < 0.05
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["attack"] == "forward-search"
        assert rows[0]["run_id"] == payload["manifest"]["run_id"]

    def test_single_rule_selection(self, tmp_path, capsys):
        csv_path = tmp_path / "fs.csv"
        code, _, _ = run_cli(
            [
                "attack",
                "--attack",
                "forward-search",
                "--alpha",
                "2",
                "--trials",
                "500",
                "--rule",
                "parity-aware",
                "--seed",
                "4",
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["rule"] == "parity-aware"
        assert float(rows[0]["theory"]) == 0.625

    def test_cpa_distance_is_zero(self, tmp_path, capsys):
        json_path = tmp_path / "cpa.json"
        code, _, _ = run_cli(
            [
                "attack",
                "--attack",
                "cpa",
                "--n",
                "6",
                "--N",
                "2",
                "--seed",
                "1",
                "--json",
                str(json_path),
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(json_path.read_text())["results"][0]
        assert record["success_rate"] < 1e-12
        assert record["theory"] == 0.0

    def test_cca_transcript(self, tmp_path, capsys):
        json_path = tmp_path / "cca.json"
        code, stdout, _ = run_cli(
            [
                "attack",
                "--attack",
                "cca",
                "--n",
                "8",
                "--N",
                "3",
                "--k",
                "4",
                "--seed",
                "6",
                "--json",
                str(json_path),
            ],
            capsys,
        )
        assert code == 0
        assert "uses:4/4" in stdout
        payload = json.loads(json_path.read_text())
        transcript = payload["results"]["transcript"]
        assert len(transcript) == 6
        assert sum(1 for t in transcript if t["accepted"]) == 4
        assert payload["results"]["session"]["uses_consumed"] == 4

    def test_cca_result_strings_parse_to_the_decrypted_bits(self, tmp_path, capsys):
        json_path = tmp_path / "cca.json"
        argv = ["attack", "--attack", "cca", "--n", "8", "--N", "12", "--k", "3",
                "--seed", "6", "--json", str(json_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        transcript = json.loads(json_path.read_text())["results"]["transcript"]
        # the same seeded session, rebuilt, holds the decrypted bits
        args = build_parser().parse_args(argv)
        session = qpke.cli._cca_session(args, rng_stream(6, "attack", "cca"))
        assert [t["accepted"] for t in transcript] == [True] * 3 + [False] * 2
        for record, entry in zip(transcript, session.transcript):
            if record["accepted"]:
                assert _parse_message(record["result"]).tolist() == list(entry.result)
            else:
                assert record["result"] is None

    @pytest.mark.parametrize("k", [CCA_USES_CAP + 1, 100_000_000_000])
    def test_cca_uses_beyond_cap_is_usage_error(self, k, tmp_path, capsys):
        json_path = tmp_path / "cca.json"
        code, stdout, stderr = run_cli(
            ["attack", "--attack", "cca", "--k", str(k), "--n", "8", "--N", "2",
             "--seed", "1", "--json", str(json_path)],
            capsys,
        )
        assert code == 2
        assert stderr.startswith("error: ") and str(CCA_USES_CAP) in stderr
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_cca_uses_below_one_is_refused_before_keygen(self, k, tmp_path, capsys, monkeypatch):
        def no_keygen(*args, **kwargs):
            raise AssertionError("keygen ran before --k was checked")

        monkeypatch.setattr(qpke.cli, "keygen", no_keygen)
        json_path = tmp_path / "cca.json"
        code, stdout, stderr = run_cli(
            ["attack", "--attack", "cca", "--k", k, "--n", "8", "--N", "2",
             "--seed", "1", "--json", str(json_path)],
            capsys,
        )
        assert code == 2
        assert stderr == f"error: cca --k must be in [1, {CCA_USES_CAP}], got {k}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_cca_at_cap_runs(self, capsys):
        code, stdout, _ = run_cli(
            ["attack", "--attack", "cca", "--k", str(CCA_USES_CAP), "--n", "8", "--N", "2",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert f"uses:{CCA_USES_CAP}/{CCA_USES_CAP}" in stdout

    def test_unknown_attack_is_usage_error(self, capsys):
        code, _, _ = run_cli(["attack", "--attack", "grover"], capsys)
        assert code == 2


class TestAnalyzeCommand:
    """Entropy accounting reports through the CLI."""

    def test_default_margin(self, capsys):
        code, stdout, _ = run_cli(["analyze", "--seed", "1"], capsys)
        assert code == 0
        assert "margin=2.9387" in stdout
        assert "satisfied=false" in stdout

    def test_threshold_two_satisfied(self, capsys):
        code, stdout, _ = run_cli(
            ["analyze", "--threshold", "2", "--seed", "1"], capsys
        )
        assert code == 0
        assert "satisfied=true" in stdout

    def test_fixed_precision_values(self, tmp_path, capsys):
        json_path = tmp_path / "an.json"
        code, stdout, _ = run_cli(
            [
                "analyze",
                "--n-range",
                "48:48",
                "--N",
                "256",
                "--k",
                "16",
                "--seed",
                "1",
                "--json",
                str(json_path),
            ],
            capsys,
        )
        assert code == 0
        assert "H(d)=12288.0000" in stdout
        records = {r["quantity"]: r for r in json.loads(json_path.read_text())["results"]}
        assert records["private_key_entropy"]["value_bits"] == 12288.0
        assert records["holevo_cap"]["value_bits"] == 4096.0
        assert records["secrecy_margin"]["value_bits"] == 3.0

    def test_zero_copies_infinite_margin(self, capsys):
        code, stdout, _ = run_cli(["analyze", "--k", "0", "--seed", "1"], capsys)
        assert code == 0
        assert "cap=0.0" in stdout
        assert "margin=inf" in stdout
        assert "satisfied=true" in stdout

    def test_mutual_information_estimate(self, tmp_path, capsys):
        json_path = tmp_path / "mi.json"
        code, _, _ = run_cli(
            [
                "analyze",
                "--mi-strategy",
                "fixed",
                "--mi-n",
                "1",
                "--trials",
                "3000",
                "--seed",
                "8",
                "--json",
                str(json_path),
            ],
            capsys,
        )
        assert code == 0
        records = json.loads(json_path.read_text())["results"]
        mi = [r for r in records if r["quantity"] == "mutual_information"]
        assert len(mi) == 1
        assert mi[0]["value_bits"] == pytest.approx(1.0, abs=0.05)

    def test_payloads_are_strict_json(self, tmp_path, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        for name, flags in (("k0", ["--k", "0"]), ("huge", ["--threshold", "1e308"])):
            json_path = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                ["analyze", *flags, "--seed", "1", "--json", str(json_path)], capsys
            )
            assert code == 0
            for path in (json_path, tmp_path / f"{name}.json.manifest.json"):
                json.loads(path.read_text(), parse_constant=reject)
        records = json.loads((tmp_path / "k0.json").read_text())["results"]
        margin = next(r for r in records if r["quantity"] == "secrecy_margin")
        assert margin["value_bits"] is None
        assert margin["satisfied"] is True

    def test_infinite_threshold_is_usage_error(self, tmp_path, capsys):
        json_path = tmp_path / "t.json"
        code, _, stderr = run_cli(
            ["analyze", "--threshold", "inf", "--seed", "1", "--json", str(json_path)],
            capsys,
        )
        assert code == 2
        assert "threshold must be positive and finite" in stderr
        assert not json_path.exists()

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        json_path = tmp_path / "t.json"
        code, _, stderr = run_cli(
            ["analyze", "--threshold", "nan", "--seed", "1", "--json", str(json_path)],
            capsys,
        )
        assert code == 2
        assert "threshold must be positive" in stderr
        assert not json_path.exists()

    def test_copies_beyond_cap_is_usage_error(self, capsys):
        code, _, stderr = run_cli(
            [
                "analyze",
                "--mi-strategy",
                "fixed",
                "--mi-copies",
                "1000000000000",
                "--trials",
                "2",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == 2
        assert "copies_per_trial must be in" in stderr

    @pytest.mark.parametrize("trials", [MI_TRIALS_CAP + 1, 1_000_000_000_000])
    def test_trials_beyond_cap_is_usage_error(self, trials, tmp_path, capsys):
        paths = [tmp_path / "mi.json", tmp_path / "mi.csv"]
        code, stdout, stderr = run_cli(
            ["analyze", "--mi-strategy", "fixed", "--trials", str(trials), "--seed", "1",
             "--json", str(paths[0]), "--csv", str(paths[1])],
            capsys,
        )
        assert code == 2
        assert stderr.startswith("error: ") and str(MI_TRIALS_CAP) in stderr
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    """Grid sweeps to CSV."""

    def test_ensemble_sweep(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            [
                "sweep",
                "--experiment",
                "ensemble",
                "--n",
                "1:12",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0
        csv_path = tmp_path / "out" / "sweep-ensemble.csv"
        raw = csv_path.read_bytes()
        assert b"\r\n" in raw
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert all(float(r["max_abs_deviation"]) < 1e-12 for r in rows)
        assert all(float(r["entropy_bits"]) == pytest.approx(1.0) for r in rows)
        assert (tmp_path / "out" / "sweep-ensemble.csv.manifest.json").exists()

    def test_forward_search_sweep_matches_theory_column(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "sweep",
                "--experiment",
                "forward-search",
                "--alphas",
                "1:4",
                "--trials",
                "300",
                "--rule",
                "identify-all",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0
        with open(tmp_path / "out" / "sweep-forward-search.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["alpha"]) for r in rows] == [1, 2, 3, 4]
        assert [float(r["theory"]) for r in rows] == [
            0.75,
            0.5625,
            pytest.approx(27 / 64),
            pytest.approx(81 / 256),
        ]

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            [
                "sweep",
                "--experiment",
                "ensemble",
                "--n",
                "8:3",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 2
        assert "no valid cells" in stderr

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            [
                "sweep",
                "--experiment",
                "ensemble",
                "--n",
                "1:20000",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 2
        assert "cap" in stderr

    def test_refused_cell_writes_nothing(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            ["sweep", "--experiment", "forward-search", "--alphas", "1:2", "--trials", "0",
             "--seed", "1", "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 2
        assert stderr == "error: trials must be at least 1, got 0\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_sweep_is_byte_deterministic(self, tmp_path, capsys):
        blobs = []
        for name in ("one", "two"):
            code, _, _ = run_cli(
                [
                    "sweep",
                    "--experiment",
                    "forward-search",
                    "--alphas",
                    "1:2",
                    "--trials",
                    "200",
                    "--seed",
                    "13",
                    "--out",
                    str(tmp_path / name),
                ],
                capsys,
            )
            assert code == 0
            blobs.append((tmp_path / name / "sweep-forward-search.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestSeedHandling:
    """Flag, environment fallback, and entropy sourcing."""

    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QPKE_SEED", "123")
        out = tmp_path / "env.json"
        code, stdout, _ = run_cli(
            ["keygen", "--n", "40", "--N", "2", "--out", str(out)], capsys
        )
        assert code == 0
        assert "seed=123 (env)" in stdout
        flag_out = tmp_path / "flag.json"
        monkeypatch.delenv("QPKE_SEED")
        code = main(
            ["keygen", "--n", "40", "--N", "2", "--seed", "123", "--out", str(flag_out)]
        )
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == flag_out.read_bytes()

    def test_invalid_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QPKE_SEED", "not-a-number")
        code, _, stderr = run_cli(
            ["keygen", "--n", "40", "--N", "2", "--out", str(tmp_path / "k")], capsys
        )
        assert code == 2
        assert "QPKE_SEED" in stderr

    def test_entropy_seed_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QPKE_SEED", raising=False)
        code, stdout, _ = run_cli(
            ["keygen", "--n", "40", "--N", "2", "--out", str(tmp_path / "k.json")],
            capsys,
        )
        assert code == 0
        assert "(entropy)" in stdout
        manifest = json.loads((tmp_path / "k.json.manifest.json").read_text())
        assert isinstance(manifest["manifest"]["seed"], int)


class TestDeterminism:
    """Identical flags and seed reproduce identical payloads."""

    def test_attack_outputs_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("one", "two"):
            json_path = tmp_path / f"{name}.json"
            csv_path = tmp_path / f"{name}.csv"
            code, _, _ = run_cli(
                [
                    "attack",
                    "--attack",
                    "forward-search",
                    "--alpha",
                    "2",
                    "--trials",
                    "500",
                    "--seed",
                    "17",
                    "--json",
                    str(json_path),
                    "--csv",
                    str(csv_path),
                ],
                capsys,
            )
            assert code == 0
            blobs.append(json_path.read_bytes() + csv_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_run_id_stable_across_reruns(self, tmp_path, capsys):
        ids = []
        for name in ("one", "two"):
            json_path = tmp_path / f"{name}.json"
            code, _, _ = run_cli(
                [
                    "analyze",
                    "--n-range",
                    "48:48",
                    "--seed",
                    "9",
                    "--json",
                    str(json_path),
                ],
                capsys,
            )
            assert code == 0
            ids.append(json.loads(json_path.read_text())["manifest"]["run_id"])
        assert ids[0] == ids[1]

    def test_run_id_is_hashed_once_per_command(self, tmp_path, capsys, monkeypatch):
        # keygen prints the run id and writes it into its manifest
        hashes = []

        class CountingHashlib:
            @staticmethod
            def sha256(data):
                hashes.append(data)
                return hashlib.sha256(data)

        monkeypatch.setattr(qpke.cli, "hashlib", CountingHashlib)
        key_path = tmp_path / "key.json"
        argv = ["keygen", "--n", "40", "--N", "8", "--seed", "3", "--out", str(key_path)]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "key.json.manifest.json").read_text())["manifest"]
        assert f"run_id={manifest['run_id']}" in stdout
        assert len(hashes) == 1

    def test_different_seeds_differ(self, tmp_path, capsys):
        outs = []
        for seed in ("1", "2"):
            json_path = tmp_path / f"s{seed}.json"
            code, _, _ = run_cli(
                [
                    "attack",
                    "--attack",
                    "forward-search",
                    "--trials",
                    "400",
                    "--seed",
                    seed,
                    "--json",
                    str(json_path),
                ],
                capsys,
            )
            assert code == 0
            outs.append(json.loads(json_path.read_text()))
        assert outs[0]["manifest"]["run_id"] != outs[1]["manifest"]["run_id"]
