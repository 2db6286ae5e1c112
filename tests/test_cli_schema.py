"""The record schema of every CLI command.

main writes every file of a run: the run identity (seed and run id) appears
once in each JSON envelope's manifest header and as the last two columns of
each CSV, never inside a JSON row.  The fields the benchmark reads
(bench/workloads.py) are pinned here by name, so renaming one fails a test
before it fails a benchmark run.
"""

import contextlib
import csv
import io
import json

import pytest

from qpke.cli import main

# name -> argv, at small sizes; relative paths, run from one directory
RUNS = {
    "keygen": ["keygen", "--n", "40", "--N", "16", "--seed", "3", "--out", "key.json"],
    "roundtrip": ["roundtrip", "--key", "key.json", "--message", "0xd6", "--alpha", "2",
                  "--seed", "4", "--json", "rt.json"],
    "forward-search": ["attack", "--attack", "forward-search", "--alpha", "2", "--trials",
                       "200", "--seed", "5", "--json", "fs.json", "--csv", "fs.csv"],
    "cpa": ["attack", "--attack", "cpa", "--n", "4", "--N", "2", "--seed", "6",
            "--json", "cpa.json", "--csv", "cpa.csv"],
    "cca": ["attack", "--attack", "cca", "--n", "8", "--N", "8", "--k", "2", "--seed", "7",
            "--json", "cca.json", "--csv", "cca.csv"],
    "analyze": ["analyze", "--mi-strategy", "random", "--mi-n", "4", "--trials", "200",
                "--seed", "8", "--json", "an.json", "--csv", "an.csv"],
    "sweep-fs": ["sweep", "--experiment", "forward-search", "--alphas", "1:2", "--trials",
                 "200", "--seed", "9", "--out", "sweep"],
    "sweep-ensemble": ["sweep", "--experiment", "ensemble", "--n", "1:3", "--seed", "10",
                       "--out", "sweep"],
}
JSON_FILES = ["rt.json", "fs.json", "cpa.json", "cca.json", "an.json"]
CSV_FILES = ["fs.csv", "cpa.csv", "cca.csv", "an.csv", "sweep/sweep-forward-search.csv",
             "sweep/sweep-ensemble.csv"]
# a CSV written beside a JSON file shares its manifest
MANIFEST_OF = {
    "fs.csv": "fs.json", "cpa.csv": "cpa.json", "cca.csv": "cca.json", "an.csv": "an.json",
}


def run_all(workdir, monkeypatch) -> dict[str, str]:
    """Run every command in RUNS from workdir; returns each one's stdout."""
    monkeypatch.chdir(workdir)
    stdout = {}
    for name, argv in RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        stdout[name] = out.getvalue()
    return stdout


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("schema")
    with pytest.MonkeyPatch.context() as mp:
        stdout = run_all(workdir, mp)
    return workdir, stdout


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames), list(reader)


def _header(workdir, csv_name) -> dict:
    source = MANIFEST_OF.get(csv_name, csv_name)
    return _json(workdir / f"{source}.manifest.json")["manifest"]


@pytest.mark.parametrize("name", CSV_FILES)
def test_every_csv_ends_with_the_run_identity(name, run_dir):
    workdir, _ = run_dir
    header = _header(workdir, name)
    fields, rows = _csv(workdir / name)
    assert fields[-2:] == ["seed", "run_id"]
    assert rows
    for row in rows:
        assert (int(row["seed"]), row["run_id"]) == (header["seed"], header["run_id"])


@pytest.mark.parametrize("name", JSON_FILES)
def test_no_json_record_carries_the_run_identity(name, run_dir):
    workdir, _ = run_dir
    payload = _json(workdir / name)
    assert {"seed", "run_id"} <= set(payload["manifest"])
    results = payload["results"]
    if name == "cca.json":
        records = [results["session"], *results["transcript"]]
    elif isinstance(results, dict):
        records = [results]
    else:
        records = results
    for record in records:
        assert not {"seed", "run_id"} & set(record), record


def test_forward_search_rows_share_the_statistic_columns(run_dir):
    workdir, _ = run_dir
    statistic = ["alpha", "n", "rule", "trials", "success_rate", "stderr", "theory",
                 "deviation"]
    attack_fields, attack_rows = _csv(workdir / "fs.csv")
    sweep_fields, sweep_rows = _csv(workdir / "sweep/sweep-forward-search.csv")
    for fields in (attack_fields, sweep_fields):
        assert [f for f in fields if f in statistic] == statistic
    json_rows = _json(workdir / "fs.json")["results"]
    for row in json_rows:
        assert set(statistic) <= set(row) and "N" not in row
        assert row["deviation"] == row["success_rate"] - row["theory"]
    assert {r["n"] for r in json_rows} == {8}
    assert {r["N"] for r in attack_rows} == {""}
    assert {r["n"] for r in sweep_rows} == {"8"}


def test_cpa_and_cca_rows_fill_N(run_dir):
    workdir, _ = run_dir
    assert _json(workdir / "cpa.json")["results"][0]["N"] == 2
    assert [r["N"] for r in _csv(workdir / "cca.csv")[1]] == ["8"]


def test_fields_the_benchmark_reads_are_present(run_dir):
    workdir, stdout = run_dir
    # _check_fs_rows: forward-search rows, from --json (fs-attack) and the sweep CSV
    for row in [*_json(workdir / "fs.json")["results"],
                *_csv(workdir / "sweep/sweep-forward-search.csv")[1]]:
        assert {"alpha", "rule", "trials", "theory", "success_rate"} <= set(row)
    # check_job, kind "cpa": the one row's success_rate
    (cpa_row,) = _json(workdir / "cpa.json")["results"]
    assert "success_rate" in cpa_row
    # _check_mi: the last analyze record
    mi = _json(workdir / "an.json")["results"][-1]
    assert mi["quantity"] == "mutual_information"
    assert {"n", "copies_per_trial", "trials", "strategy"} <= set(mi["params"])
    assert {"value_bits", "stderr_bits"} <= set(mi)
    # _check_ensemble: the ensemble sweep CSV
    for row in _csv(workdir / "sweep/sweep-ensemble.csv")[1]:
        assert {"n", "max_abs_deviation", "entropy_bits"} <= set(row)
    # check_job, kind "roundtrip": the report and the match line
    assert {"match", "num_bits", "alpha", "N"} <= set(_json(workdir / "rt.json")["results"])
    assert "match=true" in stdout["roundtrip"]
    # _check_cca: the session's use counts and each submission's verdict
    cca = _json(workdir / "cca.json")["results"]
    assert {"uses_allowed", "uses_consumed"} <= set(cca["session"])
    assert all("accepted" in entry for entry in cca["transcript"])
    # _check_keygen: the key id line
    assert "key_id=" in stdout["keygen"]


def test_timings_go_to_the_manifest_only(run_dir):
    workdir, stdout = run_dir
    assert "_ms" not in stdout["roundtrip"]
    manifest = _json(workdir / "rt.json.manifest.json")["manifest"]
    assert set(manifest["stats"]) == {"encrypt_ms", "decrypt_ms"}
    assert "stats" not in _json(workdir / "rt.json")["manifest"]


def test_seeded_stdout_is_identical_across_reruns(run_dir, tmp_path, monkeypatch):
    _, first = run_dir
    second = run_all(tmp_path, monkeypatch)
    for name in RUNS:
        assert first[name] == second[name], name
        assert first[name].splitlines()[-1].startswith("seed=")
