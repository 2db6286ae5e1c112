"""Checks of the committed benchmark records, BENCH_*.json at the repository root.

Each record compares runs of `bench/run.py` on a parent commit and on a
change, in pairs that alternate which side runs first.  The records are
assembled by hand, so this file checks their layout: the fields a reader
needs to repeat the runs, every end-to-end metric that BENCHMARK.json names
on both sides of every pair, no failed job, and a claim that names a
workload measured in at least 10 pairs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = {path.name: json.loads(path.read_text()) for path in sorted(ROOT.glob("BENCH_*.json"))}
CLAIMED = [name for name, data in RECORDS.items() if "claim" in data]
TOP_FIELDS = (
    "env", "parent", "command", "order", "run_seconds", "tool_version", "what", "workloads",
)
CLAIM_PAIRS = 10


def end_to_end_metrics() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in declared["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_label_is_the_file_stem(name):
    assert RECORDS[name]["label"] == Path(name).stem.removeprefix("BENCH_")


@pytest.mark.parametrize("name", RECORDS)
def test_top_level_fields(name):
    missing = [field for field in TOP_FIELDS if field not in RECORDS[name]]
    assert not missing


@pytest.mark.parametrize("name", RECORDS)
def test_every_side_of_every_pair_is_complete_and_clean(name):
    metrics = end_to_end_metrics()
    workloads = RECORDS[name]["workloads"]
    assert workloads
    for workload, runs in workloads.items():
        assert runs["pairs"], workload
        for pair in runs["pairs"]:
            assert {"seed", "parent", "change"} <= pair.keys(), (workload, pair)
            for side in ("parent", "change"):
                result = pair[side]
                where = (workload, pair["seed"], side)
                missing = [f for f in ("attempted", "failed", *metrics) if f not in result]
                assert not missing, where
                assert result["failed"] == 0, where


@pytest.mark.parametrize("name", CLAIMED)
def test_claim_names_a_workload_with_enough_pairs(name):
    data = RECORDS[name]
    workload = data["claim"].split()[0]
    assert workload in data["workloads"]
    assert len(data["workloads"][workload]["pairs"]) >= CLAIM_PAIRS
