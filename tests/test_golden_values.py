"""Golden values of the seeded CLI payloads that no digest pins.

test_golden_payloads.py leaves out the CPA, mutual-information and ensemble
payloads, because their last bits depend on LAPACK and on the SIMD
implementation of np.sin.  This file pins their values instead: every field
of every JSON result and CSV row, read back from the files the commands
write.  Integers, strings, booleans and nulls must match exactly; floats
within a tolerance that a different numpy build stays inside:

- mutual-information values and their standard errors: rel 1e-9;
- trace distances, ensemble deviations and entropies: abs 1e-12;
- every other float (the closed forms of `analyze`): exactly.

A change that moves these values on purpose re-records golden_values.json
in the same change and says in CHANGES.md which values moved and why:

    PYTHONPATH=src python tests/test_golden_values.py
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest

from qpke.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_values.json")

# run name -> argv; output paths are added by _run
COMMANDS = {
    "cpa-n4-N2": ["attack", "--attack", "cpa", "--n", "4", "--N", "2", "--seed", "7"],
    "cpa-n12-N8": ["attack", "--attack", "cpa", "--n", "12", "--N", "8", "--seed", "7"],
    "cpa-n8-N4-a2": ["attack", "--attack", "cpa", "--n", "8", "--N", "4", "--alpha", "2",
                     "--seed", "7"],
    # the benchmark's four MI configurations
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

# fields compared to abs 1e-12: CPA trace distances (the row's observed rate
# and its deviation from 0), ensemble deviations and entropies
ABS_FIELDS = {"success_rate", "deviation", "max_abs_deviation", "entropy_bits"}
ABS_TOL = 1e-12
MI_FIELDS = {"value_bits", "stderr_bits"}
MI_REL_TOL = 1e-9


def _run(name: str, workdir: Path) -> dict:
    """Run one command; its JSON results (if any) and CSV rows as read back.
    CSV cells stay the strings the file holds."""
    argv = COMMANDS[name]
    if argv[0] == "sweep":
        out = workdir / name
        assert main(argv + ["--out", str(out)]) == 0, argv
        payload = {}
        csv_path = out / "sweep-ensemble.csv"
    else:
        json_path, csv_path = workdir / f"{name}.json", workdir / f"{name}.csv"
        assert main(argv + ["--json", str(json_path), "--csv", str(csv_path)]) == 0, argv
        payload = {"results": json.loads(json_path.read_text(encoding="utf-8"))["results"]}
    with open(csv_path, newline="", encoding="utf-8") as handle:
        payload["rows"] = list(csv.DictReader(handle))
    return payload


def _tolerance(record: dict, field: str) -> dict | None:
    """math.isclose arguments for one float field, or None for exact."""
    if record.get("quantity") == "mutual_information" and field in MI_FIELDS:
        return {"rel_tol": MI_REL_TOL, "abs_tol": 0.0}
    if field in ABS_FIELDS:
        return {"rel_tol": 0.0, "abs_tol": ABS_TOL}
    return None


def _assert_records_match(actual: list[dict], expected: list[dict], where: str) -> None:
    assert len(actual) == len(expected), f"{where}: {len(actual)} records, want {len(expected)}"
    for i, (got, want) in enumerate(zip(actual, expected)):
        assert sorted(got) == sorted(want), f"{where}[{i}] fields"
        for field, value in want.items():
            tolerance = _tolerance(want, field)
            if tolerance is None or value in (None, ""):
                assert got[field] == value, f"{where}[{i}].{field}: {got[field]!r} != {value!r}"
            else:
                assert math.isclose(float(got[field]), float(value), **tolerance), (
                    f"{where}[{i}].{field}: {got[field]!r} not within {tolerance} of {value!r}"
                )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_payload_values_match_golden(name, golden, tmp_path):
    payload = _run(name, tmp_path)
    assert sorted(payload) == sorted(golden[name])
    for part, records in golden[name].items():
        _assert_records_match(payload[part], records, f"{name}.{part}")


def record(path: Path = GOLDEN_PATH) -> None:
    """Rewrite the golden file from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        values = {name: _run(name, Path(tmp)) for name in COMMANDS}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(values, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    record()
