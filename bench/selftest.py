"""Self-test of the benchmark on the smallest size of every workload.

    python3 bench/selftest.py

For each workload it runs `run.py --smoke` (one cycle at the smallest job
sizes) twice untraced and twice traced at one seed, and checks that

- every run is correct and prints its result as the last line;
- the untraced result holds exactly the end-to-end metrics of
  BENCHMARK.json and the traced result exactly its per-layer metrics, each
  with the unit BENCHMARK.json gives;
- the untraced output prints every named end-to-end metric with its unit;
- the two runs of each kind give identical per-job pass/fail outcomes, and
  the two traced runs identical call counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import CYCLES, RATES

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
NAMED = ("job_ms_p50", "job_ms_tail", "setup_s", "peak_rss_mb", "failed_frac")


def smoke(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def outcomes(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("outcomes "))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in sorted(CYCLES):
        for trace in (0, 1):
            (first, first_lines), (second, second_lines) = smoke(workload, trace), smoke(workload, trace)
            tag = f"{workload} trace {trace}"
            for result in (first, second):
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: run not correct ({result['failed']} failed)")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{tag}: metrics/units {units} differ from BENCHMARK.json")
            if outcomes(first_lines) != outcomes(second_lines):
                problems.append(f"{tag}: per-job outcomes differ between two runs")
            if trace:
                calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                         for r in (first, second)]
                if calls[0] != calls[1]:
                    problems.append(f"{tag}: call counts differ between two runs")
            else:
                named = [name for name, _, _ in RATES[workload]] + list(NAMED)
                printed = {line.split()[1] for line in first_lines
                           if line.startswith("metric ") and len(line.split()) >= 4}
                missing = [name for name in named if name not in printed]
                if missing:
                    problems.append(f"{tag}: no metric line with a unit for {missing}")
            print(f"{tag}: checked two runs", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
