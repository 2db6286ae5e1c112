"""Benchmark of the qpke commands, end to end and layer by layer.

    python3 bench/run.py --workload attack-mc --seed 1 --seconds 30 --trace 0

Runs one workload's jobs in-process through qpke.cli.main (and the library
call of the single-use check) as a closed loop with one client: each job
starts when the previous one has been checked.  Every job's output is
checked against the paper's closed forms; Monte Carlo rates are gated on
the pooled trials of the run's first cycles at the acceptance tests' 3
standard errors.

--trace 0 measures for --seconds (finishing the cycle in progress) and
reports the end-to-end metrics, its rates and median job time scaled to a
reference host speed by a probe loop timed between cycles (HostProbe).  --trace 1 runs a
fixed, seeded job list, each job untraced and traced in turn, and reports
per-layer counts and self times, the tracing overhead, and the ROADMAP
baseline rows; its spans are written to .bench_out/.  The last line of
stdout is one JSON object.  Run from the repository root; the package is
imported from src/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: on a 2-core host a spinning second thread only
# adds noise.  Set before numpy is imported anywhere in this process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from roadmap import roadmap_rows  # noqa: E402
from tracing import COUNTED, TRACED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CYCLES,
    RATES,
    TRACE_CYCLES,
    TRACE_EXTRA_SLOTS,
    Job,
    JobSource,
    Tally,
    check_job,
    pool_argvs,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # this process plus four set-up-only child processes
TRACE_PROBES = 9
# Median time of the pure-Python probe loop on a host at reference speed.
PROBE_REFERENCE_MS = 5.0


# --- the package under test ---


class Package:
    """The qpke modules, looked up at call time so tracing wrappers apply."""

    def __init__(self) -> None:
        if not (SRC / "qpke" / "__init__.py").is_file():
            raise SystemExit(f"error: no qpke package under {SRC}")
        sys.path.insert(0, str(SRC))
        import qpke
        import qpke.attacks
        import qpke.cli
        import qpke.seeding

        if Path(qpke.__file__).resolve().parent != (SRC / "qpke").resolve():
            raise SystemExit(f"error: imported qpke from {qpke.__file__}, not {SRC}")
        self.cli = qpke.cli
        self.attacks = qpke.attacks
        self.seeding = qpke.seeding


def run_cli(pkg: Package, argv: list[str]) -> tuple[int, float, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = pkg.cli.main(argv)
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue()


def execute(pkg: Package, job: Job):
    """Run one job; returns (exit code, seconds, stdout, library result)."""
    for path in job.outputs:
        path.unlink(missing_ok=True)
    if job.argv is not None:
        return (*run_cli(pkg, job.argv), None)
    start = time.perf_counter()
    result = pkg.attacks.single_use_constraint_check(
        job.params["trials"], pkg.seeding.rng_stream(job.seed, "bench", "swap-check")
    )
    return 0, time.perf_counter() - start, "", result


@dataclass
class Record:
    job: Job
    seconds: float
    problems: list[str]


def run_job(pkg: Package, job: Job, tally: Tally, tracer: Tracer | None = None) -> Record:
    if tracer is not None:
        tracer.job = job.index
    try:
        rc, seconds, stdout, result = execute(pkg, job)
    except Exception:  # a job that raises is a failed job; the run goes on
        print(f"job {job.index} ({job.slot.name}) raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return Record(job, math.nan, ["raised an exception"])
    try:
        problems = check_job(job, rc, stdout, result, tally)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    return Record(job, seconds, problems)


def apply_gates(records: list[Record], tally: Tally) -> list[str]:
    """Gate pooled rates; a failed cell fails every job that fed it."""
    by_index = {r.job.index: r for r in records}
    lines = []
    for cell, rate, p, z, passed, jobs in tally.gate():
        label = " ".join(str(part) for part in cell)
        lines.append(f"gate {label}: rate {rate:.5f} closed form {p:.5f} "
                      f"z {z:+.2f} over {len(jobs)} jobs -> {'pass' if passed else 'FAIL'}")
        if not passed:
            for index in jobs:
                by_index[index].problems.append(f"{label} rate outside 3 se of {p}")
    return lines


# --- set-up ---


def setup(workload: str, seed: int, workdir: Path) -> tuple[Package, float]:
    """Import the package, write the key pool, warm every job kind once.

    Outcomes here are not counted: a fault shows in the measured jobs (a
    missing pool key, for one, fails every roundtrip that reads it).
    Returns the package and the seconds since this script started.
    """
    pkg = Package()
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "protocol-traffic":
        for argv in pool_argvs(seed, workdir):
            run_cli(pkg, argv)
    warm = JobSource(workload, seed, workdir, smoke=True, stream="warm-up")
    for job in warm.next_cycle():
        run_job(pkg, job, Tally())
    return pkg, time.perf_counter() - _START


def child_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of fresh processes that only set up."""
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up child exited {proc.returncode}: {proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# --- host and environment ---


class HostProbe:
    """Fixed pure-Python and numpy loops, timed between job cycles.

    The host's speed drifts by 15% and more over tens of seconds, for every
    process alike.  The probe medians make that drift visible next to the
    metrics of a run, and the pure-Python median scales the run's rates and
    median job time to a host at reference speed (factor()).
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(20_000)
        self.py_ms: list[float] = []
        self.np_ms: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += (i * i) & 7
        middle = time.perf_counter()
        for _ in range(10):
            self._np.sort(self._data)
        end = time.perf_counter()
        self.py_ms.append(1e3 * (middle - start))
        self.np_ms.append(1e3 * (end - middle))

    def factor(self) -> float:
        """How much slower than the reference the host ran (> 1: slower)."""
        return statistics.median(self.py_ms) / PROBE_REFERENCE_MS


def environment_line() -> str:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = " ".join(f"{var}={os.environ[var]}" for var in BLAS_ENV)
    return (f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} cpu=\"{cpu}\" {blas}")


# --- summaries ---


def nearest_rank(sorted_values: list[float], rank: int) -> float:
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


def end_to_end(workload: str, records: list[Record], host_factor: float = 1.0
               ) -> tuple[dict, list[str]]:
    """End-to-end metrics of a run, and the lines that print them.

    The two rates are multiplied, and the median job time divided, by
    host_factor, which puts them at the probe's reference host speed; their
    lines print the raw values too.  The tail stays raw: it is set by pauses
    that do not scale with the host's speed, and scaling it widened its
    spread.
    """
    timed = [r for r in records if not math.isnan(r.seconds)]
    times = sorted(1e3 * r.seconds for r in timed) or [math.nan]
    n = len(times)
    p50 = nearest_rank(times, math.ceil(0.5 * n))
    beyond = min(10, n - 1)
    tail = nearest_rank(times, n - beyond)
    tail_pct = 100.0 * (n - beyond) / n

    by_slot: dict[str, list[Record]] = {}
    for r in timed:
        by_slot.setdefault(r.job.slot.name, []).append(r)
    rates = []
    for name, unit, kinds in RATES[workload]:
        work = seconds = 0.0
        for slot in CYCLES[workload]:
            if slot.kind in kinds and slot.name in by_slot:
                slot_records = by_slot[slot.name]
                work += slot_records[0].job.units
                seconds += statistics.median(r.seconds for r in slot_records)
        rates.append((name, unit, work / seconds if seconds else math.nan))

    metrics = {
        "primary_per_s": (rates[0][2] * host_factor, "1/s"),
        "secondary_per_s": (rates[1][2] * host_factor, "1/s"),
        "job_ms_p50": (p50 / host_factor, "ms"),
        "job_ms_tail": (tail, "ms"),
    }
    lines = [f"metric {name} {value * host_factor:.6g} {unit} (raw {value:.6g})"
             for name, unit, value in rates]
    lines.append(f"metric job_ms_p50 {p50 / host_factor:.6g} ms (raw {p50:.6g}; "
                 f"median of {n} jobs)")
    lines.append(f"metric job_ms_tail {tail:.6g} ms "
                 f"(p{tail_pct:.2f}, {beyond} of {n} jobs beyond it)")
    lines.append(f"  primary_per_s = {rates[0][0]}, secondary_per_s = {rates[1][0]}")
    return metrics, lines


def per_layer(tracer: Tracer, traced: list[Record], untraced: list[Record]) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for layer, names in TRACED.items():
        for name in names:
            full = f"{layer}.{name}"
            i = tracer.index(full)
            if full != "cli.main":
                metrics[f"{full}.calls"] = (tracer.calls[i], "count")
            metrics[f"{full}.self_s"] = (tracer.self_s[i], "s")
    for layer, name, _ in COUNTED:
        metrics[f"{layer}.{name}.calls"] = (tracer.calls[tracer.index(f"{layer}.{name}")], "count")

    trials = tracer.calls[tracer.index("attacks.forward_search_trial")]
    registers = tracer.children_of("attacks.forward_search_trial", "protocol.prepare_register")
    metrics["attacks.registers_per_trial"] = (registers / trials if trials else 0.0, "count")
    d = tracer.index("protocol.decrypt")
    decrypts = tracer.calls[d]
    metrics["protocol.decrypt.accepted_frac"] = (
        (decrypts - tracer.errors[d]) / decrypts if decrypts else 0.0, "frac")
    mi_trials = sum(r.job.params["trials"] for r in traced if r.job.slot.kind == "mi")
    mi_s = tracer.self_s[tracer.index("security_analysis.estimate_mutual_information")]
    metrics["security_analysis.mi_us_per_trial"] = (1e6 * mi_s / mi_trials if mi_trials else 0.0, "us")
    plain_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# --- runs ---


def timed_run(pkg, args, workdir, probe: HostProbe) -> tuple[list[Record], list[str]]:
    source = JobSource(args.workload, args.seed, workdir, smoke=args.smoke)
    tally = Tally()
    records: list[Record] = []
    start = time.perf_counter()
    while True:
        for job in source.next_cycle():
            records.append(run_job(pkg, job, tally))
        probe.sample()
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    return records, apply_gates(records, tally)


def traced_run(pkg, args, workdir):
    """Run the fixed job list once untraced and once traced, job by job.

    Each job's two runs are adjacent, in alternating order, so host drift
    and warm caches fall evenly on both sides of the overhead figure.
    """
    source = JobSource(args.workload, args.seed, workdir, smoke=args.smoke)
    jobs: list[Job] = []
    for _ in range(1 if args.smoke else TRACE_CYCLES[args.workload]):
        jobs += source.next_cycle()
    if not args.smoke:
        jobs += [source.make(slot) for slot in TRACE_EXTRA_SLOTS.get(args.workload, ())]

    plain_tally, traced_tally = Tally(), Tally()
    untraced: list[Record] = []
    traced: list[Record] = []
    tracer = Tracer()
    for job in jobs:
        for with_trace in (False, True) if job.index % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(run_job(pkg, job, plain_tally))
                continue
            tracer.install()
            try:
                traced.append(run_job(pkg, job, traced_tally, tracer))
            finally:
                tracer.uninstall()
    lines = apply_gates(untraced, plain_tally)
    apply_gates(traced, traced_tally)
    if traced_tally.cells != plain_tally.cells:
        for record in traced:
            record.problems.append("traced outputs differ from untraced outputs")
    return untraced, traced, tracer, lines


def report_timed(args, records: list[Record], setups: list[float], failed: int,
                 probe: HostProbe) -> dict:
    factor = probe.factor()
    print(f"host-factor {factor:.4f} (probe median {statistics.median(probe.py_ms):.4g} ms "
          f"/ reference {PROBE_REFERENCE_MS:g} ms): the rates below are multiplied by it, "
          f"the median job time divided")
    metrics, lines = end_to_end(args.workload, records, factor)
    for line in lines:
        print(line)
    setup_median = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = (setup_median, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"metric setup_s {setup_median:.6g} s (median of {len(setups)} set-ups: "
          + " ".join(f"{v:.3f}" for v in setups) + ")")
    print(f"metric peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"metric failed_frac {failed / len(records):.6g} frac (of {len(records)} jobs)")
    return metrics


def report_traced(args, untraced: list[Record], traced: list[Record], tracer: Tracer,
                  probe: HostProbe) -> dict:
    plain_metrics, plain_lines = end_to_end(args.workload, untraced)
    traced_metrics, _ = end_to_end(args.workload, traced)
    print("untraced pass of the traced job list:")
    for line in plain_lines:
        print("  " + line)
    for name, (value, unit) in plain_metrics.items():
        traced_value = traced_metrics[name][0]
        print(f"trace-overhead {name}: traced {traced_value:.6g} - untraced {value:.6g} "
              f"= {traced_value - value:+.6g} {unit}")
    if not args.smoke:
        for row, figure, unit, traced_value, plain_value in roadmap_rows(
                args.workload, untraced, tracer):
            print(f"roadmap {row}: ROADMAP {figure:g} {unit}, traced {traced_value:.4g}, "
                  f"untraced {plain_value:.4g}")
    out_path = ROOT / ".bench_out" / f"trace-{args.workload}.jsonl.gz"
    tracer.write(out_path)
    print(f"wrote {len(tracer.spans)} spans to {out_path.relative_to(ROOT)}")
    metrics = per_layer(tracer, traced, untraced)
    metrics["host.py_loop_ms"] = (statistics.median(probe.py_ms), "ms")
    metrics["host.np_loop_ms"] = (statistics.median(probe.np_ms), "ms")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value:.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle at the smallest sizes (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        pkg, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        probe = HostProbe()
        if args.trace:
            untraced, records, tracer, gate_lines = traced_run(pkg, args, workdir)
            attempted_records = untraced + records
            for _ in range(TRACE_PROBES):
                probe.sample()
        else:
            records, gate_lines = timed_run(pkg, args, workdir, probe)
            attempted_records = records
            setups = [setup_s] + child_setups(args.workload, args.seed,
                                              1 if args.smoke else SETUP_REPEATS - 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed_records = [r for r in attempted_records if r.problems]
    for r in failed_records[:20]:
        print(f"failed job {r.job.index} {r.job.slot.name}: {'; '.join(r.problems)}")
    print(environment_line())
    print(f"host-probe py_loop_ms {statistics.median(probe.py_ms):.4g} "
          f"[{min(probe.py_ms):.4g}, {max(probe.py_ms):.4g}] "
          f"np_loop_ms {statistics.median(probe.np_ms):.4g} "
          f"[{min(probe.np_ms):.4g}, {max(probe.np_ms):.4g}] "
          f"(medians [ranges] of {len(probe.py_ms)} samples)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {len(attempted_records)} failed {len(failed_records)}")
    print("outcomes " + "".join("F" if r.problems else "." for r in attempted_records))
    for line in gate_lines:
        print(line)
    if args.trace:
        metrics = report_traced(args, untraced, records, tracer, probe)
    else:
        metrics = report_timed(args, records, setups, len(failed_records), probe)
    emit(not failed_records, len(attempted_records), len(failed_records), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
