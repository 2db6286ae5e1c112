"""The ROADMAP "Open items" baseline rows, derived from a traced run.

Each row names the workload that runs it, the figure ROADMAP.md recorded,
and how to read the same quantity off the traced pass (spans) and the
untraced pass (job wall times) of that workload's fixed job list.
"""

from __future__ import annotations

import statistics

from workloads import KEY_VARIANTS

ROADMAP_ROWS = (
    # (workload, row, ROADMAP figure, unit)
    ("protocol-traffic", "keygen (N=256, n=48)", 128.0, "us/call"),
    ("protocol-traffic", "issue_copy (N=256)", 5.5, "us/call"),
    ("protocol-traffic", "issue + encrypt + decrypt (N=256, alpha=2, 128 bits)", 144.0, "us/job"),
    ("attack-mc", "forward search alpha=1", 15900.0, "trials/s"),
    ("attack-mc", "forward search alpha=2", 9700.0, "trials/s"),
    ("attack-mc", "forward search alpha=4", 6400.0, "trials/s"),
    ("attack-mc", "single-use check (4 overlaps x 5000 trials)", 0.93, "s"),
    ("analysis", "MI estimate (n=16, 200k trials, random basis)", 1.45, "s"),
    ("analysis", "CPA trace distance (n=12, 8 qubits)", 0.07, "s"),
)


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def _duration(span) -> float:
    return span[4] - span[3]


def roadmap_rows(workload, untraced, tracer) -> list[tuple[str, float, str, float, float]]:
    """(row, ROADMAP figure, unit, traced value, untraced value) for the
    rows this workload runs; nan where a pass cannot give the figure."""
    jobs_by_slot: dict[str, list] = {}
    for record in untraced:
        jobs_by_slot.setdefault(record.job.slot.name, []).append(record)

    def records(prefix):
        return [r for name, rs in jobs_by_slot.items() if name.startswith(prefix) for r in rs]

    def job_ids(rs):
        return {r.job.index for r in rs}

    def span_us(name, rs):
        return 1e6 * _mean([_duration(s) for s in tracer.spans_of(name, job_ids(rs))])

    nan = float("nan")
    out = []
    for row_workload, row, figure, unit in ROADMAP_ROWS:
        if row_workload != workload:
            continue
        if row.startswith("keygen"):
            traced, plain = span_us("protocol.keygen", records("keygen-v0")), nan
        elif row.startswith("issue_copy"):
            small = [r for r in records("roundtrip-")
                     if KEY_VARIANTS[r.job.params["variant"]][0] == 256]
            traced, plain = span_us("protocol.KeyRegistry.issue_copy", small), nan
        elif row.startswith("issue + encrypt"):
            rs = records("roundtrip-v0-a2")
            ids = job_ids(rs)
            total = sum(
                _duration(s)
                for name in ("protocol.KeyRegistry.issue_copy", "protocol.encrypt", "protocol.decrypt")
                for s in tracer.spans_of(name, ids)
            )
            traced, plain = (1e6 * total / len(rs) if rs else nan), nan
        elif row.startswith("forward search"):
            rs = records(f"fs-a{row[-1]}")
            trials = sum(r.job.params["trials"] for r in rs)
            span_s = sum(_duration(s) for s in tracer.spans_of("attacks.run_forward_search", job_ids(rs)))
            job_s = sum(r.seconds for r in rs)
            traced = trials / span_s if span_s else nan
            plain = trials / job_s if job_s else nan
        elif row.startswith("single-use"):
            rs = records("swap-check")
            scale = _mean([5000 / r.job.params["trials"] for r in rs])
            traced = scale * 1e-6 * span_us("attacks.single_use_constraint_check", rs)
            plain = scale * _mean([r.seconds for r in rs])
        elif row.startswith("MI estimate"):
            rs = records("mi-roadmap")
            traced = 1e-6 * span_us("security_analysis.estimate_mutual_information", rs)
            plain = _mean([r.seconds for r in rs])
        else:
            rs = records("cpa-")
            traced = 1e-6 * span_us("attacks.chosen_plaintext_distinguishability", rs)
            plain = _mean([r.seconds for r in rs])
        out.append((row, figure, unit, traced, plain))
    return out
