"""Workloads of the qpke benchmark: the job cycles each one repeats, how a
job's inputs are drawn from the benchmark seed, and how each job's output is
checked against the paper's closed forms.

A workload is a fixed cycle of slots.  Every slot has fixed sizes, so every
completed cycle does the same amount of work; the seed only draws the order
of the slots within a cycle, the command seeds of jobs other than the Monte
Carlo ones, the message bits and which pooled key a roundtrip reads.  That keeps the job mix, and with it the
medians, the same from one seed to the next.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# The acceptance tests gate Monte Carlo rates at 3 standard errors of the
# closed form (tests/test_acceptance.py, three_se), and exact quantities at
# 1e-12 (criteria 2 and 5).
K_SIGMA = 3.0
EXACT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-15

SWAP_CHECK_PRECISION = 3
SWAP_CHECK_OFFSETS = (0, 1, 2, 4)
SWEEP_ALPHAS = (1, 2, 3, 4)
ENSEMBLE_NS = tuple(range(1, 17))

# Monte Carlo jobs (forward search, single-use check) take their command
# seeds from this fixed base, the acceptance tests' master seed, and from
# their slot and cycle number, not from the benchmark seed; the benchmark
# seed still draws their order.  The rate gates pool the jobs of the first
# GATE_CYCLES cycles only.  So every run gates the same sample whatever its
# length, with one 3-se comparison per cell as in the tests, and a verdict is
# a property of the code and not of the run.  (With seeded samples each run
# would make about ten 3-se comparisons, and about one run in forty would
# fail one by chance.)
MC_SEED_BASE = 20260825
GATE_CYCLES = 10
MC_KINDS = ("fs-attack", "fs-sweep", "swap-check")

# Key variants of protocol-traffic: (N, precision flags, permuted).
KEY_VARIANTS = {
    "v0": (256, ("--n", "48"), False),
    "v1": (256, ("--n-range", "32:62"), True),
    "v2": (4096, ("--n", "48"), True),
    "v3": (4096, ("--n-range", "32:62"), False),
}
POOL_KEYS_PER_VARIANT = 2


@dataclass(frozen=True)
class Slot:
    """One position of a workload cycle: a job kind at fixed sizes."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)


def _fs(alpha: int, trials: int) -> Slot:
    return Slot(f"fs-a{alpha}", "fs-attack", {"alpha": alpha, "trials": trials})


def _mi(strategy: str, n: int, copies: int, trials: int, name: str | None = None) -> Slot:
    return Slot(
        name or f"mi-{strategy}-n{n}-c{copies}",
        "mi",
        {"strategy": strategy, "n": n, "copies": copies, "trials": trials},
    )


def _keygen(variant: str) -> Slot:
    return Slot(f"keygen-{variant}", "keygen", {"variant": variant})


def _roundtrip(variant: str, alpha: int, copy: int = 0) -> Slot:
    return Slot(
        f"roundtrip-{variant}-a{alpha}" + (f"-{copy}" if copy else ""),
        "roundtrip",
        {"variant": variant, "alpha": alpha},
    )


def _cca(k: int) -> Slot:
    return Slot(f"cca-k{k}", "cca", {"n": 48, "N": 256, "k": k})


# Job sizes keep attack-mc jobs near one length.  In analysis, three faster
# and three slower slots flank five equal random-basis n=16 MI slots, so the
# median job falls in the middle of that group and the tail (ten jobs beyond
# it) among the slower slots.  A median that fell between two groups of jobs
# would jump with the number of jobs a run completes.
CYCLES: dict[str, tuple[Slot, ...]] = {
    "attack-mc": (
        _fs(1, 2000),
        _fs(2, 1250),
        _fs(3, 1000),
        _fs(4, 800),
        Slot("fs-sweep", "fs-sweep", {"trials": 300}),
        Slot("swap-check-0", "swap-check", {"trials": 600}),
        Slot("swap-check-1", "swap-check", {"trials": 600}),
    ),
    "analysis": (
        *(_mi("random", 16, 1, 20000, name=f"mi-random-n16-c1-{i}") for i in range(5)),
        _mi("fixed", 16, 1, 60000),
        _mi("random", 8, 4, 30000),
        _mi("fixed", 8, 4, 120000),
        Slot("cpa-0", "cpa", {"n": 12, "N": 8}),
        Slot("cpa-1", "cpa", {"n": 12, "N": 8}),
        Slot("ensemble", "ensemble", {}),
    ),
    "protocol-traffic": (
        _keygen("v0"),
        _keygen("v1"),
        _keygen("v2"),
        _keygen("v3"),
        _roundtrip("v0", 1),
        _roundtrip("v0", 2),
        _roundtrip("v0", 2, 1),
        _roundtrip("v0", 4),
        _roundtrip("v1", 1),
        _roundtrip("v1", 2),
        _roundtrip("v1", 4),
        _roundtrip("v1", 4, 1),
        _roundtrip("v2", 1),
        _roundtrip("v2", 2),
        _roundtrip("v3", 4),
        _cca(4),
        _cca(8),
    ),
}

# The traced run repeats a fixed number of cycles, so that its call counts
# are exact for a seed; analysis adds the MI job of the ROADMAP baseline.
TRACE_CYCLES = {"attack-mc": 2, "analysis": 3, "protocol-traffic": 20}
TRACE_EXTRA_SLOTS = {
    "analysis": (_mi("random", 16, 1, 200000, name="mi-roadmap"),),
}

# Each workload's two headline rates: name, unit, slot kinds that feed it.
RATES = {
    "attack-mc": (
        ("fs_trials_per_s", "trials/s", ("fs-attack", "fs-sweep")),
        ("swap_tests_per_s", "tests/s", ("swap-check",)),
    ),
    "analysis": (
        ("mi_trials_per_s", "trials/s", ("mi",)),
        ("density_jobs_per_s", "jobs/s", ("cpa", "ensemble")),
    ),
    "protocol-traffic": (
        ("roundtrips_per_s", "jobs/s", ("roundtrip",)),
        ("keygens_per_s", "jobs/s", ("keygen",)),
    ),
}


@dataclass
class Job:
    """One generated job: argv for the CLI, or None for a library call."""

    index: int
    slot: Slot
    cycle: int
    argv: list[str] | None
    seed: int
    params: dict
    units: float
    outputs: tuple[Path, ...] = ()


def _scaled(trials: int, smoke: bool) -> int:
    return max(20, trials // 20) if smoke else trials


def pool_argvs(seed: int, workdir: Path) -> list[list[str]]:
    """keygen commands that write the key pool roundtrip jobs read."""
    rng = random.Random(f"{seed}:pool")
    argvs = []
    for variant, (N, precision, permute) in KEY_VARIANTS.items():
        for j in range(POOL_KEYS_PER_VARIANT):
            argv = ["keygen", *precision, "--N", str(N), "--seed", str(rng.getrandbits(62))]
            if permute:
                argv.append("--permute")
            argv += ["--out", str(workdir / f"pool-{variant}-{j}.json")]
            argvs.append(argv)
    return argvs


class JobSource:
    """Deterministic stream of jobs for one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, *, smoke: bool = False,
                 stream: str = "jobs") -> None:
        self.cycle = CYCLES[workload]
        self.workdir = workdir
        self.smoke = smoke
        self._rng = random.Random(f"{seed}:{stream}:{workload}")
        self._next_index = 0
        self._slot_uses: dict[str, int] = {}

    def next_cycle(self) -> list[Job]:
        order = list(self.cycle)
        self._rng.shuffle(order)
        return [self.make(slot) for slot in order]

    def make(self, slot: Slot) -> Job:
        rng = self._rng
        index = self._next_index
        self._next_index += 1
        use = self._slot_uses.get(slot.name, 0)
        self._slot_uses[slot.name] = use + 1
        if slot.kind in MC_KINDS:
            seed = random.Random(f"{MC_SEED_BASE}:{slot.name}:{use}").getrandbits(62)
        else:
            seed = rng.getrandbits(62)
        p = dict(slot.params)
        out = self.workdir
        argv: list[str] | None
        outputs: tuple[Path, ...] = ()
        kind = slot.kind
        if kind == "fs-attack":
            p["trials"] = _scaled(p["trials"], self.smoke)
            path = out / "fs.json"
            argv = ["attack", "--attack", "forward-search", "--alpha", str(p["alpha"]),
                    "--n", "8", "--trials", str(p["trials"]), "--seed", str(seed),
                    "--json", str(path)]
            outputs = (path,)
            units = p["trials"]
        elif kind == "fs-sweep":
            p["trials"] = _scaled(p["trials"], self.smoke)
            sweep_dir = out / "sweep"
            argv = ["sweep", "--experiment", "forward-search", "--alphas",
                    f"{SWEEP_ALPHAS[0]}:{SWEEP_ALPHAS[-1]}", "--trials", str(p["trials"]),
                    "--seed", str(seed), "--out", str(sweep_dir)]
            outputs = (sweep_dir / "sweep-forward-search.csv",)
            units = p["trials"] * len(SWEEP_ALPHAS)
        elif kind == "swap-check":
            p["trials"] = _scaled(p["trials"], self.smoke)
            argv = None
            units = 2 * p["trials"] * len(SWAP_CHECK_OFFSETS)
        elif kind == "mi":
            p["trials"] = _scaled(p["trials"], self.smoke)
            path = out / "mi.json"
            argv = ["analyze", "--mi-strategy", p["strategy"], "--mi-n", str(p["n"]),
                    "--mi-copies", str(p["copies"]), "--trials", str(p["trials"]),
                    "--seed", str(seed), "--json", str(path)]
            outputs = (path,)
            units = p["trials"]
        elif kind == "cpa":
            if self.smoke:
                p.update(n=4, N=2)
            path = out / "cpa.json"
            argv = ["attack", "--attack", "cpa", "--n", str(p["n"]), "--N", str(p["N"]),
                    "--seed", str(seed), "--json", str(path)]
            outputs = (path,)
            units = 1
        elif kind == "ensemble":
            sweep_dir = out / "sweep"
            argv = ["sweep", "--experiment", "ensemble", "--n",
                    f"{ENSEMBLE_NS[0]}:{ENSEMBLE_NS[-1]}", "--seed", str(seed),
                    "--out", str(sweep_dir)]
            outputs = (sweep_dir / "sweep-ensemble.csv",)
            units = 1
        elif kind == "keygen":
            N, precision, permute = KEY_VARIANTS[p["variant"]]
            p.update(N=N, precision=precision, permute=permute)
            path = out / f"fresh-{index % 8}.json"
            argv = ["keygen", *precision, "--N", str(N), "--seed", str(seed)]
            if permute:
                argv.append("--permute")
            argv += ["--out", str(path)]
            outputs = (path,)
            units = 1
        elif kind == "roundtrip":
            N = KEY_VARIANTS[p["variant"]][0]
            bits = N // p["alpha"]
            key = out / f"pool-{p['variant']}-{rng.randrange(POOL_KEYS_PER_VARIANT)}.json"
            p.update(N=N, bits=bits)
            path = out / "roundtrip.json"
            message = "0x" + format(rng.getrandbits(bits), f"0{bits // 4}x")
            argv = ["roundtrip", "--key", str(key), "--message", message,
                    "--alpha", str(p["alpha"]), "--seed", str(seed), "--json", str(path)]
            outputs = (path,)
            units = 1
        elif kind == "cca":
            path = out / "cca.json"
            argv = ["attack", "--attack", "cca", "--n", str(p["n"]), "--N", str(p["N"]),
                    "--k", str(p["k"]), "--seed", str(seed), "--json", str(path)]
            outputs = (path,)
            units = 1
        else:
            raise ValueError(f"unknown job kind {kind!r}")
        return Job(index, slot, use, argv, seed, p, float(units), outputs)


# --- output checks ---


def fs_closed_form(alpha: int, rule: str) -> float:
    """(3/4)^alpha for identify-all, 1/2 + 2^(-alpha-1) for parity-aware."""
    if rule == "identify-all":
        return 0.75**alpha
    return 0.5 + 2.0 ** (-alpha - 1)


def swap_pass_closed_form(offset: int) -> tuple[float, float]:
    """Overlap of the two prepared states and the SWAP-test pass law."""
    overlap = math.cos(math.pi * offset / (1 << SWAP_CHECK_PRECISION))
    return overlap, (1.0 + overlap * overlap) / 2.0


class Tally:
    """Pools of Monte Carlo outcomes per gated cell.

    Rates are gated on the pool of the first GATE_CYCLES cycles' jobs that
    measured the same cell, at the tests' K_SIGMA standard errors.
    """

    def __init__(self) -> None:
        self.cells: dict[tuple, list] = {}  # cell -> [successes, trials, p, job indices]

    def add(self, cell: tuple, successes: int, trials: int, p: float, job: Job) -> None:
        if job.cycle >= GATE_CYCLES:
            return
        entry = self.cells.setdefault(cell, [0, 0, p, []])
        entry[0] += successes
        entry[1] += trials
        entry[3].append(job.index)

    def gate(self) -> list[tuple[tuple, float, float, float, bool, list[int]]]:
        """(cell, rate, closed form, z, passed, jobs) for every pooled cell."""
        rows = []
        for cell, (successes, trials, p, jobs) in sorted(self.cells.items()):
            rate = successes / trials
            stderr = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            z = (rate - p) / stderr
            rows.append((cell, rate, p, z, abs(z) <= K_SIGMA, jobs))
        return rows


def _successes(rate: float, trials: int) -> int | None:
    count = rate * trials
    nearest = round(count)
    return nearest if abs(count - nearest) < 1e-6 else None


def _load_results(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _check_fs_rows(job: Job, rows, alphas, tally: Tally) -> list[str]:
    problems = []
    seen = set()
    trials = job.params["trials"]
    for row in rows:
        alpha, rule = int(row["alpha"]), row["rule"]
        seen.add((alpha, rule))
        if int(row["trials"]) != trials:
            problems.append(f"alpha={alpha} {rule}: {row['trials']} trials, asked {trials}")
            continue
        p = fs_closed_form(alpha, rule)
        if abs(float(row["theory"]) - p) > CLOSED_FORM_TOL:
            problems.append(f"alpha={alpha} {rule}: theory {row['theory']} is not {p}")
        hits = _successes(float(row["success_rate"]), trials)
        if hits is None:
            problems.append(f"alpha={alpha} {rule}: rate {row['success_rate']} is no count")
            continue
        tally.add(("forward-search", alpha, rule), hits, trials, p, job)
    expected = {(a, r) for a in alphas for r in ("identify-all", "parity-aware")}
    if seen != expected:
        problems.append(f"rows {sorted(seen)} differ from {sorted(expected)}")
    return problems


def check_job(job: Job, rc: int, stdout: str, result, tally: Tally) -> list[str]:
    """Problems with one job's output; an empty list means it passed.

    Monte Carlo rates go to the tally and are gated when the run ends.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    kind, p = job.slot.kind, job.params
    if kind == "fs-attack":
        return _check_fs_rows(job, _load_results(job.outputs[0]), (p["alpha"],), tally)
    if kind == "fs-sweep":
        return _check_fs_rows(job, _read_csv(job.outputs[0]), SWEEP_ALPHAS, tally)
    if kind == "swap-check":
        return _check_swap(job, result, tally)
    if kind == "mi":
        return _check_mi(job, _load_results(job.outputs[0])[-1])
    if kind == "cpa":
        (row,) = _load_results(job.outputs[0])
        worst = float(row["success_rate"])
        if not worst < EXACT_TOL:
            return [f"trace distance {worst:.3e} is not below {EXACT_TOL}"]
        return []
    if kind == "ensemble":
        return _check_ensemble(_read_csv(job.outputs[0]))
    if kind == "keygen":
        return _check_keygen(job, stdout)
    if kind == "roundtrip":
        res = _load_results(job.outputs[0])
        problems = []
        if res["match"] is not True or "match=true" not in stdout:
            problems.append("decrypted message does not match")
        if (res["num_bits"], res["alpha"], res["N"]) != (p["bits"], p["alpha"], p["N"]):
            problems.append(f"report {res} does not describe the job")
        return problems
    if kind == "cca":
        return _check_cca(job, _load_results(job.outputs[0]))
    raise ValueError(f"unknown job kind {kind!r}")


def _same(value: float, expected: float) -> bool:
    return value == expected or (math.isnan(value) and math.isnan(expected))


def _check_swap(job: Job, result, tally: Tally) -> list[str]:
    problems = []
    trials = job.params["trials"]
    scenarios = result.scenarios
    if len(scenarios) != len(SWAP_CHECK_OFFSETS):
        return [f"{len(scenarios)} scenarios, expected {len(SWAP_CHECK_OFFSETS)}"]
    for offset, sc in zip(SWAP_CHECK_OFFSETS, scenarios):
        overlap, p = swap_pass_closed_form(offset)
        if sc.trials != trials:
            problems.append(f"offset {offset}: {sc.trials} trials, asked {trials}")
            continue
        if abs(sc.overlap - overlap) > CLOSED_FORM_TOL or abs(sc.predicted_first_pass - p) > CLOSED_FORM_TOL:
            problems.append(f"offset {offset}: overlap or prediction differs from the closed form")
        hits = _successes(sc.first_pass_rate, trials)
        if hits is None:
            problems.append(f"offset {offset}: rate {sc.first_pass_rate} is no count")
            continue
        # The projected pair answers a repeated test deterministically; a
        # conditional rate with no conditioning trials is nan.
        expected_after_pass = 1.0 if hits else math.nan
        expected_after_fail = 0.0 if hits < trials else math.nan
        if not _same(sc.second_pass_given_pass, expected_after_pass):
            problems.append(f"offset {offset}: repeat after a pass gave {sc.second_pass_given_pass}")
        if not _same(sc.second_pass_given_fail, expected_after_fail):
            problems.append(f"offset {offset}: repeat after a fail gave {sc.second_pass_given_fail}")
        tally.add(("swap-law", offset), hits, trials, p, job)
    return problems


def _check_mi(job: Job, record: dict) -> list[str]:
    p = job.params
    params = record["params"]
    strategy = {"random": "random-basis", "fixed": "fixed-basis"}[p["strategy"]]
    if record["quantity"] != "mutual_information" or (
        params["n"], params["copies_per_trial"], params["trials"], params["strategy"]
    ) != (p["n"], p["copies"], p["trials"], strategy):
        return [f"estimate record {record} does not describe the job"]
    value, stderr = record["value_bits"], record["stderr_bits"]
    # Holevo ceiling: one bit per qubit per copy, gated as criterion 6 does.
    ceiling = float(p["copies"])
    if not (math.isfinite(value) and value <= ceiling + K_SIGMA * stderr):
        return [f"estimate {value} bits exceeds the {ceiling:g}-bit ceiling + {K_SIGMA:g} se"]
    return []


def _check_ensemble(rows: list[dict]) -> list[str]:
    problems = []
    if [int(r["n"]) for r in rows] != list(ENSEMBLE_NS):
        return [f"rows cover n={[r['n'] for r in rows]}"]
    for row in rows:
        deviation = float(row["max_abs_deviation"])
        entropy = float(row["entropy_bits"])
        if not deviation < EXACT_TOL:
            problems.append(f"n={row['n']}: ensemble deviates from I/2 by {deviation:.3e}")
        if not abs(entropy - 1.0) < 1e-9:
            problems.append(f"n={row['n']}: ensemble entropy {entropy} is not 1 bit")
    return problems


def _check_keygen(job: Job, stdout: str) -> list[str]:
    p = job.params
    payload = json.loads(job.outputs[0].read_text(encoding="utf-8"))
    n = int(payload["n"])
    lo, hi = (48, 48) if p["precision"][0] == "--n" else (32, 62)
    problems = []
    if not lo <= n <= hi:
        problems.append(f"precision {n} outside [{lo}, {hi}]")
    s = [int(v) for v in payload["s"]]
    if len(s) != p["N"] or not all(0 <= v < (1 << n) for v in s):
        problems.append("key indices do not match N or the precision")
    perm = payload.get("perm")
    if p["permute"] != (perm is not None) or (perm is not None and sorted(perm) != list(range(p["N"]))):
        problems.append("permutation missing, unexpected or malformed")
    if "key_id=" not in stdout:
        problems.append("no key id printed")
    return problems


def _check_cca(job: Job, results: dict) -> list[str]:
    """The oracle accepts exactly the first k submissions; the two refusals
    after them are expected and show in protocol.decrypt.accepted_frac."""
    k = job.params["k"]
    session = results["session"]
    problems = []
    if (session["uses_allowed"], session["uses_consumed"]) != (k, k):
        problems.append(f"session consumed {session['uses_consumed']} of {k} uses")
    if [e["accepted"] for e in results["transcript"]] != [True] * k + [False] * 2:
        problems.append("oracle did not accept exactly the first k submissions")
    return problems
