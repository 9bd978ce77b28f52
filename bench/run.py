#!/usr/bin/env python3
"""jswsim benchmark: four CLI workloads, end-to-end metrics, per-layer traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the program is imported from the
checkout's ``src/``. Every input (config files, the trace file) is generated
from ``--seed`` before timing starts.

``--trace 0`` runs the workload's ``jswsim`` command as a subprocess with
``--jobs 1``, one child at a time, repeatedly for ``--seconds`` seconds, and
reports the end-to-end metrics as medians over those runs. Times are the
child's CPU time in reference seconds (see ``Calibrator``); peak RSS comes
from ``os.wait4`` on each child.

``--trace 1`` calls ``jswsim.cli.main(argv)`` in this process, alternating an
untraced call with a call under ``spans.SpanTracer``, and reports per-layer
metrics derived from the spans, plus the tracing overhead (traced minus
untraced wall time).

Both modes check every output (exit codes, PASS / converged lines, CSV row
counts, the simulate ``wait`` column against the independent FCFS oracle,
and that all runs print byte-identical output); a run that fails a check
counts in ``failed``. The last stdout line is the JSON result; a fuller
record with the environment and the output digests is written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

SETUP_PER_REP = 3
MIN_REPS = 2
CHILD_TIMEOUT_S = 150.0
CALIBRATION_CHUNK = 256
# Calibration steps per reference second: about the loop's speed on an
# uncontended core of a 2-vCPU x86-64 VM with Python 3.11, so that there a
# reference second is close to a CPU second.
REF_STEPS_PER_S = 600_000

# The `jswsim` console script is `jswsim.cli:main`; this is the same entry.
ENTRY = "import sys\nfrom jswsim.cli import main\nsys.exit(main())\n"
SETUP = (
    "import sys\n"
    "from jswsim.cli import main\n"
    "from jswsim.config import load_config\n"
    "load_config(sys.argv[1])\n"
)

WORKLOADS = ("loynes-heavy", "compare-wide", "simulate-markov-csv", "loynes-trace")
CONFIG = "workload.ini"

END_TO_END = {
    "setup_s": "s",
    "seeds_per_s": "1/s",
    "arrivals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "processes.generate.calls": "count",
    "processes.generate.marks": "count",
    "processes.generate.self_s": "s",
    "processes.generate.ns_per_mark": "ns",
    "processes.trace_reads": "count",
    "processes.trace_read_s": "s",
    "processes.self_s": "s",
    "profiles.pth_step.calls": "count",
    "profiles.pth_step.ns_per_call": "ns",
    "profiles.self_s": "s",
    "loynes.loynes_iterate.self_s": "s",
    "loynes.loynes_iterate.ns_per_step": "ns",
    "loynes.estimate_stationary.calls": "count",
    "loynes.estimate_stationary.p50_ms": "ms",
    "loynes.estimate_stationary.p97_5_ms": "ms",
    "loynes.steps_replayed": "count",
    "loynes.steps_used": "count",
    "loynes.replay_efficiency": "share",
    "loynes.doublings_per_seed": "count",
    "loynes.first_comparison_stop_share": "share",
    "loynes.self_s": "s",
    "wait_bias_z": "sd",
    "orderings.prec_star.calls": "count",
    "orderings.prec_star.ns_per_call": "ns",
    "orderings.self_s": "s",
    "comparison.compare_server_counts.self_s": "s",
    "comparison.steps_checked": "count",
    "comparison.violations": "count",
    "comparison.self_s": "s",
    "config.load_config.s": "s",
    "config.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "cli.out_mb_per_s": "MB/s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    heavy_seeds: int = 4000
    compare_horizon: int = 200_000
    sim_horizon: int = 200_000
    trace_lines: int = 2**18
    trace_window: int = 2**14


FULL = Sizes()


@dataclass(frozen=True)
class Case:
    """One generated workload instance: its CLI argv and what to check.

    The argv names its files relative to ``workdir``, where the command
    runs, so that the output (``wrote simulate.csv``) and its digest do not
    depend on where the checkout lives.
    """

    workload: str
    workdir: Path
    argv: tuple[str, ...]
    seeds: int
    horizon: int
    window: int
    out: Path | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def config(self) -> Path:
        return self.workdir / CONFIG


# ------------------------------------------------------------------ inputs


def prepare(workload: str, seed: int, sizes: Sizes, workdir: Path) -> Case:
    """Write the workload's inputs for ``seed`` into ``workdir``."""
    base = seed * 1_000_000  # jswsim seeds of different workload seeds never overlap
    cfg = workdir / CONFIG
    if workload == "loynes-heavy":
        # iid M/M/2 at load 0.9 per server: many short backward estimations.
        n = sizes.heavy_seeds
        cfg.write_text(
            "[model]\nkind = iid\nsigma = exponential(1.0)\nxi = exponential(1.8)\n"
            f"[run]\nseeds = {base + 1}..{base + n}\n"
            "[loynes]\nservers = 2\nrank = 1\n"
        )
        argv = ("loynes", "--config", CONFIG, "--jobs", "1")
        return Case(workload, workdir, argv, n, 0, 64)
    if workload == "compare-wide":
        # 8 vs 4 servers, load 0.8 on the small system, two long coupled runs.
        h = sizes.compare_horizon
        cfg.write_text(
            "[model]\nkind = iid\nsigma = exponential(1.0)\nxi = exponential(3.2)\n"
            f"[run]\nseeds = {base + 1} {base + 2}\nhorizon = {h}\n"
            "[compare]\nmode = servers\nservers = 8\nservers_small = 4\n"
        )
        argv = ("compare", "--config", CONFIG, "--jobs", "1")
        return Case(workload, workdir, argv, 2, h, 0)
    if workload == "simulate-markov-csv":
        # 2-state Markov-modulated input, forward simulation written to CSV.
        h = sizes.sim_horizon
        cfg.write_text(
            "[model]\nkind = markov\ntransition = 0.99 0.01 / 0.02 0.98\n"
            "sigma_states = exponential(1.0) | exponential(0.5)\n"
            "xi_states = exponential(1.0) | exponential(1.5)\n"
            f"[run]\nseeds = {base + 1} {base + 2}\nhorizon = {h}\n"
            "[system]\nservers = 2\nrank = 1\n"
        )
        argv = ("simulate", "--config", CONFIG, "--jobs", "1", "--out", "simulate.csv")
        return Case(workload, workdir, argv, 2, h, 0, workdir / "simulate.csv")
    if workload == "loynes-trace":
        # One backward estimation on a trace file at load 0.9. The window is
        # large so that every workload seed stops after the same number of
        # depths: the run then times trace parsing, not stopping-rule luck.
        write_trace(workdir / "marks.trace", seed, sizes.trace_lines)
        cfg.write_text(
            "[model]\nkind = trace\npath = marks.trace\n"
            f"[run]\nseeds = {base + 1}\n"
            f"[loynes]\nservers = 2\nrank = 1\nwindow = {sizes.trace_window}\n"
            f"max_n = {sizes.trace_lines}\n"
        )
        argv = ("loynes", "--config", CONFIG, "--jobs", "1")
        return Case(workload, workdir, argv, 1, 0, sizes.trace_window)
    raise ValueError(f"unknown workload {workload!r}")


def write_trace(path: Path, seed: int, lines: int) -> None:
    """Exponential 'sigma xi' pairs, service rate 1 and arrival rate 1.8.

    Streamed with the standard library, so the benchmark process stays small:
    a child's ``ru_maxrss`` also counts the peak RSS of the process that
    spawned it.
    """
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# benchmark trace, seed {seed}\n")
        for _ in range(lines):
            f.write(f"{rng.expovariate(1.0)!r} {rng.expovariate(1.8)!r}\n")


# ------------------------------------------------------------------ checks

SEED_LINE = re.compile(
    r"^seed \d+: n=(\d+) (converged|NOT CONVERGED) increment=\S+ profile=\(([^)]*)\)$"
)
COMPARE_LINE = re.compile(r"^seed \d+: \d+ steps, (\d+) violations, ")


def parse_loynes(stdout: str) -> list[tuple[int, bool, float]]:
    """(steps_used, converged, offered wait) per seed line of `loynes`."""
    rows = []
    for line in stdout.splitlines():
        m = SEED_LINE.match(line)
        if m:
            wait = float(m.group(3).split(",")[0])
            rows.append((int(m.group(1)), m.group(2) == "converged", wait))
    return rows


def check_output(case: Case, code: int, stdout: str) -> list[str]:
    """Correctness gates on one run's exit code and stdout."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if case.command == "loynes":
        rows = parse_loynes(stdout)
        if len(rows) != case.seeds:
            problems.append(f"{len(rows)} seed lines, expected {case.seeds}")
        if not all(conv for _, conv, _ in rows):
            problems.append("a seed did not converge")
    elif case.command == "compare":
        seeds = [COMPARE_LINE.match(line) for line in stdout.splitlines()]
        seeds = [m for m in seeds if m]
        if len(seeds) != case.seeds or any(m.group(1) != "0" for m in seeds):
            problems.append("compare seed lines missing or with violations")
        if "PASS: dominance held at every step of every run" not in stdout:
            problems.append("compare did not print PASS")
    elif case.command == "simulate":
        if stdout.count(f" {case.horizon} arrivals, ") != case.seeds:
            problems.append("simulate seed lines missing")
    return problems


def check_csv(case: Case) -> list[str]:
    """Row count of the simulate CSV and its first seed's wait column
    against ``comparison.fcfs_waiting_times`` on the regenerated marks."""
    from jswsim.comparison import fcfs_waiting_times
    from jswsim.config import load_config
    from jswsim.processes import generate

    cfg = load_config(str(case.config))
    first = cfg.seeds[0]
    rows = 0
    waits = []
    try:
        with open(case.out, newline="") as f:
            reader = csv.reader(line for line in f if not line.startswith("#"))
            next(reader)
            for row in reader:
                rows += 1
                if int(row[0]) == first and row[-1] != "":
                    waits.append(float(row[-1]))
    except (OSError, StopIteration, ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc!r}"]
    problems = []
    if rows != case.seeds * (case.horizon + 1):
        problems.append(f"CSV has {rows} rows, expected {case.seeds * (case.horizon + 1)}")
    oracle = fcfs_waiting_times(generate(cfg.model, first, cfg.horizon), cfg.system.servers)
    if len(waits) != len(oracle):
        problems.append(f"{len(waits)} waits for seed {first}, oracle has {len(oracle)}")
    else:
        worst = max(abs(a - b) for a, b in zip(waits, oracle))
        if worst > 1e-6:
            problems.append(f"wait column differs from the FCFS oracle by {worst!r}")
    return problems


def sha256_file(path: Path) -> str:
    if not path.exists():
        return "missing"
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Ledger:
    """Problems found per attempted run, and the output digests all runs share."""

    def __init__(self) -> None:
        self.runs: list[list[str]] = []
        self.digests: dict[str, str] = {}

    def record(self, problems: list[str], digests: dict[str, str] | None = None) -> None:
        problems = list(problems)
        for key, value in (digests or {}).items():
            expected = self.digests.setdefault(key, value)
            if value != expected:
                problems.append(f"{key} digest {value[:12]} differs from {expected[:12]}")
        self.runs.append(problems)

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.runs if problems)

    @property
    def problems(self) -> list[str]:
        return [p for problems in self.runs for p in problems]


# ------------------------------------------------------------ subprocesses


class Calibrator:
    """Reference loop that measures how fast the CPU is right now.

    On a VM whose host cores other tenants share, CPU speed drifts by up to
    2x over seconds to minutes (measured on a 2-vCPU VM), far more than any
    bound a wall-clock metric could keep. The benchmark therefore pins itself
    and its child to one CPU and runs this loop while the child runs, so both
    get the same share of the same CPU under the same contention; the child's
    CPU time is then scaled by the loop's speed over exactly that interval.
    The loop is a fixed pure-Python workload-profile recursion with the same
    kind of work as the program (small tuples, sorts, float arithmetic) but
    none of its code, so a faster program never speeds up the reference.
    """

    def __init__(self) -> None:
        rng = random.Random(20130125)
        self.marks = [rng.random() for _ in range(1 << 16)]
        self.offset = 0
        self.steps = 0

    def chunk(self) -> None:
        off = self.offset
        u = (0.0, 0.0, 0.0)
        for x in self.marks[off : off + CALIBRATION_CHUNK]:
            vals = [v - 0.3 for v in u]
            vals[0] = (u[0] + x) - 0.3
            u = tuple(sorted(0.0 if v <= 0.0 else v for v in vals))
        self.offset = (off + CALIBRATION_CHUNK) % (len(self.marks) - CALIBRATION_CHUNK)
        self.steps += CALIBRATION_CHUNK


@dataclass(frozen=True)
class Sample:
    """One finished child."""

    code: int
    wall_s: float
    cpu_s: float
    speed: float  # calibration steps per CPU second while the child ran
    ref_s: float  # cpu_s in reference seconds: cpu_s * speed / REF_STEPS_PER_S
    rss_mb: float
    stdout: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("JSWSIM_CONFIG", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], workdir: Path, calibrator: Calibrator) -> Sample:
    """Run one child to completion while the calibrator runs beside it."""
    out_path = workdir / "child.out"
    with open(out_path, "wb") as out, open(workdir / "child.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=workdir)
        steps0, cpu0 = calibrator.steps, time.thread_time()
        reaped = False
        try:
            while not reaped:
                calibrator.chunk()
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                reaped = pid != 0
                if not reaped and time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
        finally:
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        speed = (calibrator.steps - steps0) / (time.thread_time() - cpu0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Sample(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=cpu,
        speed=speed,
        ref_s=cpu * speed / REF_STEPS_PER_S,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
    )


def run_untraced(case: Case, seconds: float, ledger: Ledger) -> dict:
    """Alternate set-up samples (interpreter start, `import jswsim.cli` and
    `load_config`) with runs of the command, so that both see the same
    machine conditions."""
    argv = [sys.executable, "-c", ENTRY, *case.argv]
    setup_argv = [sys.executable, "-c", SETUP, CONFIG]
    calibrator = Calibrator()
    setup: list[Sample] = []
    runs: list[Sample] = []
    stdout = ""
    first_run: list[str] = []  # problems of the first command run
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit it
    try:
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_REPS or time.perf_counter() < deadline:
            for _ in range(SETUP_PER_REP):
                sample = spawn(setup_argv, case.workdir, calibrator)
                ledger.record([] if sample.code == 0 else [f"setup exit code {sample.code}"])
                setup.append(sample)
            sample = spawn(argv, case.workdir, calibrator)
            runs.append(sample)
            digests = {"stdout": hashlib.sha256(sample.stdout).hexdigest()}
            problems = []
            if len(runs) == 1:
                stdout = sample.stdout.decode("utf-8")
                problems = check_output(case, sample.code, stdout)
            elif sample.code != 0:
                problems = [f"exit code {sample.code}"]
            if case.out is not None:
                digests["csv"] = sha256_file(case.out)
            ledger.record(problems, digests)
            if len(runs) == 1:
                first_run = ledger.runs[-1]
    finally:
        os.sched_setaffinity(0, cpus)
    spawner_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The CSV check imports the program and holds its output in this process,
    # so it runs after the last child (see write_trace); every run's CSV has
    # the first run's digest, so the last file stands for the first.
    if case.out is not None and runs[0].code == 0:
        first_run.extend(check_csv(case))
    return {"setup": setup, "runs": runs, "stdout": stdout, "spawner_rss_mb": spawner_rss_mb}


# ------------------------------------------------------------ traced run


def call_main(case: Case) -> tuple[float, int, str]:
    cli = importlib.import_module("jswsim.cli")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(case.workdir)
    try:
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case.argv))
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return wall, code, out.getvalue()


def run_traced(case: Case, seconds: float, ledger: Ledger) -> tuple[dict[str, float], str]:
    """Pairs of untraced and traced in-process calls for ``seconds``; layer
    metrics are medians over the traced calls."""
    from spans import SpanTable, SpanTracer

    untraced, traced, layers = [], [], []
    stdout = ""
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for tracer in (None, SpanTracer()):
            with tracer or nullcontext():
                wall, code, stdout = call_main(case)
            problems = check_output(case, code, stdout)
            digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
            if case.out is not None:
                if not traced and not untraced and code == 0:
                    problems += check_csv(case)
                digests["csv"] = sha256_file(case.out)
            ledger.record(problems, digests)
            if tracer is None:
                untraced.append(wall)
            else:
                traced.append(wall)
                layers.append(layer_metrics(SpanTable(tracer), case, stdout))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    # paired differences cancel the machine's slow speed drift
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return metrics, stdout


def layer_metrics(t, case: Case, stdout: str) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its ``spans.SpanTable``."""
    import numpy as np

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    m: dict[str, float] = {}
    marks = t.value_sum("processes.generate")
    m["processes.generate.calls"] = t.calls("processes.generate")
    m["processes.generate.marks"] = marks
    m["processes.generate.self_s"] = t.self_s("processes.generate")
    m["processes.generate.ns_per_mark"] = per(t.self_s("processes.generate") * 1e9, marks)
    m["processes.trace_reads"] = len(t.trace_reads)
    m["processes.trace_read_s"] = float(t.dur[t.trace_reads].sum()) * 1e-9
    pth = t.calls("profiles.pth_step")
    m["profiles.pth_step.calls"] = pth
    m["profiles.pth_step.ns_per_call"] = per(t.total_s("profiles.pth_step") * 1e9, pth)

    est = t.spans("loynes.estimate_stationary")
    its = t.spans("loynes.loynes_iterate")
    steps = np.array([t.values.get(int(i), 0) for i in its], dtype=np.float64)
    replayed = float(steps.sum())
    used = 0.0
    evaluations = np.zeros(len(est))
    if len(est):
        owner = np.searchsorted(est, t.parent[its])
        evaluations = np.bincount(owner, minlength=len(est)).astype(np.float64)
        # the deepest evaluation is the last one, and spans are in start order
        last = np.full(len(est), -1)
        np.maximum.at(last, owner, np.arange(len(its)))
        used = float(steps[last[last >= 0]].sum())
    est_ms = t.dur[est] * 1e-6
    m["loynes.loynes_iterate.self_s"] = t.self_s("loynes.loynes_iterate")
    m["loynes.loynes_iterate.ns_per_step"] = per(t.total_s("loynes.loynes_iterate") * 1e9, replayed)
    m["loynes.estimate_stationary.calls"] = len(est)
    m["loynes.estimate_stationary.p50_ms"] = float(np.median(est_ms)) if len(est) else 0.0
    m["loynes.estimate_stationary.p97_5_ms"] = (
        float(np.percentile(est_ms, 97.5)) if len(est) else 0.0
    )
    m["loynes.steps_replayed"] = replayed
    m["loynes.steps_used"] = used
    m["loynes.replay_efficiency"] = per(used, replayed)
    m["loynes.doublings_per_seed"] = float(np.mean(evaluations - 1)) if len(est) else 0.0
    m["loynes.first_comparison_stop_share"] = (
        float(np.mean(evaluations == 2)) if len(est) else 0.0
    )
    m["wait_bias_z"] = wait_bias_z(case, stdout)

    star = t.calls("orderings.prec_star")
    m["orderings.prec_star.calls"] = star
    m["orderings.prec_star.ns_per_call"] = per(t.total_s("orderings.prec_star") * 1e9, star)
    m["comparison.compare_server_counts.self_s"] = t.self_s("comparison.compare_server_counts")
    m["comparison.steps_checked"] = t.value_sum("comparison.compare_server_counts")
    m["comparison.violations"] = t.violations
    m["config.load_config.s"] = t.total_s("config.load_config")

    cli_self = t.layer_self_s("cli")
    out_bytes = len(stdout.encode("utf-8"))
    if case.out is not None:
        out_bytes += case.out.stat().st_size
    m["cli.self_s"] = cli_self
    m["cli.out_bytes"] = out_bytes
    m["cli.out_mb_per_s"] = per(out_bytes / 1e6, cli_self)
    for layer in ("processes", "profiles", "orderings", "loynes", "comparison", "config"):
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
    return {k: float(v) for k, v in m.items()}


# ------------------------------------------------------------ metrics


def mmc_mean_wait(servers: int, arrival_rate: float, service_rate: float) -> float:
    """Erlang-C mean wait in queue of the M/M/c queue."""
    a = arrival_rate / service_rate
    top = a**servers / math.factorial(servers) * servers / (servers - a)
    block = top / (sum(a**k / math.factorial(k) for k in range(servers)) + top)
    return block / (servers * service_rate - arrival_rate)


def wait_bias_z(case: Case, stdout: str) -> float:
    """|exact M/M/2 mean wait - mean estimate| / standard error (loynes-heavy)."""
    if case.workload != "loynes-heavy":
        return 0.0
    waits = [w for _, _, w in parse_loynes(stdout)]
    if len(waits) < 2:
        return 0.0
    se = statistics.stdev(waits) / math.sqrt(len(waits))
    return abs(mmc_mean_wait(2, 1.8, 1.0) - math.fsum(waits) / len(waits)) / se


def arrivals(case: Case, stdout: str) -> int:
    """Arrivals the command steps through: seeds x horizon, or for `loynes`
    every customer replayed over all depths (n = window .. steps_used)."""
    if case.command == "loynes":
        return sum(2 * n - case.window for n, _, _ in parse_loynes(stdout))
    return case.seeds * case.horizon


def environment(start_load: float) -> dict:
    import numpy as np

    from jswsim.processes import RNG_ALGORITHM

    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if probe.returncode == 0:
                commit = probe.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "jswsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "rng_algorithm": RNG_ALGORITHM,
        "loadavg_1m_start": start_load,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one benchmark pass and return the full record."""
    start_load = os.getloadavg()[0]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        case = prepare(workload, seed, sizes, workdir)
        ledger = Ledger()
        extra: dict = {}
        if trace:
            metrics, stdout = run_traced(case, seconds, ledger)
            units = PER_LAYER
        else:
            res = run_untraced(case, seconds, ledger)
            stdout = res["stdout"]
            work = arrivals(case, stdout)
            runs = res["runs"]
            metrics = {
                "setup_s": statistics.median(s.ref_s for s in res["setup"]),
                "seeds_per_s": statistics.median(case.seeds / s.ref_s for s in runs),
                "arrivals_per_s": statistics.median(work / s.ref_s for s in runs),
                "peak_rss_mb": statistics.median(s.rss_mb for s in runs),
            }
            units = END_TO_END
            extra = {
                "arrivals_per_run": work,
                "wall_s_median": statistics.median(s.wall_s for s in runs),
                "cpu_s_median": statistics.median(s.cpu_s for s in runs),
                "ref_s_median": statistics.median(s.ref_s for s in runs),
                # a child's ru_maxrss is at least its spawner's peak RSS
                "spawner_peak_rss_mb": res["spawner_rss_mb"],
                "samples": {
                    name: [[s.wall_s, s.cpu_s, s.speed, s.ref_s, s.rss_mb] for s in samples]
                    for name, samples in (("command", runs), ("setup", res["setup"]))
                },
                "sample_columns": ["wall_s", "cpu_s", "speed", "ref_s", "rss_mb"],
            }
        if case.workload == "loynes-heavy":
            extra["wait_bias_z"] = wait_bias_z(case, stdout)
        extra["error_rate"] = ledger.failed / ledger.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(start_load),
        "digests": ledger.digests,
        "problems": ledger.problems[:20],
        "extra": extra,
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "jswsim" / "cli.py").is_file():
        print(f"no jswsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    print(
        f"{args.workload} seed {args.seed}: "
        f"{result['attempted']} runs, {result['failed']} failed"
    )
    for key, metric in result["metrics"].items():
        print(f"  {key:42s} {metric['value']:.6g} {metric['unit']}")
    extra = record["extra"]
    print(f"  {'error_rate':42s} {extra['error_rate']:.6g} share")
    if not args.trace:
        if "wait_bias_z" in extra:
            print(f"  {'wait_bias_z':42s} {extra['wait_bias_z']:.6g} sd")
        print(
            f"  median command run: {extra['ref_s_median']:.4g} reference s, "
            f"{extra['cpu_s_median']:.4g} CPU s, {extra['wall_s_median']:.4g} wall s "
            "(the calibration loop shares its CPU)"
        )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("digests " + json.dumps(record["digests"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
