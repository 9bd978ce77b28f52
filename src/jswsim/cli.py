"""Command line front end.

Subcommands:

    simulate       run forward trajectories, optionally dumping a CSV
    loynes         backward stationary-profile estimation, all seeds in lockstep
    compare        coupled-path dominance checks (server counts or ranks)
    verify-properties  randomized checks of the ordering closure properties

Exit codes: 0 success, 1 violation or counterexample found, 2 bad
configuration, 3 bad input data, 4 the offered load is not subcritical,
5 the backward iteration hit max_n without converging (the estimate is
still printed), 6 a comparison premise does not hold, 70 an internal error
(any other exception; its traceback goes to stderr).

Every output file is a CSV written by this module. Each one is opened
before the run starts, so an unwritable path is a configuration error, and
its rows are written as the results arrive, to a new file that replaces the
named one only when the command finishes. Floats are written as repr
writes them (shortest round-trip; the rows of simulate and of the compare
trajectories through jswsim._rows, whose bytes are repr's), line endings
are LF and nothing depends on the clock, so a rerun with the same
configuration is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import shutil
import stat
import sys
import tempfile
import traceback
from dataclasses import replace

import numpy as np

from . import __version__
from .comparison import compare_allocation_ranks, compare_server_counts
from .config import CONFIG_ENV_VAR, CONFIG_HELP, ExperimentConfig, load_config
from .errors import ConfigError, InputError, PremiseError, StabilityError
from .loynes import _blocks, _require_seed_count, estimate_stationary_many
from .orderings import run_property_suite
from .processes import RNG_ALGORITHM, generate, generate_forward, model_label
from .profiles import _OfferedWait, _block_columns, _path_chunks, _slices

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_UNSTABLE = 4
EXIT_NO_CONVERGENCE = 5
EXIT_PREMISE = 6
EXIT_INTERNAL = 70


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _workers(jobs: int, tasks: int) -> int:
    """The worker processes for ``tasks`` tasks: at most ``jobs``, the tasks
    and the usable CPUs."""
    return min(jobs, tasks, _usable_cpus())


def _pool_map(fn, payloads, jobs):
    """Yield ``fn(p)`` for each payload, in order, as the results arrive."""
    workers = _workers(jobs, len(payloads))
    if workers <= 1:
        yield from map(fn, payloads)
        return
    # Imported here: importing concurrent.futures.process takes about 27 ms,
    # which a one-worker run never needs. executor.map keeps submission
    # order, so parallel output is identical to the sequential one. A forked
    # pool starts all its workers at the first submit, so it gets no more
    # than payloads or usable CPUs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, payloads)


def _spooled(fn, spool, payload):
    """A pool worker's ``fn``: write the rows to a new file in ``spool``; return
    the result and the file's path, so the seed's text stays out of the parent."""
    fd, path = tempfile.mkstemp(suffix=".csv", dir=spool)
    with open(fd, "w", encoding="utf-8", newline="") as f:
        return fn(payload, f), path


def _binary(f):
    """The binary buffer of the open text file ``f``, once ``f`` has passed
    on what its text layer holds, so that bytes written to the buffer
    follow the comment lines and the header."""
    f.flush()
    return f.buffer


def _run_seeds(fn, payloads, jobs, out):
    """Yield ``fn(p, out)`` for each payload, in order, as the results
    arrive: ``fn`` writes the seed's rows to the open CSV ``out``, if any.
    One worker passes ``out`` itself. A pool worker writes to a file of its
    own (:func:`_spooled`) in a directory that goes, with whatever it still
    holds, when the run ends; the parent appends each file to ``out`` in
    seed order and deletes it."""
    if out is None or _workers(jobs, len(payloads)) <= 1:
        yield from _pool_map(functools.partial(fn, out=out), payloads, jobs)
        return
    with tempfile.TemporaryDirectory(prefix="jswsim-") as spool:
        # closed first, so no worker still writes when the directory goes
        results = _pool_map(functools.partial(_spooled, fn, spool), payloads, jobs)
        with contextlib.closing(results):
            binary = _binary(out)
            for result, path in results:
                with open(path, "rb") as rows:
                    shutil.copyfileobj(rows, binary)
                os.unlink(path)
                yield result


def _fmt(x: float) -> str:
    return repr(float(x))


def _open_out(path: str):
    """Open the output ``path``; return the file and the (written, final)
    paths :func:`_close_out` moves it between, or None if it is written in
    place.

    A regular file (or a path that does not exist yet) is written to a new
    file in the directory of its real path, so a symlink stays a symlink and
    the old bytes stay until the run has finished. Anything else, such as
    /dev/null or a FIFO, is written directly. So is the file stdout writes
    to (``/dev/stdout`` into a pipe or a redirected file): it is written
    through stdout's own descriptor, after what stdout holds so far, and
    stdout's later lines follow it.
    """
    target = os.path.realpath(path)
    try:
        # stat follows a /proc/self/fd link, whose realpath may not exist
        status = os.stat(path)
    except OSError:
        status = None
    try:
        is_stdout = status is not None and os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # stdout is not backed by a file
        is_stdout = False
    try:
        if is_stdout:
            sys.stdout.flush()
            return open(os.dup(sys.stdout.fileno()), "w", encoding="utf-8", newline=""), None
        if status is not None and not stat.S_ISREG(status.st_mode):
            return open(path, "w", encoding="utf-8", newline=""), None
        fd, tmp = tempfile.mkstemp(
            prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
        )
        if status is not None:
            mode = stat.S_IMODE(status.st_mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.fchmod(fd, mode)  # mkstemp's 0600 would hide the file
        return open(fd, "w", encoding="utf-8", newline=""), (tmp, target)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def _close_out(f, move, exc_type, exc, tb) -> None:
    """Close ``f``. If it was written to ``tmp`` for ``target`` (``move``),
    it replaces ``target`` when the command finished and is deleted when an
    exception is unwinding it, so a failed run leaves the old file, or none,
    but never a partial one."""
    f.close()
    if move is None:
        return
    tmp, target = move
    if exc_type is None:
        os.replace(tmp, target)
    else:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _open_csv(stack: contextlib.ExitStack, path: str, columns, comments=()):
    """Open ``path`` on ``stack``, write the ``# `` comment lines and the
    column header, and return the file for the rows. The file is put in
    place when ``stack`` unwinds (see :func:`_close_out`).

    Every row is its fields joined by "," and ended by a newline. No field
    needs quoting: each one is a program-built int, label or float repr.
    """
    f, move = _open_out(path)
    stack.push(functools.partial(_close_out, f, move))
    f.writelines(f"# {line}\n" for line in comments)
    f.write(",".join(columns) + "\n")
    return f


def _provenance(title: str, cfg: ExperimentConfig) -> list[str]:
    """The comment lines that open the simulate and loynes CSVs."""
    return [f"jswsim {title}", f"model: {model_label(cfg.model)}", f"rng: {RNG_ALGORITHM}"]


# ---------------------------------------------------------------- simulate


def _total_cells(path):
    """The ``total`` of each profile of ``path``, an ``(S, n)`` array whose
    columns are profiles past step 0: ``math.fsum`` of its column, as a
    float array.

    A profile past step 0 is nondecreasing and each zero in it is +0.0, so
    one with at most two nonzero coordinates (S <= 2 or coordinate S - 2
    zero) sums to the sum of its last two, one IEEE add, rounded correctly
    as ``fsum`` rounds; with at most one, that add gives coordinate S, bit
    for bit, whose cell :class:`~jswsim._rows.SimulateRows` then copies.
    The other profiles, and those whose add is not finite, go through
    ``fsum``, which raises on an overflow.
    """
    if len(path) == 1:
        return path[0].copy()
    with np.errstate(over="ignore"):
        totals = path[-2] + path[-1]
    rest = ~np.isfinite(totals)
    if len(path) > 2:
        rest |= path[-3] != 0.0
    rest = np.flatnonzero(rest)
    totals[rest] = [math.fsum(profile) for profile in path[:, rest].T.tolist()]
    return totals


def _sim_one(payload, out=None):
    """Step one seed; return it, its mean offered wait and its final total
    workload. Given the open CSV ``out``, format its rows, one
    :func:`~jswsim.profiles._path_chunks` block at a time, and write each
    block's bytes to ``out``'s binary buffer as soon as it is formatted.

    The marks are drawn by :func:`~jswsim.processes.generate_forward`, one
    walk chunk at a time, just before they are stepped, so that memory does
    not grow with the horizon. Each float cell is the ``repr`` of a
    coordinate, or of the exactly rounded sum of a profile (see
    :func:`_total_cells`; step 0 goes through ``fsum``, which sums a -0.0
    start to 0.0), byte for byte. :class:`~jswsim._rows.SimulateRows`
    formats a cell only when its text is not known: a +0.0 is a constant
    cell, a total with its coordinate S's bits a copy of that cell, and
    :func:`~jswsim._rows.float_slots` formats the rest of a block together
    with numpy, finding the digits of each value from 1e-4 up to 1e16
    itself and taking every other value's from ``repr``."""
    model, seed, horizon, system = payload
    draw = functools.partial(generate_forward, model, seed, horizon)
    name = f"seed {seed}: {system.label}"
    wait = _OfferedWait(system.rank, horizon, name)
    if out is not None:
        # imported here, as only a run that writes rows needs it
        from ._rows import SimulateRows

        rows = SimulateRows(seed, horizon, system, _block_columns(horizon))
        write = _binary(out).write
    for step, path in _path_chunks(system.start_profile(), draw, system.rank, name):
        wait.add(step, path)
        if out is not None:
            totals = _total_cells(path)
            if step == 0:  # fsum sums a -0.0 start to 0.0
                totals[0] = math.fsum(path[:, 0].tolist())
            write(rows.block(step, path, totals))
    return seed, wait.mean, math.fsum(path[:, -1].tolist())


def cmd_simulate(cfg: ExperimentConfig) -> int:
    system = cfg.system
    payloads = [(cfg.model, s, cfg.horizon, system) for s in cfg.seeds]
    with contextlib.ExitStack() as stack:
        out = None
        if cfg.out is not None:
            out = _open_csv(
                stack,
                cfg.out,
                ["seed", "step", *(f"w{i + 1}" for i in range(system.servers)), "total", "wait"],
                [
                    *_provenance("simulate", cfg),
                    f"servers: {system.servers} rank: {system.rank}",
                    f"seeds: {' '.join(str(s) for s in cfg.seeds)}",
                ],
            )
        summary = list(_run_seeds(_sim_one, payloads, cfg.jobs, out))
    for seed, mean_wait, final_total in summary:
        print(
            f"seed {seed}: {cfg.horizon} arrivals, mean offered wait {mean_wait:.6g}, "
            f"final total workload {final_total:.6g}"
        )
    if cfg.out is not None:
        print(f"wrote {cfg.out}")
    return EXIT_OK


# ------------------------------------------------------------------ loynes


def _loynes_block(payload):
    model, seeds, settings, keep_history = payload
    return estimate_stationary_many(
        model,
        seeds,
        settings.servers,
        rank=settings.rank,
        tolerance=settings.tolerance,
        window=settings.window,
        max_n=settings.max_n,
        keep_history=keep_history,
    )


def cmd_loynes(cfg: ExperimentConfig) -> int:
    try:
        _require_seed_count(cfg.model, cfg.seeds)
    except ValueError as exc:
        raise ConfigError(f"[run] seeds: {exc}") from exc
    settings = cfg.loynes
    keep = cfg.out is not None
    # One lockstep estimation per worker, over a contiguous block of seeds.
    blocks = _blocks(cfg.seeds, _workers(cfg.jobs, len(cfg.seeds)))
    payloads = [(cfg.model, block, settings, keep) for block in blocks]
    lines = []
    waits = []
    all_converged = True
    with contextlib.ExitStack() as stack:
        out = None
        if keep:
            out = _open_csv(
                stack,
                cfg.out,
                ["seed", "n", "coordinate", "value"],
                _provenance("loynes snapshots", cfg),
            )
        estimates = itertools.chain.from_iterable(_pool_map(_loynes_block, payloads, cfg.jobs))
        for seed, res in zip(cfg.seeds, estimates):
            state = "converged" if res.converged else "NOT CONVERGED"
            all_converged &= res.converged
            inc = "inf" if math.isinf(res.last_increment) else f"{res.last_increment:.3g}"
            prof = "(" + ", ".join(f"{x:.6g}" for x in res.profile) + ")"
            lines.append(f"seed {seed}: n={res.steps_used} {state} increment={inc} profile={prof}\n")
            # the wait of an arrival routed to coordinate rank, as in simulate
            waits.append(res.profile[settings.rank - 1])
            if out is not None:
                out.writelines(
                    f"{seed},{n},{j},{_fmt(value)}\n"
                    for n, profile in res.history
                    for j, value in enumerate(profile, start=1)
                )
        try:  # in the stack, so that a failed mean leaves no CSV
            mean = math.fsum(waits) / len(waits)
        except OverflowError:
            raise InputError(f"the mean over {len(waits)} seeds passes the largest float") from None
    lines.append(f"mean offered wait over {len(waits)} seeds: {mean:.6g}\n")
    if keep:
        lines.append(f"wrote {cfg.out}\n")
    sys.stdout.write("".join(lines))  # one write for all of them
    if not all_converged:
        print(
            f"tolerance {settings.tolerance:g} not reached by n={settings.max_n}; "
            "estimates above are the last iterates",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ----------------------------------------------------------------- compare


def _compare_one(payload, out=None):
    """Check one seed; return it and its report. Given the open CSV ``out``,
    write both systems' trajectories from the marks just checked, one
    step, system, coordinate, value row per profile coordinate, a block of
    :func:`~jswsim.profiles._path_chunks` at a time."""
    model, seed, horizon, settings = payload
    marks = generate(model, seed, horizon)
    first, second = settings.systems()
    try:  # a run past the largest float names its system and step; add the seed
        if settings.mode == "servers":
            report = compare_server_counts(
                first.servers, second.servers, marks, sum_slack=settings.sum_slack
            )
        else:
            report = compare_allocation_ranks(
                first.servers,
                second.rank,
                first.start_profile(),
                second.start_profile(),
                marks,
                tol=settings.tolerance,
            )
    except InputError as exc:
        raise InputError(f"seed {seed}: {exc}") from None
    if out is not None:
        from ._rows import TrajectoryRows  # as in _sim_one

        columns = _block_columns(len(marks))
        write = _binary(out).write
        for system in (first, second):
            start = system.start_profile()
            rows = TrajectoryRows(f"seed{seed}:{system.label}", len(start), len(marks), columns)
            for step, path in _path_chunks(start, _slices(marks), system.rank, system.label):
                write(rows.block(step, path))
    return seed, report


def cmd_compare(cfg: ExperimentConfig) -> int:
    settings = cfg.compare
    paths = [p for p in (cfg.out, settings.trajectories) if p is not None]
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ConfigError(f"--out and [compare] trajectories both name {cfg.out!r}")
    payloads = [(cfg.model, s, cfg.horizon, settings) for s in cfg.seeds]
    servers = sum(system.servers for system in settings.systems())
    lines = []
    total_violations = rows = 0
    with contextlib.ExitStack() as stack:
        violations = trajectories = None
        if cfg.out is not None:
            violations = _open_csv(stack, cfg.out, ["inequality", "step", "lhs", "rhs"])
        if settings.trajectories is not None:
            trajectories = _open_csv(
                stack, settings.trajectories, ["step", "system", "coordinate", "value"]
            )
        results = _run_seeds(_compare_one, payloads, cfg.jobs, trajectories)
        for seed, report in stack.enter_context(contextlib.closing(results)):
            total_violations += len(report.violations)
            rows += report.steps_checked * servers
            label_a, label_b = report.systems
            waits = report.mean_offered_wait
            lines.append(
                f"seed {seed}: {report.steps_checked} steps, {len(report.violations)} violations, "
                f"mean offered wait {label_a}={waits[0]:.6g} {label_b}={waits[1]:.6g}"
            )
            for v in report.violations[:5]:
                lines.append(f"  step {v.step} {v.inequality}: {v.lhs!r} vs {v.rhs!r}")
            if len(report.violations) > 5:
                lines.append(f"  ... {len(report.violations) - 5} more")
            if violations is not None:
                context = f"seed{seed}:{label_a}-vs-{label_b}"
                violations.writelines(
                    f"{context}:{v.inequality},{v.step},{_fmt(v.lhs)},{_fmt(v.rhs)}\n"
                    for v in report.violations
                )
    for line in lines:
        print(line)
    if cfg.out is not None:
        print(f"wrote {cfg.out} ({total_violations} violations)")
    if settings.trajectories is not None:
        print(f"wrote {settings.trajectories} ({rows} rows)")
    if total_violations:
        print(f"FAIL: {total_violations} dominance violations")
        return EXIT_VIOLATION
    print("PASS: dominance held at every step of every run")
    return EXIT_OK


# ----------------------------------------------------------- verify-properties


def cmd_verify_properties(cfg: ExperimentConfig) -> int:
    settings = cfg.properties
    failed = 0
    for name in settings.suites:
        report = run_property_suite(
            name,
            settings.instances,
            max_dim=settings.max_dim,
            seed=settings.seed,
            tol=settings.tolerance,
        )
        state = "PASS" if report.passed else "FAIL"
        print(f"suite {name}: {report.instances} instances, {report.failures} failures {state}")
        for descr in report.counterexamples:
            print(f"  counterexample: {descr}")
        failed += not report.passed
    if failed:
        print(f"FAIL: {failed} suite(s) produced counterexamples")
        return EXIT_VIOLATION
    print("PASS: all suites clean")
    return EXIT_OK


# -------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jswsim",
        description="simulate and verify parallel queues under "
        "least-workload allocation",
        epilog=CONFIG_HELP
        + f"\nthe environment variable {CONFIG_ENV_VAR} names a default config file\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p, horizon=True, out_help="CSV output path"):
        p.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, help="run a single seed")
        p.add_argument("--seeds", help="seed list, e.g. '1 2 10..20'")
        p.add_argument("--jobs", type=int, help="worker processes across seeds")
        if horizon:
            p.add_argument("--horizon", type=int, help="customers per run")
        p.add_argument("--out", help=out_help)

    p_sim = sub.add_parser("simulate", help="forward trajectories")
    common(p_sim, out_help="wide trajectory CSV (seed,step,w1..wS,total,wait)")
    p_sim.set_defaults(func=cmd_simulate)

    p_loy = sub.add_parser("loynes", help="backward stationary estimates")
    common(p_loy, horizon=False, out_help="per-doubling snapshot CSV")
    p_loy.set_defaults(func=cmd_loynes)

    p_cmp = sub.add_parser("compare", help="coupled dominance checks")
    common(p_cmp, out_help="violations CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_lem = sub.add_parser("verify-properties", help="ordering closure checks")
    p_lem.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    p_lem.add_argument("--seed", type=int, help="sampler seed")
    p_lem.add_argument("--instances", type=int, help="instances per suite")
    p_lem.set_defaults(func=cmd_verify_properties)

    return parser


def _configure(args: argparse.Namespace) -> ExperimentConfig:
    # verify-properties has its own --seed (the sampler seed), handled below.
    seeds = getattr(args, "seeds", None)
    if args.func is not cmd_verify_properties and getattr(args, "seed", None) is not None:
        if seeds is not None:
            raise ConfigError("--seed and --seeds are mutually exclusive")
        seeds = str(args.seed)
    cfg = load_config(
        args.config,
        seeds=seeds,
        horizon=getattr(args, "horizon", None),
        jobs=getattr(args, "jobs", None),
        out=getattr(args, "out", None),
    )
    if args.func is cmd_verify_properties:
        props = cfg.properties
        if args.seed is not None:
            props = replace(props, seed=args.seed)
        if args.instances is not None:
            props = replace(props, instances=args.instances)
        cfg = replace(cfg, properties=props)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configure(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except PremiseError as exc:
        print(f"premise not satisfied: {exc}", file=sys.stderr)
        return EXIT_PREMISE
    except Exception:
        # exit 1 means an inequality failed, never that the program did
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
