"""End-to-end command line behavior: exit codes, determinism, output files."""

import csv
import io
import math
import os
import re
import subprocess
import sys

import pytest

from jswsim import cli
from jswsim.cli import main
from jswsim.config import load_config
from jswsim.processes import generate
from jswsim.profiles import iter_profiles


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_simulate_ok(self, capsys):
        code, out, _ = run(["simulate", "--seed", "1", "--horizon", "50"], capsys)
        assert code == 0
        assert "seed 1" in out

    def test_violation_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[compare]\nservers = 3\nservers_small = 2\ncorrupt_step = 5\n")
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "50"], capsys
        )
        assert code == 1
        assert "FAIL" in out and "step 5" in out

    def test_allocation_corrupt_step_is_one_violation(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[compare]\nmode = allocation\nservers = 3\nrank = 2\ncorrupt_step = 5\n"
        )
        out_csv = tmp_path / "v.csv"
        argv = ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "50"]
        code, out, _ = run(argv + ["--out", str(out_csv)], capsys)
        assert code == 1
        assert "seed 1: 51 steps, 1 violations" in out and "step 5" in out
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[1] == "5"

    def test_escaped_exception_is_seventy(self, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        code, _, err = run(["simulate", "--seed", "1", "--horizon", "5"], capsys)
        assert code == cli.EXIT_INTERNAL == 70
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_bad_config_is_two(self, capsys):
        code, _, err = run(["simulate", "--config", "missing.ini"], capsys)
        assert code == 2
        assert "config error" in err

    def test_seed_seeds_conflict_is_two(self, capsys):
        code, _, err = run(["simulate", "--seed", "1", "--seeds", "1 2"], capsys)
        assert code == 2
        assert "mutually exclusive" in err

    def test_bad_trace_is_three(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("1.0 1.0\nbroken line\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[model]\nkind = trace\npath = {trace}\n")
        code, _, err = run(
            ["simulate", "--config", str(cfg), "--seed", "1", "--horizon", "2"], capsys
        )
        assert code == 3
        assert "input error" in err

    def test_unstable_is_four(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nsigma = exponential(0.5)\nxi = exponential(2.0)\n")
        code, _, err = run(["loynes", "--config", str(cfg), "--seed", "1"], capsys)
        assert code == 4
        assert "instability" in err

    def test_non_convergence_is_five_with_estimate(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = exponential(1.0)\nxi = exponential(0.9)\n"
            "[loynes]\nservers = 1\ntolerance = 1e-9\nwindow = 16\nmax_n = 64\n"
        )
        code, out, err = run(["loynes", "--config", str(cfg), "--seed", "12"], capsys)
        assert code == 5
        assert "NOT CONVERGED" in out
        assert "profile=" in out  # the estimate is still printed
        assert "tolerance" in err

    def test_premise_failure_is_six(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[compare]\nmode = allocation\nservers = 3\nrank = 2\n"
            "start = 0 2 2\nstart_alt = 1 1 3\n"
        )
        code, _, err = run(
            ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "10"], capsys
        )
        assert code == 6
        assert "premise" in err


# Inputs that used to escape as a Python traceback with exit 1, the code
# reserved for a found violation, or that were reported only after the run:
# (config file, extra flags, command). Paths are relative to an empty
# directory, so no-such-dir does not exist.
BAD_SETTINGS = {
    "loynes-rank-above-servers": ("[loynes]\nservers = 2\nrank = 3\n", [], "loynes"),
    "loynes-zero-tolerance": ("[loynes]\ntolerance = 0\n", [], "loynes"),
    "loynes-zero-window": ("[loynes]\nwindow = 0\n", [], "loynes"),
    "loynes-max-n-below-window": ("[loynes]\nwindow = 128\nmax_n = 64\n", [], "loynes"),
    "compare-small-above-servers": (
        "[compare]\nservers = 2\nservers_small = 3\n",
        [],
        "compare",
    ),
    "compare-start-wrong-length": (
        "[compare]\nmode = allocation\nservers = 3\nstart = 0 0\n",
        [],
        "compare",
    ),
    "compare-start-not-sorted": (
        "[compare]\nmode = allocation\nservers = 2\nstart_alt = 1 0\n",
        [],
        "compare",
    ),
    "compare-start-alt-negative": (
        "[compare]\nmode = allocation\nservers = 2\nstart_alt = -1 0\n",
        [],
        "compare",
    ),
    "compare-rank-above-servers": (
        "[compare]\nmode = allocation\nservers = 3\nrank = 5\n",
        [],
        "compare",
    ),
    "compare-nan-tolerance": (
        "[compare]\nmode = allocation\ntolerance = nan\ncorrupt_step = 9\n",
        [],
        "compare",
    ),
    "compare-inf-sum-slack": ("[compare]\nsum_slack = inf\n", [], "compare"),
    # the corrupted step must be one of the run's, 0..horizon, from a file or a flag
    "compare-corrupt-step-negative": ("[compare]\ncorrupt_step = -1\n", [], "compare"),
    "compare-corrupt-step-past-horizon": (
        "[run]\nhorizon = 50\n[compare]\ncorrupt_step = 51\n",
        [],
        "compare",
    ),
    "compare-corrupt-step-past-horizon-flag": (
        "[compare]\ncorrupt_step = 50\n",
        ["--horizon", "49"],
        "compare",
    ),
    # Philox takes 64-bit seeds, so any other seed would alias one of them
    "run-seed-negative": ("[run]\nseeds = 1 -1\n", [], "simulate"),
    "run-seed-2-64-flag": ("", ["--seeds", "18446744073709551616"], "loynes"),
    "run-seed-negative-flag": ("", ["--seed", "-1"], "compare"),
    "properties-inf-tolerance": ("[properties]\ntolerance = inf\n", [], "verify-properties"),
    "properties-zero-max-dim": ("[properties]\nmax_dim = 0\n", [], "verify-properties"),
    "properties-zero-instances-flag": ("", ["--instances", "0"], "verify-properties"),
    "simulate-out-unwritable": ("", ["--out", "no-such-dir/sim.csv"], "simulate"),
    "loynes-out-unwritable": ("", ["--out", "no-such-dir/snap.csv"], "loynes"),
    "compare-out-unwritable": ("", ["--out", "no-such-dir/viol.csv"], "compare"),
    "compare-trajectories-unwritable": (
        "[compare]\ntrajectories = no-such-dir/traj.csv\n",
        [],
        "compare",
    ),
    "compare-out-is-trajectories": (
        "[compare]\ntrajectories = same.csv\n",
        ["--out", "./same.csv"],
        "compare",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SETTINGS))
def test_bad_settings_exit_two(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text, flags, command = BAD_SETTINGS[name]
    (tmp_path / "c.ini").write_text(text)
    argv = [command, "--config", "c.ini", *flags]
    # one seed, unless the row's seeds are its bad value
    if command != "verify-properties" and "seed" not in text + " ".join(flags):
        argv += ["--seed", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2, err
    assert "config error" in err
    assert out == ""  # rejected before any work
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


# Runs that fail after their outputs are opened: (config file, extra flags,
# command, exit code). t.txt is a trace whose first line does not parse.
FAILED_RUNS = {
    "simulate-bad-trace": (
        "[model]\nkind = trace\npath = t.txt\n[run]\nhorizon = 2\n",
        ["--out", "sim.csv"],
        "simulate",
        3,
    ),
    "loynes-unstable": (
        "[model]\nsigma = exponential(0.5)\nxi = exponential(2.0)\n[loynes]\nservers = 2\n",
        ["--out", "snap.csv"],
        "loynes",
        4,
    ),
    "compare-premise": (
        "[compare]\nmode = allocation\nservers = 3\nrank = 2\n"
        "start = 0 2 2\nstart_alt = 1 1 3\ntrajectories = traj.csv\n",
        ["--out", "viol.csv"],
        "compare",
        6,
    ),
}


@pytest.mark.parametrize("name", sorted(FAILED_RUNS))
def test_failed_run_leaves_no_output(name, tmp_path, capsys, monkeypatch):
    # A header-only CSV would read like a finished run with no rows.
    monkeypatch.chdir(tmp_path)
    text, flags, command, expected = FAILED_RUNS[name]
    (tmp_path / "c.ini").write_text(text)
    (tmp_path / "t.txt").write_text("x y\n")
    code, _, err = run([command, "--config", "c.ini", "--seed", "1", *flags], capsys)
    assert code == expected, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "t.txt"]


def test_failed_run_keeps_a_symlinked_output(tmp_path, capsys, monkeypatch):
    # The output is written beside the link's target and moved over it only
    # when the run finishes, so a failed run leaves the link and the old bytes.
    monkeypatch.chdir(tmp_path)
    text, _, command, expected = FAILED_RUNS["loynes-unstable"]
    (tmp_path / "c.ini").write_text(text)
    (tmp_path / "target.csv").write_bytes(b"old,bytes\n1,2\n")
    (tmp_path / "link.csv").symlink_to("target.csv")
    code, _, _ = run([command, "--config", "c.ini", "--seed", "1", "--out", "link.csv"], capsys)
    assert code == expected
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == b"old,bytes\n1,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "link.csv", "target.csv"]


def test_finished_run_replaces_a_symlinked_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.csv").write_bytes(b"old,bytes\n")
    (tmp_path / "target.csv").chmod(0o640)
    (tmp_path / "link.csv").symlink_to("target.csv")
    code, _, _ = run(["loynes", "--seed", "1", "--out", "link.csv"], capsys)
    assert code == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_text().startswith("# jswsim loynes snapshots\n")
    assert (tmp_path / "target.csv").stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]
    # a new file gets the permissions open() would give it
    umask = os.umask(0o027)
    try:
        assert run(["loynes", "--seed", "1", "--out", "new.csv"], capsys)[0] == 0
    finally:
        os.umask(umask)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640


def test_device_output_is_written_directly(capsys):
    code, out, _ = run(["loynes", "--seed", "1", "--out", os.devnull], capsys)
    assert code == 0
    assert f"wrote {os.devnull}" in out


class TestDeterminism:
    def test_simulate_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--seeds", "1..3", "--horizon", "40"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--seeds", "1..4", "--horizon", "40"]
        assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(base + ["--jobs", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_loynes_jobs_do_not_change_output(self, tmp_path, capsys):
        # 19 seeds at load 0.9 stop at mixed depths; two blocks of 9 and 10
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = exponential(1.0)\nxi = exponential(1.8)\n"
            "[run]\nseeds = 1..19\n[loynes]\nservers = 2\nwindow = 16\n"
        )
        outputs = []
        for jobs in ("1", "2"):
            snap = tmp_path / f"s{jobs}.csv"
            argv = ["loynes", "--config", str(cfg), "--jobs", jobs, "--out", str(snap)]
            code, out, _ = run(argv, capsys)
            assert code == 0
            outputs.append((out.replace(str(snap), "SNAP"), snap.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len({line.split()[2] for line in outputs[0][0].splitlines()[:19]}) > 1

    def test_compare_jobs_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        outputs = []
        for jobs in ("1", "2"):
            work = tmp_path / jobs
            work.mkdir()
            monkeypatch.chdir(work)
            (work / "c.ini").write_text(
                "[run]\nseeds = 1..4\nhorizon = 30\n"
                "[compare]\nservers = 3\nservers_small = 2\ncorrupt_step = 4\n"
                "trajectories = traj.csv\n"
            )
            argv = ["compare", "--config", "c.ini", "--jobs", jobs, "--out", "viol.csv"]
            code, out, _ = run(argv, capsys)
            assert code == 1
            outputs.append((out, (work / "viol.csv").read_bytes(), (work / "traj.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert "wrote viol.csv (4 violations)" in outputs[0][0]

    def test_csv_has_no_carriage_returns(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        main(["simulate", "--seed", "1", "--horizon", "5", "--out", str(out)])
        capsys.readouterr()
        raw = out.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()
        assert header[5] == "seed,step,w1,w2,total,wait"

    def test_rows_written_seed_sorted(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--seeds", "3 1 2", "--horizon", "5", "--out", str(a)]) == 0
        assert main(["simulate", "--seeds", "1..3", "--horizon", "5", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def reference_simulate_rows(cfg):
    """The header and rows of ``simulate --out``, written by csv.writer with
    every float as repr(float(x)), independently of the command's formatter."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    system = cfg.system
    writer.writerow(["seed", "step", *(f"w{i + 1}" for i in range(system.servers)), "total", "wait"])
    for seed in cfg.seeds:
        marks = generate(cfg.model, seed, cfg.horizon)
        wait = ""
        for step, profile in enumerate(iter_profiles(system.start_profile(), marks, system.rank)):
            fields = [repr(float(x)) for x in profile]
            writer.writerow([seed, step, *fields, repr(float(math.fsum(profile))), wait])
            wait = repr(float(profile[system.rank - 1]))
    return buf.getvalue()


class TestSimulateRows:
    """simulate formats its rows as text blocks of 4096; these compare them
    byte for byte with a csv.writer reference, around the block boundary."""

    def assert_rows_match(self, tmp_path, capsys, text, argv=()):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(text)
        out = tmp_path / "sim.csv"
        code, _, _ = run(["simulate", "--config", str(cfg_path), "--out", str(out), *argv], capsys)
        assert code == 0
        raw = out.read_text()
        rows = "".join(raw.splitlines(keepends=True)[5:])  # past the comment lines
        assert rows == reference_simulate_rows(load_config(str(cfg_path)))
        return out.read_bytes()

    @pytest.mark.parametrize("servers", range(1, 9))
    def test_every_rank_around_the_block_boundary(self, servers, tmp_path, capsys):
        for rank in range(1, servers + 1):
            for horizon in (4095, 4096, 4097):
                self.assert_rows_match(
                    tmp_path,
                    capsys,
                    "[model]\nsigma = exponential(1.0)\nxi = exponential(0.9)\n"
                    f"[run]\nseeds = {rank}\nhorizon = {horizon}\n"
                    f"[system]\nservers = {servers}\nrank = {rank}\n",
                )

    def test_exponent_notation_initial_profile(self, tmp_path, capsys):
        for rank in (1, 2, 3):
            raw = self.assert_rows_match(
                tmp_path,
                capsys,
                "[run]\nseeds = 3 1\nhorizon = 4097\n"
                f"[system]\nservers = 3\nrank = {rank}\ninitial = 0 1e-05 2.5e+16\n",
            )
            assert b"\n3,0,0.0,1e-05,2.5e+16,2.5e+16,\n" in raw

    def test_jobs_give_the_same_bytes(self, tmp_path, capsys):
        text = "[run]\nseeds = 1..3\nhorizon = 4097\n[system]\nservers = 2\nrank = 2\n"
        one = self.assert_rows_match(tmp_path, capsys, text, ["--jobs", "1"])
        two = self.assert_rows_match(tmp_path, capsys, text, ["--jobs", "2"])
        assert one == two

    def test_stdout_does_not_depend_on_out(self, tmp_path, capsys):
        argv = ["simulate", "--seeds", "1 2", "--horizon", "4097"]
        _, without, _ = run(argv, capsys)
        out = tmp_path / "sim.csv"
        _, with_out, _ = run(argv + ["--out", str(out)], capsys)
        assert with_out == without + f"wrote {out}\n"


@pytest.fixture
def pools(monkeypatch):
    """Swap the process pool for one that runs in process and records each
    pool's (max_workers, payloads), with an affinity mask of 3 CPUs."""
    calls = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            calls.append((self.max_workers, payloads))
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return calls


def test_pool_has_no_more_workers_than_payloads(capsys, pools):
    assert list(cli._pool_map(abs, [-1, -2, -3], 2)) == [1, 2, 3]
    code, out, _ = run(["simulate", "--seeds", "1 2", "--horizon", "5", "--jobs", "64"], capsys)
    assert code == 0 and out.count("seed ") == 2
    assert [workers for workers, _ in pools] == [2, 2]


def test_pool_has_no_more_workers_than_cpus(capsys, pools):
    argv = ["--seeds", "1..7", "--jobs", "100000"]
    code, out, _ = run(["simulate", "--horizon", "5", *argv], capsys)
    assert code == 0 and out.count("seed ") == 7
    code, out, _ = run(["loynes", *argv], capsys)
    assert code == 0 and out.count("seed ") == 7
    assert [workers for workers, _ in pools] == [3, 3]
    # loynes splits its seeds into one block per worker
    assert [len(block) for _, block, _, _ in pools[1][1]] == [2, 2, 3]


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert cli._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


class TestOutputs:
    def test_loynes_snapshots(self, tmp_path, capsys):
        snap = tmp_path / "s.csv"
        code, out, _ = run(
            ["loynes", "--seeds", "1 2", "--out", str(snap)], capsys
        )
        assert code == 0
        assert "mean offered wait over 2 seeds" in out
        lines = snap.read_text().splitlines()
        assert "seed,n,coordinate,value" in lines
        assert any(line.startswith("1,64,1,") for line in lines)

    def test_loynes_writes_run_out(self, tmp_path, capsys, monkeypatch):
        # [run] out names the snapshot CSV as --out does; [loynes] has no path key
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.ini").write_text("[run]\nout = file.csv\n")
        argv = ["loynes", "--config", "c.ini", "--seeds", "1 2"]
        assert run(argv, capsys)[0] == 0
        assert run(["loynes", "--seeds", "1 2", "--out", "flag.csv"], capsys)[0] == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
        (tmp_path / "c.ini").write_text("[loynes]\nsnapshots = no.csv\n")
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert "[loynes] snapshots: unknown key" in err
        assert not (tmp_path / "no.csv").exists()

    def test_loynes_wait_is_coordinate_rank(self, tmp_path, capsys):
        # a rank-2 arrival waits for the second least workload
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = exponential(1.0)\nxi = exponential(0.8)\n"
            "[loynes]\nservers = 3\nrank = 2\n"
        )
        code, out, _ = run(["loynes", "--config", str(cfg), "--seed", "2"], capsys)
        assert code == 0
        assert "profile=(0, 0.181814, 0.442202)" in out
        assert "mean offered wait over 1 seeds: 0.181814" in out

    def test_compare_violations_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[compare]\nservers = 2\nservers_small = 1\ncorrupt_step = 3\n")
        out_csv = tmp_path / "v.csv"
        code, _, _ = run(
            [
                "compare",
                "--config",
                str(cfg),
                "--seeds",
                "1 2",
                "--horizon",
                "20",
                "--out",
                str(out_csv),
            ],
            capsys,
        )
        assert code == 1
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "inequality,step,lhs,rhs"
        assert len(lines) == 3  # one corrupted step per seed
        for seed, line in zip((1, 2), lines[1:]):
            assert line.startswith(f"seed{seed}:S2-vs-S1:")
            assert line.split(",")[1] == "3"

    def test_compare_trajectory_dump(self, tmp_path, capsys):
        traj = tmp_path / "t.csv"
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[compare]\nservers = 2\nservers_small = 1\ntrajectories = {traj}\n")
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seeds", "3 4", "--horizon", "10"], capsys
        )
        assert code == 0
        raw = traj.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "step,system,coordinate,value"
        rows = 2 * 11 * (2 + 1)  # seeds x (horizon + 1) x (S_big + S_small)
        assert len(lines) == 1 + rows
        assert f"wrote {traj} ({rows} rows)" in out
        # every value is the repr of the profile coordinate, bit for bit
        model = load_config(str(cfg)).model
        expected = [
            f"{step},seed{seed}:S{servers}P1,{i},{value!r}"
            for seed in (3, 4)
            for servers in (2, 1)
            for step, profile in enumerate(
                iter_profiles((0.0,) * servers, generate(model, seed, 10), 1)
            )
            for i, value in enumerate(profile, start=1)
        ]
        assert lines[1:] == expected

    def test_compare_wait_is_simulate_wait(self, tmp_path, capsys):
        # Each system's mean offered wait is the string simulate prints for
        # that system: coordinate rank over the horizon's arrivals.
        def simulate_wait(servers, rank):
            cfg = tmp_path / "s.ini"
            cfg.write_text(f"[system]\nservers = {servers}\nrank = {rank}\n")
            argv = ["simulate", "--config", str(cfg), "--seed", "1", "--horizon", "2000"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            return re.search(r"mean offered wait (\S+),", out).group(1)

        for section, systems in (
            ("servers = 3\nservers_small = 2\n", [("S3", 3, 1), ("S2", 2, 1)]),
            ("mode = allocation\nservers = 3\nrank = 3\n", [("S3P1", 3, 1), ("S3P3", 3, 3)]),
        ):
            cfg = tmp_path / "c.ini"
            cfg.write_text("[compare]\n" + section)
            argv = ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "2000"]
            code, out, _ = run(argv, capsys)
            assert code == 0
            for label, servers, rank in systems:
                wait = re.search(rf" {label}=(\S+)", out).group(1)
                assert wait == simulate_wait(servers, rank), label

    def test_verify_properties_lines(self, capsys):
        code, out, _ = run(["verify-properties", "--instances", "50"], capsys)
        assert code == 0
        assert out.count("PASS") >= 6
        for name in ("negation-symmetry", "step-comparison"):
            assert f"suite {name}: 50 instances, 0 failures PASS" in out

    def test_env_var_supplies_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseeds = 41\nhorizon = 7\n")
        monkeypatch.setenv("JSWSIM_CONFIG", str(cfg))
        code, out, _ = run(["simulate"], capsys)
        assert code == 0
        assert "seed 41: 7 arrivals" in out

    def test_verify_properties_config_subset(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[properties]\nsuites = convex-battery\ninstances = 25\n")
        code, out, _ = run(["verify-properties", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.count("suite ") == 1


class TestScenarios:
    """End-to-end runs with closed-form or coupling-backed expectations."""

    def test_dd1_under_capacity_waits_are_zero(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = deterministic(0.5)\nxi = deterministic(1.0)\n"
            "[system]\nservers = 1\n"
        )
        out = tmp_path / "t.csv"
        code, _, _ = run(
            [
                "simulate",
                "--config",
                str(cfg),
                "--seed",
                "1",
                "--horizon",
                "200",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        rows = out.read_text().splitlines()[6:]  # past 5 comment lines + header
        waits = [line.rsplit(",", 1)[1] for line in rows]
        assert waits[0] == ""  # step 0 precedes the first arrival
        assert set(waits[1:]) == {"0.0"}

    def test_simulate_million_step_row_count(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nsigma = exponential(1.0)\nxi = exponential(1.0)\n")
        out = tmp_path / "big.csv"
        code, _, _ = run(
            [
                "simulate",
                "--config",
                str(cfg),
                "--seed",
                "7",
                "--horizon",
                "1000000",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        with out.open() as fh:
            total = sum(1 for _ in fh)
        assert total == 5 + 1 + 1_000_001  # comments, header, one row per step

    def test_dd1_loynes_converges_at_first_check(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = deterministic(0.5)\nxi = deterministic(1.0)\n"
            "[loynes]\nservers = 1\n"
        )
        code, out, _ = run(["loynes", "--config", str(cfg), "--seed", "1"], capsys)
        assert code == 0
        assert "seed 1: n=128 converged increment=0 profile=(0)" in out

    def test_mm2_mean_wait_band_over_200_replications(self, tmp_path, capsys):
        # Two unit-rate servers fed by unit-rate arrivals queue a third of
        # the time, for a mean offered wait of 1/3 (Erlang delay formula).
        # Seeds are pinned so the 200-replication mean is a regression
        # value, not a coin flip; 776..975 lands at 0.3335.
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[model]\nsigma = exponential(1.0)\nxi = exponential(1.0)\n"
            "[loynes]\nservers = 2\n"
        )
        code, out, _ = run(["loynes", "--config", str(cfg), "--seeds", "776..975"], capsys)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("mean offered wait")][-1]
        assert line.startswith("mean offered wait over 200 seeds:")
        mean = float(line.rsplit(":", 1)[1])
        assert 0.31 <= mean <= 0.35

    def test_compare_three_vs_two_over_100_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[compare]\nservers = 3\nservers_small = 2\n")
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seeds", "1..100", "--horizon", "1000"],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("PASS: dominance held at every step of every run")

    def test_compare_equal_server_counts_all_equal(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[compare]\nservers = 2\nservers_small = 2\n")
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seed", "5", "--horizon", "100"], capsys
        )
        assert code == 0
        assert "0 violations" in out

    def test_property_sweep_dimension_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[properties]\nmax_dim = 1\ninstances = 400\n")
        code, out, _ = run(["verify-properties", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.count("0 failures PASS") == 6


class TestHelp:
    def test_epilog_lists_config_surface(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for fragment in (
            "simulate",
            "loynes",
            "compare",
            "verify-properties",
            "[model]",
            "sigma_states",
            "corrupt_step",
            "JSWSIM_CONFIG",
            "exponential(RATE)",
        ):
            assert fragment in out, fragment

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jswsim.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "jswsim 0.1.0" in proc.stdout
