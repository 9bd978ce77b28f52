"""End-to-end command line behavior: exit codes, determinism, output files."""

import concurrent.futures
import contextlib
import csv
import gzip
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jswsim import cli, profiles
from jswsim.cli import main
from jswsim.config import load_config
from jswsim.errors import InputError
from jswsim.orderings import suite_names
from jswsim.processes import TraceModel, generate
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
        # a negative slack makes two empty systems' equal totals fail
        cfg.write_text("[compare]\nservers = 3\nservers_small = 2\nsum_slack = -0.05\n")
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "50"], capsys
        )
        assert code == 1
        assert "FAIL" in out and "step 0 total: 0.0 vs 0.0" in out

    def test_allocation_corrupt_step_is_one_violation(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        # the starts meet the premise at the negative tolerance, the path does not
        cfg.write_text(
            "[compare]\nmode = allocation\nservers = 3\nrank = 2\n"
            "start = 0 2 2\nstart_alt = 1 3 3\ntolerance = -0.05\n"
        )
        out_csv = tmp_path / "v.csv"
        argv = ["compare", "--config", str(cfg), "--seed", "1", "--horizon", "50"]
        code, out, _ = run(argv + ["--out", str(out_csv)], capsys)
        assert code == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert f"seed 1: 51 steps, {len(rows)} violations" in out and rows
        assert all(row.startswith("seed1:S3P1-vs-S3P2:") for row in rows)
        steps = [int(row.split(",")[1]) for row in rows]
        assert steps == sorted(set(steps)) and steps[-1] <= 50

    @pytest.mark.parametrize("suite", suite_names())
    def test_negative_property_tolerance_is_never_six(self, suite, tmp_path, capsys):
        # exit 6 is for starts the user gave; a sampled instance whose
        # premise fails under the tightened tolerance is a counterexample
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[properties]\nsuites = {suite}\ntolerance = -0.01\n")
        argv = ["verify-properties", "--config", str(cfg), "--instances", "300"]
        code, out, err = run(argv, capsys)
        assert code in (0, 1) and err == "", (code, err)
        if suite in ("clamp-insert-stability", "step-comparison"):
            assert code == 1 and "(premise not satisfied: inputs are not ordered by" in out

    def test_negative_property_tolerance_counts(self, tmp_path, capsys):
        # at a negative tolerance the balance order holds for no pair:
        # sorted-difference, which asks for it, fails every instance, and
        # negation-symmetry, which asks that two verdicts agree, passes every one
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            "[properties]\nsuites = sorted-difference negation-symmetry\ntolerance = -0.01\n"
        )
        argv = ["verify-properties", "--config", str(cfg), "--instances", "3000", "--seed", "5"]
        code, out, _ = run(argv, capsys)
        assert code == 1
        assert "suite sorted-difference: 3000 instances, 3000 failures FAIL" in out
        assert "suite negation-symmetry: 3000 instances, 0 failures PASS" in out

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

    def test_config_not_utf8_is_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(b"# \xff\xfe\n[run]\nseeds = 1\n")
        code, out, err = run(["simulate", "--config", str(cfg), "--horizon", "5"], capsys)
        assert code == 2
        assert err.startswith(f"config error: cannot read config file {str(cfg)!r}: ")
        assert "Traceback" not in err
        assert out == ""

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

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \n"], ids=["empty", "comments"])
    def test_trace_without_marks_is_three(self, tmp_path, text):
        # a separate interpreter, so that any warning would reach its stderr
        trace = tmp_path / "t.txt"
        trace.write_text(text)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[model]\nkind = trace\npath = {trace}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "jswsim.cli", "loynes", "--config", str(cfg), "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"input error: trace {str(trace)!r} is empty\n"

    # Given a path rather than a file object, numpy's reader would open
    # m.trace.gz for a missing m.trace and decompress a .gz name.
    @pytest.mark.parametrize("kind", ["missing-beside-gz", "gzip-named-gz"])
    def test_trace_is_the_named_text_file(self, kind, tmp_path, capsys):
        gz = tmp_path / "m.trace.gz"
        text = "".join(f"{0.5 + k % 3 / 4} 1.5\n" for k in range(256))
        gz.write_bytes(gzip.compress(text.encode()))
        trace = tmp_path / "m.trace" if kind == "missing-beside-gz" else gz
        why = "No such file" if kind == "missing-beside-gz" else "'utf-8' codec can't decode"
        with pytest.raises(InputError, match=f"cannot read trace file .*: .*{why}"):
            TraceModel(str(trace))._columns
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[model]\nkind = trace\npath = {trace}\n")
        code, out, err = run(["loynes", "--config", str(cfg), "--seed", "1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"input error: cannot read trace file {str(trace)!r}: ")

    # A trace column whose sum passes the largest float is refused by every
    # command (each of these exited 70, or 0 with an inf mean wait, before).
    @pytest.mark.parametrize(
        "argv, line, lines, keys",
        [
            (["loynes"], "1e308 1e308", 2, "[loynes]\nservers = 2\nwindow = 1\nmax_n = 2\n"),
            (["simulate", "--out", "sim.csv"], "1e308 1e300", 4, "[run]\nhorizon = 4\n"),
            (["simulate"], "1e308 1e300", 4, "[run]\nhorizon = 4\n"),
            (
                ["compare"],
                "1e308 1e300",
                4,
                "[run]\nhorizon = 4\n[compare]\nservers = 2\nservers_small = 1\n",
            ),
        ],
        ids=["loynes", "simulate-out", "simulate", "compare"],
    )
    def test_trace_sum_past_the_largest_float_is_three(
        self, argv, line, lines, keys, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "t.txt"
        trace.write_text(f"{line}\n" * lines)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[model]\nkind = trace\npath = {trace}\n{keys}")
        code, out, err = run([argv[0], "--config", str(cfg), *argv[1:]], capsys)
        assert code == 3 and out == ""
        why = "its sigma column sums past the largest float"
        assert err == f"input error: trace {str(trace)!r}: {why}\n"
        assert not (tmp_path / "sim.csv").exists()

    # loynes near the largest float, at servers = 1 over seeds 1..300: a
    # replay past it (exit 70 from the next lockstep call's start-row check,
    # before), and finite profiles whose sum for the mean overflows fsum
    # (exit 70). Numpy's overflow warnings are errors here, so none is raised.
    @pytest.mark.parametrize(
        "xi, why",
        [
            ("4.9e306", "seed 29: the replay from depth 256 passes the largest float"),
            ("5.5e306", "the mean over 300 seeds passes the largest float"),
        ],
        ids=["replay", "mean"],
    )
    def test_loynes_past_the_largest_float_is_three(self, xi, why, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[model]\nsigma = exponential(2.1e-307)\nxi = deterministic({xi})\n"
            "[run]\nseeds = 1..300\n[loynes]\nservers = 1\n"
        )
        snapshots = tmp_path / "s.csv"
        code, out, err = run(["loynes", "--config", str(cfg), "--out", str(snapshots)], capsys)
        assert code == 3 and out == ""
        assert err == f"input error: {why}\n"
        assert not snapshots.exists()

    # forward runs near the largest float, seed 1, each failing at the first
    # step it passes: at 1e308 per arrival and gaps of 1, two busy queues
    # make a total that fsum overflows, and a second arrival at one queue
    # makes it inf. Before, the first four (the runs of the float-range
    # probe) exited 0 printing inf from simulate, 70 from simulate --out and
    # servers-mode compare, and 0 printing PASS over inf waits from
    # allocation-mode compare. Numpy's overflow warnings are errors here, so
    # none is raised.
    @pytest.mark.parametrize(
        "argv, marks, keys, why",
        [
            (["simulate"], "1e308 1", "", "S2P1: the total workload at step 2"),
            (["simulate", "--out", "o.csv"], "1e308 1", "", "S2P1: the total workload at step 2"),
            (
                ["compare"],
                "1e308 1",
                "[compare]\nservers_small = 1\nservers = 2\n",
                "S2: the total workload at step 2",
            ),
            (
                ["compare"],
                "1e308 1",
                "[compare]\nmode = allocation\nservers = 2\nrank = 2\n",
                "S2P1: the total workload at step 2",
            ),
            (["simulate"], "1e308 1", "[system]\nservers = 1\n", "S1P1: the profile at step 2"),
            (
                ["simulate", "--out", "o.csv"],
                "1e308 1",
                "[system]\nservers = 1\n",
                "S1P1: the profile at step 2",
            ),
            (
                ["compare"],
                "1e308 1",
                "[compare]\nservers_small = 1\nservers = 1\n",
                "S1: the profile at step 2",
            ),
            (
                ["simulate"],
                "1e307 1e307",
                "[system]\nservers = 1\ninitial = 1e308\n",
                "S1P1: the sum of offered waits at step 1",
            ),
        ],
        ids=[
            "simulate",
            "simulate-out",
            "compare",
            "compare-allocation",
            "simulate-profile",
            "simulate-out-profile",
            "compare-profile",
            "simulate-wait",
        ],
    )
    def test_forward_run_past_the_largest_float_is_three(
        self, argv, marks, keys, why, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        sigma, xi = marks.split()
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[model]\nsigma = deterministic({sigma})\nxi = deterministic({xi})\n{keys}")
        argv = [argv[0], "--config", str(cfg), "--seed", "1", "--horizon", "4", *argv[1:]]
        code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err == f"input error: seed 1: {why} passes the largest float\n"
        assert not (tmp_path / "o.csv").exists()

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
    # a rate whose largest draw overflows to inf, for a service and a gap law
    "model-exponential-overflows": ("[model]\nsigma = exponential(1e-308)\n", [], "simulate"),
    "model-hyperexponential-overflows": (
        "[model]\nxi = hyperexponential(0.5,0.5;1e-308,1.0)\n",
        ["--horizon", "50"],
        "compare",
    ),
    "loynes-rank-above-servers": ("[loynes]\nservers = 2\nrank = 3\n", [], "loynes"),
    "loynes-zero-tolerance": ("[loynes]\ntolerance = 0\n", [], "loynes"),
    "loynes-inf-tolerance": ("[loynes]\ntolerance = inf\n", [], "loynes"),
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
        "[compare]\nmode = allocation\ntolerance = nan\n",
        [],
        "compare",
    ),
    "compare-inf-sum-slack": ("[compare]\nsum_slack = inf\n", [], "compare"),
    # the self-test key corrupt_step is gone: a negative tolerance forces violations
    "compare-corrupt-step-unknown-key": ("[compare]\ncorrupt_step = 5\n", [], "compare"),
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


# A config and argv whose output file, DEST, goes to stdout: the summary
# lines follow the CSV, and for compare each seed's lines and violations too.
OUT_TO_STDOUT = {
    "simulate": ("", ["simulate", "--seeds", "1 2", "--horizon", "3", "--out", "DEST"]),
    "compare": (
        "[compare]\nsum_slack = -0.05\n",
        ["compare", "--seeds", "1..3", "--horizon", "50", "--out", "DEST"],
    ),
    # two workers' spooled trajectories, appended in seed order
    "trajectories": (
        "[compare]\nsum_slack = -0.05\ntrajectories = DEST\n",
        ["compare", "--seeds", "1..3", "--horizon", "50", "--jobs", "2"],
    ),
    # the rows go to the file's binary buffer, after its text layer's lines:
    # from one worker, and from two workers' spooled files, two blocks a seed
    "trajectories-one-worker": (
        "[compare]\nsum_slack = -0.05\ntrajectories = DEST\n",
        ["compare", "--seeds", "1 2", "--horizon", "50", "--jobs", "1"],
    ),
    "simulate-two-workers": (
        "",
        ["simulate", "--seeds", "1..3", "--horizon", "4097", "--jobs", "2", "--out", "DEST"],
    ),
}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
class TestOutToStdout:
    """``--out /dev/stdout`` (or ``[compare] trajectories``) writes the CSV
    into stdout, ahead of the summary lines, whether stdout is a pipe or a
    redirected file and whether Python buffers it or not. Each test runs
    every case of OUT_TO_STDOUT with ``PYTHONUNBUFFERED`` unset and set to 1,
    in a directory of its own."""

    CASES = [(command, unbuffered) for command in OUT_TO_STDOUT for unbuffered in (False, True)]

    @staticmethod
    def call(work, command, unbuffered, dest, **kwargs):
        text, argv = OUT_TO_STDOUT[command]
        (work / "c.ini").write_text(text.replace("DEST", dest))
        argv = [arg.replace("DEST", dest) for arg in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        cmd = [sys.executable, "-m", "jswsim.cli", *argv, "--config", str(work / "c.ini")]
        return subprocess.run(cmd, env=env, text=True, **kwargs)

    def expected(self, work, command, unbuffered):
        ref = work / "ref.csv"
        proc = self.call(work, command, unbuffered, str(ref), capture_output=True)
        assert proc.stderr == ""
        return proc.returncode, ref.read_text() + proc.stdout.replace(str(ref), "/dev/stdout")

    def test_into_a_pipe(self, tmp_path):
        for case in self.CASES:
            work = tmp_path / "-".join(map(str, case))
            work.mkdir()
            proc = self.call(work, *case, "/dev/stdout", capture_output=True)
            assert proc.stderr == "", case
            assert (proc.returncode, proc.stdout) == self.expected(work, *case), case

    def test_into_a_redirected_file(self, tmp_path):
        for case in self.CASES:
            work = tmp_path / "-".join(map(str, case))
            work.mkdir()
            dest = work / "stdout.txt"
            with open(dest, "w") as f:
                proc = self.call(work, *case, "/dev/stdout", stdout=f, stderr=subprocess.PIPE)
            assert proc.stderr == "", case
            assert (proc.returncode, dest.read_text()) == self.expected(work, *case), case
            assert sorted(p.name for p in work.iterdir()) == ["c.ini", "ref.csv", "stdout.txt"]


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

    def test_simulate_trace_jobs_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        # Each worker reads the trace itself: under --jobs 2 this process
        # never parses it, so the model is sent to the workers unread.
        import jswsim.processes as processes

        real_read = processes._read_trace
        reads = []

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(processes, "_read_trace", counting_read)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        trace = tmp_path / "t.txt"
        rng = np.random.default_rng(7)
        pairs = zip(rng.exponential(1.0, 3000).tolist(), rng.exponential(0.6, 3000).tolist())
        trace.write_text("# sigma xi\n" + "".join(f"{s!r} {x!r}\n" for s, x in pairs))
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[model]\nkind = trace\npath = {trace}\n"
            "[run]\nseeds = 1..4\nhorizon = 2000\n[system]\nservers = 2\n"
        )
        outputs = []
        for jobs in ("1", "2"):
            reads.clear()
            sim = tmp_path / f"s{jobs}.csv"
            argv = ["simulate", "--config", str(cfg), "--jobs", jobs, "--out", str(sim)]
            code, out, _ = run(argv, capsys)
            assert code == 0
            outputs.append((out.replace(str(sim), "SIM"), sim.read_bytes()))
            assert len(reads) == (1 if jobs == "1" else 0)
        assert outputs[0] == outputs[1]
        # every seed replays the same marks, so all four runs are one run
        lines = outputs[0][0].splitlines()[:4]
        assert lines[3].startswith("seed 4: 2000 arrivals, mean offered wait")
        assert len({line.split(":", 1)[1] for line in lines}) == 1

    def test_loynes_refuses_trace_seeds_before_replaying(self, tmp_path, capsys, monkeypatch):
        # A trace gives every seed the same marks, so several seeds would
        # print one draw as an average over seeds. The API refuses them with
        # a ValueError, and the command exits 2 in this process, before
        # opening its output or replaying, under any --jobs.
        import jswsim.loynes as loynes

        trace = tmp_path / "t.txt"
        trace.write_text("1.0 2.0\n" * 64)
        model = TraceModel(str(trace))
        with pytest.raises(ValueError, match="same marks; got 2 seeds"):
            loynes.estimate_stationary_many(model, [1, 2], 2, window=8, max_n=64)

        def no_replay(*args):
            raise AssertionError("replayed")

        monkeypatch.setattr(loynes, "_replay", no_replay)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            f"[model]\nkind = trace\npath = {trace}\n[run]\nseeds = 1 2\n"
            "[loynes]\nwindow = 8\nmax_n = 64\n"
        )
        snap = tmp_path / "snap.csv"
        for jobs in ("1", "2"):
            argv = ["loynes", "--config", str(cfg), "--jobs", jobs, "--out", str(snap)]
            code, out, err = run(argv, capsys)
            assert code == 2 and out == ""
            assert "[run] seeds: a trace gives every seed the same marks; got 2 seeds" in err
            assert not snap.exists()
        # one seed still runs, and --seeds can name it
        monkeypatch.undo()
        code, out, _ = run(["loynes", "--config", str(cfg), "--seeds", "2"], capsys)
        assert code == 0 and out.startswith("seed 2: n=")

    def test_compare_jobs_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        outputs = []
        for jobs in ("1", "2"):
            work = tmp_path / jobs
            work.mkdir()
            monkeypatch.chdir(work)
            (work / "c.ini").write_text(
                "[run]\nseeds = 1..4\nhorizon = 30\n"
                "[compare]\nservers = 3\nservers_small = 2\nsum_slack = -0.05\n"
                "trajectories = traj.csv\n"
            )
            argv = ["compare", "--config", "c.ini", "--jobs", jobs, "--out", "viol.csv"]
            code, out, _ = run(argv, capsys)
            assert code == 1
            outputs.append((out, (work / "viol.csv").read_bytes(), (work / "traj.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        out, viol, _ = outputs[0]
        rows = viol.decode().splitlines()[1:]
        assert f"wrote viol.csv ({len(rows)} violations)" in out
        # both systems start empty, so every seed's step 0 fails the tightened total
        assert [r.split(":")[0] for r in rows if r.split(",")[1] == "0"] == [
            f"seed{seed}" for seed in range(1, 5)
        ]

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


def reference_simulate_summary(cfg, seed):
    """simulate's mean offered wait and final total workload for ``seed``,
    from an ``iter_profiles`` loop that adds the waits one at a time in step
    order, step 0 adding 0.0 to 0.0."""
    system = cfg.system
    marks = generate(cfg.model, seed, cfg.horizon)
    wait_sum = wait = 0.0
    for profile in iter_profiles(system.start_profile(), marks, system.rank):
        wait_sum += wait
        wait = profile[system.rank - 1]
    return wait_sum / cfg.horizon, math.fsum(profile)


class TestSimulateRows:
    """simulate steps each seed in path chunks of profiles._PATH_CHUNK
    (2^14) arrivals, formats the rows by columns in blocks of 4096 and
    takes each total from numpy where that is fsum's value; these compare
    the rows byte for byte with a csv.writer reference around the chunk and
    block boundaries and in every totals branch, and the summary numbers
    bit for bit with an iter_profiles loop (the printed %.6g would hide a
    last-bit difference)."""

    def assert_rows_match(self, tmp_path, capsys, text, argv=()):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(text)
        out = tmp_path / "sim.csv"
        code, _, _ = run(["simulate", "--config", str(cfg_path), "--out", str(out), *argv], capsys)
        assert code == 0
        raw = out.read_text()
        rows = "".join(raw.splitlines(keepends=True)[5:])  # past the comment lines
        cfg = load_config(str(cfg_path))
        # line by line, endings kept, so as strict as comparing the whole
        # text, whose diff on a failure is slow and unreadable
        got = rows.splitlines(keepends=True)
        want = reference_simulate_rows(cfg).splitlines(keepends=True)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"line {i}: {a!r} != {b!r}"
        for seed in cfg.seeds:
            _, mean_wait, final_total = cli._sim_one((cfg.model, seed, cfg.horizon, cfg.system))
            expected = reference_simulate_summary(cfg, seed)
            assert (repr(mean_wait), repr(final_total)) == tuple(map(repr, expected)), seed
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

    # two formatting blocks, then one path chunk
    @pytest.mark.parametrize("horizon", [1, 8191, 8192, 8193, 16383, 16384, 16385])
    def test_horizons_around_two_chunks(self, horizon, tmp_path, capsys):
        assert profiles._PATH_CHUNK == 16384
        for servers, rank in ((1, 1), (3, 2), (8, 8)):
            self.assert_rows_match(
                tmp_path,
                capsys,
                f"[run]\nseeds = 2 9\nhorizon = {horizon}\n"
                f"[system]\nservers = {servers}\nrank = {rank}\n",
            )

    def test_overloaded_rows_take_every_totals_branch(self, tmp_path, capsys):
        # load 1.5 on 4 servers, from empty: rows with 0, 1, 2 and 3 or 4
        # busy queues, then rows that fsum adds
        raw = self.assert_rows_match(
            tmp_path,
            capsys,
            "[model]\nsigma = exponential(1.0)\nxi = exponential(6.0)\n"
            "[run]\nseeds = 5\nhorizon = 5000\n[system]\nservers = 4\n",
        )
        rows = raw.decode().splitlines()[6:]
        busy = {sum(float(w) != 0.0 for w in row.split(",")[2:6]) for row in rows}
        assert busy == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize(
        "initial,first",
        [
            # at S = 1 the total is coordinate 1's cell unless step 0's fsum makes it 0.0
            ("-0.0", "1,0,-0.0,0.0,"),
            ("-0.0 -0.0", "1,0,-0.0,-0.0,0.0,"),
            ("0.0 -0.0 2.0", "1,0,0.0,-0.0,2.0,2.0,"),
        ],
    )
    def test_negative_zero_start_sums_by_fsum(self, initial, first, tmp_path, capsys):
        raw = self.assert_rows_match(
            tmp_path,
            capsys,
            f"[run]\nseeds = 1\nhorizon = 300\n[system]\ninitial = {initial}\n"
            f"servers = {len(initial.split())}\n",
        )
        assert raw.decode().splitlines()[6] == first

    def test_negative_zero_initial_profile(self, tmp_path, capsys):
        raw = self.assert_rows_match(
            tmp_path,
            capsys,
            "[run]\nseeds = 1\nhorizon = 5\n[system]\nservers = 2\ninitial = -0.0 1\n",
        )
        lines = raw.decode().splitlines()
        assert lines[6] == "1,0,-0.0,1.0,1.0,"
        assert lines[7].startswith("1,1,") and lines[7].endswith(",-0.0")

    def test_correlated_marks_step_in_order(self, tmp_path, capsys, monkeypatch):
        # The bench's 2-state chain: its long busy stretches leave most time
        # blocks of a chunk dirty, so path_profiles steps them in order.
        calls = []
        in_order = profiles._step_blocks_in_order

        def spy(*args):
            calls.append(args)
            return in_order(*args)

        monkeypatch.setattr(profiles, "_step_blocks_in_order", spy)
        self.assert_rows_match(
            tmp_path,
            capsys,
            "[model]\nkind = markov\ntransition = 0.99 0.01 / 0.02 0.98\n"
            "sigma_states = exponential(1.0) | exponential(0.5)\n"
            "xi_states = exponential(1.0) | exponential(1.5)\n"
            "[run]\nseeds = 1\nhorizon = 20000\n[system]\nservers = 2\n",
        )
        assert calls

    # values repr writes in exponent form, and -0.0, which the formatter
    # splices in or writes as a constant, in every row while 2.5e16 lasts
    @pytest.mark.parametrize(
        "initial,row",
        [
            ("0 1e-05 2.5e+16", "3,0,0.0,1e-05,2.5e+16,2.5e+16,"),
            ("-0.0 3e-07 2.5e16", "3,0,-0.0,3e-07,2.5e+16,2.5e+16,"),
        ],
        ids=["exponent", "negative-zero"],
    )
    def test_exponent_notation_initial_profile(self, initial, row, tmp_path, capsys):
        for rank in (1, 2, 3):
            raw = self.assert_rows_match(
                tmp_path,
                capsys,
                "[run]\nseeds = 3 1\nhorizon = 4097\n"
                f"[system]\nservers = 3\nrank = {rank}\ninitial = {initial}\n",
            )
            assert f"\n{row}\n".encode() in raw

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


# Rows of nondecreasing floats >= +0.0, the profiles simulate sums past step
# 0: many zeros, subnormals, sums that overflow and infinities.
_coordinates = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0),
    st.sampled_from([1.0, 1e308, 1.7e308, math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda servers: st.lists(
            st.lists(_coordinates, min_size=servers, max_size=servers).map(sorted),
            min_size=1,
            max_size=12,
        )
    )
)
def test_total_cells_are_fsum(rows):
    # the walk's blocks hold one profile per column, one coordinate per row
    path = np.ascontiguousarray(np.array(rows).T)
    try:
        expected = [repr(math.fsum(row)) for row in rows]
    except OverflowError:
        with pytest.raises(OverflowError):
            cli._total_cells(path)
        return
    assert list(map(repr, cli._total_cells(path).tolist())) == expected


def seed_rows_argv(command, work, name):
    """The argv of a ``command`` whose seeds write rows to ``work / name``:
    ``simulate --out`` or ``compare`` with ``[compare] trajectories``, from
    the config ``work / "c.ini"``."""
    cfg = work / "c.ini"
    if command == "simulate":
        cfg.write_text("")
        return ["simulate", "--config", str(cfg), "--out", str(work / name)]
    cfg.write_text(f"[compare]\ntrajectories = {work / name}\n")
    return ["compare", "--config", str(cfg)]


def test_simulate_drops_each_seed_text_before_the_next(tmp_path, capsys, monkeypatch, pools):
    # a pool worker writes its seed's rows to a file of its own and returns
    # its path, not the text; the parent appends the file and deletes it
    # before the next seed's result arrives. So do compare's trajectories.
    spooled = []
    spool_one = cli._spooled

    def spy(fn, spool, payload):
        assert not any(os.path.exists(path) for path in spooled)
        result, path = spool_one(fn, spool, payload)
        assert not any(isinstance(x, str) for x in result)
        spooled.append(path)
        return result, path

    monkeypatch.setattr(cli, "_spooled", spy)
    argv = ["--seeds", "1..3", "--horizon", "50"]
    for command in ("simulate", "compare"):
        spooled.clear()
        work = tmp_path / command
        work.mkdir()
        code, _, _ = run([*seed_rows_argv(command, work, "s.csv"), *argv, "--jobs", "2"], capsys)
        assert code == 0 and len(spooled) == 3, command
        # the directory of the spooled files went with the run
        assert not os.path.exists(os.path.dirname(spooled[0]))
        code, _, _ = run([*seed_rows_argv(command, work, "one.csv"), *argv, "--jobs", "1"], capsys)
        assert code == 0 and (work / "s.csv").read_bytes() == (work / "one.csv").read_bytes()
    assert [workers for workers, _ in pools] == [2, 2]


def test_simulate_spool_is_removed_when_a_seed_fails(tmp_path, capsys, monkeypatch):
    # a real pool of two workers; seed 2 fails while seeds 1 and 3 may have
    # written their files: none is left, and neither is a partial CSV. The
    # workers are forked, so they draw through the patched functions.
    def failing(real):
        def draw(model, seed, *args):
            if seed == 2:
                raise RuntimeError("seed 2 failed")
            return real(model, seed, *args)

        return draw

    for name in ("generate_forward", "generate"):  # simulate's and compare's
        monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for command in ("simulate", "compare"):
        work = tmp_path / command
        spool_root = work / "tmp"
        spool_root.mkdir(parents=True)
        monkeypatch.setattr(tempfile, "tempdir", str(spool_root))
        argv = [*seed_rows_argv(command, work, "s.csv"), "--seeds", "1..4", "--horizon", "3000"]
        code, out, err = run([*argv, "--jobs", "2"], capsys)
        assert code == 70 and "seed 2 failed" in err, command
        # a run that fails prints no seed's summary
        assert out == ""
        assert list(spool_root.iterdir()) == []
        assert sorted(p.name for p in work.iterdir()) == ["c.ini", "tmp"]


def test_simulate_writes_each_block_as_it_is_formatted(tmp_path, capsys, monkeypatch, pools):
    # one worker writes a seed's rows to the open CSV while it steps the
    # seed, and returns no text
    sim_one = cli._sim_one
    written = []

    def spy(payload, out=None):
        seed, mean_wait, final_total = sim_one(payload, out)
        assert not any(isinstance(x, str) for x in (mean_wait, final_total))
        out.flush()
        (tmp,) = tmp_path.glob(".s.csv.*.tmp")  # the file that replaces s.csv
        written.append(sum(line.startswith(f"{seed},") for line in tmp.read_text().splitlines()))
        return seed, mean_wait, final_total

    monkeypatch.setattr(cli, "_sim_one", spy)
    argv = ["simulate", "--seeds", "1..3", "--horizon", "5000", "--jobs", "1"]
    code, _, _ = run([*argv, "--out", str(tmp_path / "s.csv")], capsys)
    assert code == 0 and written == [5001] * 3 and pools == []
    rows = (tmp_path / "s.csv").read_text().splitlines()[6:]
    assert [row.split(",", 2)[:2] for row in rows] == [
        [str(seed), str(step)] for seed in (1, 2, 3) for step in range(5001)
    ]


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    # the bench's 2-state Markov model, S = 2, one seed: the marks are drawn
    # and the rows written one walk chunk (2^14 arrivals) at a time
    def peak(horizon):
        cfg = tmp_path / "m.ini"
        cfg.write_text(
            "[model]\nkind = markov\ntransition = 0.99 0.01 / 0.02 0.98\n"
            "sigma_states = exponential(1.0) | exponential(0.5)\n"
            "xi_states = exponential(1.0) | exponential(1.5)\n"
            f"[run]\nseeds = 7\nhorizon = {horizon}\n[system]\nservers = 2\nrank = 1\n"
        )
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]
        tracemalloc.start()
        try:
            code, _, _ = run(argv, capsys)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (short_code, short), (long_code, long) = peak(2**14), peak(2**17)
    assert short_code == long_code == 0
    assert long <= short + 2**20, (short, long)


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
        cfg.write_text("[compare]\nservers = 2\nservers_small = 1\nsum_slack = -0.05\n")
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
        # seed 1's rows, then seed 2's, each in step order; both start empty,
        # and equal totals fail the tightened total
        rows = [line.split(",") for line in lines[1:]]
        keys = [(label.split(":")[0], int(step)) for label, step, _, _ in rows]
        assert keys == sorted(set(keys))
        assert ("seed1", 0) in keys and ("seed2", 0) in keys
        for label, _, lhs, rhs in rows:
            assert label.split(":")[1:] == ["S2-vs-S1", "total"]
            assert float(lhs) > float(rhs) - 0.05

    # The second case starts from values the formatter writes as a
    # constant (-0.0) or splices in from repr (exponent form, subnormal);
    # sums near 2.5e16 round by 4 per add, and the tolerance keeps the
    # verdict a PASS.
    @pytest.mark.parametrize(
        "section,systems",
        [
            ("servers = 2\nservers_small = 1\n", 2 + 1),
            (
                "mode = allocation\nservers = 3\nrank = 2\nstart = -0.0 3e-07 2.5e16\n"
                "start_alt = 5e-324 1e-05 2.5e16\ntolerance = 100\n",
                3 + 3,
            ),
        ],
        ids=["servers", "allocation-repr-starts"],
    )
    def test_compare_trajectory_dump(self, section, systems, tmp_path, capsys):
        traj = tmp_path / "t.csv"
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[compare]\n{section}trajectories = {traj}\n")
        # past the first two chunks of 4096 arrivals
        code, out, _ = run(
            ["compare", "--config", str(cfg), "--seeds", "3 4", "--horizon", "8193"], capsys
        )
        assert code == 0
        raw = traj.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "step,system,coordinate,value"
        rows = 2 * 8194 * systems  # seeds x (horizon + 1) x (S + S')
        assert len(lines) == 1 + rows
        assert f"wrote {traj} ({rows} rows)" in out
        # every value is the repr of the profile coordinate, bit for bit
        config = load_config(str(cfg))
        expected = [
            f"{step},seed{seed}:{system.label},{i},{value!r}"
            for seed in (3, 4)
            for system in config.compare.systems()
            for step, profile in enumerate(
                iter_profiles(
                    system.start_profile(), generate(config.model, seed, 8193), system.rank
                )
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


# The config grammar with edge floats in its numeric values: the least
# subnormal, values near the largest float and zero among ordinary values,
# and in one value of some configs a negative, signed zero, infinity or NaN,
# so that most configs are valid and each bad value is still met.
_EDGE = [0.0, 5e-324, 1e-300, 0.25, 1.0, 1e300, 1e308, 1.7976931348623157e308]
_ordinary = st.floats(0.05, 4.0)
_edge = st.one_of(st.sampled_from(_EDGE), _ordinary, _ordinary)  # two thirds ordinary
_positive = st.one_of(st.sampled_from(_EDGE[1:]), _ordinary, _ordinary)
_bad = st.sampled_from([-0.0, -1.0, -1e308, math.inf, -math.inf, math.nan])
_prob = st.sampled_from([0.0, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _fuzz_run(draw):
    """A config file's text, a trace's lines and a command line: one of
    simulate with and without --out, loynes and compare, S from 1 to 4; and
    whether only one loynes depth fits under max_n."""
    values, bad = iter(range(10**6)), draw(st.integers(0, 24))

    def value(positive=False):
        return repr(draw(_bad if next(values) == bad else _positive if positive else _edge))

    def law():
        kind = draw(st.sampled_from(["exponential", "deterministic", "uniform", "hyper"]))
        if kind == "uniform":
            return "uniform({},{})".format(*sorted([value(), value()], key=float))
        if kind == "hyper":
            p = draw(_prob)
            return f"hyperexponential({p!r},{1.0 - p!r};{value(True)},{value(True)})"
        return f"{kind}({value(kind == 'exponential')})"

    def profile(servers):
        return " ".join(sorted((value() for _ in range(servers)), key=float))

    kind = draw(st.sampled_from(["iid", "markov", "trace"]))
    model, trace = [f"kind = {kind}"], None
    if kind == "iid":
        model += [f"sigma = {law()}", f"xi = {law()}"]
    elif kind == "markov":
        p, q = draw(_prob), draw(_prob)
        model += [
            f"transition = {p!r} {1.0 - p!r} / {1.0 - q!r} {q!r}",
            f"sigma_states = {law()} | {law()}",
            f"xi_states = {law()} | {law()}",
        ]
    else:
        model.append("path = TRACE")
        # a few lines, repeated up to some length
        rows = [f"{value()} {value()}\n" for _ in range(draw(st.integers(1, 3)))]
        trace = "".join(rows * draw(st.integers(1, 40)))
    servers, small = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rank = draw(st.integers(1, servers))
    window = draw(st.sampled_from([1, 2, 5, 16, 64]))
    max_n = window * draw(st.sampled_from([1, 2, 4, 16]))
    sections = {
        "system": [f"servers = {servers}", f"rank = {rank}"],
        "loynes": [
            f"servers = {servers}",
            f"rank = {rank}",
            f"tolerance = {value(True)}",
            f"window = {window}",
            f"max_n = {max_n}",
        ],
        "compare": [f"sum_slack = {value()}"],
    }
    if draw(st.booleans()):
        sections["system"].append(f"initial = {profile(servers)}")
    if draw(st.booleans()):
        sections["compare"] += [f"servers = {max(servers, small)}", f"servers_small = {small}"]
    else:
        sections["compare"] += [
            "mode = allocation",
            f"servers = {servers}",
            f"rank = {rank}",
            f"tolerance = {value()}",
        ]
        for key in ("start", "start_alt"):
            if draw(st.booleans()):
                sections["compare"].append(f"{key} = {profile(servers)}")
    command = draw(st.sampled_from(["simulate", "simulate --out", "loynes", "compare"]))
    flags = ["--seeds", draw(st.sampled_from(["1", "2 7"]))]
    if command != "loynes":
        flags += ["--horizon", str(draw(st.integers(1, 30)))]
    text = "".join(
        f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
        for name, lines in [("model", model), *sections.items()]
    )
    return text, trace, command, flags, 2 * window > max_n


_INF_OR_NAN = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)


@settings(max_examples=500, deadline=None)
@given(_fuzz_run())
def test_config_grammar_fuzz_exits_with_a_documented_code(case):
    # every config of the grammar ends in a documented exit, 0 to 6, with
    # no traceback; a run that ends in 0, 1 or 5 prints no inf or nan, but
    # for loynes' increment=inf when only one depth fits under max_n
    text, trace, command, flags, one_depth = case
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "c.ini")
        if trace is not None:
            text = text.replace("TRACE", os.path.join(work, "t.trace"))
            with open(os.path.join(work, "t.trace"), "w") as f:
                f.write(trace)
        with open(cfg, "w") as f:
            f.write(text)
        argv = [command.split()[0], "--config", cfg, "--jobs", "1", *flags]
        if command.endswith("--out"):
            argv += ["--out", os.path.join(work, "s.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        printed = (out.getvalue() + err.getvalue()).replace(work, "")
    assert 0 <= code <= 6 and "Traceback" not in printed, (text, argv, printed)
    if code in (0, 1, 5):
        if command == "loynes" and one_depth:
            printed = printed.replace("increment=inf ", "")
        assert not _INF_OR_NAN.search(printed), (text, argv, printed)
