"""Golden output digests: the same config gives the same bytes across commits.

Each case runs one command in-process, in a fresh directory with relative
file names, and compares the sha256 of its stdout and of every file it
writes with a recorded digest. The rerun tests elsewhere only compare two
runs of the same code; these digests pin the bytes themselves, so a
refactor of the step loop, the coupled-run harness or the mark generators
that changes any output byte fails here. A change that alters the output
contract on purpose updates the digest and says why in CHANGES.md.
"""

import hashlib
import random

import pytest

from jswsim.cli import main

MARKOV3 = (
    "[model]\nkind = markov\n"
    "transition = 0.7 0.2 0.1 / 0.1 0.8 0.1 / 0.3 0.3 0.4\n"
    "sigma_states = deterministic(0.75) | hyperexponential(0.4, 0.6; 1.0, 3.0)"
    " | uniform(0.25, 1.75)\n"
    "xi_states = uniform(0.5, 1.5) | deterministic(0.6)"
    " | hyperexponential(0.5, 0.5; 2.0, 0.8)\n"
)


def _trace_bytes() -> bytes:
    """600 exponential marks drawn at load 5/6 on two servers (the sample's
    own load is 0.95), as the trace cases read them: ``repr`` floats, comment
    lines, inline comments, blank lines, runs of spaces and tabs, and CRLF
    line endings."""
    rng = random.Random(2041)
    lines = ["# sigma xi, measured"]
    for k in range(600):
        sigma, xi = rng.expovariate(1.0), rng.expovariate(1 / 0.6)
        if k % 50 == 0:
            lines += [f"# block {k // 50}", ""]
        gap = rng.choice([" ", "  ", "\t", " \t "])
        note = "  # note" if k % 7 == 0 else ""
        lines.append(f"{sigma!r}{gap}{xi!r}{note}")
    return "\r\n".join(lines + [""]).encode()


# name -> (config file, argv, files written, expected exit code). Every case
# runs beside t.txt, the trace _trace_bytes writes.
CASES = {
    "simulate-iid-rank1": (
        "[run]\nseeds = 1..3\nhorizon = 300\n[system]\nservers = 2\nrank = 1\n",
        ["simulate", "--out", "sim.csv"],
        ["sim.csv"],
        0,
    ),
    "simulate-rank2-initial": (
        "[model]\nsigma = exponential(1.0)\nxi = exponential(0.8)\n"
        "[run]\nseeds = 4 5\nhorizon = 300\n"
        "[system]\nservers = 3\nrank = 2\ninitial = 0 0.5 2.25\n",
        ["simulate", "--out", "sim.csv"],
        ["sim.csv"],
        0,
    ),
    "simulate-markov3-mixed-laws": (
        MARKOV3 + "[run]\nseeds = 1 7 12345\nhorizon = 400\n[system]\nservers = 2\n",
        ["simulate", "--out", "sim.csv"],
        ["sim.csv"],
        0,
    ),
    "loynes-snapshots": (
        "[run]\nseeds = 1..4\n[loynes]\nservers = 2\nwindow = 16\n",
        ["loynes", "--out", "snap.csv"],
        ["snap.csv"],
        0,
    ),
    # 64 seeds stopping at n = 32, 64, 128 and 256, two of them not
    # converged: pins the lockstep estimator, its per-seed tail and the CSV.
    "loynes-snapshots-many": (
        "[model]\nsigma = exponential(1.0)\nxi = exponential(2.7)\n"
        "[run]\nseeds = 1..64\n[loynes]\nservers = 3\nwindow = 16\nmax_n = 256\n",
        ["loynes", "--out", "snap.csv"],
        ["snap.csv"],
        5,
    ),
    # A negative sum_slack fails the totals wherever they are near equal,
    # both systems empty among them.
    "compare-servers": (
        "[run]\nseeds = 1 2\nhorizon = 200\n"
        "[compare]\nmode = servers\nservers = 3\nservers_small = 2\n"
        "sum_slack = -0.05\ntrajectories = traj.csv\n",
        ["compare", "--out", "viol.csv"],
        ["viol.csv", "traj.csv"],
        1,
    ),
    # 9001 steps: the coupled run checks blocks of 4096 steps, and the
    # violations fall on both sides of step 4096, where the second begins.
    "compare-servers-blocks": (
        "[run]\nseeds = 1 2\nhorizon = 9000\n"
        "[compare]\nmode = servers\nservers = 3\nservers_small = 2\n"
        "sum_slack = -0.05\ntrajectories = traj.csv\n",
        ["compare", "--out", "viol.csv"],
        ["viol.csv", "traj.csv"],
        1,
    ),
    "compare-allocation": (
        "[run]\nseeds = 1 2\nhorizon = 200\n"
        "[compare]\nmode = allocation\nservers = 3\nrank = 3\n"
        "start = 0 2 2\nstart_alt = 1 1 3\ntrajectories = traj.csv\n",
        ["compare", "--out", "viol.csv"],
        ["viol.csv", "traj.csv"],
        0,
    ),
    # The starts meet the premise at the negative tolerance; 1 1 3, as in
    # compare-allocation, would fail it at any tolerance below 0.
    "compare-allocation-negative-tolerance": (
        "[run]\nseeds = 1 2\nhorizon = 200\n"
        "[compare]\nmode = allocation\nservers = 3\nrank = 3\n"
        "start = 0 2 2\nstart_alt = 1 3 3\ntolerance = -0.05\ntrajectories = traj.csv\n",
        ["compare", "--out", "viol.csv"],
        ["viol.csv", "traj.csv"],
        1,
    ),
    "simulate-trace": (
        "[model]\nkind = trace\npath = t.txt\n[run]\nseeds = 1 2\nhorizon = 600\n"
        "[system]\nservers = 2\n",
        ["simulate", "--out", "sim.csv"],
        ["sim.csv"],
        0,
    ),
    "loynes-trace": (
        "[model]\nkind = trace\npath = t.txt\n[run]\nseeds = 1 2\n"
        "[loynes]\nservers = 2\nwindow = 16\nmax_n = 512\n",
        ["loynes", "--out", "snap.csv"],
        ["snap.csv"],
        0,
    ),
}

# The simulate and loynes CSV digests were re-recorded for
# philox4x64/u52/inverse-cdf-v2: their header names the RNG. Only two files
# changed otherwise, by the draws its logarithm moved 1 ulp: one row of
# simulate-rank2-initial's CSV and 14 rows of compare-servers-blocks'
# trajectories. No stdout changed.
DIGESTS = {
    "simulate-iid-rank1": {
        "stdout": "3916220916a070d56a95d99294209626192fcab06cc40221db80f4ea9512e248",
        "sim.csv": "82380bba1564778f09567d58f6f816453469acff266499797c3084f2b61ad91e",
    },
    "simulate-rank2-initial": {
        "stdout": "c15c38a6dd4dee86b90f6d6dc945b10d8cb9887cb54d8564552076fde7c52e72",
        "sim.csv": "86b1ea20c10466f6cba324505e7fb9f94d2fc2ec3ff1d1b6f7a9334820c0cd47",
    },
    "simulate-markov3-mixed-laws": {
        "stdout": "e9bb1675c9d27437d0b1ce8d87e8dfd34a3ee37c1f6fdfa82d3a9c55fe58c6e6",
        "sim.csv": "475ebbca3c84653aaf6831c87388697b6ccdd212df4398110c3aaccdac7213a0",
    },
    "loynes-snapshots": {
        "stdout": "bd642830c34607d30ce8ee5028c84db3a96f2d77a59a0fa046f53caa6a906764",
        "snap.csv": "09437c397bcd4e72af599b32dc159448a95677bca35bf7b67ed5f755619b0bb1",
    },
    "loynes-snapshots-many": {
        "stdout": "85f824973268f19a6ab790efc0abf076ac73a38b524743becee26847c957b31f",
        "snap.csv": "bf11d306ca6217a86c1a57b0060f8d6e506f0bc4e7089c4084f2fbec6e2716e5",
    },
    # The three compare stdout digests were re-recorded when the mean offered
    # wait became coordinate rank over the horizon's arrivals, as in
    # simulate; only the wait numbers changed, the CSV digests did not.
    # The two servers cases' stdout and viol.csv were re-recorded when their
    # violations came from a negative sum_slack; their traj.csv did not move.
    "compare-servers": {
        "stdout": "3b8803c21bd288de1fcc1e438f1421d0dc7f8d61d4939fe59f6e90adfd57c9e8",
        "viol.csv": "dfc695546fb341d1d4a9a6f01f3206556764c9d64b2bc2a9e36183e36f3e6c2a",
        "traj.csv": "7f3abe600e2635bd5c04c68f9be1a372b774caae29c94462b393edea630e845b",
    },
    # traj.csv recorded before the coupled run checked blocks of steps
    "compare-servers-blocks": {
        "stdout": "5c7e1ceef740595a4f8192ee1da336361401968dbe94d7e44a9d6e7021875fa3",
        "viol.csv": "c5e1bf8590bb0685add9825b760fd018791eed8d2ab6007d65715de48ea6be2e",
        "traj.csv": "bcf22924c43e27d2443b926f3edd470d76eff516d36d98d3f9fd66ced3aa7ee5",
    },
    "compare-allocation": {
        "stdout": "3f9884f0de5a9c879c7df56db1fa79b1ea99bfd97d7a0b270afb28bc529c4733",
        "viol.csv": "5aa58f3833d078b3036b11991c0b7b10450b15f9dfd0263bdf3481215be3d64d",
        "traj.csv": "b6f72097022c7999cd1c976a17c2db93b491ae02b45f26e03c2ecb14916f307d",
    },
    "compare-allocation-negative-tolerance": {
        "stdout": "bb498747104c0dfee2e1d0076ca7c7a459a198810ccaa4e8e99d0a57304913e7",
        "viol.csv": "163f317f7ac4a23193080b356cabcaaeb71001a886752f4590b340d75ce71118",
        "traj.csv": "2119bdf0a1ff532efa951733c08776f04ee6d7583c276e0a9a4f7cbe72b33847",
    },
    # recorded while traces were read by the per-line loop alone
    "simulate-trace": {
        "stdout": "d23007483821a13b925048cee223f0e494b2f0b20348b0cb0cf8a84a574cff9c",
        "sim.csv": "6a252cccde5b4ddff2d1442d1b50e9be074f7958e814fc5300e976ba6602f87b",
    },
    # the estimate stops at n = 256 of the trace's 600 marks
    "loynes-trace": {
        "stdout": "ed23753ec18164b87a274a6233ee93eb98d7f1ca6ce81fb6e8d3806701b1df79",
        "snap.csv": "6ae4ed2f79effdb19ea041268c7a571d12de8e7cee691b03c474dba7ceed7c6b",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, directory, capsys):
    """Run one case in ``directory``; return (exit code, {output: sha256})."""
    config, argv, files, _ = CASES[name]
    (directory / "c.ini").write_text(config)
    (directory / "t.txt").write_bytes(_trace_bytes())
    code = main([argv[0], "--config", "c.ini", *argv[1:]])
    digests = {"stdout": _sha(capsys.readouterr().out.encode())}
    for f in files:
        digests[f] = _sha((directory / f).read_bytes())
    return code, digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recorded_digests(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, digests = run_case(name, tmp_path, capsys)
    assert code == CASES[name][3]
    assert digests == DIGESTS[name]
