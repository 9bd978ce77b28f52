"""Acceptance suite: one test per shipping criterion.

Each test asserts its criterion at the stated tolerance and, on success,
records a single PASS line that the terminal summary prints at the end of
the run (one line per criterion). A failing criterion shows up both as a
regular pytest failure and as the missing line in that summary.

The whole module is deterministic: every seed is pinned.
"""

import math
import random

import numpy as np
import pytest

from formulas import mmc_mean_wait
from jswsim.comparison import (
    compare_allocation_ranks,
    compare_server_counts,
    fcfs_waiting_times,
)
from jswsim.loynes import backward_marks, estimate_stationary, loynes_iterate
from jswsim.orderings import (
    prec,
    sample_rank_ordered_pair,
    suite_names,
    run_property_suite,
)
from jswsim.processes import (
    Exponential,
    Deterministic,
    Hyperexponential,
    IIDModel,
    MarkovModulatedModel,
    MarkSequence,
    Uniform,
    generate,
)
from jswsim.profiles import Mark, kw_step, pad, pth_step, total_workload, zero_profile

MM1_LOAD_HALF = IIDModel(Exponential(1.0), Exponential(0.5))

MIXED_MODELS = (
    IIDModel(Exponential(1.0), Exponential(0.5)),
    IIDModel(Uniform(0.25, 1.75), Exponential(0.5)),
    IIDModel(Hyperexponential((0.6, 0.4), (2.0, 0.5)), Exponential(0.5)),
    MarkovModulatedModel(
        ((0.9, 0.1), (0.2, 0.8)),
        (Exponential(1.0), Exponential(0.5)),
        (Exponential(0.5), Uniform(0.5, 1.5)),
    ),
    IIDModel(Deterministic(1.0), Deterministic(0.375)),  # dyadic, exact arithmetic
)


def dyadic_mark_arrays(rng: random.Random, n: int) -> MarkSequence:
    """A mark stream on the 1/64 grid so coupled folds are float-exact."""
    sigma = np.array([rng.randint(0, 128) / 64.0 for _ in range(n)])
    xi = np.array([rng.randint(1, 64) / 64.0 for _ in range(n)])
    return MarkSequence(sigma=sigma, xi=xi)


def test_c01_step_correctness(criterion_log):
    """Worked single-step examples exact; rank-1 step is bit-identical to
    the shortest-workload step on random inputs."""
    assert kw_step((0.0, 0.0), Mark(1.0, 0.4)) == (0.0, 0.6)
    assert kw_step((1.0, 2.0, 3.0), Mark(2.0, 1.0)) == (1.0, 2.0, 2.0)
    assert kw_step((5.0,), Mark(0.0, 10.0)) == (0.0,)
    assert pth_step((1.0, 2.0, 3.0), Mark(2.0, 1.0), 2) == (0.0, 2.0, 3.0)
    rng = random.Random(100)
    checks = 100_000
    for _ in range(checks):
        servers = rng.randint(1, 10)
        u = tuple(sorted(rng.uniform(0.0, 20.0) for _ in range(servers)))
        m = Mark(rng.uniform(0.0, 5.0), rng.uniform(0.01, 5.0))
        assert pth_step(u, m, 1) == kw_step(u, m)
    criterion_log(
        f"criterion 01 step correctness: PASS "
        f"(4 worked examples exact, rank-1 identity on {checks} random inputs, S<=10)"
    )


def test_c02_fcfs_oracle_equivalence(criterion_log):
    """Offered waits from the profile recursion match an independent FCFS
    event simulation within 1e-9."""
    worst = 0.0
    runs = 0
    for model in MIXED_MODELS[:4]:  # the four stochastic models
        for servers in (1, 2, 3, 5, 8):
            for seed in range(1, 51):
                marks = generate(model, seed, 1000)
                waits = fcfs_waiting_times(marks, servers)
                profile = zero_profile(servers)
                sig = marks.sigma.tolist()
                xis = marks.xi.tolist()
                for k in range(1000):
                    worst = max(worst, abs(waits[k] - profile[0]))
                    profile = pth_step(profile, (sig[k], xis[k]), 1)
                runs += 1
    assert worst <= 1e-9, worst
    criterion_log(
        f"criterion 02 oracle equivalence: PASS "
        f"({runs} runs x 1000 customers, max |recursion - fcfs| = {worst:.3g} <= 1e-9)"
    )


def test_c03_closure_property_suites(criterion_log):
    """Zero counterexamples over >= 10^4 randomized instances per suite."""
    instances = 10_000
    for name in suite_names():
        report = run_property_suite(name, instances, max_dim=8, seed=11)
        assert report.failures == 0, (name, report.counterexamples)
    criterion_log(
        f"criterion 03 closure suites: PASS "
        f"({len(suite_names())} suites x {instances} instances, dims 1..8, 0 counterexamples)"
    )


def test_c04_server_count_dominance(criterion_log):
    """Adding servers never hurts, pathwise: zero violations across 1000
    seeded runs over four (big, small) pairs and mixed input models."""
    pairs = ((2, 1), (3, 2), (5, 2), (8, 3))
    horizons = (500, 750, 1000, 1500, 2500, 3500, 5000)
    steps = 0
    for seed in range(1, 1001):
        big, small = pairs[(seed - 1) % 4]
        horizon = horizons[(seed - 1) % len(horizons)]
        model = MIXED_MODELS[(seed - 1) % len(MIXED_MODELS)]
        marks = generate(model, seed, horizon)
        report = compare_server_counts(big, small, marks, sum_slack=1e-12)
        assert report.passed, (seed, big, small, report.violations[:3])
        steps += report.steps_checked
    criterion_log(
        f"criterion 04 server-count dominance: PASS "
        f"(1000 seeds, pairs {pairs}, {steps} coupled steps, coordinates exact, sums 1e-12)"
    )


def test_c05_allocation_rank_dominance(criterion_log):
    """Rank-ordered starts stay rank-ordered under coupled steps: zero
    violations on 1000 premise-satisfying instances at zero tolerance."""
    rng = random.Random(500)
    horizon = 500
    for k in range(1000):
        servers = 1 + k % 8
        rank = rng.randint(1, servers)
        start, start_alt = sample_rank_ordered_pair(rng, servers, rank)
        marks = dyadic_mark_arrays(rng, horizon)
        report = compare_allocation_ranks(servers, rank, start, start_alt, marks, tol=0.0)
        assert report.passed, (k, servers, rank, report.violations[:3])
    criterion_log(
        "criterion 05 allocation-rank dominance: PASS "
        "(1000 instances, S<=8, horizon 500, tolerance 0)"
    )


def test_c06_backward_monotonicity(criterion_log):
    """Backward iterates only grow as the window lengthens: exact coordinate
    monotonicity, consecutive windows to 64 then coupled doublings to 10^4."""
    checkpoints = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 10_000)
    for servers in (1, 2, 4):
        for seed in range(1, 101):
            full = generate(MM1_LOAD_HALF, seed, 10_000)
            sig = full.sigma.tolist()
            xis = full.xi.tolist()

            def iterate(n):
                u = zero_profile(servers)
                for i in range(n - 1, -1, -1):
                    u = pth_step(u, (sig[i], xis[i]), 1)
                return u

            prev = iterate(1)
            for n in range(2, 65):
                cur = iterate(n)
                assert prec(prev, cur), (servers, seed, n)
                prev = cur
            prev = iterate(checkpoints[0])
            for n in checkpoints[1:]:
                cur = iterate(n)
                assert prec(prev, cur), (servers, seed, n)
                prev = cur
    criterion_log(
        "criterion 06 backward monotonicity: PASS "
        "(S in (1,2,4), 100 seeds, consecutive n<=64 and doublings to 10^4, exact)"
    )


def test_c07_stationary_closed_forms(criterion_log):
    """Mean stationary offered wait matches M/M/1 and M/M/2 closed forms
    within 6% relative, across independent converged backward estimates."""
    cases = (
        ("M/M/1 load 0.5", IIDModel(Exponential(1.0), Exponential(0.5)), 1, 1.0, 10_000),
        ("M/M/2 load 0.5", IIDModel(Exponential(1.0), Exponential(1.0)), 2, 1 / 3, 20_000),
    )
    details = []
    for name, model, servers, target, reps in cases:
        waits = []
        for seed in range(1, reps + 1):
            res = estimate_stationary(model, seed, servers)
            assert res.converged, (name, seed)
            waits.append(res.profile[0])
        mean = math.fsum(waits) / reps
        band = 1.96 * float(np.std(waits)) / math.sqrt(reps)
        assert abs(mean - target) <= 0.06 * target, (name, mean, target, band)
        details.append(f"{name}: {mean:.4f} vs {target:.4f} (95% MC band +-{band:.4f})")
        lam = {1: 0.5, 2: 1.0}[servers]  # arrival rates of the two cases
        assert abs(mmc_mean_wait(servers, lam, 1.0) - target) < 1e-12
    criterion_log(
        "criterion 07 stationary closed forms: PASS (" + "; ".join(details) + ", within 6%)"
    )


def test_c08_rank_padding_identity(criterion_log):
    """A rank-P system from empty is the rank-1 system on S-P+1 servers
    padded with idle servers, bit-exactly at every step of shared marks."""
    servers = 4
    for rank in (2, 3):
        small_servers = servers - rank + 1
        for seed in range(1, 51):
            marks = generate(MM1_LOAD_HALF, seed, 2000)
            big = zero_profile(servers)
            small = zero_profile(small_servers)
            sig = marks.sigma.tolist()
            xis = marks.xi.tolist()
            for k in range(2000):
                mark = (sig[k], xis[k])
                big = pth_step(big, mark, rank)
                small = pth_step(small, mark, 1)
                assert big == pad(small, servers), (rank, seed, k)
            res_big = estimate_stationary(MM1_LOAD_HALF, seed, servers, rank=rank)
            res_small = estimate_stationary(MM1_LOAD_HALF, seed, small_servers)
            assert res_big.profile == pad(res_small.profile, servers)
            assert res_big.steps_used == res_small.steps_used
    criterion_log(
        "criterion 08 rank padding identity: PASS "
        "(S=4, P in (2,3), 50 seeds, 2000 steps each, bit-exact, estimates agree)"
    )


def test_c09_stability_dichotomy(criterion_log):
    """Subcritical inputs converge for every seed; supercritical inputs
    accumulate workload at least half the drift rate by n = 10^5."""
    for seed in range(1, 51):
        assert estimate_stationary(MM1_LOAD_HALF, seed, 2).converged, seed
    heavy = IIDModel(Exponential(0.5), Exponential(2.0))  # E[sigma]=2, 2*E[xi]=1
    drift = 2.0 - 2 * 0.5
    n = 100_000
    slowest = math.inf
    for seed in range(1, 51):
        profile = loynes_iterate(backward_marks(heavy, seed, n), 2)
        rate = total_workload(profile) / n
        slowest = min(slowest, rate)
        assert rate > drift / 2, (seed, rate)
    criterion_log(
        f"criterion 09 stability dichotomy: PASS "
        f"(50 stable seeds converged; 50 unstable seeds grow >= {slowest:.3f} > {drift / 2} per step at n=1e5)"
    )


def test_c10_byte_identical_reruns(criterion_log, tmp_path):
    """Identical configuration twice gives byte-identical CSV files for
    every command that writes one."""
    from jswsim.cli import main

    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[run]\nseeds = 1..3\nhorizon = 60\n"
        "[compare]\nservers = 3\nservers_small = 2\ncorrupt_step = 9\n"
    )
    outputs = []
    for tag in ("x", "y"):
        sim = tmp_path / f"sim_{tag}.csv"
        snap = tmp_path / f"snap_{tag}.csv"
        viol = tmp_path / f"viol_{tag}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
        assert main(["loynes", "--config", str(cfg), "--out", str(snap)]) == 0
        assert main(["compare", "--config", str(cfg), "--out", str(viol)]) == 1
        outputs.append((sim.read_bytes(), snap.read_bytes(), viol.read_bytes()))
    assert outputs[0] == outputs[1]
    assert all(len(part) > 0 for part in outputs[0])
    criterion_log(
        "criterion 10 determinism: PASS "
        "(simulate, loynes and compare reruns byte-identical, including violation logs)"
    )
