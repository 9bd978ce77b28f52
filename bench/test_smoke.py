"""Tiny-size smoke test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at a tiny size in both modes, checks that every metric
of BENCHMARK.json is emitted with its unit, that each layer metric is
measured on the workload that exercises it, and that the tracer puts back
every module attribute it wrapped.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from spans import LAYERS, SpanTracer  # noqa: E402

TINY = run.Sizes(
    heavy_seeds=40, compare_horizon=2000, sim_horizon=2000, trace_lines=2**12, trace_window=2**8
)

# Layer metrics that must be nonzero on the workload that exercises them.
MEASURED_ON = {
    "loynes-heavy": (
        "processes.generate.calls",
        "processes.generate.ns_per_mark",
        "profiles.pth_step.ns_per_call",
        "loynes.loynes_iterate.ns_per_step",
        "loynes.estimate_stationary.p97_5_ms",
        "loynes.replay_efficiency",
        "loynes.doublings_per_seed",
        "wait_bias_z",
        "config.load_config.s",
        "trace.traced_wall_s",
    ),
    "compare-wide": (
        "orderings.prec_star.ns_per_call",
        "comparison.compare_server_counts.self_s",
        "comparison.steps_checked",
    ),
    "simulate-markov-csv": ("cli.self_s", "cli.out_bytes", "cli.out_mb_per_s"),
    "loynes-trace": ("processes.trace_reads", "processes.trace_read_s"),
}


def module_attributes():
    return {
        layer: dict(vars(importlib.import_module(f"jswsim.{layer}"))) for layer in LAYERS
    }


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    before = module_attributes()
    record = run.run(workload, seed=5, seconds=0.0, trace=trace, sizes=TINY)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert record["extra"]["error_rate"] == 0.0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    names = MEASURED_ON[workload] if trace else tuple(run.END_TO_END)
    assert all(result["metrics"][k]["value"] > 0 for k in names), result["metrics"]
    after = module_attributes()
    for layer in LAYERS:
        assert after[layer].keys() == before[layer].keys()
        assert all(after[layer][k] is v for k, v in before[layer].items()), layer


def test_tracer_wraps_where_callers_look_up_and_restores():
    loynes = importlib.import_module("jswsim.loynes")
    comparison = importlib.import_module("jswsim.comparison")
    cli = importlib.import_module("jswsim.cli")
    originals = (loynes.pth_step, comparison.prec_star, cli.generate, cli.main)
    before = module_attributes()
    tracer = SpanTracer()
    tracer.install()
    try:
        wrapped = (loynes.pth_step, comparison.prec_star, cli.generate, cli.main)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert len(tracer.wrapped) > 20
    finally:
        tracer.uninstall()
    assert (loynes.pth_step, comparison.prec_star, cli.generate, cli.main) == originals
    assert module_attributes() == before
