"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import inspect
import pkgutil

import pytest

import jswsim

MODULES = ["jswsim"] + [f"jswsim.{m.name}" for m in pkgutil.iter_modules(jswsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


# The attributes the benchmark (bench/run.py, bench/test_smoke.py) looks up
# by name; the benchmark is not part of this suite, so a rename shows here.
BENCH_LOOKUPS = {
    "loynes": ["pth_step"],
    "comparison": ["prec_star", "fcfs_waiting_times"],
    "cli": ["generate", "main"],
    "config": ["load_config"],
    "processes": ["generate", "RNG_ALGORITHM"],
}


@pytest.mark.parametrize("name", sorted(BENCH_LOOKUPS))
def test_bench_lookups_resolve(name):
    module = importlib.import_module(f"jswsim.{name}")
    missing = [n for n in BENCH_LOOKUPS[name] if not hasattr(module, n)]
    assert not missing, missing


# bench/test_smoke.py::MEASURED_ON["compare-wide"] needs
# comparison.compare_server_counts.self_s and comparison.steps_checked, which
# the bench's tracer reads from its wrap of cli.compare_server_counts (the
# report's steps_checked). A compare that checked its seeds another way would
# read 0 on both, and this suite would not see it.
@pytest.mark.parametrize(
    "mode, name, keys",
    [
        ("servers", "compare_server_counts", "servers_small = 2\n"),
        ("allocation", "compare_allocation_ranks", "rank = 2\n"),
    ],
)
def test_compare_checks_each_seed_through_the_library_call(mode, name, keys, tmp_path, monkeypatch):
    cli = importlib.import_module("jswsim.cli")
    processes = importlib.import_module("jswsim.processes")
    real = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        marks = inspect.signature(real).bind(*args, **kwargs).arguments["marks"]
        calls.append((type(marks), len(marks)))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        f"[compare]\nmode = {mode}\nservers = 3\n{keys}trajectories = {tmp_path / 't.csv'}\n"
    )
    argv = ["compare", "--config", str(cfg), "--seeds", "1..3", "--horizon", "40", "--jobs", "1"]
    assert cli.main(argv) == 0
    assert calls == [(processes.MarkSequence, 40)] * 3


@pytest.mark.parametrize("name", ["comparison", "cli"])
def test_forward_runs_go_through_the_one_walk(name, monkeypatch, tmp_path, capsys):
    # profiles cuts every run into path_profiles calls: _path_chunks cuts a
    # forward run into calls and row blocks, and lockstep_profiles cuts a
    # long few-row call at _PATH_CHUNK; the modules that step forward runs
    # only consume the walk
    module = importlib.import_module(f"jswsim.{name}")
    bound = [n for n in ("path_profiles", "_PATH_CHUNK", "_CHUNK") if hasattr(module, n)]
    assert not bound, bound
    if name == "cli":
        # simulate draws its marks chunk by chunk as the walk steps them,
        # never the whole run at once
        generate = module.generate

        def whole_run(*args):
            raise AssertionError("simulate drew a whole run")

        monkeypatch.setattr(module, "generate", whole_run)
        argv = ["simulate", "--seeds", "1 2", "--horizon", "40000", "--jobs", "1"]
        assert module.main([*argv, "--out", str(tmp_path / "s.csv")]) == 0
        assert capsys.readouterr().out.count("40000 arrivals") == 2
        # compare draws each seed's run once, with generate, and writes its
        # trajectories from the marks it has just checked
        drawn = []

        def counted(model, seed, horizon):
            drawn.append(seed)
            return generate(model, seed, horizon)

        monkeypatch.setattr(module, "generate", counted)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[compare]\ntrajectories = {tmp_path / 't.csv'}\n")
        argv = ["compare", "--config", str(cfg), "--seeds", "1 2", "--horizon", "50", "--jobs", "1"]
        assert module.main(argv) == 0
        assert drawn == [1, 2]
        assert "wrote " + str(tmp_path / "t.csv") + " (510 rows)" in capsys.readouterr().out


# One call of each public mark generator of jswsim.processes.
DRAWS = {
    "generate": lambda p, model: p.generate(model, 1, 3),
    "generate_many": lambda p, model: p.generate_many(model, [1, 2], 3, 1),
    "generate_chunks": lambda p, model: next(p.generate_chunks(model, [1, 2], 3, 2)),
    "generate_forward": lambda p, model: next(p.generate_forward(model, 1, 3, 2)),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_every_generator_draws_through_the_one_stream(name, monkeypatch):
    # processes._stream alone knows how a seed's marks continue from the mark
    # before; a generator that drew its marks another way would not reach it
    processes = importlib.import_module("jswsim.processes")
    assert sorted(n for n in processes.__all__ if n.startswith("generate")) == sorted(DRAWS)

    class Reached(Exception):
        pass

    def stream(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(processes, "_stream", stream)
    model = processes.IIDModel(processes.Exponential(1.0), processes.Exponential(0.5))
    with pytest.raises(Reached):
        DRAWS[name](processes, model)
