"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import jswsim

MODULES = ["jswsim"] + [f"jswsim.{m.name}" for m in pkgutil.iter_modules(jswsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_no_public_function_only_calls_another():
    # a public function whose body (past its docstring) returns one call of
    # another public name, or an item of it, is a second name for that
    # function: call the function itself
    public = {name: getattr(importlib.import_module(name), "__all__", ()) for name in MODULES}
    exported = set().union(*public.values())
    aliases = []
    for name in MODULES:
        for fn in ast.parse(inspect.getsource(importlib.import_module(name))).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in public[name]:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if isinstance(value, ast.Subscript):
                value = value.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in exported - {fn.name}
            ):
                aliases.append(f"{name}.{fn.name} -> {value.func.id}")
    assert not aliases, aliases


# cli imports the CSV row formatter and the process pool only when a run
# needs them, and nothing it imports loads numpy.random (about 5.5 MB of
# peak RSS and 12 ms of CPU in a child process): each would cost every
# command's start-up.
def test_cli_import_leaves_the_lazy_modules_out():
    lazy = ["jswsim._rows", "concurrent.futures.process", "numpy.random"]
    code = f"import sys, jswsim.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
    # forward run into calls and row blocks, and _advance cuts a long
    # few-column replay at _PATH_CHUNK; the modules that step forward runs
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


def test_backward_replays_go_through_the_one_stepper():
    # profiles._advance alone chooses how a backward replay steps: loynes
    # hands it every stretch and binds none of the steppers it picks from,
    # and no other function reads the count of columns that picks the kernel
    loynes = importlib.import_module("jswsim.loynes")
    kernels = (
        "_LOCKSTEP_MIN_ROWS",
        "_lockstep",
        "_lockstep_kernel",
        "_row_loop",
        "path_profiles",
    )
    bound = [n for n in kernels if hasattr(loynes, n)]
    assert not bound, bound
    readers = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                if "_LOCKSTEP_MIN_ROWS" in names:
                    readers.append(f"{name}.{fn.name}")
    assert readers == ["jswsim.profiles._advance"]


# One call of each public mark generator of jswsim.processes.
DRAWS = {
    "generate": lambda p, model: p.generate(model, 1, 3),
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
