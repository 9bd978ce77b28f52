"""Configuration file parsing and flag overrides."""

import math
import re

import pytest

from jswsim.comparison import compare_allocation_ranks, compare_server_counts
from jswsim.config import (
    CONFIG_ENV_VAR,
    CONFIG_HELP,
    _SCHEMA,
    _SECTIONS,
    ExperimentConfig,
    PropertySettings,
    load_config,
    parse_law,
    parse_seeds,
)
from jswsim.errors import ConfigError
from jswsim.loynes import estimate_stationary
from jswsim.orderings import run_property_suite, suite_names
from jswsim.processes import (
    Deterministic,
    Exponential,
    Hyperexponential,
    IIDModel,
    MarkovModulatedModel,
    TraceModel,
    Uniform,
    generate,
)


class TestLawGrammar:
    def test_all_laws(self):
        assert parse_law("exponential(2.0)") == Exponential(2.0)
        assert parse_law("deterministic(1.5)") == Deterministic(1.5)
        assert parse_law("uniform(0.5, 2.5)") == Uniform(0.5, 2.5)
        assert parse_law("hyperexponential(0.5, 0.5; 1.0, 2.0)") == Hyperexponential(
            (0.5, 0.5), (1.0, 2.0)
        )

    def test_whitespace_tolerated(self):
        assert parse_law("  exponential( 2.0 ) ") == Exponential(2.0)

    def test_errors_name_the_problem(self):
        with pytest.raises(ConfigError, match="NAME"):
            parse_law("exponential")
        with pytest.raises(ConfigError, match="unknown law"):
            parse_law("pareto(2.0)")
        with pytest.raises(ConfigError, match="arguments"):
            parse_law("uniform(1.0)")
        with pytest.raises(ConfigError, match="number"):
            parse_law("exponential(abc)")
        with pytest.raises(ConfigError, match="probs;rates"):
            parse_law("hyperexponential(0.5, 0.5)")
        # law-level validation still applies
        with pytest.raises(ConfigError):
            parse_law("exponential(-1)")


class TestSeedGrammar:
    def test_lists_and_ranges(self):
        assert parse_seeds("1") == (1,)
        assert parse_seeds("1 2 3") == (1, 2, 3)
        assert parse_seeds("1, 2, 3") == (1, 2, 3)
        assert parse_seeds("5..8") == (5, 6, 7, 8)
        assert parse_seeds("1 10..12 4") == (1, 10, 11, 12, 4)

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_seeds("")
        with pytest.raises(ConfigError):
            parse_seeds("x")
        with pytest.raises(ConfigError):
            parse_seeds("3..1")
        with pytest.raises(ConfigError):
            parse_seeds("1..x")


class TestDefaults:
    def test_no_file(self):
        cfg = load_config(None)
        assert cfg.model == IIDModel(Exponential(1.0), Exponential(0.5))
        assert cfg.seeds == (1,)
        assert cfg.horizon == 1000
        assert cfg.jobs == 1
        assert cfg.out is None
        assert cfg.system.servers == 2 and cfg.system.rank == 1
        assert cfg.loynes.max_n == 2**22
        assert cfg.compare.mode == "servers"
        assert cfg.properties.instances == 10000

    def test_env_var_used(self, tmp_path, monkeypatch):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nhorizon = 77\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(p))
        assert load_config(None).horizon == 77
        monkeypatch.setenv(CONFIG_ENV_VAR, "")
        assert load_config(None).horizon == 1000


class TestFileParsing:
    def test_full_file(self, tmp_path):
        p = tmp_path / "full.ini"
        p.write_text(
            """
# top comment
[model]
kind = markov
transition = 0.9 0.1 / 0.2 0.8
sigma_states = exponential(1.0) | deterministic(0.5)
xi_states = uniform(0.5, 1.5) | exponential(0.25)

[run]
seeds = 1..3
horizon = 500   # inline comment
jobs = 2
out = run.csv

[system]
servers = 4
rank = 2
initial = 0 0 1 2.5

[loynes]
servers = 3
tolerance = 1e-7
window = 32
max_n = 4096

[compare]
mode = allocation
servers = 4
rank = 3
start = 0 0 0 0
start_alt = 0 0 0 0
tolerance = 0.0

[properties]
suites = convex-battery step-comparison
instances = 123
"""
        )
        cfg = load_config(str(p))
        assert isinstance(cfg.model, MarkovModulatedModel)
        assert cfg.model.sigma_laws == (Exponential(1.0), Deterministic(0.5))
        assert cfg.seeds == (1, 2, 3)
        assert cfg.horizon == 500
        assert cfg.jobs == 2
        assert cfg.out == "run.csv"
        assert cfg.system.servers == 4
        assert cfg.system.initial == (0.0, 0.0, 1.0, 2.5)
        assert cfg.loynes.tolerance == 1e-7
        assert cfg.compare.mode == "allocation"
        assert cfg.compare.rank == 3
        assert cfg.compare.start == (0.0, 0.0, 0.0, 0.0)
        assert cfg.properties.suites == ("convex-battery", "step-comparison")
        assert cfg.properties.instances == 123

    def test_trace_model(self, tmp_path):
        p = tmp_path / "t.ini"
        p.write_text("[model]\nkind = trace\npath = marks.txt\n")
        cfg = load_config(str(p))
        assert cfg.model == TraceModel("marks.txt")

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[nope\]"):
            load_config(str(p))

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nhorizont = 5\n")
        with pytest.raises(ConfigError, match="horizont"):
            load_config(str(p))

    def test_key_wrong_for_kind(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkind = iid\ntransition = 0.5 0.5 / 0.5 0.5\n")
        with pytest.raises(ConfigError, match="kind=iid"):
            load_config(str(p))

    def test_unparseable_value_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run]\nhorizon = soon\n")
        with pytest.raises(ConfigError, match=r"\[run\] horizon"):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no-such"):
            load_config("no-such.ini")

    def test_unknown_suite_named(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[properties]\nsuites = convex-battery bogus\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(p))

    def test_bad_mode(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[compare]\nmode = upside-down\n")
        with pytest.raises(ConfigError, match="upside-down"):
            load_config(str(p))


class TestOverrides:
    def test_flags_win(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[run]\nseeds = 9\nhorizon = 9\njobs = 9\nout = nine.csv\n")
        cfg = load_config(str(p), seeds="1..2", horizon=50, jobs=2, out="x.csv")
        assert cfg.seeds == (1, 2)
        assert cfg.horizon == 50
        assert cfg.jobs == 2
        assert cfg.out == "x.csv"

    def test_validation_applies_to_overrides(self):
        with pytest.raises(ConfigError):
            load_config(None, horizon=0)
        with pytest.raises(ConfigError):
            load_config(None, jobs=0)

    def test_seeds_come_out_sorted(self, tmp_path):
        # Report rows are written seed-sorted, so the config normalizes
        # the order no matter how the list was spelled.
        p = tmp_path / "c.ini"
        p.write_text("[run]\nseeds = 3 1 2\n")
        assert load_config(str(p)).seeds == (1, 2, 3)
        assert load_config(None, seeds="7 5..6").seeds == (5, 6, 7)


class TestHelpText:
    def test_every_section_and_key_documented(self):
        for section, keys in _SECTIONS.items():
            assert f"[{section}]" in CONFIG_HELP, section
            for key in keys:
                assert key in CONFIG_HELP, f"[{section}] {key}"

    def test_law_grammar_documented(self):
        for fragment in (
            "exponential(RATE)",
            "deterministic(VALUE)",
            "uniform(LO,HI)",
            "hyperexponential",
        ):
            assert fragment in CONFIG_HELP, fragment


class TestSchema:
    """The settings dataclasses are the only declaration of keys and defaults."""

    def test_no_file_is_the_dataclass_defaults(self):
        assert load_config(None) == ExperimentConfig()

    @pytest.mark.parametrize(
        "section, key", [(section, key) for section, keys in _SECTIONS.items() for key in keys]
    )
    def test_empty_value_is_the_default(self, section, key, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(f"[{section}]\n{key} =   \n")
        assert load_config(str(p)) == ExperimentConfig()

    def test_blocks_validate_on_construction(self):
        with pytest.raises(ConfigError, match=r"\[run\] horizon"):
            ExperimentConfig(horizon=0)
        with pytest.raises(ConfigError, match=r"\[run\] jobs"):
            ExperimentConfig(jobs=0)
        assert ExperimentConfig(seeds=(3, 1, 2)).seeds == (1, 2, 3)
        with pytest.raises(ConfigError, match="bogus"):
            PropertySettings(suites=("convex-battery", "bogus"))

    # The words CONFIG_HELP writes for defaults that are not a value's text.
    HELP_WORDS = {"none": None, "zeros": None, "all zeros": None, "all": suite_names()}

    @pytest.mark.parametrize("section", ["run", "system", "loynes", "compare", "properties"])
    def test_help_defaults_are_the_dataclass_defaults(self, section):
        documented = {}
        current = None
        for line in CONFIG_HELP.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            if header:
                current = header.group(1)
            entry = re.match(r"  (\w+) .*\(([^()]*)\)$", line)
            if current == section and entry:
                documented[entry.group(1)] = entry.group(2)
        default = ExperimentConfig()
        block = default if section == "run" else getattr(default, section)
        assert sorted(documented) == sorted(_SCHEMA[section])
        for key, parse in _SCHEMA[section].items():
            text = documented[key]
            value = self.HELP_WORDS[text] if text in self.HELP_WORDS else parse(text, key)
            assert value == getattr(block, key), (section, key, text)


MM1 = IIDModel(Exponential(1.0), Exponential(0.5))
MARKS = generate(MM1, 1, 20)

# An invalid value, as a config file section and as the same value passed to
# the API function that section configures. Small windows keep the rows fast
# where an unchecked value would run.
INVALID_VALUES = {
    "loynes-nan-tolerance": (
        "[loynes]\ntolerance = nan\n",
        lambda: estimate_stationary(MM1, 1, 2, tolerance=math.nan, window=16, max_n=64),
    ),
    "loynes-zero-tolerance": (
        "[loynes]\ntolerance = 0\n",
        lambda: estimate_stationary(MM1, 1, 2, tolerance=0.0),
    ),
    "loynes-zero-window": (
        "[loynes]\nwindow = 0\n",
        lambda: estimate_stationary(MM1, 1, 2, window=0),
    ),
    "loynes-rank-above-servers": (
        "[loynes]\nservers = 2\nrank = 3\n",
        lambda: estimate_stationary(MM1, 1, 2, rank=3),
    ),
    "compare-small-above-big": (
        "[compare]\nservers = 2\nservers_small = 3\n",
        lambda: compare_server_counts(2, 3, MARKS),
    ),
    "compare-unsorted-start": (
        "[compare]\nmode = allocation\nservers = 2\nstart = 1 0\n",
        lambda: compare_allocation_ranks(2, 2, (1.0, 0.0), (0.0, 0.0), MARKS),
    ),
    "compare-unsorted-start-alt": (
        "[compare]\nmode = allocation\nservers = 2\nstart_alt = 1 0\n",
        lambda: compare_allocation_ranks(2, 2, (0.0, 0.0), (1.0, 0.0), MARKS),
    ),
    "compare-nan-tolerance": (
        "[compare]\nmode = allocation\ntolerance = nan\n",
        lambda: compare_allocation_ranks(3, 2, (0.0,) * 3, (0.0,) * 3, MARKS, tol=math.nan),
    ),
    "compare-inf-tolerance": (
        "[compare]\nmode = allocation\ntolerance = inf\n",
        lambda: compare_allocation_ranks(3, 2, (0.0,) * 3, (0.0,) * 3, MARKS, tol=math.inf),
    ),
    "compare-inf-sum-slack": (
        "[compare]\nsum_slack = inf\n",
        lambda: compare_server_counts(3, 2, MARKS, sum_slack=math.inf),
    ),
    "run-seed-negative": ("[run]\nseeds = -1\n", lambda: generate(MM1, -1, 5)),
    "run-seed-2-64": (
        "[run]\nseeds = 18446744073709551616\n",
        lambda: estimate_stationary(MM1, 2**64, 2, window=16, max_n=64),
    ),
    "properties-unknown-suite": (
        "[properties]\nsuites = bogus\n",
        lambda: run_property_suite("bogus", 1),
    ),
    "properties-zero-instances": (
        "[properties]\ninstances = 0\n",
        lambda: run_property_suite("convex-battery", 0),
    ),
    "properties-inf-tolerance": (
        "[properties]\ntolerance = inf\n",
        lambda: run_property_suite("convex-battery", 1, tol=math.inf),
    ),
    "properties-nan-tolerance": (
        "[properties]\ntolerance = nan\n",
        lambda: run_property_suite("convex-battery", 1, tol=math.nan),
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_VALUES))
def test_config_and_api_reject_alike(name, tmp_path):
    """A value the API rejects is rejected from a config file too, naming its section."""
    text, call = INVALID_VALUES[name]
    with pytest.raises(ValueError):
        call()
    p = tmp_path / "c.ini"
    p.write_text(text)
    section = text.split("\n", 1)[0]
    with pytest.raises(ConfigError, match=re.escape(section)):
        load_config(str(p))


@pytest.mark.parametrize("key", ["start", "start_alt"])
def test_compare_start_errors_name_their_key(key, tmp_path):
    p = tmp_path / "c.ini"
    p.write_text(f"[compare]\nmode = allocation\nservers = 2\n{key} = 2 1\n")
    rule = f"[compare]: {key} must be finite, nonnegative and nondecreasing, got (2.0, 1.0)"
    with pytest.raises(ConfigError, match=re.escape(rule)):
        load_config(str(p))
    p.write_text(f"[compare]\nmode = allocation\nservers = 2\n{key} = 0\n")
    with pytest.raises(ConfigError, match=re.escape(f"[compare]: {key} has 1 entries, expected 2")):
        load_config(str(p))
