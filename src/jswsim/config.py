"""Experiment configuration: a flat key=value file with bracketed sections.

Parsed with configparser ('#' starts a comment, values never span lines).
Unknown sections or keys are rejected with a message naming the offender,
as are values that fail to parse. A key with an empty value is treated as
absent. Command line flags override file values.

Law grammar (used by sigma, xi and the per-state lists):

    exponential(RATE)
    deterministic(VALUE)
    uniform(LO,HI)
    hyperexponential(P1,P2,...;R1,R2,...)

Seed lists accept integers and inclusive ranges: ``seeds = 1 2 10..20``.
"""

from __future__ import annotations

import configparser
import contextlib
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .comparison import (
    DEFAULT_SUM_SLACK,
    SystemConfig,
    _allocation_starts,
    _require_server_counts,
)
from .errors import ConfigError
from .loynes import _require_loynes_settings
from .orderings import _require_suite_settings, _require_tolerance, suite_names
from .processes import (
    Deterministic,
    Exponential,
    Hyperexponential,
    IIDModel,
    InputModel,
    MarkovModulatedModel,
    TraceModel,
    Uniform,
    _require_seeds,
)

__all__ = [
    "CONFIG_ENV_VAR",
    "CONFIG_HELP",
    "CompareSettings",
    "ExperimentConfig",
    "LoynesSettings",
    "PropertySettings",
    "load_config",
    "parse_law",
    "parse_seeds",
]

CONFIG_ENV_VAR = "JSWSIM_CONFIG"

# The model of a config without [model], and the defaults of kind, sigma and xi
_DEFAULT_KIND = "iid"
_DEFAULT_MODEL = IIDModel(Exponential(1.0), Exponential(0.5))


def _require(ok: bool, where: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"{where}: {message}")


@contextlib.contextmanager
def _section(name: str) -> typing.Iterator[None]:
    """Report a ValueError as a ConfigError naming the section ``[name]``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


# Each settings block validates itself on construction with the checks of the functions it
# configures, so a flag set through dataclasses.replace is checked like a file value.


@dataclass(frozen=True)
class LoynesSettings:
    servers: int = 2
    rank: int = 1
    tolerance: float = 1e-6
    window: int = 64
    max_n: int = 2**22

    def __post_init__(self) -> None:
        with _section("loynes"):
            _require_loynes_settings(
                self.servers, self.rank, self.tolerance, self.window, self.max_n
            )


@dataclass(frozen=True)
class CompareSettings:
    mode: str = "servers"
    servers: int = 3
    servers_small: int = 2
    rank: int = 2
    start: tuple[float, ...] | None = None
    start_alt: tuple[float, ...] | None = None
    sum_slack: float = DEFAULT_SUM_SLACK
    tolerance: float = 0.0
    corrupt_step: int | None = None
    trajectories: str | None = None

    def __post_init__(self) -> None:
        with _section("compare"):
            if self.mode not in ("servers", "allocation"):
                raise ValueError(f"unknown mode {self.mode!r}")
            if self.mode == "servers":
                _require_server_counts(self.servers, self.servers_small)
            else:
                _allocation_starts(self.servers, self.rank, self.start, self.start_alt)
            _require_tolerance(self.sum_slack, "sum_slack")
            _require_tolerance(self.tolerance, "tolerance")

    def systems(self) -> tuple[SystemConfig, SystemConfig]:
        """The two coupled systems; the first is checked below the second."""
        if self.mode == "servers":
            return SystemConfig(self.servers), SystemConfig(self.servers_small)
        return (
            SystemConfig(self.servers, 1, self.start),
            SystemConfig(self.servers, self.rank, self.start_alt),
        )


@dataclass(frozen=True)
class PropertySettings:
    suites: tuple[str, ...] = field(default_factory=suite_names)
    instances: int = 10000
    max_dim: int = 8
    seed: int = 1
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        with _section("properties"):
            _require_suite_settings(self.suites, self.instances, self.max_dim, self.tolerance)


@dataclass(frozen=True)
class ExperimentConfig:
    model: InputModel = _DEFAULT_MODEL
    seeds: tuple[int, ...] = (1,)
    horizon: int = 1000
    jobs: int = 1
    out: str | None = None
    system: SystemConfig = SystemConfig(2)
    loynes: LoynesSettings = LoynesSettings()
    compare: CompareSettings = CompareSettings()
    properties: PropertySettings = PropertySettings()

    def __post_init__(self) -> None:
        _require(self.horizon >= 1, "[run] horizon", f"must be >= 1, got {self.horizon}")
        _require(self.jobs >= 1, "[run] jobs", f"must be >= 1, got {self.jobs}")
        with _section("run"):
            _require_seeds(self.seeds)
        # Seed order is part of the output contract: reports are written
        # seed-sorted no matter how the seed list was spelled.
        object.__setattr__(self, "seeds", tuple(sorted(self.seeds)))


CONFIG_HELP = """\
configuration file keys (defaults in parentheses)
a key with an empty value (key =) is the same as leaving it out

law grammar: exponential(RATE), deterministic(VALUE), uniform(LO,HI),
hyperexponential(P1,..,Pk; R1,..,Rk)

[model]
  kind          iid | markov | trace (iid)
  sigma         service law, iid only (exponential(1.0))
  xi            inter-arrival law, iid only (exponential(0.5))
  transition    markov rows, '/' between rows: 0.9 0.1 / 0.2 0.8
  sigma_states  one service law per state, '|'-separated
  xi_states     one inter-arrival law per state, '|'-separated
  path          trace file of 'sigma xi' lines, '#' comments allowed

[run]
  seeds         integers in [0, 2**64) and inclusive ranges: 1 2 10..20 (1)
  horizon       customers per run, >= 1 (1000)
  jobs          seed-level worker processes, at most one per usable CPU (1)
  out           CSV output path; for loynes the per-doubling profiles (none)

[system]                          used by: simulate
  servers       number of queues (2)
  rank          arrivals join the rank-th least-loaded queue (1)
  initial       starting profile, nondecreasing (all zeros)

[loynes]                          used by: loynes
  servers       number of queues (2)
  rank          allocation rank (1)
  tolerance     sup-norm doubling increment declaring convergence, > 0 (1e-6)
  window        first evaluation point (64)
  max_n         largest evaluation point (4194304)

[compare]                         used by: compare
  mode          servers | allocation (servers)
  servers       larger system / system size (3)
  servers_small smaller system, servers mode (2)
  rank          allocation rank, allocation mode (2)
  start         shortest-workload start, allocation mode (zeros)
  start_alt     ranked start, allocation mode (zeros)
  sum_slack     slack for workload-sum inequalities, finite, < 0 tightens (1e-12)
  tolerance     per-step tolerance, allocation mode, finite, < 0 tightens (0)
  corrupt_step  self-test hook: corrupt one checked step, 0..horizon (none)
  trajectories  CSV path for coupled trajectories (none)

[properties]                          used by: verify-properties
  suites        all | names from: {suites} (all)
  instances     instances per suite (10000)
  max_dim       profile lengths cycle over 1..max_dim (8)
  seed          sampler seed (1)
  tolerance     comparison tolerance, finite, < 0 tightens (0)
""".format(suites=" ".join(suite_names()))

_LAW_NAMES = ("exponential", "deterministic", "uniform", "hyperexponential")


# Value parsers take the raw text and the "[section] key" their error names.

_Parser = typing.Callable[[str, str], object]


def _scalar(kind: type, noun: str) -> _Parser:
    def parse(text: str, where: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse {noun} {text!r}") from None

    return parse


_int = _scalar(int, "integer")
_float = _scalar(float, "number")


def _floats(text: str, where: str) -> tuple[float, ...]:
    return tuple(_float(tok, where) for tok in text.replace(",", " ").split())


def parse_law(text: str, where: str = "law"):
    """Parse one distribution law from its textual form."""
    body = text.strip()
    open_at = body.find("(")
    if open_at < 0 or not body.endswith(")"):
        raise ConfigError(f"{where}: expected NAME(ARGS), got {text!r}")
    name = body[:open_at].strip()
    args = body[open_at + 1 : -1]
    if name not in _LAW_NAMES:
        raise ConfigError(f"{where}: unknown law {name!r}, choose from {_LAW_NAMES}")
    try:
        if name == "exponential":
            (rate,) = _floats(args, where)
            return Exponential(rate)
        if name == "deterministic":
            (value,) = _floats(args, where)
            return Deterministic(value)
        if name == "uniform":
            lo, hi = _floats(args, where)
            return Uniform(lo, hi)
        parts = args.split(";")
        if len(parts) != 2:
            raise ConfigError(f"{where}: hyperexponential needs 'probs;rates'")
        return Hyperexponential(_floats(parts[0], where), _floats(parts[1], where))
    except ValueError:
        raise ConfigError(f"{where}: wrong number of arguments in {text!r}") from None


def parse_seeds(text: str, where: str = "[run] seeds") -> tuple[int, ...]:
    seeds: list[int] = []
    for tok in text.replace(",", " ").split():
        if ".." in tok:
            lo_s, _, hi_s = tok.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"{where}: bad range {tok!r}") from None
            if hi < lo:
                raise ConfigError(f"{where}: empty range {tok!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            try:
                seeds.append(int(tok))
            except ValueError:
                raise ConfigError(f"{where}: bad seed {tok!r}") from None
    if not seeds:
        raise ConfigError(f"{where}: no seeds given")
    return tuple(seeds)


def _text(text: str, where: str) -> str:
    return text


def _suites(text: str, where: str) -> tuple[str, ...]:
    return suite_names() if text == "all" else tuple(text.split())


_PARSERS: dict[object, _Parser] = {
    int: _int,
    int | None: _int,
    float: _float,
    str: _text,
    str | None: _text,
    tuple[float, ...] | None: _floats,
    tuple[int, ...]: parse_seeds,
    tuple[str, ...]: _suites,
}


def _schema() -> dict[str, dict[str, _Parser]]:
    """Section -> key -> parser. Each settings block of ExperimentConfig is
    the section of its name; the other fields but ``model`` form [run]."""
    top = typing.get_type_hints(ExperimentConfig)
    schema: dict[str, dict[str, _Parser]] = {"run": {}}
    for f in fields(ExperimentConfig):
        block = top[f.name]
        if is_dataclass(block):
            hints = typing.get_type_hints(block)
            schema[f.name] = {g.name: _PARSERS[hints[g.name]] for g in fields(block)}
        elif f.name != "model":
            schema["run"][f.name] = _PARSERS[block]
    return schema


_SCHEMA = _schema()

_MODEL_KEYS = {
    "iid": ("sigma", "xi"),
    "markov": ("transition", "sigma_states", "xi_states"),
    "trace": ("path",),
}

_SECTIONS: dict[str, tuple[str, ...]] = {
    "model": ("kind", *(key for keys in _MODEL_KEYS.values() for key in keys)),
    **{name: tuple(parsers) for name, parsers in _SCHEMA.items()},
}


def _parse_model(values: dict[str, str]) -> InputModel:
    kind = values.get("kind", _DEFAULT_KIND)
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"[model] kind: unknown kind {kind!r}, choose from {sorted(_MODEL_KEYS)}")
    for key in values:
        if key not in _MODEL_KEYS[kind] and key != "kind":
            raise ConfigError(f"[model] {key}: not valid for kind={kind}")
    if kind == "iid":
        laws = {
            f"{key}_law": parse_law(text, f"[model] {key}")
            for key, text in values.items()
            if key != "kind"
        }
        return replace(_DEFAULT_MODEL, **laws)
    if kind == "trace":
        if "path" not in values:
            raise ConfigError("[model] path: required for kind=trace")
        return TraceModel(values["path"])
    if "transition" not in values:
        raise ConfigError("[model] transition: required for kind=markov")
    rows = tuple(_floats(row, "[model] transition") for row in values["transition"].split("/"))
    if "sigma_states" not in values or "xi_states" not in values:
        raise ConfigError("[model] sigma_states and xi_states: required for kind=markov")
    sig_laws = tuple(parse_law(p, "[model] sigma_states") for p in values["sigma_states"].split("|"))
    xi_laws = tuple(parse_law(p, "[model] xi_states") for p in values["xi_states"].split("|"))
    return MarkovModulatedModel(rows, sig_laws, xi_laws)


def _read_file(path: str) -> dict[str, dict[str, str]]:
    """The file's sections and their non-empty values, stripped."""
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
    )
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        values = dict(parser.items(name))
        for key in values:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"[{name}] {key}: unknown key")
        sections[name] = {key: text.strip() for key, text in values.items() if text.strip()}
    return sections


def load_config(
    path: str | None = None,
    seeds: str | None = None,
    horizon: int | None = None,
    jobs: int | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional file plus flag overrides.

    When ``path`` is None the environment variable JSWSIM_CONFIG is
    consulted; with neither present, defaults apply.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    sections = _read_file(path) if path is not None else {}
    default = ExperimentConfig()
    changes: dict[str, object] = {}
    if "model" in sections:
        changes["model"] = _parse_model(sections["model"])
    for name, parsers in _SCHEMA.items():
        values = sections.get(name, {})
        parsed = {key: parsers[key](text, f"[{name}] {key}") for key, text in values.items()}
        if name == "run":
            changes.update(parsed)
            continue
        with _section(name):
            changes[name] = replace(getattr(default, name), **parsed)
    if seeds is not None:
        changes["seeds"] = parse_seeds(seeds, "--seeds")
    flags = {"horizon": horizon, "jobs": jobs, "out": out}
    changes.update((key, value) for key, value in flags.items() if value is not None)
    return replace(default, **changes)
