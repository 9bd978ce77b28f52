"""Experiment configuration: a flat key=value file with bracketed sections.

Parsed with configparser ('#' starts a comment, values never span lines).
Unknown sections or keys are rejected with a message naming the offender,
as are values that fail to parse. Command line flags override file values.

Law grammar (used by sigma, xi and the per-state lists):

    exponential(RATE)
    deterministic(VALUE)
    uniform(LO,HI)
    hyperexponential(P1,P2,...;R1,R2,...)

Seed lists accept integers and inclusive ranges: ``seeds = 1 2 10..20``.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace

from .comparison import DEFAULT_SUM_SLACK, SystemConfig
from .errors import ConfigError
from .orderings import suite_names
from .processes import (
    Deterministic,
    Exponential,
    Hyperexponential,
    IIDModel,
    InputModel,
    MarkovModulatedModel,
    TraceModel,
    Uniform,
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


def _require(ok: bool, where: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"{where}: {message}")


# Each settings block validates itself on construction, so a value set by a
# command line flag through dataclasses.replace is checked like a file value.


@dataclass(frozen=True)
class LoynesSettings:
    servers: int = 2
    rank: int = 1
    tolerance: float = 1e-6
    window: int = 64
    max_n: int = 2**22
    snapshots: str | None = None

    def __post_init__(self) -> None:
        _require(self.servers >= 1, "[loynes] servers", f"must be >= 1, got {self.servers}")
        _require(
            1 <= self.rank <= self.servers,
            "[loynes] rank",
            f"allocation rank {self.rank} outside [1, {self.servers}]",
        )
        _require(self.tolerance > 0.0, "[loynes] tolerance", f"must be > 0, got {self.tolerance!r}")
        _require(self.window >= 1, "[loynes] window", f"must be >= 1, got {self.window}")
        _require(
            self.max_n >= self.window,
            "[loynes] max_n",
            f"{self.max_n} is smaller than window {self.window}",
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
        _require(
            self.mode in ("servers", "allocation"),
            "[compare] mode",
            f"unknown mode {self.mode!r}",
        )
        if self.mode == "servers":
            _require(
                self.servers_small <= self.servers,
                "[compare] servers_small",
                f"{self.servers_small} exceeds servers = {self.servers}",
            )
        try:
            self.systems()
        except ValueError as exc:
            raise ConfigError(f"[compare]: {exc}") from exc

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
        for key in ("instances", "max_dim"):
            value = getattr(self, key)
            _require(value >= 1, f"[properties] {key}", f"must be >= 1, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: InputModel = field(default_factory=lambda: IIDModel(Exponential(1.0), Exponential(0.5)))
    seeds: tuple[int, ...] = (1,)
    horizon: int = 1000
    jobs: int = 1
    out: str | None = None
    system: SystemConfig = field(default_factory=lambda: SystemConfig(2, 1))
    loynes: LoynesSettings = field(default_factory=LoynesSettings)
    compare: CompareSettings = field(default_factory=CompareSettings)
    properties: PropertySettings = field(default_factory=PropertySettings)


_SECTIONS: dict[str, tuple[str, ...]] = {
    "model": ("kind", "sigma", "xi", "transition", "sigma_states", "xi_states", "path"),
    "run": ("seeds", "horizon", "jobs", "out"),
    "system": ("servers", "rank", "initial"),
    "loynes": ("servers", "rank", "tolerance", "window", "max_n", "snapshots"),
    "compare": (
        "mode",
        "servers",
        "servers_small",
        "rank",
        "start",
        "start_alt",
        "sum_slack",
        "tolerance",
        "corrupt_step",
        "trajectories",
    ),
    "properties": ("suites", "instances", "max_dim", "seed", "tolerance"),
}

_MODEL_KEYS = {
    "iid": ("sigma", "xi"),
    "markov": ("transition", "sigma_states", "xi_states"),
    "trace": ("path",),
}

CONFIG_HELP = """\
configuration file keys (defaults in parentheses)

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
  seeds         integers and inclusive ranges: 1 2 10..20 (1)
  horizon       customers per run, >= 1 (1000)
  jobs          seed-level worker processes (1)
  out           CSV output path (none)

[system]                          used by: simulate
  servers       number of queues (2)
  rank          arrivals join the rank-th least-loaded queue (1)
  initial       starting profile, nondecreasing (all zeros)

[loynes]                          used by: loynes
  servers       (2)     rank      (1)
  tolerance     sup-norm doubling increment declaring convergence (1e-6)
  window        first evaluation point (64)
  max_n         largest evaluation point (4194304)
  snapshots     CSV path for per-doubling profiles (none)

[compare]                         used by: compare
  mode          servers | allocation (servers)
  servers       larger system / system size (3)
  servers_small smaller system, servers mode (2)
  rank          allocation rank, allocation mode (2)
  start         shortest-workload start, allocation mode (zeros)
  start_alt     ranked start, allocation mode (zeros)
  sum_slack     slack for workload-sum inequalities (1e-12)
  tolerance     per-step tolerance, allocation mode (0)
  corrupt_step  self-test hook: corrupt one checked step, either mode (none)
  trajectories  CSV path for coupled trajectories (none)

[properties]                          used by: verify-properties
  suites        all | names from: {suites} (all)
  instances     instances per suite (10000)
  max_dim       profile lengths cycle over 1..max_dim (8)
  seed          sampler seed (1)
  tolerance     comparison tolerance (0)
""".format(suites=" ".join(suite_names()))

_LAW_NAMES = ("exponential", "deterministic", "uniform", "hyperexponential")


def _floats(text: str, where: str) -> list[float]:
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"{where}: cannot parse number {tok!r}") from None
    return out


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
        return Hyperexponential(tuple(_floats(parts[0], where)), tuple(_floats(parts[1], where)))
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


def _profile_or_none(text: str | None, where: str) -> tuple[float, ...] | None:
    if text is None or not text.strip():
        return None
    return tuple(_floats(text, where))


class _Section:
    """One config section with typed, error-naming accessors."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: cannot parse integer {raw!r}") from None

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: cannot parse number {raw!r}") from None


def _parse_model(section: _Section) -> InputModel:
    kind = (section.get("kind") or "iid").strip()
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"[model] kind: unknown kind {kind!r}, choose from {sorted(_MODEL_KEYS)}")
    allowed = set(_MODEL_KEYS[kind]) | {"kind"}
    for key in section.values:
        if key not in allowed:
            raise ConfigError(f"[model] {key}: not valid for kind={kind}")
    if kind == "iid":
        sigma = parse_law(section.get("sigma", "exponential(1.0)"), "[model] sigma")
        xi = parse_law(section.get("xi", "exponential(0.5)"), "[model] xi")
        return IIDModel(sigma, xi)
    if kind == "trace":
        path = section.get("path")
        if not path:
            raise ConfigError("[model] path: required for kind=trace")
        return TraceModel(path.strip())
    raw_rows = section.get("transition")
    if not raw_rows:
        raise ConfigError("[model] transition: required for kind=markov")
    rows = tuple(
        tuple(_floats(row, "[model] transition")) for row in raw_rows.split("/")
    )
    raw_sig = section.get("sigma_states")
    raw_xi = section.get("xi_states")
    if not raw_sig or not raw_xi:
        raise ConfigError("[model] sigma_states and xi_states: required for kind=markov")
    sig_laws = tuple(parse_law(p, "[model] sigma_states") for p in raw_sig.split("|"))
    xi_laws = tuple(parse_law(p, "[model] xi_states") for p in raw_xi.split("|"))
    return MarkovModulatedModel(rows, sig_laws, xi_laws)


def _read_file(path: str) -> dict[str, _Section]:
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
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        values = dict(parser.items(name))
        for key in values:
            if key not in _SECTIONS[name]:
                raise ConfigError(f"[{name}] {key}: unknown key")
        sections[name] = _Section(name, values)
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

    def sec(name: str) -> _Section:
        return sections.get(name, _Section(name, {}))

    model = _parse_model(sec("model")) if "model" in sections else ExperimentConfig().model

    run = sec("run")
    cfg_seeds = parse_seeds(run.get("seeds", "1"), "[run] seeds")
    cfg_horizon = run.get_int("horizon", 1000)
    cfg_jobs = run.get_int("jobs", 1)
    cfg_out = run.get("out")

    system = sec("system")
    try:
        system_cfg = SystemConfig(
            servers=system.get_int("servers", 2),
            rank=system.get_int("rank", 1),
            initial=_profile_or_none(system.get("initial"), "[system] initial"),
        )
    except ValueError as exc:
        raise ConfigError(f"[system]: {exc}") from exc

    ly = sec("loynes")
    loynes_cfg = LoynesSettings(
        servers=ly.get_int("servers", 2),
        rank=ly.get_int("rank", 1),
        tolerance=ly.get_float("tolerance", 1e-6),
        window=ly.get_int("window", 64),
        max_n=ly.get_int("max_n", 2**22),
        snapshots=ly.get("snapshots"),
    )

    cp = sec("compare")
    corrupt_raw = cp.get("corrupt_step")
    compare_cfg = CompareSettings(
        mode=(cp.get("mode") or "servers").strip(),
        servers=cp.get_int("servers", 3),
        servers_small=cp.get_int("servers_small", 2),
        rank=cp.get_int("rank", 2),
        start=_profile_or_none(cp.get("start"), "[compare] start"),
        start_alt=_profile_or_none(cp.get("start_alt"), "[compare] start_alt"),
        sum_slack=cp.get_float("sum_slack", DEFAULT_SUM_SLACK),
        tolerance=cp.get_float("tolerance", 0.0),
        corrupt_step=None if corrupt_raw is None else cp.get_int("corrupt_step", 0),
        trajectories=cp.get("trajectories"),
    )

    lm = sec("properties")
    suites_raw = (lm.get("suites") or "all").strip()
    if suites_raw == "all":
        suites = suite_names()
    else:
        suites = tuple(suites_raw.split())
        unknown = [s for s in suites if s not in suite_names()]
        if unknown:
            raise ConfigError(
                f"[properties] suites: unknown suite {unknown[0]!r}, choose from {suite_names()}"
            )
    properties_cfg = PropertySettings(
        suites=suites,
        instances=lm.get_int("instances", 10000),
        max_dim=lm.get_int("max_dim", 8),
        seed=lm.get_int("seed", 1),
        tolerance=lm.get_float("tolerance", 0.0),
    )

    cfg = ExperimentConfig(
        model=model,
        seeds=cfg_seeds,
        horizon=cfg_horizon,
        jobs=cfg_jobs,
        out=cfg_out,
        system=system_cfg,
        loynes=loynes_cfg,
        compare=compare_cfg,
        properties=properties_cfg,
    )
    if seeds is not None:
        cfg = replace(cfg, seeds=parse_seeds(seeds, "--seeds"))
    if horizon is not None:
        cfg = replace(cfg, horizon=horizon)
    if jobs is not None:
        cfg = replace(cfg, jobs=jobs)
    if out is not None:
        cfg = replace(cfg, out=out)
    # Seed order is part of the output contract: reports are written
    # seed-sorted no matter how the seed list was spelled.
    cfg = replace(cfg, seeds=tuple(sorted(cfg.seeds)))
    if cfg.horizon < 1:
        raise ConfigError(f"[run] horizon: must be >= 1, got {cfg.horizon}")
    if cfg.jobs < 1:
        raise ConfigError(f"[run] jobs: must be >= 1, got {cfg.jobs}")
    return cfg
