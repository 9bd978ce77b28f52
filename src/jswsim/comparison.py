"""Coupled-path harnesses for comparing allocation policies and server counts.

All comparisons are pathwise: the systems being compared consume exactly the
same mark sequence, so the checked inequalities are expected to hold at
every step with zero tolerance (sum comparisons carry a small documented
slack because accumulating different vectors rounds differently). An
independent event-based FCFS simulation provides an external cross-check of
the recursion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import PremiseError
from .orderings import prec_p, prec_star
from .profiles import Profile, iter_profiles, pad, total_workload, zero_profile
from .processes import MarkSequence, model_label

__all__ = [
    "ComparisonReport",
    "MarksInfo",
    "StepViolation",
    "SystemConfig",
    "Trajectory",
    "compare_allocation_ranks",
    "compare_server_counts",
    "fcfs_waiting_times",
    "run_trajectory",
    "write_trajectory_csv",
    "write_violations_csv",
]

DEFAULT_SUM_SLACK = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """One simulated system: server count, allocation rank, starting profile."""

    servers: int
    rank: int = 1
    initial: Profile | None = None

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")
        if not 1 <= self.rank <= self.servers:
            raise ValueError(f"allocation rank {self.rank} outside [1, {self.servers}]")
        if self.initial is not None:
            start = tuple(float(x) for x in self.initial)
            if len(start) != self.servers:
                raise ValueError(
                    f"initial profile has {len(start)} entries, expected {self.servers}"
                )
            if any(not math.isfinite(x) or x < 0.0 for x in start):
                raise ValueError("initial profile entries must be finite and >= 0")
            if any(a > b for a, b in zip(start, start[1:])):
                raise ValueError("initial profile must be nondecreasing")
            object.__setattr__(self, "initial", start)

    @property
    def label(self) -> str:
        return f"S{self.servers}P{self.rank}"

    def start_profile(self) -> Profile:
        return self.initial if self.initial is not None else zero_profile(self.servers)


class MarksInfo(NamedTuple):
    """Provenance of the marks a trajectory consumed."""

    seed: int
    model: str
    length: int
    algorithm: str


def _marks_info(marks: MarkSequence) -> MarksInfo:
    return MarksInfo(marks.seed, model_label(marks.model), len(marks), marks.algorithm)


@dataclass
class Trajectory:
    """Profiles seen by customers 0..n when replaying a mark sequence."""

    config: SystemConfig
    profiles: list[Profile]
    marks_info: MarksInfo


def run_trajectory(config: SystemConfig, marks: MarkSequence) -> Trajectory:
    """Materialized trajectory: len(marks) + 1 profiles."""
    profiles = list(iter_profiles(config.start_profile(), marks, config.rank))
    return Trajectory(config, profiles, _marks_info(marks))


class StepViolation(NamedTuple):
    """One failed inequality: identifier, step, and both sides."""

    inequality: str
    step: int
    lhs: float
    rhs: float


@dataclass
class ComparisonReport:
    """Outcome of a coupled-path comparison between two systems."""

    mode: str
    systems: tuple[str, str]
    marks_info: MarksInfo
    steps_checked: int = 0
    violations: list[StepViolation] = field(default_factory=list)
    mean_offered_wait: tuple[float, float] = (0.0, 0.0)
    final_profiles: tuple[Profile, Profile] = ((), ())

    @property
    def passed(self) -> bool:
        return not self.violations


def _corrupted(profile: Profile, reference_total: float) -> Profile:
    bump = 10.0 * (1.0 + abs(reference_total))
    return profile[:-1] + (profile[-1] + bump,)


def _run_coupled(
    report: ComparisonReport,
    first: Iterator[Profile],
    second: Iterator[Profile],
    check: Callable[[int, Profile, Profile], StepViolation | None],
    corrupt_step: int | None,
) -> ComparisonReport:
    """Walk two profile streams of the same marks in lockstep and fill ``report``.

    ``check`` sees the step, the first and the second profile, and returns
    the first inequality that fails at that step, or None. At
    ``corrupt_step`` it sees a corrupted copy of the first profile. The
    offered waits are summed in step order from the uncorrupted profiles.
    """
    sum_first = 0.0
    sum_second = 0.0
    for step, (a, b) in enumerate(zip(first, second)):
        checked = a if step != corrupt_step else _corrupted(a, total_workload(b))
        violation = check(step, checked, b)
        if violation is not None:
            report.violations.append(violation)
        sum_first += a[0]
        sum_second += b[0]
    steps = step + 1
    report.steps_checked = steps
    report.mean_offered_wait = (sum_first / steps, sum_second / steps)
    report.final_profiles = (a, b)
    return report


def compare_server_counts(
    servers_big: int,
    servers_small: int,
    marks: MarkSequence,
    sum_slack: float = DEFAULT_SUM_SLACK,
    corrupt_step: int | None = None,
) -> ComparisonReport:
    """Check that more servers never hurt, pathwise, from empty starts.

    Both systems run shortest-workload allocation on the same marks. At
    every step three families of inequalities are checked: the top
    ``servers_small`` coordinates of the big system are bounded by the small
    system's coordinates (exact), the total workload of the big system is
    bounded by the small system's (within ``sum_slack``), and the big
    profile is rank-ordered below the small profile padded with idle
    servers, for rank ``servers_big - servers_small + 1`` (tail sums within
    ``sum_slack``). At most one violation is recorded per step, the first in
    that order. ``corrupt_step`` deliberately corrupts the checked copy of
    the big profile at one step; it exists so tests can prove the harness
    reports violations.
    """
    if not 1 <= servers_small <= servers_big:
        raise ValueError(
            f"need 1 <= servers_small <= servers_big, got {servers_small}, {servers_big}"
        )
    shift = servers_big - servers_small

    def check(step: int, big: Profile, small: Profile) -> StepViolation | None:
        for j, bound in enumerate(small):
            if big[shift + j] > bound:
                return StepViolation(f"coordinate[{j + 1}]", step, big[shift + j], bound)
        tb = total_workload(big)
        ts = total_workload(small)
        if tb > ts + sum_slack:
            return StepViolation("total", step, tb, ts)
        star = prec_star(big, pad(small, servers_big), sum_slack)
        if not star:
            v = star.first_violation
            return StepViolation(f"tail_sum[{v.index}]", step, v.lhs, v.rhs)
        return None

    report = ComparisonReport(
        mode="server-count",
        systems=(f"S{servers_big}", f"S{servers_small}"),
        marks_info=_marks_info(marks),
    )
    return _run_coupled(
        report,
        iter_profiles(zero_profile(servers_big), marks, 1),
        iter_profiles(zero_profile(servers_small), marks, 1),
        check,
        corrupt_step,
    )


def compare_allocation_ranks(
    servers: int,
    rank: int,
    start: Profile,
    start_alt: Profile,
    marks: MarkSequence,
    tol: float = 0.0,
    corrupt_step: int | None = None,
) -> ComparisonReport:
    """Check that shortest-workload allocation stays rank-ordered below
    rank allocation, pathwise, from rank-ordered starts.

    The premise requires ``start`` rank-ordered below ``start_alt``; it is an
    error to call with starts that violate it. Both systems consume the same
    marks: the first from ``start`` joining the least-loaded queue, the
    second from ``start_alt`` joining the rank-th least-loaded queue. The
    rank ordering is re-checked after every arrival with tolerance ``tol``
    (the two paths share one arithmetic route, so the default is exact).
    ``corrupt_step`` corrupts the checked copy of the first profile at one
    step, as in :func:`compare_server_counts`.
    """
    start = tuple(float(x) for x in start)
    start_alt = tuple(float(x) for x in start_alt)
    if len(start) != servers or len(start_alt) != servers:
        raise ValueError("starting profiles must have one entry per server")
    premise = prec_p(start, start_alt, rank, tol)
    if not premise:
        v = premise.first_violation
        raise PremiseError(
            f"starts are not rank-ordered: {v.clause}[{v.index}] has {v.lhs!r} > {v.rhs!r}"
        )

    def check(step: int, shortest: Profile, ranked: Profile) -> StepViolation | None:
        verdict = prec_p(shortest, ranked, rank, tol)
        if verdict:
            return None
        v = verdict.first_violation
        return StepViolation(f"{v.clause}[{v.index}]", step, v.lhs, v.rhs)

    report = ComparisonReport(
        mode="allocation-rank",
        systems=(f"S{servers}P1", f"S{servers}P{rank}"),
        marks_info=_marks_info(marks),
    )
    return _run_coupled(
        report,
        iter_profiles(start, marks, 1),
        iter_profiles(start_alt, marks, rank),
        check,
        corrupt_step,
    )


def fcfs_waiting_times(marks: MarkSequence, servers: int) -> list[float]:
    """Waiting times from an independent event-based FCFS simulation.

    Tracks absolute server-free epochs instead of workload profiles:
    customer k arrives at the cumulative sum of the gaps before it, waits
    for the earliest-free server (ties broken by lowest server index) and
    occupies it for its service requirement. Customer k's waiting time
    equals the least coordinate of the profile recursion's k-th profile,
    up to the rounding drift of absolute epochs.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    free = [0.0] * servers
    now = 0.0
    waits: list[float] = []
    for s_, x_ in zip(marks.sigma.tolist(), marks.xi.tolist()):
        j = 0
        best = free[0]
        for i in range(1, servers):
            if free[i] < best:
                best = free[i]
                j = i
        begin = best if best > now else now
        waits.append(begin - now)
        free[j] = begin + s_
        now += x_
    return waits


# --------------------------------------------------------------------------
# CSV serialization. Floats are written with repr (shortest round-trip), line
# endings are LF, the decimal separator is always '.'; reruns with identical
# inputs produce byte-identical files.


def write_trajectory_csv(path: str, trajectories: Iterable[Trajectory]) -> int:
    """Write trajectories in long form: step, system id, coordinate, value.

    Returns the number of data rows written. The system id embeds the seed
    so trajectories from several seeds can share one file.
    """
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["step", "system", "coordinate", "value"])
        for traj in trajectories:
            system = f"seed{traj.marks_info.seed}:{traj.config.label}"
            for step, profile in enumerate(traj.profiles):
                for i, value in enumerate(profile, start=1):
                    writer.writerow([step, system, i, repr(value)])
                    rows += 1
    return rows


def write_violations_csv(
    path: str, violations: Iterable[tuple[str, StepViolation]]
) -> int:
    """Write (system id, violation) pairs as inequality, step, lhs, rhs rows.

    The system id is folded into the inequality identifier when nonempty.
    Returns the number of data rows written.
    """
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["inequality", "step", "lhs", "rhs"])
        for system, v in violations:
            name = f"{system}:{v.inequality}" if system else v.inequality
            writer.writerow([name, v.step, repr(v.lhs), repr(v.rhs)])
            rows += 1
    return rows
