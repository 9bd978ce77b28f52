"""Coupled-path harnesses for comparing allocation policies and server counts.

All comparisons are pathwise: the systems being compared consume exactly the
same mark sequence, so the checked inequalities are expected to hold at
every step with zero tolerance (sum comparisons carry a small documented
slack because accumulating different vectors rounds differently). An
independent event-based FCFS simulation provides an external cross-check of
the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .errors import PremiseError
from .orderings import prec_p, prec_star
from .profiles import Profile, iter_profiles, pad, total_workload, zero_profile
from .processes import MarkSequence

__all__ = [
    "ComparisonReport",
    "StepViolation",
    "SystemConfig",
    "compare_allocation_ranks",
    "compare_server_counts",
    "fcfs_waiting_times",
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


class StepViolation(NamedTuple):
    """One failed inequality: identifier, step, and both sides."""

    inequality: str
    step: int
    lhs: float
    rhs: float


@dataclass
class ComparisonReport:
    """Outcome of a coupled-path comparison between two systems."""

    systems: tuple[str, str]
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
    first: tuple[Iterator[Profile], int],
    second: tuple[Iterator[Profile], int],
    check: Callable[[int, Profile, Profile], StepViolation | None],
    corrupt_step: int | None,
) -> ComparisonReport:
    """Walk two profile streams of the same marks in lockstep and fill ``report``.

    ``first`` and ``second`` pair a profile stream with the allocation rank
    that drives it. ``check`` sees the step, the first and the second
    profile, and returns the first inequality that fails at that step, or
    None. At ``corrupt_step`` it sees a corrupted copy of the first profile.
    A system's mean offered wait is coordinate ``rank`` of the profiles its
    arrivals saw (all but the last), added in step order from the
    uncorrupted profiles and divided by the number of arrivals, the same
    float ``simulate`` reports.
    """
    (profiles_a, rank_a), (profiles_b, rank_b) = first, second
    sum_first = sum_second = wait_a = wait_b = 0.0
    for step, (a, b) in enumerate(zip(profiles_a, profiles_b)):
        # the arrival after the previous step saw its profiles
        sum_first += wait_a
        sum_second += wait_b
        checked = a if step != corrupt_step else _corrupted(a, total_workload(b))
        violation = check(step, checked, b)
        if violation is not None:
            report.violations.append(violation)
        wait_a = a[rank_a - 1]
        wait_b = b[rank_b - 1]
    report.steps_checked = step + 1  # the last step is the number of arrivals
    report.mean_offered_wait = (sum_first / step, sum_second / step)
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

    report = ComparisonReport(systems=(f"S{servers_big}", f"S{servers_small}"))
    return _run_coupled(
        report,
        (iter_profiles(zero_profile(servers_big), marks, 1), 1),
        (iter_profiles(zero_profile(servers_small), marks, 1), 1),
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

    report = ComparisonReport(systems=(f"S{servers}P1", f"S{servers}P{rank}"))
    return _run_coupled(
        report,
        (iter_profiles(start, marks, 1), 1),
        (iter_profiles(start_alt, marks, rank), rank),
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
