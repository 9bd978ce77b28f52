"""Coupled-path harnesses for comparing allocation policies and server counts.

All comparisons are pathwise: the systems being compared consume exactly the
same mark sequence, so the checked inequalities are expected to hold at
every step with zero tolerance (sum comparisons carry a small documented
slack because accumulating different vectors rounds differently). An
independent event-based FCFS simulation provides an external cross-check of
the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import PremiseError
from .orderings import _require_tolerance, prec_p, prec_star
from .profiles import (
    Profile,
    _OfferedWait,
    _path_chunks,
    _require_profile,
    _require_rank,
    _slices,
    pad,
    total_workload,
    zero_profile,
)
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


def _start_profile(servers: int, start: Profile | None, name: str) -> Profile:
    """``start`` as the profile of a ``servers``-server system, all zeros when
    None; ``name`` names it when it is rejected."""
    if start is None:
        return zero_profile(servers)
    u = tuple(float(x) for x in start)
    if len(u) != servers:
        raise ValueError(f"{name} has {len(u)} entries, expected {servers}")
    _require_profile(u, name)
    return u


@dataclass(frozen=True)
class SystemConfig:
    """One simulated system: server count, allocation rank, starting profile."""

    servers: int
    rank: int = 1
    initial: Profile | None = None

    def __post_init__(self) -> None:
        start = _start_profile(self.servers, self.initial, "initial profile")
        if self.initial is not None:
            object.__setattr__(self, "initial", start)
        _require_rank(start, self.rank)

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


def _tail_sums(rows: np.ndarray) -> np.ndarray:
    """Row k, column t is the sum of the top k + 1 coordinates of the
    profile in column t of the ``(S, n)`` array ``rows``, added from the top
    down in S - 1 row adds: the same float additions as :func:`prec_star`."""
    tails = np.empty_like(rows)
    tails[0] = rows[-1]
    for k in range(1, len(rows)):
        np.add(tails[k - 1], rows[-1 - k], out=tails[k])
    return tails


def _run_coupled(
    report: ComparisonReport,
    marks: MarkSequence,
    first: tuple[Profile, int],
    second: tuple[Profile, int],
    screen: Callable[[np.ndarray, np.ndarray], np.ndarray],
    check: Callable[[int, Profile, Profile], StepViolation | None],
) -> ComparisonReport:
    """Run two systems on the same marks in lockstep and fill ``report``.

    ``first`` and ``second`` pair a start profile with the allocation rank
    that drives the system. ``check`` sees the step, the first and the
    second profile, and returns the first inequality that fails at that
    step, or None.

    Each system's profiles come from its forward walk over slices of
    ``marks``, :func:`~jswsim.profiles._path_chunks`, bit for bit those of
    ``iter_profiles``; the two walks are read in lockstep, one block of
    steps at a time. ``screen`` maps a block's first and second profiles,
    the columns of ``(S, n)`` arrays, to one slack per step, and ``check``
    can fail only at a step whose slack is not ``>= 0`` (a NaN slack counts
    as failing). ``check`` runs, in step order, at those steps and at the
    block's smallest-slack step, so every violation is the one a check at
    every step records.

    Each system's mean offered wait is that of
    :class:`~jswsim.profiles._OfferedWait`, the same float ``simulate``
    reports. A profile, a total workload or a sum of offered waits past
    the largest float raises InputError naming the system, by its label in
    ``report``, and the step; sums the screen makes past it give it an inf
    or NaN slack and no numpy warning.
    """
    arrivals = len(marks)
    if not arrivals:
        raise ValueError("a coupled comparison needs at least one arrival, got no marks")
    (start_a, rank_a), (start_b, rank_b) = first, second
    name_a, name_b = report.systems
    wait_a, wait_b = _OfferedWait(rank_a, arrivals, name_a), _OfferedWait(rank_b, arrivals, name_b)
    walks = zip(
        _path_chunks(start_a, _slices(marks), rank_a, name_a),
        _path_chunks(start_b, _slices(marks), rank_b, name_b),
    )
    for (step, block_a), (_, block_b) in walks:
        with np.errstate(over="ignore", invalid="ignore"):
            slack = screen(block_a, block_b)
        confirm = set(np.flatnonzero(~(slack >= 0.0)).tolist())
        confirm.add(int(slack.argmin()))
        for i in sorted(confirm):
            # tolist gives back the very floats the path holds
            a, b = tuple(block_a[:, i].tolist()), tuple(block_b[:, i].tolist())
            violation = check(step + i, a, b)
            if violation is not None:
                report.violations.append(violation)
        wait_a.add(step, block_a)
        wait_b.add(step, block_b)
    report.steps_checked = arrivals + 1
    report.mean_offered_wait = (wait_a.mean, wait_b.mean)
    report.final_profiles = (tuple(block_a[:, -1].tolist()), tuple(block_b[:, -1].tolist()))
    return report


def _require_server_counts(servers_big: int, servers_small: int) -> None:
    if not 1 <= servers_small <= servers_big:
        raise ValueError(
            f"need 1 <= servers_small <= servers_big, got {servers_small}, {servers_big}"
        )


def compare_server_counts(
    servers_big: int,
    servers_small: int,
    marks: MarkSequence,
    sum_slack: float = DEFAULT_SUM_SLACK,
) -> ComparisonReport:
    """Check that more servers never hurt, pathwise, from empty starts.

    Both systems run shortest-workload allocation on the same nonempty
    :class:`MarkSequence` ``marks``. At every step three families of
    inequalities are checked: the top ``servers_small`` coordinates of the
    big system are bounded by the small system's coordinates (exact), the
    total workload of the big system is bounded by the small system's
    (within ``sum_slack``), and the big profile is rank-ordered below the
    small profile padded with idle servers, for rank ``servers_big -
    servers_small + 1`` (tail sums within ``sum_slack``). At most one
    violation is recorded per step, the first in that order. A negative
    ``sum_slack`` tightens the sum inequalities, and so forces violations.
    A profile, a total workload or a sum of offered waits past the largest
    float raises InputError naming the system and the step.
    """
    _require_server_counts(servers_big, servers_small)
    _require_tolerance(sum_slack, "sum_slack")
    shift = servers_big - servers_small
    # Bounds the gap between the screen's naive totals and the fsum totals
    # of check: each of the servers_big + servers_small - 2 additions of the
    # naive sums, the two fsum roundings, the addition of sum_slack in check
    # and the screen's own three operations err by at most 2**-53 of
    # (total_big + total_small + |sum_slack|); the margin allows twice that.
    margin = (servers_big + servers_small + 4) * 2.0**-52

    def screen(big: np.ndarray, small: np.ndarray) -> np.ndarray:
        # Per step, the least rhs - lhs over the inequalities of check. A
        # float difference has the sign of the exact one, so the coordinate
        # and tail-sum slacks are negative exactly when check fails them;
        # the total slack is negative whenever the fsum totals might fail.
        tail_big, tail_small = _tail_sums(big), _tail_sums(small)
        total_big, total_small = tail_big[-1], tail_small[-1]
        # Past servers_small the padded small tail stays at its total while
        # the big tail only grows, so the least of those slacks is the one
        # of the full sums, which the total slack bounds from below.
        slack = ((total_small + sum_slack) - total_big) - margin * (
            total_big + total_small + abs(sum_slack)
        )
        # The rest works in tail_small, so a block makes no other (S, n)
        # array; total_small, a view of it, is used up.
        tail_small += sum_slack
        tail_small -= tail_big[:servers_small]
        np.minimum(slack, np.minimum.reduce(tail_small, axis=0), out=slack)
        np.subtract(small, big[shift:], out=tail_small)
        return np.minimum(slack, np.minimum.reduce(tail_small, axis=0), out=slack)

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
    first, second = (zero_profile(servers_big), 1), (zero_profile(servers_small), 1)
    return _run_coupled(report, marks, first, second, screen, check)


def _allocation_starts(
    servers: int, rank: int, start: Profile | None, start_alt: Profile | None
) -> tuple[Profile, Profile]:
    """The input rules of :func:`compare_allocation_ranks`: its two starts, as profiles."""
    start = _start_profile(servers, start, "start")
    start_alt = _start_profile(servers, start_alt, "start_alt")
    _require_rank(start_alt, rank)
    return start, start_alt


def compare_allocation_ranks(
    servers: int,
    rank: int,
    start: Profile,
    start_alt: Profile,
    marks: MarkSequence,
    tol: float = 0.0,
) -> ComparisonReport:
    """Check that shortest-workload allocation stays rank-ordered below
    rank allocation, pathwise, from rank-ordered starts.

    ``start`` and ``start_alt`` are nondecreasing profiles of finite
    nonnegative floats, one entry per server. The premise requires ``start``
    rank-ordered below ``start_alt``; it is an error to call with starts
    that violate it. Both systems consume the same nonempty
    :class:`MarkSequence` ``marks``: the first from ``start`` joining the
    least-loaded queue, the second from ``start_alt`` joining the rank-th
    least-loaded queue. The rank ordering is re-checked after every arrival
    with tolerance ``tol`` (the two paths share one arithmetic route, so the
    default is exact; a negative ``tol`` tightens every clause). A profile,
    a total workload or a sum of offered waits past the largest float
    raises InputError naming the system and the step.
    """
    start, start_alt = _allocation_starts(servers, rank, start, start_alt)
    premise = prec_p(start, start_alt, rank, tol)
    if not premise:
        v = premise.first_violation
        raise PremiseError(
            f"starts are not rank-ordered: {v.clause}[{v.index}] has {v.lhs!r} > {v.rhs!r}"
        )

    def screen(shortest: np.ndarray, ranked: np.ndarray) -> np.ndarray:
        # per step, the least rhs - lhs over the clauses of prec_p; negative
        # exactly when check fails, as in compare_server_counts
        coordinates = (ranked[rank - 1 :] + tol) - shortest[rank - 1 :]
        tails = (_tail_sums(ranked) + tol) - _tail_sums(shortest)
        return np.minimum(
            np.minimum.reduce(coordinates, axis=0), np.minimum.reduce(tails, axis=0)
        )

    def check(step: int, shortest: Profile, ranked: Profile) -> StepViolation | None:
        verdict = prec_p(shortest, ranked, rank, tol)
        if verdict:
            return None
        v = verdict.first_violation
        return StepViolation(f"{v.clause}[{v.index}]", step, v.lhs, v.rhs)

    report = ComparisonReport(systems=(f"S{servers}P1", f"S{servers}P{rank}"))
    return _run_coupled(report, marks, (start, 1), (start_alt, rank), screen, check)


def fcfs_waiting_times(marks: MarkSequence, servers: int) -> list[float]:
    """Waiting times from an independent event-based FCFS simulation.

    Tracks absolute server-free epochs instead of workload profiles:
    customer k of the :class:`MarkSequence` ``marks`` arrives at the sum of
    the gaps before it, waits for the earliest-free server (ties broken by
    lowest server index) and occupies it for its service requirement. Its
    waiting time equals the least coordinate of the profile recursion's
    k-th profile, up to the rounding drift of absolute epochs.
    """
    free = list(zero_profile(servers))
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
