"""Workload profiles and the one-step recursion of parallel single queues.

A profile is the nondecreasing vector of residual workloads of the servers,
kept as a plain tuple of nonnegative floats. An arriving customer brings a
service requirement ``sigma`` and is followed by the next customer after an
inter-arrival gap ``xi``. Routing the arrival to the queue with the p-th
least workload, ageing all queues by the gap, clamping at zero and
re-sorting yields the profile seen by the next customer (the
Kiefer-Wolfowitz recursion when p is 1, i.e. join the shortest workload).

All functions here are pure and never mutate their arguments.
:func:`iter_profiles` runs the recursion over a sequence of arrivals for one
system; forward and coupled runs go through it. :func:`lockstep_profiles`
gives the final profiles of R systems, the rows of an array, bit for bit
those of :func:`pth_step`; backward replays go through it.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Mark",
    "Profile",
    "iter_profiles",
    "kw_step",
    "lockstep_profiles",
    "pad",
    "pth_step",
    "sort_ascending",
    "sort_raw",
    "total_workload",
    "zero_profile",
]


class Mark(NamedTuple):
    """Per-customer input: service requirement and gap to the next arrival."""

    sigma: float
    xi: float


# Nondecreasing tuple of nonnegative floats, length >= 1.
Profile = tuple[float, ...]


def sort_raw(values: Iterable[float]) -> tuple[float, ...]:
    """Nondecreasing rearrangement of an arbitrary real vector.

    Negative entries are permitted; non-finite entries are rejected.
    """
    vals = [float(x) for x in values]
    for x in vals:
        if not math.isfinite(x):
            raise ValueError(f"non-finite entry {x!r}")
    vals.sort()
    return tuple(vals)


def sort_ascending(values: Iterable[float]) -> Profile:
    """Nondecreasing rearrangement of a nonnegative workload vector.

    Rejects empty input, negative entries and non-finite entries. Use
    :func:`sort_raw` for signed vectors.
    """
    out = sort_raw(values)
    _require_profile(out)
    return out


def zero_profile(servers: int) -> Profile:
    """The empty-system profile for the given number of servers."""
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    return (0.0,) * servers


def _require_profile(u: Profile, name: str = "a profile") -> None:
    """Reject a profile that is empty, not finite, negative or not nondecreasing."""
    if not u:
        raise ValueError("a workload profile needs at least one server")
    prev = 0.0
    for x in u:
        # false for nan, inf, a negative first entry and a decrease
        if not prev <= x < math.inf:
            raise ValueError(
                f"{name} must be finite, nonnegative and nondecreasing, got {tuple(u)!r}"
            )
        prev = x


def _require_rank(u: Profile, rank: int) -> None:
    if not 1 <= rank <= len(u):
        raise ValueError(f"allocation rank {rank} outside [1, {len(u)}]")


def _step(u: Profile, sigma: float, xi: float, rank: int) -> Profile:
    # u is nondecreasing, so moving coordinate rank to its place after adding
    # sigma sorts the vector; x -> max(x - xi, 0) is monotone and keeps it
    # sorted. Each coordinate gets the same operations as in the formula
    # "add sigma at rank, subtract xi from all, clamp, sort", so the result
    # is the same floats; x > xi is x - xi > 0 for finite floats.
    w = list(u)
    insort(w, w.pop(rank - 1) + sigma)
    return tuple([x - xi if x > xi else 0.0 for x in w])


def pth_step(u: Profile, mark: Mark, rank: int) -> Profile:
    """Advance one arrival that joins the queue with the rank-th least workload.

    ``u`` must be a nondecreasing profile of finite nonnegative floats. The
    service requirement is added at coordinate ``rank``, every queue is aged
    by the inter-arrival gap, negative residuals are clamped to zero and the
    result is sorted.
    """
    _require_profile(u)
    _require_rank(u, rank)
    sigma, xi = mark
    return _step(u, sigma, xi, rank)


# Marks converted to Python floats at a time by iter_profiles.
_CHUNK = 4096
# A lockstep_profiles call with fewer rows steps them one at a time. The
# array kernel costs about as much per step for one row as for ten, the
# scalar loop one step per row. Median microseconds per step of R seeds,
# 2048 steps, array kernel / scalar loop, 2-core VM, numpy 2.4.6:
#   S = 2: R = 1 7.9/1.3, R = 4 7.5/5.0, R = 6 7.0/7.6, R = 8 6.9/9.3
#   S = 4: R = 1 12.7/1.0, R = 4 11.7/5.7, R = 8 10.5/9.4, R = 10 11.9/14.2
#   S = 8: R = 1 27.4/1.8, R = 4 20.4/7.4, R = 8 18.6/12.6, R = 10 15.0/15.4
# The kernel wins from R = 6 at S = 2, 9 at S = 4 and 10 at S = 8.
_LOCKSTEP_MIN_ROWS = 8


def iter_profiles(start: Profile, marks, rank: int) -> Iterator[Profile]:
    """Yield ``start``, then the profile after each arrival of ``marks``.

    ``start`` must be a nondecreasing profile of finite nonnegative floats;
    it is checked, with ``rank``, when this function is called. ``marks`` is
    a :class:`~jswsim.processes.MarkSequence`, in arrival order; every
    arrival joins the queue with the rank-th least workload.
    """
    _require_profile(start)
    _require_rank(start, rank)
    return _iter_steps(start, marks.sigma, marks.xi, rank)


def _iter_steps(state: Profile, sigma, xi, rank: int) -> Iterator[Profile]:
    yield state
    for lo in range(0, len(sigma), _CHUNK):
        for s, x in zip(sigma[lo : lo + _CHUNK].tolist(), xi[lo : lo + _CHUNK].tolist()):
            state = _step(state, s, x, rank)
            yield state


def lockstep_profiles(start: np.ndarray, sigma: np.ndarray, xi: np.ndarray, rank: int) -> np.ndarray:
    """Final profiles of R systems stepped in lockstep from the rows of ``start``.

    ``start`` is an ``(R, S)`` float64 array of profiles. ``sigma`` and
    ``xi`` are ``(n, R)`` arrays: row t holds the marks of arrival t,
    column r those of system r. Each step is :func:`pth_step` on every row
    with the same rounding, so row r of the result equals the last profile
    of :func:`iter_profiles` over column r, bit for bit, and a run over
    marks split in two is one call chained into another. Returns a new
    ``(R, S)`` array; other shapes and a rank outside [1, S] raise
    ValueError. Fewer than ``_LOCKSTEP_MIN_ROWS`` rows are stepped one at a
    time, as by :func:`iter_profiles`; more as one array, as follows.

    The state is kept as ``(S, R)``, one contiguous row per coordinate. A
    step inserts the arrival's queue plus ``sigma`` into the other queues
    by ``np.minimum``/``np.maximum`` selection, as :func:`_step` does by
    ``insort``; selection does no arithmetic, so it is exact. Then every
    queue x becomes ``max(x - xi, 0.0)``, from one ``(n, S, R)`` copy of
    ``xi``. Adding +0.0 to the start maps -0.0 to +0.0, as :func:`pth_step`
    does, after which no difference is -0.0, so the maximum never has to
    choose between two zeros.
    """
    u = np.array(start, dtype=np.float64)
    if u.ndim != 2 or np.shape(sigma) != np.shape(xi) or np.shape(sigma)[1:] != u.shape[:1]:
        raise ValueError(f"need (R, S) starts and (n, R) marks, got {u.shape}, {np.shape(sigma)}")
    _require_rank(zero_profile(u.shape[1]), rank)
    u += 0.0
    if len(u) < _LOCKSTEP_MIN_ROWS:
        for r, row in enumerate(u.tolist()):
            u[r] = deque(_iter_steps(tuple(row), sigma[:, r], xi[:, r], rank), maxlen=1)[0]
        return u
    u = np.array(u.T, order="C")
    servers = u.shape[0]
    p = rank - 1
    # One step's calls after the add: the other queues in order, each
    # replaced by the smaller of itself and the carried value, which carries
    # the larger on; the last one takes what is left.
    carry, spare = np.empty(u.shape[1:]), np.empty(u.shape[1:])
    first = carry  # takes the arrival's queue plus sigma
    plan = []
    for j in range(p):
        plan += [(np.maximum, (u[j], carry), spare), (np.minimum, (u[j], carry), u[j])]
        carry, spare = spare, carry
    for j in range(p + 1, servers):
        plan += [(np.minimum, (u[j], carry), u[j - 1])]
        plan += [(np.maximum, (u[j], carry), carry if j < servers - 1 else u[j])]
    if p == servers - 1:
        plan += [(np.positive, (carry,), u[p])]
    # Each step's gaps copied to every coordinate row, so that the subtract
    # is same-shape: broadcasting an (R,) row over (S, R) costs about three
    # times as much per step.
    gaps = np.repeat(np.asarray(xi)[:, None, :], servers, axis=1)
    for s, x in zip(sigma, gaps):
        np.add(u[p], s, out=first)
        for f, args, out in plan:
            f(*args, out=out)
        u -= x
        np.maximum(u, 0.0, out=u)
    return u.T


def kw_step(u: Profile, mark: Mark) -> Profile:
    """Advance one arrival under join-the-shortest-workload routing."""
    return pth_step(u, mark, 1)


def pad(profile: Profile, servers: int) -> Profile:
    """Embed a profile into a wider system by prepending idle servers."""
    n = len(profile)
    if servers < n:
        raise ValueError(f"cannot pad a {n}-server profile down to {servers}")
    return (0.0,) * (servers - n) + tuple(profile)


def total_workload(u: Profile) -> float:
    """Sum of all residual workloads (exactly rounded)."""
    return math.fsum(u)

