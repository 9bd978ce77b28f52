"""Workload profiles and the one-step recursion of parallel single queues.

A profile is the nondecreasing vector of residual workloads of the servers,
kept as a plain tuple of nonnegative floats. An arriving customer brings a
service requirement ``sigma`` and is followed by the next customer after an
inter-arrival gap ``xi``. Routing the arrival to the queue with the p-th
least workload, ageing all queues by the gap, clamping at zero and
re-sorting yields the profile seen by the next customer (the
Kiefer-Wolfowitz recursion when p is 1, i.e. join the shortest workload).

All public functions here are pure and never mutate their arguments.
:func:`iter_profiles` runs the recursion over a sequence of arrivals for one
system, one arrival at a time: the reference loop the others are checked
against. :func:`path_profiles` gives the same profiles as the rows of one
array, stepping blocks of the arrivals side by side. :func:`_path_chunks`
is the one forward walk of a long run: it asks for the run's marks a chunk
at a time, steps each chunk in one ``path_profiles`` call and hands out its
profiles in blocks, one contiguous row per coordinate. ``compare``,
``simulate`` and the trajectory dump all step through it, and the first
two take a system's mean offered wait from :class:`_OfferedWait`.
The backward replays of :mod:`jswsim.loynes` step through one private
stepper, :func:`_advance`, which alone chooses how: many columns as one
array, by the array kernel :func:`_lockstep_kernel` that
:func:`path_profiles` shares; a few columns one by one, by
:func:`_row_loop`, one loop generated per (S, rank), which also steps the
walk's in-order stretches, or, over a walk chunk or more, each as a
time-blocked path, by :func:`path_profiles` itself.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import insort
from collections import deque
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InputError
from .processes import MarkSequence

__all__ = [
    "Mark",
    "Profile",
    "iter_profiles",
    "pad",
    "path_profiles",
    "pth_step",
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


# Marks converted to Python floats at a time by iter_profiles and the most
# rows of one block of the forward walk, _path_chunks: compare screens and
# simulate and the trajectory dump format one block at a time.
_CHUNK = 4096
# Arrivals per block of path_profiles. Shorter blocks take more fix-up
# passes, longer ones waste more steps per pass. Median CPU seconds of
# compare on 2e5 iid exponential marks (5 runs, 2-core VM, numpy 2.4.6),
# load on the smaller system: 8 vs 4 servers at 0.8 / 2 vs 1 at 0.99 /
# 4 vs 2 at 0.99 / 4 vs 3 at 1.2 / rank 2 vs rank 1 on 4 servers at 0.975:
#   16: 0.173 0.312 0.365 0.604 0.787
#   32: 0.165 0.308 0.332 0.441 0.622
#   64: 0.174 0.312 0.326 0.454 0.688
# With the interleaved first pass (_PATH_CLASSES), median ratio of walk CPU,
# 64 against 32, over 15 alternating runs in one process (same VM), on the
# five cases and then 2e5 marks of simulate-markov-csv's 2-state chain:
# 1.26 0.95 1.12 0.93 0.95, 0.82. The first is the bench's compare-wide.
_PATH_BLOCK = 32
# Arrivals per path_profiles call of the forward walk, _path_chunks, and so
# per chunk of marks that simulate draws. Median CPU seconds of compare on
# the same five cases, with the peak traced memory of the first:
#   2**13: 0.181 0.321 0.377 0.518 0.650, 2.0 MB
#   2**14: 0.165 0.308 0.332 0.441 0.622, 4.0 MB
#   2**15: 0.152 0.280 0.331 0.437 0.631, 7.9 MB
_PATH_CHUNK = 2**14
# A replay of fewer columns, in _advance, steps them one by one: one
# arrival at a time, by _row_loop, or, once its marks span _PATH_CHUNK,
# each column as a time-blocked path by path_profiles. The array kernel
# costs about as much per step for one row as for ten, the other two one
# row's steps per row. CPU per step of R rows from zeros at load 0.9, rank
# 1, as the median ratio of five alternating repeats in one process pinned
# to one CPU of a 2-core VM shared with other jobs, numpy 2.4.6, with the
# row loop and the walk's in-order rows generated per (S, rank); the
# kernel's CPU per row-step is nearly the same at every S, 800 ns at R = 4
# and 210 ns at R = 16:
#   kernel / walk        R = 4     6     8    12    16
#     n = 2048,  S = 2:     2.18  1.42  1.11  0.75  0.56
#                S = 4:     1.88  1.29  0.99  0.62  0.49
#                S = 8:     1.45  1.02  0.71  0.53  0.38
#     n = 16384, S = 2:     7.25  4.63  3.40  2.24  1.57
#                S = 4:     5.27  3.27  2.41  1.66  1.23
#                S = 8:     3.59  1.94  1.62  1.05  0.74
#   kernel / row loop, n = 2048:
#                S = 2:     4.65  3.18  2.34  1.61  1.20
#                S = 4:     3.40  2.27  1.72  1.15  0.87
#                S = 8:     2.11  1.43  1.11  0.73  0.56
#                n = 16384:
#                S = 2:     4.70  3.13  2.35  1.57  1.16
#                S = 4:     3.39  2.23  1.68  1.12  0.84
#                S = 8:     2.12  1.41  1.06  0.71  0.53
# The kernel wins against the walk at n = 2048 from R = 8 (12 at S = 2),
# and at n = 16384 only at S = 8 and R = 16; against the row loop at S = 8
# from R = 12, at S = 4 at R = 16 and at S = 2 at no R up to 16. The count
# stays 8 all the same: a higher one would hand loynes replays of 8 to 15
# rows to the row loop, a move not yet measured end to end.
#
# The length rule: a row steps as a path only from _PATH_CHUNK marks on.
# One row from zeros, rank 1, CPU per step of the walk over the row loop,
# the median ratio of nine alternating runs (same VM; the loop took 0.2 to
# 0.8 us per step), by the call's marks n:
#                n = 512  1024  2048  4096  8192  16384
#   S = 2, load 0.5:   5.08  2.94  1.74  0.72  0.41  0.23
#               0.9:   4.63  3.15  2.76  1.62  0.76  0.67
#              0.98:   5.13  3.96  2.21  2.04  1.66  1.45
#   S = 4, load 0.5:   5.54  3.02  1.75  0.90  0.48  0.28
#               0.9:   5.39  3.54  2.31  1.72  1.12  0.92
#              0.98:   5.34  5.39  3.10  2.03  1.79  1.46
#   S = 8, load 0.5:   3.14  1.74  0.89  0.57  0.34  0.23
#               0.9:   4.24  2.97  2.03  1.30  1.28  0.75
#              0.98:   4.21  3.69  2.52  1.75  1.86  1.94
# At load 0.5 the walk is faster from 2048 to 8192 marks on, at 0.9 from
# 8192 or 16384; at 0.98 it is slower at every length, as few of its
# blocks merge and path_profiles then steps nearly all of them in order
# after its array passes. No shorter length is no slower at loads 0.5 and
# 0.9, so the rule stays one walk chunk.
_LOCKSTEP_MIN_ROWS = 8
# A pass of path_profiles with fewer dirty blocks finishes the path in
# order, at once, where a kernel pass may leave some dirty. The bench's
# compare-wide (8 vs 4 servers, load 0.8, 2 seeds x 2e5 arrivals, seed
# 102, 2-core VM) read 654k and 604k arrivals/s with 7 against 791k and
# 685k with 8, in two pairs of runs. With the interleaved first pass, the
# median walk-CPU ratio against 8 on the six cases of _PATH_BLOCK's probe:
#   6: 1.01 0.99 1.04 1.01 1.03 1.01
#   7: 0.98 1.00 1.02 0.99 1.01 0.99
#   9: 0.96 1.00 0.99 1.01 1.01 0.98
#  10: 0.99 0.98 1.02 1.01 1.01 0.98
# Two settings that step the same work read 0.96 on the first case there,
# so none of these is a gain.
_PATH_MIN_DIRTY = 8
# Classes of the first pass of path_profiles, blocks b mod _PATH_CLASSES:
# each class after the first starts from the ends the class before has just
# given, so where a block from zeros meets the path, the blocks after it in
# its run of classes are right at once. More classes start fewer blocks
# from zeros but take more array calls. Array block-steps per arrival and
# share of arrivals stepped in order, compare-wide's two systems, 2 seeds x
# 2e5 (bench seed 7001), with 1, which steps every block from zeros, to 4:
#   1: 2.17, 0.8%   2: 1.60, 1.1%   3: 1.40, 1.1%   4: 1.30, 1.2%
# Median walk-CPU ratio against 3 on the six cases of _PATH_BLOCK's probe:
#   2: 0.98 0.95 0.98 0.98 0.99 1.02
#   4: 1.00 0.98 1.00 1.03 1.01 1.06
_PATH_CLASSES = 3


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


@functools.lru_cache(maxsize=None)
def _row_loop(servers: int, rank: int) -> Callable:
    """The in-order loop of a system of ``servers`` queues whose arrivals
    join the rank-th least workload: ``loop(state, sigma, xi, out)`` steps
    the profile tuple ``state`` through the float lists ``sigma`` and
    ``xi``, extends the list ``out`` with each profile's coordinates in
    turn and returns the last profile, a tuple.

    Each arrival makes exactly :func:`_step`'s float operations, so every
    profile is bit for bit :func:`_step`'s: one add at ``rank``, giving v;
    v placed among the other queues by a chain of ``v < q`` tests upwards
    from the queue above ``rank``, before the first that is greater, as
    ``insort`` places it, after any equal (the queues below ``rank`` are no
    greater than v, so they take no test); then ``q - x if q > x else 0.0``
    for every queue. The code holds the queues in local variables, so it is
    generated for each (servers, rank), as :mod:`dataclasses` generates its
    methods, and compiled once; only those two integers go into its text.
    """
    p, queues = rank - 1, [f"q{k}" for k in range(servers)]
    state = ", ".join(queues) + ","
    # place i: old queues p + 1 .. i move down one, v becomes queue i
    moves = [
        f"{', '.join(queues[p : i + 1])} = {', '.join([*queues[p + 1 : i + 1], 'v'])}"
        for i in range(p, servers)
    ]
    tests = [f"{'el' if i > p else ''}if v < q{i + 1}:" for i in range(p, servers - 1)] + ["else:"]
    insert = moves if len(moves) == 1 else [f"{t}\n            {m}" for t, m in zip(tests, moves)]
    lines = [
        "def row_loop(state, sigma, xi, out):",
        f"    {state} = state",
        "    extend = out.extend",
        "    for s, x in zip(sigma, xi):",
        f"        v = q{p} + s",
        *(f"        {line}" for line in insert),
        *(f"        {q} = {q} - x if {q} > x else 0.0" for q in queues),
        f"        extend(({state}))",
        f"    return {state}",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["row_loop"]


def _advance(u: np.ndarray, sigma, xi, rank: int, scratch: np.ndarray) -> None:
    """Step the ``(S, k, R)`` state ``u`` in place, k replays of R systems,
    through the ``(m, R)`` marks ``sigma`` and ``xi``, column r of every
    replay on the marks of column r: the one choice of stepper of every
    backward replay. From ``_LOCKSTEP_MIN_ROWS`` columns on, as one array,
    by :func:`_lockstep` with ``scratch``; fewer columns one by one, each by
    :func:`_row_loop`, one arrival at a time, or, once the marks span a walk
    chunk of ``_PATH_CHUNK`` arrivals, as a time-blocked path, one
    :func:`path_profiles` call per chunk. All three give :func:`_step`'s bits.
    """
    if u.shape[1] * u.shape[2] >= _LOCKSTEP_MIN_ROWS:
        _lockstep(u, sigma, xi, rank, scratch)
        return
    loop = _row_loop(u.shape[0], rank)
    for k, r in np.ndindex(u.shape[1:]):
        column, s, x = u[:, k, r], sigma[:, r], xi[:, r]
        if len(sigma) < _PATH_CHUNK:
            # only the last profile is kept: the rows go to a sink
            column[:] = loop(tuple(column.tolist()), s.tolist(), x.tolist(), deque(maxlen=0))
            continue
        for lo in range(0, len(sigma), _PATH_CHUNK):
            part = slice(lo, lo + _PATH_CHUNK)
            column[:] = path_profiles(tuple(column.tolist()), s[part], x[part], rank)[-1]


def _lockstep(u: np.ndarray, sigma, xi, rank: int, scratch: np.ndarray) -> None:
    """Step the ``(S, k, R)`` state ``u`` in place, k replays of R systems,
    through the ``(m, R)`` marks ``sigma`` and ``xi``, one row per arrival:
    column r of every replay on the marks of column r. The marks go through
    :func:`_lockstep_kernel` a scratch-full at a time, copied into the
    float64 ``scratch``, which holds at least one row: each row's gaps to
    every queue of every replay, so that the subtract is same-shape
    (broadcasting an (R,) row over (S, R) costs about three times as much
    per step), then the sigma rows.
    """
    servers, reps, width = u.shape
    per = len(scratch) // (width * (servers * reps + 1))  # rows per scratch-full
    for a in range(0, len(sigma), per):
        m = len(sigma[a : a + per])
        gaps = scratch[: m * servers * reps * width].reshape(m, servers, reps, width)
        np.copyto(gaps, xi[a : a + m, None, None])
        sig = scratch[gaps.size : gaps.size + m * width].reshape(m, width)
        sig[...] = sigma[a : a + m]
        _lockstep_kernel(u, sig, gaps, rank)


def _lockstep_kernel(u: np.ndarray, sigma, gaps, rank: int, keep: bool = False) -> None:
    """Step the state ``u``, whose columns along axis 0 are profiles, +0.0
    where zero, in place through the rows of ``sigma`` and ``gaps``: step t
    adds row t of ``sigma`` to every column's rank-th queue and ages every
    queue by row t of ``gaps``, of ``u``'s shape. With ``keep``, the state
    after step t is written over row t of ``gaps``, whose gaps it has just
    used.

    Every column steps as :func:`_step` steps it, bit for bit. The steps run
    on a copy of ``u`` with one +inf guard row above the top queue, S. With
    p = rank - 1 and v = u[p] + sigma, queues p .. S - 1 become
    max(u[k], min(v, u[k + 1])), two whole-array selections: the sorted
    merge of v into the other queues that :func:`_step` makes by ``insort``,
    as u[p] <= v and u[p] <= u[p + 1]; min(v, +inf) = v, so the top queue
    becomes max(u[S - 1], v), and the queues below p, which ``insort``
    leaves in place, are not touched. Selection does no arithmetic, and no
    profile holds -0.0 or NaN, so equal floats are equal bits. Then every
    queue x becomes ``max(x - xi, 0.0)``; no difference is -0.0, so the
    maximum never has to choose between two zeros. That is five array calls
    per step at every S and rank, and a sixth with ``keep``; ``u`` and the
    kept rows get the queues, never the guard.
    """
    servers, p = u.shape[0], rank - 1
    guarded = np.empty((servers + 1, *u.shape[1:]))
    guarded[:servers], guarded[servers] = u, math.inf
    queues, arrival = guarded[:servers], guarded[p]
    # queues p .. S - 1 and the rows one above them, the guard the last
    merged, above = guarded[p:servers], guarded[p + 1 :]
    v, low = np.empty(arrival.shape), np.empty(above.shape)
    for s, x in zip(sigma, gaps):
        np.add(arrival, s, out=v)
        np.minimum(v, above, out=low)
        np.maximum(merged, low, out=merged)
        queues -= x
        np.maximum(queues, 0.0, out=queues)
        if keep:
            x[...] = queues
    u[...] = queues


def path_profiles(start: Profile, sigma: np.ndarray, xi: np.ndarray, rank: int) -> np.ndarray:
    """Every profile of one system as the rows of an ``(n + 1, S)`` array.

    Row 0 is ``start``, as given; row t is the profile after arrival t of
    the 1-d mark arrays ``sigma`` and ``xi``, bit for bit the one
    :func:`iter_profiles` yields. ``start`` and ``rank`` are checked as
    there.

    The marks are cut into blocks of ``_PATH_BLOCK`` arrivals, which are
    stepped side by side as the columns of :func:`_lockstep_kernel`. The
    first pass takes them in ``_PATH_CLASSES`` interleaved classes, class j
    holding the blocks b with b mod ``_PATH_CLASSES`` = j, one array call
    each: class 0 steps block 0 from ``start + 0.0`` and its other blocks
    from zeros, and each block of class j > 0 starts from the end that the
    block before it, of class j - 1, has just been given. A block whose
    start differs, bit for bit, from the end of the block before it is
    dirty, and is stepped again from that end; this repeats until no block
    is dirty. The step is a function of the profile and the mark alone, so
    by induction from block 0 every block then starts from its true profile
    and all rows are exact: time-parallel simulation with fix-up passes
    (Heidelberger & Stone 1990; Lin & Lazowska 1991). When fewer than
    ``_PATH_MIN_DIRTY`` blocks are dirty, or when a fix-up pass after the
    first leaves more than four fifths of those it stepped, the rest is
    stepped in order, by the row loop, :func:`_step_blocks_in_order`:
    each dirty block, then each block after it while the end just given to
    the block before differs from its start; the clean stretches between
    are jumped over. A ragged last block is padded with zero marks; the
    rows they give are dropped.
    """
    _require_profile(start)
    _require_rank(start, rank)
    servers, n = len(start), len(sigma)
    blocks = -(-n // _PATH_BLOCK)
    out = np.empty((blocks * _PATH_BLOCK + 1, servers))
    out[0] = start
    body = out[1:].reshape(blocks, _PATH_BLOCK, servers)
    sig, gap = np.zeros((2, blocks * _PATH_BLOCK))
    sig[:n], gap[:n] = sigma, xi
    sig, gap = sig.reshape(blocks, _PATH_BLOCK), gap.reshape(blocks, _PATH_BLOCK)
    # the start each block's rows were stepped from; NaN, which equals no
    # profile, until they are
    starts = np.full((blocks, servers), np.nan)
    dirty, passes = np.arange(blocks), 0
    while len(dirty):
        if (
            len(dirty) < _PATH_MIN_DIRTY
            or (passes > 2 and 5 * len(dirty) > 4 * stepped)
        ):
            _step_blocks_in_order(body, starts, sig, gap, dirty, out[0] + 0.0, rank)
            break
        if passes:
            starts[dirty] = body[dirty - 1, -1]
            _step_blocks_at_once(body, starts, sig, gap, dirty, rank)
        else:
            starts[0], starts[1:] = out[0] + 0.0, 0.0
            for j in range(min(_PATH_CLASSES, blocks)):
                rows = np.arange(j, blocks, _PATH_CLASSES)
                if j:
                    starts[rows] = body[rows - 1, -1]
                _step_blocks_at_once(body, starts, sig, gap, rows, rank)
        stepped, passes = len(dirty), passes + 1
        ends = body[:-1, -1].view(np.uint64)
        dirty = np.flatnonzero((starts[1:].view(np.uint64) != ends).any(axis=1)) + 1
    return out[: n + 1]


def _step_blocks_at_once(body, starts, sig, gap, rows, rank: int) -> None:
    """Step the blocks ``rows`` of a path side by side from their ``starts``."""
    # the gaps, copied to every coordinate row for a same-shape subtract,
    # then overwritten step by step with the profiles
    steps = np.empty((body.shape[1], body.shape[2], len(rows)))
    np.copyto(steps, gap[rows].T[:, None, :])
    _lockstep_kernel(starts[rows].T, sig[rows].T, steps, rank, keep=True)
    body[rows] = steps.transpose(2, 0, 1)


def _step_blocks_in_order(body, starts, sig, gap, dirty, start: np.ndarray, rank: int) -> int:
    """Step the ``dirty`` blocks of a path in order, by :func:`_row_loop`,
    each from the end of the block before it, block 0 from ``start``, and
    with each one the blocks after it, up to the first whose ``starts`` row
    is the end just given to the block before it; return how many blocks
    were stepped."""
    blocks, length, servers = body.shape
    loop = _row_loop(servers, rank)
    stepped = done = 0
    for b in dirty.tolist():
        if b < done:
            continue
        state = tuple((start if b == 0 else body[b - 1, -1]).tolist())
        chained = True
        while chained:
            # a run of blocks stepped anew, written at once, at most _CHUNK rows
            flat, e = [], b
            while chained and (e - b) * length < _CHUNK:
                state, e = loop(state, sig[e].tolist(), gap[e].tolist(), flat), e + 1
                # no profile holds -0.0 or NaN, so == on these floats is
                # equality of bits
                chained = e < blocks and state != tuple(starts[e].tolist())
            body[b:e] = np.fromiter(flat, float, len(flat)).reshape(e - b, length, servers)
            stepped, b = stepped + e - b, e
        # block e, if any, starts from the end just given to block e - 1
        done = e + 1
    return stepped


def _past_the_largest_float(name: str, what: str, step: int) -> InputError:
    """The error of the forward run ``name`` whose ``what`` at ``step`` passes
    the largest float: an overflow is a fault of the input, not a result."""
    return InputError(f"{name}: {what} at step {step} passes the largest float")


def _require_in_float_range(rows: np.ndarray, name: str, step: int) -> None:
    """Raise InputError at the first profile of the block ``rows`` of the
    run ``name``, whose columns are the profiles of steps ``step``, ``step +
    1``, ..., that passes the largest float or whose total workload does,
    as ``math.fsum`` adds it. Only a profile whose top queue reaches a
    ``2 S``-th of the largest float can: the others sum to at most half of
    it. Profiles are nondecreasing, so one reduction over the top row
    clears nearly every block.
    """
    bound = sys.float_info.max / (2 * len(rows))
    if rows[-1].max() < bound:
        return
    for i in np.flatnonzero(~(rows[-1] < bound)).tolist():
        profile = rows[:, i].tolist()
        if not profile[-1] < math.inf:
            raise _past_the_largest_float(name, "the profile", step + i)
        try:
            math.fsum(profile)
        except OverflowError:
            raise _past_the_largest_float(name, "the total workload", step + i) from None


def _path_chunks(
    start: Profile, draw: Callable[[int], Iterable[MarkSequence]], rank: int, name: str
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(step, rows)`` for one system's forward run, at least one
    arrival: ``rows`` holds the profiles of steps ``step``, ``step + 1``,
    ... as the columns of a C-contiguous ``(S, n)`` array, n at most
    ``_CHUNK``, and the chunks together hold steps 0 .. n, each once, in
    order. So row j of ``rows``, coordinate j + 1 of those profiles, is
    contiguous, and the screens, the wait and the CSV columns read whole
    coordinates.

    ``draw(_PATH_CHUNK)`` gives the run's marks in ascending index as
    :class:`~jswsim.processes.MarkSequence` chunks of ``_PATH_CHUNK`` marks,
    the last one shorter: :func:`~jswsim.processes.generate_forward`, which
    draws each chunk just before it is stepped, or :func:`_slices` of marks
    already held. Each chunk is one :func:`path_profiles` call, bit for bit
    the profiles of :func:`iter_profiles`; a later call starts from the last
    profile of the one before and drops its own row 0, that same profile.
    Step 0 is ``start`` as given. Each block is a transposed copy of its
    rows, at most 256 KB at S = 8: one copy of a whole call's rows raised
    the peak RSS of ``compare`` at 8 vs 4 servers by 2 MB. A profile or a
    total workload past the largest float raises InputError naming the run
    ``name`` and the step, by :func:`_require_in_float_range`, before its
    block is yielded, so every total that ``fsum`` adds from a block is
    finite.
    """
    step = 0
    for marks in draw(_PATH_CHUNK):
        with np.errstate(over="ignore"):
            path = path_profiles(start, marks.sigma, marks.xi, rank)
        for base in range(1 if step else 0, len(path), _CHUNK):
            # a copy always: ascontiguousarray gives a one-column block as a
            # view, which would hold the whole path while the next is drawn
            rows = path[base : base + _CHUNK].T.copy()
            _require_in_float_range(rows, name, step + base)
            yield step + base, rows
        start, step = tuple(path[-1].tolist()), step + len(marks)
        del marks, path  # not held while the next chunk is drawn


def _block_columns(arrivals: int) -> int:
    """The most columns of a block of :func:`_path_chunks` over ``arrivals``
    marks: those of its first block."""
    return min(arrivals + 1, _CHUNK)


def _slices(marks: MarkSequence) -> Callable[[int], Iterator[MarkSequence]]:
    """The ``draw`` of :func:`_path_chunks` for a run whose marks are all
    held: ``draw(rows)`` yields ``marks`` in slices of ``rows``, in ascending index."""
    return lambda rows: (
        MarkSequence(sigma=marks.sigma[lo : lo + rows], xi=marks.xi[lo : lo + rows])
        for lo in range(0, len(marks), rows)
    )


class _OfferedWait:
    """The mean offered wait of the forward run ``name`` over ``arrivals``
    marks whose arrivals join coordinate ``rank``: coordinate ``rank`` of
    steps 0 .. ``arrivals - 1``, the profiles the arrivals see, added in
    step order, so that it is the same float on every Python version, and
    divided by ``arrivals``. :meth:`add` takes the chunks of
    :func:`_path_chunks`, in order, and adds a chunk's coordinate row by
    ``np.add.accumulate`` seeded with the sum so far: one IEEE add per
    step, in step order, the adds ``functools.reduce(operator.add, ...)``
    makes. A sum past the largest float raises InputError naming the step
    whose add passed it."""

    def __init__(self, rank: int, arrivals: int, name: str) -> None:
        self.rank, self.arrivals, self.name, self.sum = rank, arrivals, name, 0.0

    def add(self, step: int, rows: np.ndarray) -> None:
        seeded = np.concatenate(([self.sum], rows[self.rank - 1, : self.arrivals - step]))
        with np.errstate(over="ignore"):
            sums = np.add.accumulate(seeded)
        self.sum = float(sums[-1])
        if not self.sum < math.inf:
            # sums[j] holds the adds to step step + j - 1; sums[0] is finite
            first = step + int(np.argmin(sums < math.inf)) - 1
            raise _past_the_largest_float(self.name, "the sum of offered waits", first)

    @property
    def mean(self) -> float:
        return self.sum / self.arrivals


def pad(profile: Profile, servers: int) -> Profile:
    """Embed a profile into a wider system by prepending idle servers."""
    n = len(profile)
    if servers < n:
        raise ValueError(f"cannot pad a {n}-server profile down to {servers}")
    return (0.0,) * (servers - n) + tuple(profile)


def total_workload(u: Profile) -> float:
    """Sum of all residual workloads (exactly rounded)."""
    return math.fsum(u)

