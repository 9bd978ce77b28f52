"""Backward construction of minimal stationary workload profiles.

Start the system empty n customers before a reference arrival, replay the
intervening marks forward in time, and record the profile the reference
arrival sees. On a common mark stream this quantity is coordinatewise
nondecreasing in n, and for a stable system it converges to the minimal
stationary profile; the estimator below doubles n until the increment
between successive doublings drops below a tolerance.

Coupling convention: generated mark k of a (model, seed) stream is assigned
to the (k+1)-th customer counting backwards from the reference arrival.
Deepening the past therefore extends the stream while the recently consumed
marks stay fixed, which is what makes the monotonicity exact per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import processes
from .errors import InputError, StabilityError
# pth_step is not called here; it stays importable for the benchmark's tracer test.
from .profiles import Profile, _advance, _require_rank, pth_step, zero_profile  # noqa: F401
from .processes import (
    InputModel,
    StabilityVerdict,
    _chunk_rows,
    _require_seed_count,
    generate_chunks,
    mean_sigma,
    mean_xi,
    stability_check,
)

__all__ = [
    "LoynesResult",
    "estimate_stationary_many",
]


@dataclass(frozen=True)
class LoynesResult:
    """Stationary profile estimate from the doubling scheme.

    ``last_increment`` is the sup-norm change over the final doubling
    (infinite when only one evaluation fit under ``max_n``). ``history``
    holds the (n, profile) snapshots at each evaluated n when requested.
    """

    profile: Profile
    steps_used: int
    converged: bool
    last_increment: float
    history: tuple[tuple[int, Profile], ...] | None = None


def _require_loynes_settings(
    servers: int, rank: int, tolerance: float, window: int, max_n: int
) -> None:
    """The input rules of :func:`estimate_stationary_many`."""
    _require_rank(zero_profile(servers), rank)
    # false for NaN too
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite, > 0, got {tolerance!r}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if max_n < window:
        raise ValueError(f"max_n {max_n} is smaller than window {window}")


def estimate_stationary_many(
    model: InputModel,
    seeds: Sequence[int],
    servers: int,
    rank: int = 1,
    tolerance: float = 1e-6,
    window: int = 64,
    max_n: int = 2**22,
    keep_history: bool = False,
) -> list[LoynesResult]:
    """Estimate the minimal stationary profile for each seed, in order.

    Arrivals join the rank-th least-loaded queue, so only the top
    ``servers - rank + 1`` queues ever receive work; the stability premise
    is checked for that effective server count and the construction refuses
    to run for unstable or critical inputs. Evaluation points are
    n = window, 2*window, 4*window, ... up to ``max_n``, each regenerated
    from the same seed (the backward streams are prefix-coupled), except
    that the first two share one draw. A seed
    converges once its sup-norm increment is at most ``tolerance``.
    Convergence detection is heuristic: an increment can vanish on one
    doubling and return on the next, so the flag is evidence, not proof.

    All seeds still running at depth n are replayed together (see
    :func:`_replay`), and the stop is decided for all of them at once, at
    the deepest depth of the call, each on its own increment: so every
    result equals the one this function gives for that seed alone. A trace
    gives every seed the same marks, so it takes at most one seed. A replay
    that passes the largest float raises InputError.
    """
    _require_loynes_settings(servers, rank, tolerance, window, max_n)
    seeds = list(seeds)
    _require_seed_count(model, seeds)
    effective = servers - rank + 1
    verdict = stability_check(model, effective)
    if verdict is not StabilityVerdict.STABLE:
        raise StabilityError(
            f"{verdict.value} input: mean work {mean_sigma(model)!r} vs drain capacity "
            f"{effective} * {mean_xi(model)!r} for {effective} effective server(s)"
        )

    results: list[LoynesResult] = [None] * len(seeds)  # type: ignore[list-item]
    running = np.arange(len(seeds))
    # the running seeds' profiles one depth back; none before the first
    prev = np.full((len(seeds), servers), math.inf)
    snapshots: list[tuple[int, np.ndarray]] = []  # (n, a row per seed), with keep_history
    # Every seed needs the first two depths before it can stop, so they share one draw.
    depths = [window, 2 * window] if 2 * window <= max_n else [window]
    # One draw buffer for every depth (see _replay): a buffer per depth,
    # freed into the heap, left 0.2 MB more resident at the peak of the
    # bench's loynes-heavy run.
    buffers = processes._pass_buffer(model)
    while running.size:
        replays = _replay(model, [seeds[i] for i in running], servers, rank, depths, buffers)
        if keep_history:
            table = np.empty((len(depths), len(seeds), servers))
            table[:, running] = replays
            snapshots.extend(zip(depths, table))
        # Seeds stop only at a call's deepest depth: the first depth has no increment.
        n = depths[-1]
        prev, profile = (prev, *replays)[-2:]
        increment = np.abs(profile - prev).max(axis=1)
        converged = increment <= tolerance
        stop = converged | (2 * n > max_n)
        fields = (a[stop].tolist() for a in (running, profile, converged, increment))
        for i, prof, conv, inc in zip(*fields):
            history = tuple((d, tuple(t[i].tolist())) for d, t in snapshots) if keep_history else None
            results[i] = LoynesResult(tuple(prof), n, conv, inc, history)
        running, prev = running[~stop], profile[~stop]
        depths = [2 * n]
    return results


def _blocks(items, count):
    """Split ``items`` into ``count`` contiguous blocks of near-equal size."""
    return [items[k * len(items) // count : (k + 1) * len(items) // count] for k in range(count)]


def _replay(
    model: InputModel,
    seeds: list[int],
    servers: int,
    rank: int,
    depths: list[int],
    buffers: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The backward profiles at the ascending ``depths``, as a ``(depths,
    seeds, S)`` float64 array: entry [k, r] is the profile of ``seeds[r]``
    at ``depths[k]``.

    All depths replay one draw of the deepest past, n = ``depths[-1]``
    marks: a replay starts empty at the oldest mark, and the replay of a
    shallower depth d joins it, empty, at mark d - 1, after which they step
    together. The marks come oldest first, in descending mark index, in
    chunks (:func:`generate_chunks`) of ``processes._chunk_rows`` rows, and
    a pass holds R seeds times one chunk, at most ``_PASS_MARKS`` marks, at
    every depth. Each chunk of every pass is drawn into the tail of the
    first of ``buffers``, ``generate_chunks``' ``out`` from
    ``processes._pass_buffer``, whose head, the second, is the logarithm's
    scratch and then each stretch's marks, laid out for the kernel. The call
    allocates one state, the ``(S, replays, R)`` profiles of a pass's
    replays, deepest first, which :func:`~jswsim.profiles._advance`, the
    one stepper of every backward replay, steps once per stretch between
    joins, and a scratch of one such row when the head is too short for
    it. A state past the largest float raises InputError, naming
    the seed and the depth.
    """
    n = depths[-1]
    rows = _chunk_rows(n, len(seeds))
    blocks = _blocks(seeds, -(-len(seeds) // (processes._PASS_MARKS // rows)))
    width = max(map(len, blocks))
    # the stepping scratch holds at least a row of every replay's gaps and the sigma row
    need = width * (servers * len(depths) + 1)
    buffer, head = buffers
    scratch = head if need <= len(head) else np.empty(need)
    state = np.empty(servers * len(depths) * width)
    out = np.empty((len(depths), len(seeds), servers))
    done = 0
    for block in blocks:
        u = state[:0].reshape(servers, 0, len(block))
        for lo, sigma, xi in generate_chunks(model, block, n, rows, out=buffer):
            hi = lo + len(sigma)
            cuts = sorted({lo, hi, *(d for d in depths if lo < d < hi)}, reverse=True)
            for top, bottom in zip(cuts, cuts[1:]):
                if top in depths:  # the replay from depth top joins, empty
                    k = u.shape[1]
                    grown = state[: servers * (k + 1) * len(block)].reshape(servers, k + 1, -1)
                    grown[:, :k], grown[:, k] = u, 0.0
                    u = grown
                part = slice(bottom - lo, top - lo)
                with np.errstate(over="ignore"):
                    _advance(u, sigma[part][::-1], xi[part][::-1], rank, scratch)
                # a replay past the largest float stays there, in its top queue
                if not u[-1].max() < math.inf:
                    k, r = divmod(int(np.argmin(u[-1] < math.inf)), len(block))
                    raise InputError(
                        f"seed {block[r]}: the replay from depth {depths[-1 - k]} "
                        "passes the largest float"
                    )
        out[:, done : done + len(block)] = u.transpose(1, 2, 0)[::-1]
        done += len(block)
    return out

