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
from collections import deque
from dataclasses import dataclass

from .errors import StabilityError
# pth_step is no longer called here, but it stays importable from this module:
# the benchmark's tracer test (bench/test_smoke.py) looks it up here.
from .profiles import Profile, iter_profiles, pth_step, zero_profile  # noqa: F401
from .processes import (
    InputModel,
    MarkSequence,
    StabilityVerdict,
    generate,
    mean_sigma,
    mean_xi,
    stability_check,
)

__all__ = [
    "LoynesResult",
    "backward_marks",
    "estimate_stationary",
    "loynes_iterate",
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


def backward_marks(model: InputModel, seed: int, n: int) -> MarkSequence:
    """Marks of the n customers before the reference arrival, oldest first.

    Reverses the generated stream, so for fixed (model, seed) a larger n
    prepends older customers while the recent past is unchanged.
    """
    return generate(model, seed, n).reversed_marks()


def loynes_iterate(marks: MarkSequence, servers: int, rank: int = 1) -> Profile:
    """Profile seen by the reference arrival after replaying ``marks``.

    ``marks`` lists the preceding customers oldest first; the system starts
    empty and each customer is routed to the rank-th least-loaded queue.
    """
    return deque(iter_profiles(zero_profile(servers), marks, rank), maxlen=1)[0]


def estimate_stationary(
    model: InputModel,
    seed: int,
    servers: int,
    rank: int = 1,
    tolerance: float = 1e-6,
    window: int = 64,
    max_n: int = 2**22,
    keep_history: bool = False,
) -> LoynesResult:
    """Estimate the minimal stationary profile for (model, seed).

    Arrivals join the rank-th least-loaded queue, so only the top
    ``servers - rank + 1`` queues ever receive work; the stability premise
    is checked for that effective server count and the construction refuses
    to run for unstable or critical inputs. Evaluation points are
    n = window, 2*window, 4*window, ... up to ``max_n``, each regenerated
    from the same seed (the backward streams are prefix-coupled), declaring
    convergence once the sup-norm increment is at most ``tolerance``.
    Convergence detection is heuristic: an increment can vanish on one
    doubling and return on the next, so the flag is evidence, not proof.
    """
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if max_n < window:
        raise ValueError(f"max_n {max_n} is smaller than window {window}")
    effective = servers - rank + 1
    verdict = stability_check(model, effective)
    if verdict is not StabilityVerdict.STABLE:
        raise StabilityError(
            f"{verdict.value} input: mean work {mean_sigma(model)!r} vs drain capacity "
            f"{effective} * {mean_xi(model)!r} for {effective} effective server(s)"
        )

    history: list[tuple[int, Profile]] = []
    prev: Profile | None = None
    prev_n = 0
    increment = math.inf
    n = window
    while True:
        profile = loynes_iterate(backward_marks(model, seed, n), servers, rank)
        if keep_history:
            history.append((n, profile))
        if prev is not None:
            increment = max(abs(a - b) for a, b in zip(profile, prev))
            if increment <= tolerance:
                return LoynesResult(
                    profile=profile,
                    steps_used=n,
                    converged=True,
                    last_increment=increment,
                    history=tuple(history) if keep_history else None,
                )
        prev = profile
        prev_n = n
        if 2 * n > max_n:
            return LoynesResult(
                profile=prev,
                steps_used=prev_n,
                converged=False,
                last_increment=increment,
                history=tuple(history) if keep_history else None,
            )
        n *= 2
