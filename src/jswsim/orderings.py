"""Partial orderings on workload profiles and their closure properties.

Three one-sided orderings drive the comparison harnesses: coordinatewise
domination, tail-sum domination (every suffix sum of the smaller profile is
bounded by the matching suffix sum of the larger one), and the combined
rank-ordered domination used when arrivals join the queue with the rank-th
least workload. A fourth, two-sided relation (equal totals plus sorted
tail-sum domination, defined on all of R^n) orders vectors by how balanced
they are and is what convex symmetric statistics respect.

Each closure property of these orderings that the comparison harnesses rely
on is exposed as a checker over concrete instances, together with seeded
samplers that construct premise-satisfying inputs on a dyadic grid (so that
float arithmetic in the checks is exact and zero tolerance is meaningful).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import PremiseError
from .profiles import Mark, Profile, _require_rank, pth_step, sort_raw

__all__ = [
    "OrderVerdict",
    "PropertySuiteReport",
    "Violation",
    "check_clamp_insert_stability",
    "check_negation_symmetry",
    "check_shift_monotonicity",
    "check_sorted_difference_balance",
    "check_step_comparison",
    "convex_symmetric_battery",
    "prec",
    "prec_p",
    "prec_star",
    "run_property_suite",
    "sample_balance_pair",
    "sample_coordinatewise_pair",
    "sample_signed_vector",
    "sample_sorted_profile",
    "sample_tail_sum_pair",
    "schur_convex_leq",
    "suite_names",
]


class Violation(NamedTuple):
    """First failed comparison: which clause, at which index, with both sides."""

    clause: str
    index: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an ordering test; falsy when the ordering fails."""

    holds: bool
    first_violation: Violation | None = None

    def __post_init__(self) -> None:
        if self.holds == (self.first_violation is not None):
            raise ValueError("verdict and violation record disagree")

    def __bool__(self) -> bool:
        return self.holds


_OK = OrderVerdict(True)


def _fail(clause: str, index: int, lhs: float, rhs: float) -> OrderVerdict:
    return OrderVerdict(False, Violation(clause, index, lhs, rhs))


def _require_same_length(u: Sequence[float], v: Sequence[float]) -> int:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return len(u)


def _require_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a NaN or infinite tolerance: it makes every clause that adds it hold."""
    if not math.isfinite(tol):
        raise ValueError(f"{name} must be finite, got {tol!r}")


def prec(u: Profile, v: Profile, tol: float = 0.0) -> OrderVerdict:
    """Coordinatewise domination of sorted profiles: u(i) <= v(i) + tol."""
    n = _require_same_length(u, v)
    _require_tolerance(tol)
    for i in range(n):
        if u[i] > v[i] + tol:
            return _fail("coordinate", i + 1, u[i], v[i])
    return _OK


def prec_star(u: Profile, v: Profile, tol: float = 0.0) -> OrderVerdict:
    """Tail-sum domination: sum(u[k:]) <= sum(v[k:]) + tol for every k.

    Tail sums on both sides are computed by a single backward accumulation.
    The first violation in accumulation order (largest k first) is reported.
    """
    n = _require_same_length(u, v)
    _require_tolerance(tol)
    tu = 0.0
    tv = 0.0
    for i in range(n - 1, -1, -1):
        tu += u[i]
        tv += v[i]
        if tu > tv + tol:
            return _fail("tail_sum", i + 1, tu, tv)
    return _OK


def prec_p(u: Profile, v: Profile, rank: int, tol: float = 0.0) -> OrderVerdict:
    """Rank-ordered domination: tail-sum domination plus coordinatewise
    domination from the given rank upwards."""
    n = _require_same_length(u, v)
    _require_rank(u, rank)
    _require_tolerance(tol)
    for i in range(rank - 1, n):
        if u[i] > v[i] + tol:
            return _fail("coordinate", i + 1, u[i], v[i])
    return prec_star(u, v, tol)


def schur_convex_leq(u: Sequence[float], v: Sequence[float], tol: float = 0.0) -> OrderVerdict:
    """Balance order on signed vectors: equal totals and sorted tail domination.

    Holds when |sum(u) - sum(v)| <= tol and, after sorting both vectors
    nondecreasingly, sum(u[k:]) <= sum(v[k:]) + tol for every k >= 2.
    Exactly the vectors that every convex symmetric statistic ranks
    consistently (v at least as spread out as u).
    """
    n = _require_same_length(u, v)
    _require_tolerance(tol)
    su = math.fsum(u)
    sv = math.fsum(v)
    if abs(su - sv) > tol:
        return _fail("total_sum", 1, su, sv)
    us = sort_raw(u)
    vs = sort_raw(v)
    tu = 0.0
    tv = 0.0
    for i in range(n - 1, 0, -1):
        tu += us[i]
        tv += vs[i]
        if tu > tv + tol:
            return _fail("tail_sum", i + 1, tu, tv)
    return _OK


# --------------------------------------------------------------------------
# Closure-property checkers. Each one takes concrete premise-satisfying
# inputs and reports whether the property holds on that instance.


def check_negation_symmetry(u: Sequence[float], v: Sequence[float], tol: float = 0.0) -> bool:
    """The balance order is preserved under negating both vectors.

    Returns whether ``schur_convex_leq(u, v)`` and ``schur_convex_leq(-u, -v)``
    agree on this instance.
    """
    a = schur_convex_leq(u, v, tol).holds
    b = schur_convex_leq([-x for x in u], [-y for y in v], tol).holds
    return a == b


def check_shift_monotonicity(
    u: Profile, v: Profile, x: float, y: float, tol: float = 0.0
) -> bool:
    """Coordinatewise domination survives adding x <= y at the least coordinate.

    Checks the implication: if u is coordinatewise below v, then
    sort(u with x added at its least coordinate) is coordinatewise below
    sort(v with y added at its least coordinate). Vacuously true when the
    premise fails. Inputs whose shifted least coordinate would go negative
    are rejected, as are x > y.
    """
    if x > y:
        raise PremiseError(f"shift amounts out of order: x={x!r} > y={y!r}")
    if u[0] + x < 0.0 or v[0] + y < 0.0:
        raise PremiseError("shift would push the least coordinate below zero")
    if not prec(u, v, tol):
        return True
    su = tuple(sorted((u[0] + x,) + tuple(u[1:])))
    sv = tuple(sorted((v[0] + y,) + tuple(v[1:])))
    return prec(su, sv, tol).holds


def _log_sum_exp(values: Sequence[float]) -> float:
    m = max(values)
    return m + math.log(math.fsum(math.exp(x - m) for x in values))


def convex_symmetric_battery(
    u: Sequence[float], v: Sequence[float], tol: float = 1e-9
) -> bool:
    """Evaluate a battery of convex symmetric statistics on a balance-ordered pair.

    Requires ``schur_convex_leq(u, v, tol)`` to hold; raises otherwise.
    Returns whether F(u) <= F(v) + tol for every statistic F in the battery:
    the maximum, the sum of squares, the sum of positive parts, hinge sums
    sum(max(x - c, 0)) over a small data-derived grid of thresholds c, and
    log-sum-exp. The default tolerance absorbs the transcendental rounding
    of log-sum-exp; the other statistics are exact on dyadic inputs.
    """
    if not schur_convex_leq(u, v, tol):
        raise PremiseError("inputs are not ordered by schur_convex_leq")
    us = sort_raw(u)
    vs = sort_raw(v)
    thresholds = (vs[0], vs[-1], (vs[0] + vs[-1]) / 2.0, 0.0)

    def hinge(c: float) -> Callable[[Sequence[float]], float]:
        return lambda w: math.fsum(x - c for x in w if x > c)

    battery: list[Callable[[Sequence[float]], float]] = [
        max,
        lambda w: math.fsum(x * x for x in w),
        hinge(0.0),
        _log_sum_exp,
    ]
    battery.extend(hinge(c) for c in thresholds)
    return all(f(us) <= f(vs) + tol for f in battery)


def check_sorted_difference_balance(
    u: Sequence[float], v: Sequence[float], tol: float = 0.0
) -> bool:
    """Difference of sorted vectors is at least as balanced as the raw difference.

    For arbitrary real vectors u, v of equal length, checks
    ``schur_convex_leq(sort(u) - sort(v), u - sort(v))``.
    """
    _require_same_length(u, v)
    us = sort_raw(u)
    vs = sort_raw(v)
    lhs = [a - b for a, b in zip(us, vs)]
    rhs = [a - b for a, b in zip(u, vs)]
    return schur_convex_leq(lhs, rhs, tol).holds


def check_clamp_insert_stability(
    u: Profile,
    v: Profile,
    x: float,
    j: int,
    y: float,
    tol: float = 0.0,
) -> bool:
    """Tail-sum domination survives uniform clamped shifts and insertions.

    Requires u to be tail-sum dominated by v. Checks two closure steps:
    (i) subtracting x from every coordinate and clamping at zero preserves
    the ordering, for any real x; (ii) adding y >= 0 at coordinate j and
    re-sorting preserves it, provided u(j) <= v(j) (rejected otherwise).
    Returns whether both checks hold on this instance.
    """
    n = _require_same_length(u, v)
    if not 1 <= j <= n:
        raise ValueError(f"coordinate {j} outside [1, {n}]")
    if y < 0.0:
        raise ValueError(f"insertion amount must be nonnegative, got {y!r}")
    if not prec_star(u, v, tol):
        raise PremiseError("inputs are not ordered by prec_star")
    if u[j - 1] > v[j - 1]:
        raise PremiseError(f"insertion coordinate violates u({j}) <= v({j})")
    cu = tuple(0.0 if w - x <= 0.0 else w - x for w in u)
    cv = tuple(0.0 if w - x <= 0.0 else w - x for w in v)
    clamp_ok = prec_star(cu, cv, tol).holds
    iu = tuple(sorted(u[: j - 1] + (u[j - 1] + y,) + u[j:]))
    iv = tuple(sorted(v[: j - 1] + (v[j - 1] + y,) + v[j:]))
    insert_ok = prec_star(iu, iv, tol).holds
    return clamp_ok and insert_ok


def check_step_comparison(
    u: Profile, v: Profile, mark: Mark, rank: int, tol: float = 0.0
) -> tuple[bool, bool]:
    """One recursion step preserves rank-ordered domination.

    Requires u to be rank-ordered below v. Advances u under shortest-workload
    routing and under rank routing, advances v under rank routing, all with
    the same mark, and reports whether each advanced u stays rank-ordered
    below the advanced v.
    """
    if not prec_p(u, v, rank, tol):
        raise PremiseError("inputs are not ordered by prec_p")
    gv = pth_step(v, mark, rank)
    shortest_ok = prec_p(pth_step(u, mark, 1), gv, rank, tol).holds
    ranked_ok = prec_p(pth_step(u, mark, rank), gv, rank, tol).holds
    return shortest_ok, ranked_ok


# --------------------------------------------------------------------------
# Seeded samplers on a dyadic grid. Values are multiples of 1/64 (transfers
# 1/128) within a small range, so sums and differences are exact in binary
# floating point and the checkers can run with zero tolerance.

_DENOM = 64


def _dyadic(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * _DENOM), round(hi * _DENOM)) / _DENOM


def sample_sorted_profile(rng: random.Random, servers: int) -> Profile:
    return tuple(sorted(_dyadic(rng, 0.0, 4.0) for _ in range(servers)))


def sample_signed_vector(rng: random.Random, size: int) -> tuple[float, ...]:
    return tuple(_dyadic(rng, -4.0, 4.0) for _ in range(size))


def sample_coordinatewise_pair(rng: random.Random, servers: int) -> tuple[Profile, Profile]:
    """A pair u, v of sorted profiles with u coordinatewise below v."""
    u = sample_sorted_profile(rng, servers)
    bumped = [w + (0.0 if rng.random() < 0.3 else _dyadic(rng, 0.0, 2.0)) for w in u]
    return u, tuple(sorted(bumped))


def _draw_below(rng: random.Random, bound: float) -> float:
    # bound is an exact dyadic multiple of 1/_DENOM
    units = round(bound * _DENOM)
    roll = rng.random()
    if roll < 0.25:
        return bound
    if roll < 0.40:
        return 0.0
    return rng.randint(0, units) / _DENOM


def sample_tail_sum_pair(
    rng: random.Random, servers: int, rank: int | None = None
) -> tuple[Profile, Profile]:
    """A pair u, v with u tail-sum dominated by v.

    With ``rank`` given, u is additionally coordinatewise below v from that
    index up: rank-ordered below v, as ``prec_p`` checks. Built downward from the top coordinate: at each index the
    admissible interval for u is computed from v's remaining tail budget,
    the sortedness cap and (at and above the rank) v's own coordinate, then
    sampled with atoms at both endpoints so tight and slack instances both
    occur.
    """
    v = sample_sorted_profile(rng, servers)
    tail_v = 0.0
    tail_u = 0.0
    out: list[float] = []
    cap = math.inf
    for i in range(servers - 1, -1, -1):
        tail_v += v[i]
        bound = min(cap, tail_v - tail_u)
        if rank is not None and i + 1 >= rank:
            bound = min(bound, v[i])
        ui = _draw_below(rng, bound)
        out.append(ui)
        tail_u += ui
        cap = ui
    return tuple(reversed(out)), v


def sample_balance_pair(
    rng: random.Random, size: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A pair u, v of signed vectors with u at least as balanced as v.

    u is produced from v by a random number of mean-preserving transfers
    from a larger coordinate to a smaller one, each bounded by half their
    gap, then shuffled (the order is permutation-invariant).
    """
    v = list(sample_signed_vector(rng, size))
    w = list(v)
    for _ in range(rng.randint(0, 2 * size)):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if w[i] > w[j]:
            i, j = j, i
        gap = w[j] - w[i]
        delta = rng.randint(0, round(gap * _DENOM)) / (2 * _DENOM)
        w[i] += delta
        w[j] -= delta
    rng.shuffle(w)
    rng.shuffle(v)
    return tuple(w), tuple(v)


# --------------------------------------------------------------------------
# Randomized suites over the checkers, shared by the CLI and the tests. A
# suite's runner draws one instance and returns its description and the
# check to run on it.

_Instance = tuple[str, Callable[[], bool]]


@dataclass
class PropertySuiteReport:
    """Outcome of one randomized closure-property suite."""

    name: str
    instances: int
    failures: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _run_negation(rng: random.Random, dim: int, tol: float) -> _Instance:
    if rng.random() < 0.5:
        u, v = sample_balance_pair(rng, dim)
    else:
        u = sample_signed_vector(rng, dim)
        v = sample_signed_vector(rng, dim)
    return f"u={u!r} v={v!r}", lambda: check_negation_symmetry(u, v, tol)


def _run_shift(rng: random.Random, dim: int, tol: float) -> _Instance:
    if rng.random() < 0.8:
        u, v = sample_coordinatewise_pair(rng, dim)
    else:
        u = sample_sorted_profile(rng, dim)
        v = sample_sorted_profile(rng, dim)
    x = _dyadic(rng, -min(u[0], v[0]), 2.0)
    y = x if rng.random() < 0.2 else _dyadic(rng, x, 2.5)
    descr = f"u={u!r} v={v!r} x={x!r} y={y!r}"
    return descr, lambda: check_shift_monotonicity(u, v, x, y, tol)


def _run_battery(rng: random.Random, dim: int, tol: float) -> _Instance:
    u, v = sample_balance_pair(rng, dim)
    # the log-sum-exp member is transcendental, so never check at exactly zero
    return f"u={u!r} v={v!r}", lambda: convex_symmetric_battery(u, v, max(tol, 1e-9))


def _run_sorted_difference(rng: random.Random, dim: int, tol: float) -> _Instance:
    u = sample_signed_vector(rng, dim)
    v = sample_signed_vector(rng, dim)
    return f"u={u!r} v={v!r}", lambda: check_sorted_difference_balance(u, v, tol)


def _run_clamp_insert(rng: random.Random, dim: int, tol: float) -> _Instance:
    u, v = sample_tail_sum_pair(rng, dim)
    x = _dyadic(rng, -1.0, max(v) + 1.0)
    y = _dyadic(rng, 0.0, 2.0)
    eligible = [j for j in range(1, dim + 1) if u[j - 1] <= v[j - 1]]
    j = rng.choice(eligible)
    descr = f"u={u!r} v={v!r} x={x!r} j={j} y={y!r}"
    return descr, lambda: check_clamp_insert_stability(u, v, x, j, y, tol)


def _run_step_comparison(rng: random.Random, dim: int, tol: float) -> _Instance:
    rank = rng.randint(1, dim)
    u, v = sample_tail_sum_pair(rng, dim, rank)
    mark = Mark(_dyadic(rng, 0.0, 4.0), _dyadic(rng, 1.0 / _DENOM, 2.0))
    descr = f"u={u!r} v={v!r} mark={tuple(mark)!r} rank={rank}"
    return descr, lambda: all(check_step_comparison(u, v, mark, rank, tol))


_SUITES: dict[str, Callable[[random.Random, int, float], _Instance]] = {
    "negation-symmetry": _run_negation,
    "shift-monotonicity": _run_shift,
    "convex-battery": _run_battery,
    "sorted-difference": _run_sorted_difference,
    "clamp-insert-stability": _run_clamp_insert,
    "step-comparison": _run_step_comparison,
}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def _require_suite_settings(names: Iterable[str], instances: int, max_dim: int, tol: float) -> None:
    """The input rules of :func:`run_property_suite`, for each suite name."""
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    _require_tolerance(tol, "tolerance")


def run_property_suite(
    name: str,
    instances: int,
    max_dim: int = 8,
    seed: int = 1,
    tol: float = 0.0,
) -> PropertySuiteReport:
    """Run one closure-property suite over randomized premise-satisfying inputs.

    Dimensions cycle over [1, max_dim]. String-seeded so runs are reproducible
    and independent across suites for the same seed. An instance whose
    premise fails under ``tol`` (a negative one tightens it past what the
    sampler built) counts as a failure, not as a PremiseError. The report
    keeps the first 10 counterexamples.
    """
    _require_suite_settings((name,), instances, max_dim, tol)
    runner = _SUITES[name]
    rng = random.Random(f"{name}:{seed}")
    report = PropertySuiteReport(name=name, instances=instances)
    for k in range(instances):
        dim = 1 + k % max_dim
        descr, check = runner(rng, dim, tol)
        try:
            ok = check()
        except PremiseError as exc:
            ok, descr = False, f"{descr} (premise not satisfied: {exc})"
        if not ok:
            report.failures += 1
            if len(report.counterexamples) < 10:
                report.counterexamples.append(descr)
    return report
