"""Closed-form queueing formulas, a scalar log1p, a trace reader and a
scalar backward replay used as oracles by the tests.

The queueing formulas are textbook results for the FCFS multi-server queue
with Poisson arrivals and exponential service, and for the single-server
queue with one of the two laws general: Pollaczek-Khinchine's mean wait of
M/G/1 and the mean wait of GI/M/1 from the root of its arrival law's
transform; ``log1p_fdlibm`` is a scalar
port of the C library routine the mark generator's array logarithm
reproduces; ``read_trace_reference`` is the per-line trace reader as it was
before numpy's text reader took the well-formed files; ``rank_waiting_times``
is an event-based simulation of fixed-rank allocation, and
``sort_formula_step`` the one-step recursion as first written, by sorting,
which ``pth_step`` must match bit for bit. These are computed
independently of the package under test, which only lends its error class.
``backward_marks`` and ``loynes_iterate`` replay one seed's past from empty
with the package's reference step loop, ``iter_profiles``, one customer at a
time: the definition the lockstep estimator is checked against.
"""

import math
import struct
from collections import deque

from jswsim.errors import InputError
from jswsim.processes import (
    Deterministic,
    Exponential,
    Hyperexponential,
    InputModel,
    MarkSequence,
    Uniform,
    generate,
)
from jswsim.profiles import Profile, iter_profiles, zero_profile


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival must wait, M/M/c with a = lambda/mu < c."""
    if not 0 < offered_load < servers:
        raise ValueError("offered load must lie in (0, servers)")
    a = offered_load
    c = servers
    top = (a**c / math.factorial(c)) * (c / (c - a))
    bottom = sum(a**k / math.factorial(k) for k in range(c)) + top
    return top / bottom


def mmc_mean_wait(servers: int, arrival_rate: float, service_rate: float) -> float:
    """Mean waiting time (in queue) of an M/M/c customer."""
    a = arrival_rate / service_rate
    block = erlang_c(servers, a)
    return block / (servers * service_rate - arrival_rate)


def mg1_mean_wait(sigma_law, arrival_rate: float) -> float:
    """Mean waiting time of an M/G/1 customer whose service requirement has
    the law ``sigma_law``, by Pollaczek-Khinchine: lambda E[sigma^2] / (2 (1 - rho))."""
    if isinstance(sigma_law, Exponential):
        second = 2.0 / sigma_law.rate**2
    elif isinstance(sigma_law, Deterministic):
        second = sigma_law.value**2
    elif isinstance(sigma_law, Uniform):
        a, b = sigma_law.lo, sigma_law.hi
        second = (a * a + a * b + b * b) / 3.0
    elif isinstance(sigma_law, Hyperexponential):
        second = math.fsum(2.0 * p / r**2 for p, r in zip(sigma_law.probs, sigma_law.rates))
    else:
        raise TypeError(f"no second moment for {sigma_law!r}")
    rho = arrival_rate * sigma_law.mean()
    if not 0.0 < rho < 1.0:
        raise ValueError(f"load must lie in (0, 1), got {rho!r}")
    return arrival_rate * second / (2.0 * (1.0 - rho))


def _transform(law, s: float) -> float:
    """E exp(-s X) of a gap X with the law ``law``, for s > 0."""
    if isinstance(law, Exponential):
        return law.rate / (law.rate + s)
    if isinstance(law, Deterministic):
        return math.exp(-s * law.value)
    if isinstance(law, Uniform):
        a, b = law.lo, law.hi
        if a == b:
            return math.exp(-s * a)
        return (math.exp(-s * a) - math.exp(-s * b)) / (s * (b - a))
    if isinstance(law, Hyperexponential):
        return math.fsum(p * r / (r + s) for p, r in zip(law.probs, law.rates))
    raise TypeError(f"no transform for {law!r}")


def gim1_mean_wait(xi_law, service_rate: float) -> float:
    """Mean waiting time of a GI/M/1 customer whose inter-arrival gaps have
    the law ``xi_law``: z / (mu (1 - z)), where z is the root in (0, 1) of
    z = A*(mu (1 - z)) and A* is the gaps' Laplace-Stieltjes transform.
    z - A*(mu (1 - z)) is concave in z, below 0 at 0 and 0 at 1, where it
    falls under a load below 1; so it is below 0 on (0, z) and above 0 on
    (z, 1), and bisection finds z."""
    rho = 1.0 / (service_rate * xi_law.mean())
    if not 0.0 < rho < 1.0:
        raise ValueError(f"load must lie in (0, 1), got {rho!r}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid - _transform(xi_law, service_rate * (1.0 - mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    z = (lo + hi) / 2.0
    return z / (service_rate * (1.0 - z))


def mm1_wait_cdf(arrival_rate: float, service_rate: float, t: float) -> float:
    """P(W <= t) for the M/M/1 waiting time: mass 1-rho at zero, then
    an exponential tail of rate mu - lambda."""
    rho = arrival_rate / service_rate
    if t < 0:
        return 0.0
    return 1.0 - rho * math.exp(-(service_rate - arrival_rate) * t)


# fdlibm s_log1p.c (Sun Microsystems, 1993), the constants glibc uses.
LN2_HI = 6.93147180369123816490e-01  # 0x3fe62e42fee00000
LN2_LO = 1.90821492927058770002e-10  # 0x3dea39ef35793c76
LP = (
    6.666666666666735130e-01,
    3.999999999940941908e-01,
    2.857142874366239149e-01,
    2.222219843214978396e-01,
    1.818357216161805012e-01,
    1.531383769920937332e-01,
    1.479819860511658591e-01,
)


def _high_word(x: float) -> int:
    """The upper 32 bits of ``x``, as a signed 32-bit int."""
    return struct.unpack("<q", struct.pack("<d", x))[0] >> 32


def _with_high_word(x: float, hi: int) -> float:
    """``x`` with its upper 32 bits replaced by ``hi``."""
    low = struct.unpack("<Q", struct.pack("<d", x))[0] & 0xFFFFFFFF
    return struct.unpack("<d", struct.pack("<Q", (hi << 32) | low))[0]


def log1p_fdlibm(x: float) -> float:
    """log(1 + x) for finite x > -1, one Python float operation per C
    operation of fdlibm's s_log1p.c as glibc's generic (non-FMA) build
    evaluates it, branch for branch."""
    hx = _high_word(x)
    ax = hx & 0x7FFFFFFF
    k = 1
    if hx < 0x3FDA827A:  # x < 0.41422
        if ax < 0x3E200000:  # |x| < 2**-29
            return x if ax < 0x3C900000 else x - x * x * 0.5
        if hx > 0 or hx <= 0xBFD2BEC3 - 2**32:  # -0.2929 < x < 0.41422
            k, f, hu, c = 0, x, 1, 0.0
    if k != 0:
        if hx < 0x43400000:
            u = 1.0 + x
            hu = _high_word(u)
            k = (hu >> 20) - 1023
            c = 1.0 - (u - x) if k > 0 else x - (u - 1.0)  # correction term
            c /= u
        else:
            u = x
            hu = _high_word(u)
            k = (hu >> 20) - 1023
            c = 0.0
        hu &= 0x000FFFFF
        if hu < 0x6A09E:
            u = _with_high_word(u, hu | 0x3FF00000)  # normalize u
        else:
            k += 1
            u = _with_high_word(u, hu | 0x3FE00000)  # normalize u / 2
            hu = (0x00100000 - hu) >> 2
        f = u - 1.0
    hfsq = 0.5 * f * f
    if hu == 0:  # |f| < 2**-20
        if f == 0.0:
            if k == 0:
                return 0.0
            c += k * LN2_LO
            return k * LN2_HI + c
        R = hfsq * (1.0 - 0.66666666666666666 * f)
        if k == 0:
            return f - R
        return k * LN2_HI - ((R - (c + k * LN2_LO)) - f)
    s = f / (2.0 + f)
    z = s * s
    R1 = z * LP[0]
    z2 = z * z
    R2 = LP[1] + z * LP[2]
    z4 = z2 * z2
    R3 = LP[3] + z * LP[4]
    z6 = z4 * z2
    R4 = LP[5] + z * LP[6]
    R = R1 + z2 * R2 + z4 * R3 + z6 * R4
    if k == 0:
        return f - (hfsq - s * (hfsq + R))
    return k * LN2_HI - ((hfsq - (s * (hfsq + R) + (k * LN2_LO + c))) - f)


def read_trace_reference(path: str) -> tuple[list[float], list[float]]:
    """A trace file's ``(sigma, xi)`` marks, read one line at a time; kept
    frozen so that a faster reader can be checked against it, bit for bit
    and message for message."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read trace file {path!r}: {exc}") from exc
    sig: list[float] = []
    xis: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 2:
            raise InputError(f"{path}:{lineno}: expected 'sigma xi', got {body!r}")
        try:
            s, x = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(s) and s >= 0.0):
            raise InputError(f"{path}:{lineno}: service requirement must be >= 0, got {s!r}")
        if not (math.isfinite(x) and x > 0.0):
            raise InputError(f"{path}:{lineno}: inter-arrival gap must be > 0, got {x!r}")
        sig.append(s)
        xis.append(x)
    if not sig:
        raise InputError(f"trace {path!r} is empty")
    return sig, xis


def rank_waiting_times(marks: MarkSequence, servers: int, rank: int) -> list[float]:
    """Offered waits at ``rank`` from an event-based simulation that keeps
    each queue's absolute free epoch, in the manner of
    ``comparison.fcfs_waiting_times``: customer k arrives at the sum of the
    gaps before it, joins the queue with the rank-th least remaining work
    (ties to the lowest index), waits that work out and then holds the queue
    for its service requirement. Equals coordinate ``rank`` of the profile
    recursion's k-th profile up to the rounding drift of absolute epochs."""
    free = [0.0] * servers
    now = 0.0
    waits = []
    for s, x in zip(marks.sigma.tolist(), marks.xi.tolist()):
        queue = sorted(range(servers), key=lambda i: max(free[i] - now, 0.0))[rank - 1]
        begin = max(free[queue], now)
        waits.append(begin - now)
        free[queue] = begin + s
        now += x
    return waits


def sort_formula_step(u: Profile, mark, rank: int) -> Profile:
    """The step as first written: add sigma at rank, age all, clamp, sort."""
    sigma, xi = mark
    vals = [x - xi for x in u]
    vals[rank - 1] = (u[rank - 1] + sigma) - xi
    return tuple(sorted(0.0 if v <= 0.0 else v for v in vals))


def backward_marks(model: InputModel, seed: int, n: int) -> MarkSequence:
    """Marks of the n customers before the reference arrival, oldest first.

    Reverses the generated stream, so for fixed (model, seed) a larger n
    prepends older customers while the recent past is unchanged.
    """
    marks = generate(model, seed, n)
    return MarkSequence(sigma=marks.sigma[::-1], xi=marks.xi[::-1])


def loynes_iterate(marks: MarkSequence, servers: int, rank: int = 1) -> Profile:
    """Profile seen by the reference arrival after replaying ``marks``.

    ``marks``, a :class:`MarkSequence`, lists the preceding customers oldest
    first; from an empty start each joins the rank-th least-loaded queue.
    """
    return deque(iter_profiles(zero_profile(servers), marks, rank), maxlen=1)[0]
