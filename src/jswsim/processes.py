"""Seeded generators for customer mark sequences.

A mark sequence is the per-customer input of a simulation: finite,
nonnegative service requirements ``sigma`` and inter-arrival gaps ``xi``
(generated gaps are positive) of ``length`` consecutive customers.

Reproducibility contract
------------------------
All randomness comes from the Philox 4x64 counter-based generator. Stream 0
of a seed in [0, 2**64) drives the marks, stream 1 the modulating chain of a
Markov-modulated model (the two streams use the Philox key ``(seed, stream)``).
Raw 64-bit words are mapped to uniforms in the open interval (0, 1) by
``u = (top 52 bits + 1/2) * 2**-52``, and every law transforms uniforms
through a fixed inverse-CDF code path. Its logarithm, :func:`_log1m`, is
fdlibm's ``log1p`` built from correctly rounded ``+ - * /`` and exact bit
operations alone, so its bits depend on neither the C library nor the CPU's
FMA or SIMD units. ``np.log1p`` is not used: its SIMD kernels give other bits
on some CPUs. For each mark the sigma draw consumes its uniforms first, then
the xi draw, so a longer sequence for the same (model, seed) extends a
shorter one without changing its prefix. The algorithm identifier below is
stamped into CSV headers. Every generator draws through :func:`_stream`,
so the marks are the same bits however they are cut into chunks and in
whichever order the chunks are read.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InputError

__all__ = [
    "RNG_ALGORITHM",
    "Deterministic",
    "Exponential",
    "Hyperexponential",
    "IIDModel",
    "InputModel",
    "MarkSequence",
    "MarkovModulatedModel",
    "StabilityVerdict",
    "TraceModel",
    "Uniform",
    "generate",
    "generate_chunks",
    "generate_forward",
    "mean_sigma",
    "mean_xi",
    "model_label",
    "stability_check",
]

RNG_ALGORITHM = "philox4x64/u52/inverse-cdf-v2"

_CRITICALITY_REL_TOL = 1e-12
# Marks a states-only walk (_walk) steps a Markov chain at a time.
_CHUNK = 4096
# Marks per chunk of a draw: of a loynes pass, seeds x rows, drawn in place,
# and of generate's one seed, which copies each chunk out of a new one.
_PASS_MARKS, _DRAW_MARKS = 2**16, 2**15
# Marks of one state per batch of a Markov draw. Drawing the 2 x 2e5 marks of
# the bench's 2-state chain took 77 ms in batches of 4096, 86 ms in batches
# of 8192 and 88 ms in batches of 2048 (medians of 11 alternating runs, one
# 2-core VM); 4096 also holds half the buffers of 8192.
_BATCH = 4096
# Rows per chunk when there are many seeds, so that moving each seed's
# Philox stream to the chunk stays a small share of drawing it.
_MIN_CHUNK_ROWS = 128


def _uniforms(stream: int, reads: Iterable[tuple[int, int, int]], out: np.ndarray) -> np.ndarray:
    """Uniforms of words ``[first, first + count)`` of Philox stream
    ``stream`` of ``seed``, for each ``(seed, first, count)`` of ``reads``,
    one after the other in the 1-d uint64 ``out``; returns its float64 view.

    Philox is counter-based (Salmon et al. 2011, "Parallel random numbers:
    as easy as 1, 2, 3"): each 4-word block is a function of the key and
    the counter alone. With the key ``(seed, stream)``, the counter
    ``[first // 4, 0, 0, 0]`` and an empty buffer, the next word is word
    ``first - first % 4`` of the words a freshly built
    ``np.random.Philox(key=...)`` gives, and no earlier word is computed.
    """
    bitgen = np.random.Philox(key=0)
    # One state for every read, its key and counter set for each: the setter copies
    # each word with a C cast, so plain lists serve and no small arrays are built.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next word starts a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    at = 0
    for seed, first, count in reads:
        state["state"]["counter"][0], state["state"]["key"][0] = first // 4, seed
        bitgen.state = state
        if first % 4:
            bitgen.random_raw(first % 4)  # the earlier words of the first block
        out[at : at + count] = bitgen.random_raw(count)
        at += count
    np.right_shift(out, 12, out=out)
    # w < 2**52 as the float 2**52 + w, exactly: no cast, so no copy of the words
    np.bitwise_or(out, 0x4330000000000000, out=out)
    u = out.view(np.float64)
    u -= 2.0**52 - 0.5  # w + 1/2, exact
    u *= 2.0**-52
    return u


# fdlibm's s_log1p.c (Sun Microsystems, 1993): ln 2 split so that k * _LN2_HI
# is exact, and the coefficients of R(z) ~ log((1 + s) / (1 - s)) / s - 2.
_LN2_HI = 6.93147180369123816490e-01  # 0x3fe62e42fee00000
_LN2_LO = 1.90821492927058770002e-10  # 0x3dea39ef35793c76
_LP1, _LP2, _LP3, _LP4, _LP5, _LP6, _LP7 = (
    6.666666666666735130e-01,  # 0x3fe5555555555593
    3.999999999940941908e-01,  # 0x3fd999999997fa04
    2.857142874366239149e-01,  # 0x3fd2492494229359
    2.222219843214978396e-01,  # 0x3fcc71c51d8e78af
    1.818357216161805012e-01,  # 0x3fc7466496cb03de
    1.531383769920937332e-01,  # 0x3fc39a09d078c69f
    1.479819860511658591e-01,  # 0x3fc2f112df3e5244
)
# v = 2**k * z with z in [sqrt(2)/2, sqrt(2)), as musl's log splits it:
# subtracting the bits of sqrt(2)/2's high word from v's leaves k in the
# exponent field, and clearing that field from v's bits gives z. Only the
# high word is compared, as fdlibm does.
_SQRT_HALF_BITS = 0x3FE6A09E << 32
_EXPONENT_FIELD = -(1 << 52)  # 0xfff0000000000000 as int64
# hfsq = f * f / 2 at |f| = 1.5 * 2**-20: every lane at or below it is
# checked against fdlibm's two rare branches.
_RARE_HFSQ = 1.125 * 2.0**-40
# Elements per pass of _log1m. Its ten buffers head every loynes draw buffer:
# 4096 ran 10% slower per element, 8192 no faster but 0.2 MB up on peak RSS.
_LOG_CHUNK = 6144
# Floats of _log1m's buffers, the scratch at the head of a draw buffer.
_SCRATCH = 10 * _LOG_CHUNK


def _log1m(u: np.ndarray, out: np.ndarray | None = None, scratch=()) -> np.ndarray:
    """``log(1 - u)`` of every element of the 1-d ``u``, a float64 array of
    uniforms on the u52 grid, bit for bit as fdlibm's ``log1p(-u)``
    (s_log1p.c) computes it with plain IEEE operations, as glibc's build for
    a CPU without FMA does. Written into ``out``, which may be ``u`` itself,
    or into a new array; returns it.

    Only correctly rounded ``+ - * /``, exact operations on the bits and
    ``np.where`` are used, so the bits depend on neither the C library nor
    the CPU; ``np.log1p`` and ``np.log`` take SIMD kernels whose bits do.
    On the u52 grid ``v = 1 - u`` is exact, so fdlibm's correction term is 0
    and its two argument paths are one: ``v = 2**k * (1 + f)`` with
    ``1 + f`` in [sqrt(2)/2, sqrt(2)) gives k = 0 and f = -u wherever
    fdlibm takes its |x| < 0.2929 path. Then, with s = f / (2 + f),
    z = s * s, hfsq = f * f / 2 and the polynomial R in z,

        log(1 - u) = k*ln2_hi - ((hfsq - (s*(hfsq + R) + k*ln2_lo)) - f).

    The lanes where fdlibm branches away from this, u < 2**-29 and a zero
    high mantissa word of the reduced argument, are fixed up after each
    pass by :func:`_log1m_rare`. Works in passes of ``_LOG_CHUNK`` elements
    through ten buffers: the head of ``scratch`` when it holds them.
    """
    out = np.empty(u.size) if out is None else out
    n = min(_LOG_CHUNK, u.size)
    buffers = scratch if 0 < 10 * n <= len(scratch) else np.empty(10 * n)
    f, k, h, s, z, z2, r, t, o = buffers[: 9 * n].reshape(9, n)
    rare = buffers[9 * n : 10 * n].view(bool)[:n]
    for lo in range(0, u.size, _LOG_CHUNK):
        part = u[lo : lo + n]
        if len(part) < n:  # the last pass, short
            f, k, h, s, z, z2, r, t, o = buffers[: 9 * len(part)].reshape(9, -1)
            rare = rare[: len(part)]
        b = o.view(np.int64)  # spent before o is first written
        # v = 1 - u = 2**k * (1 + f)
        np.subtract(1.0, part, out=f)
        bits = f.view(np.int64)
        np.subtract(bits, _SQRT_HALF_BITS, out=b)
        np.bitwise_and(b, _EXPONENT_FIELD, out=b)
        np.subtract(bits, b, out=bits)
        np.right_shift(b, 52, out=b)
        np.copyto(k, b)
        f -= 1.0
        # hfsq, s, z and R = z*Lp1 + z2*(Lp2 + z*Lp3) + z4*(Lp4 + z*Lp5) + z6*(Lp6 + z*Lp7),
        # summed from the left
        np.multiply(f, 0.5, out=h)
        h *= f
        np.less_equal(h, _RARE_HFSQ, out=rare)
        np.add(f, 2.0, out=s)
        np.divide(f, s, out=s)
        np.multiply(s, s, out=z)
        np.multiply(z, _LP1, out=r)
        np.multiply(z, z, out=z2)
        np.multiply(z, _LP3, out=t)
        t += _LP2
        t *= z2
        r += t
        np.multiply(z, _LP5, out=t)
        t += _LP4
        np.multiply(z, _LP7, out=o)
        o += _LP6
        np.multiply(z2, z2, out=z)  # z4
        t *= z
        r += t
        z *= z2  # z6
        o *= z
        r += o
        # k*ln2_hi - ((hfsq - (s*(hfsq + R) + k*ln2_lo)) - f)
        r += h
        r *= s
        np.multiply(k, _LN2_LO, out=t)
        r += t
        h -= r
        h -= f
        np.multiply(k, _LN2_HI, out=o)
        o -= h
        if np.count_nonzero(rare):
            at = np.flatnonzero(rare)
            o[at] = _log1m_rare(part[at], f[at], k[at], o[at])
        out[lo : lo + n] = o  # after the last read of part, as out may be u
    return out


def _log1m_rare(u: np.ndarray, f: np.ndarray, k: np.ndarray, common: np.ndarray) -> np.ndarray:
    """fdlibm's ``log1p(-u)`` on lanes that :func:`_log1m` flags, given their
    reduced argument ``f``, ``k`` and its result ``common``.

    For u < 2**-29 fdlibm returns x - x*x/2 with x = -u. A zero high
    mantissa word of 1 + f (-3 * 2**-21 <= f < 2**-20) with k < 0, which
    occurs only outside its |x| < 0.2929 path, takes a shorter series.
    Every other flagged lane keeps ``common``.
    """
    x = -u
    hfsq = 0.5 * f * f
    series = hfsq * (1.0 - 0.66666666666666666 * f)
    short = k * _LN2_HI - ((series - k * _LN2_LO) - f)
    zero_word = (k != 0.0) & (f >= -3 * 2.0**-21) & (f < 2.0**-20)
    return np.where(u < 2.0**-29, x - x * x * 0.5, np.where(zero_word, short, common))


def _require_finite_draws(rate: float, law: str) -> None:
    """Reject a rate whose largest exponential draw, ``log(1 - u) / -rate``
    at the largest uniform u = 1 - 2**-53, overflows to inf."""
    # -log(1 - u) <= 53 ln 2 < 40, so only a rate for which 40 / rate
    # overflows needs the bound in the draws' own arithmetic
    if math.isinf(40.0 / rate):
        largest = float(_log1m(np.array([1.0 - 2.0**-53]))[0]) / -rate
        if math.isinf(largest):
            raise ConfigError(f"{law} rate {rate!r} is so small that its draws overflow to inf")


# --------------------------------------------------------------------------
# Distribution laws. Each law knows how many uniforms one draw consumes and
# has a single code path, ``draw_batch(cols, n, scratch)``, that maps n draws'
# worth of uniforms to a float64 array of n samples, in place where it can;
# ``cols[c]`` holds the c-th uniform of every draw. Each sample takes the same IEEE
# operations, in the same order, as the scalar inverse CDF it implements.
# Each constructor rejects a negative support, so every law is a valid
# service law; ``positive()`` says whether it is also a valid gap law.


@dataclass(frozen=True)
class Exponential:
    rate: float
    uniforms: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ConfigError(f"exponential rate must be positive, got {self.rate!r}")
        _require_finite_draws(self.rate, "exponential")

    def mean(self) -> float:
        return 1.0 / self.rate

    def positive(self) -> bool:
        # draws use uniforms in the open interval, so 0 is never returned
        return True

    def draw_batch(self, cols: Sequence[np.ndarray], n: int, scratch=()) -> np.ndarray:
        # -log(1 - u) / rate; dividing by -rate gives the same bits
        draws = _log1m(cols[0], cols[0], scratch)
        draws /= -self.rate
        return draws

    def label(self) -> str:
        return f"exponential({self.rate!r})"


@dataclass(frozen=True)
class Deterministic:
    value: float
    uniforms: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ConfigError(f"deterministic value must be >= 0, got {self.value!r}")

    def mean(self) -> float:
        return self.value

    def positive(self) -> bool:
        return self.value > 0.0

    def draw_batch(self, cols: Sequence[np.ndarray], n: int, scratch=()) -> np.ndarray:
        return np.full(n, self.value)

    def label(self) -> str:
        return f"deterministic({self.value!r})"


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float
    uniforms: ClassVar[int] = 1

    def __post_init__(self) -> None:
        ok = math.isfinite(self.lo) and math.isfinite(self.hi) and 0.0 <= self.lo <= self.hi
        if not ok:
            raise ConfigError(f"uniform bounds need 0 <= lo <= hi, got ({self.lo!r}, {self.hi!r})")

    def mean(self) -> float:
        return (self.lo + self.hi) / 2.0

    def positive(self) -> bool:
        return self.lo > 0.0

    def draw_batch(self, cols: Sequence[np.ndarray], n: int, scratch=()) -> np.ndarray:
        # lo + u * (hi - lo); IEEE addition commutes
        return np.add(np.multiply(cols[0], self.hi - self.lo, out=cols[0]), self.lo, out=cols[0])

    def label(self) -> str:
        return f"uniform({self.lo!r},{self.hi!r})"


def _cumulative(probs: Sequence[float]) -> tuple[float, ...]:
    """Running sums of ``probs``, added one at a time from the left."""
    return tuple(itertools.accumulate(probs))


@dataclass(frozen=True)
class Hyperexponential:
    """Mixture of exponentials: branch i with probability probs[i], rate rates[i]."""

    probs: tuple[float, ...]
    rates: tuple[float, ...]
    uniforms: ClassVar[int] = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.probs) != len(self.rates) or not self.probs:
            raise ConfigError("hyperexponential needs matching, nonempty probs and rates")
        if any(p < 0.0 or not math.isfinite(p) for p in self.probs):
            raise ConfigError(f"hyperexponential probabilities must be >= 0, got {self.probs!r}")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise ConfigError(f"hyperexponential probabilities must sum to 1, got {self.probs!r}")
        if any(r <= 0.0 or not math.isfinite(r) for r in self.rates):
            raise ConfigError(f"hyperexponential rates must be positive, got {self.rates!r}")
        for rate in self.rates:
            _require_finite_draws(rate, "hyperexponential")
        object.__setattr__(self, "_cum", _cumulative(self.probs))

    def mean(self) -> float:
        return math.fsum(p / r for p, r in zip(self.probs, self.rates))

    def positive(self) -> bool:
        return True

    def draw_batch(self, cols: Sequence[np.ndarray], n: int, scratch=()) -> np.ndarray:
        # Branch j is the first with cols[0] < cum[j], the last if there is
        # none; then -log(1 - u) / rates[j] with u from cols[1].
        cum = self._cum  # type: ignore[attr-defined]
        branch = np.minimum(np.searchsorted(cum, cols[0], side="right"), len(cum) - 1)
        draws = _log1m(cols[1], cols[1], scratch)
        draws /= np.negative(self.rates)[branch]
        return draws

    def label(self) -> str:
        ps = ",".join(repr(p) for p in self.probs)
        rs = ",".join(repr(r) for r in self.rates)
        return f"hyperexponential({ps};{rs})"


Law = Exponential | Deterministic | Uniform | Hyperexponential


def _validate_xi_law(law: Law, where: str) -> None:
    if not law.positive():
        raise ConfigError(f"{where}: inter-arrival law must have strictly positive support")


# --------------------------------------------------------------------------
# Input models.


@dataclass(frozen=True)
class IIDModel:
    """Independent, identically distributed marks."""

    sigma_law: Law
    xi_law: Law

    def __post_init__(self) -> None:
        _validate_xi_law(self.xi_law, "iid model")


@dataclass(frozen=True)
class MarkovModulatedModel:
    """Marks drawn from per-state laws of an irreducible modulating chain.

    The initial state is drawn from the chain's stationary distribution;
    subsequent states follow the transition matrix, one step per customer.
    """

    transition: tuple[tuple[float, ...], ...]
    sigma_laws: tuple[Law, ...]
    xi_laws: tuple[Law, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(p) for p in row) for row in self.transition)
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "sigma_laws", tuple(self.sigma_laws))
        object.__setattr__(self, "xi_laws", tuple(self.xi_laws))
        n = len(rows)
        if n == 0:
            raise ConfigError("modulating chain needs at least one state")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ConfigError(f"transition row {i} has length {len(row)}, expected {n}")
            if any(p < 0.0 or not math.isfinite(p) for p in row):
                raise ConfigError(f"transition row {i} has entries outside [0, 1]")
            if abs(math.fsum(row) - 1.0) > 1e-9:
                raise ConfigError(f"transition row {i} does not sum to 1")
        if len(self.sigma_laws) != n or len(self.xi_laws) != n:
            raise ConfigError("need one sigma law and one xi law per chain state")
        for s, law in enumerate(self.xi_laws):
            _validate_xi_law(law, f"state {s}")
        if not _strongly_connected(rows):
            raise ConfigError("modulating chain must be irreducible")
        pi = _gth_stationary(rows)
        object.__setattr__(self, "_stationary", pi)
        # for every seed: the running sums that pick states, each state's uniforms per mark
        used = np.array([s.uniforms + x.uniforms for s, x in zip(self.sigma_laws, self.xi_laws)])
        object.__setattr__(self, "_tables", (_cumulative(pi), tuple(map(_cumulative, rows)), used))

    def stationary(self) -> tuple[float, ...]:
        """Stationary distribution of the modulating chain (see :func:`_gth_stationary`)."""
        return self._stationary  # type: ignore[attr-defined]


def _gth_stationary(rows: tuple[tuple[float, ...], ...]) -> tuple[float, ...]:
    """Stationary law of an irreducible chain by GTH elimination (Grassmann,
    Taksar & Heyman 1985): exact up to rounding, since it never subtracts.

    States n-1, ..., 1 are censored in turn; irreducibility keeps each one's
    exit mass towards the lower states positive.
    """
    p = [list(row) for row in rows]
    n = len(p)
    for k in range(n - 1, 0, -1):
        exit_mass = math.fsum(p[k][:k])
        for i in range(k):
            p[i][k] /= exit_mass
            for j in range(k):
                p[i][j] += p[i][k] * p[k][j]
    x = [1.0]
    for k in range(1, n):
        x.append(math.fsum(x[i] * p[i][k] for i in range(k)))
    total = math.fsum(x)
    return tuple(v / total for v in x)


@dataclass(frozen=True)
class TraceModel:
    """Marks replayed from a text file: one 'sigma xi' pair per line.

    Blank lines are skipped and '#' starts a comment. The seed is ignored,
    so a run takes one seed (:func:`_require_seed_count`).
    The file is read on first use and kept for the model's lifetime, by
    :func:`_read_trace`: numpy's text reader takes a well-formed file in one
    call, and any other file goes through the per-line loop
    :func:`_read_trace_lines`, which defines the format and locates its
    errors. ``_columns`` are read-only views of the one parsed array, 16
    bytes per mark, and every draw from the model is a view of them;
    ``_read`` holds them with their sums, found in the same pass.
    """

    path: str

    @functools.cached_property
    def _read(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[float, float]]:
        return _read_trace(self.path)

    @property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self._read[0]


InputModel = IIDModel | MarkovModulatedModel | TraceModel


def _require_seed_count(model: InputModel, seeds: Sequence[int]) -> None:
    """A trace gives every seed the same marks, so it takes one seed."""
    if isinstance(model, TraceModel) and len(seeds) > 1:
        raise ValueError(f"a trace gives every seed the same marks; got {len(seeds)} seeds")


def _strongly_connected(rows: tuple[tuple[float, ...], ...]) -> bool:
    n = len(rows)
    fwd = [[j for j in range(n) if rows[i][j] > 0.0] for i in range(n)]
    bwd = [[j for j in range(n) if rows[j][i] > 0.0] for i in range(n)]
    for edges in (fwd, bwd):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in edges[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        if len(seen) != n:
            return False
    return True


# --------------------------------------------------------------------------
# Mark sequences.


@dataclass(frozen=True, eq=False)
class MarkSequence:
    """Service requirements ``sigma`` and gaps ``xi`` of customers in arrival
    order: read-only 1-d float64 arrays of one length (0 too), finite, >= 0."""

    sigma: np.ndarray
    xi: np.ndarray

    def __post_init__(self) -> None:
        for name, a in (("sigma", self.sigma), ("xi", self.xi)):
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.float64):
                raise ValueError(f"{name} must be a 1-d float64 array")
            # false for NaN too; the first bad entry is looked for only when one is there
            if a.size and not (a.min() >= 0.0 and a.max() < math.inf):
                bad = np.flatnonzero(~((a >= 0.0) & (a < math.inf)))[0]
                raise ValueError(f"{name}[{bad}] = {float(a[bad])!r}, must be finite, >= 0")
            a.setflags(write=False)
        if len(self.sigma) != len(self.xi):
            raise ValueError(f"{len(self.sigma)} sigma marks but {len(self.xi)} xi marks")

    def __len__(self) -> int:
        return len(self.sigma)


# Where the Markov marks of R seeds continue: each seed's chain state before
# the next mark (None before mark 0) and its stream-0 words read. An iid mark
# t reads words [t * ku, (t + 1) * ku), so the iid marks need none.
Checkpoint = tuple[np.ndarray | None, np.ndarray]


def _stream(
    model: InputModel,
    seeds: Iterable[int],
    length: int,
    rows: int,
    backward: bool = False,
    out: np.ndarray | None = None,
) -> Iterator[tuple]:
    """The first ``length`` marks of every seed, ``rows`` at a time.

    Yields ``(lo, sigma, xi)``: ``(n, R)`` float64 arrays of marks
    ``[lo, lo + n)``, column r for ``seeds[r]``, for lo = 0, rows, ...:
    each chunk from the checkpoint the one before it ended at.
    ``backward`` cuts the chunks down from the end and yields them in
    descending order, each from a checkpoint a states-only walk recorded.
    ``out`` is as in :func:`generate_chunks`.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    seeds = _require_seeds(seeds)
    if not isinstance(model, (IIDModel, MarkovModulatedModel, TraceModel)):
        raise TypeError(f"unknown input model {model!r}")
    if isinstance(model, TraceModel) and len(model._columns[0]) < length:
        raise InputError(f"trace {model.path!r} has {len(model._columns[0])} marks, need {length}")

    def draw(at: Checkpoint, lo: int, n: int) -> tuple[np.ndarray, np.ndarray, Checkpoint]:
        if isinstance(model, TraceModel):
            # the seed is ignored: read-only views whose columns share the file's marks
            shape = (n, len(seeds))
            return (*(np.broadcast_to(c[lo : lo + n, None], shape) for c in model._columns), at)
        if isinstance(model, IIDModel):
            return _generate_iid(model, seeds, at, lo, n, out)
        return _generate_markov(model, seeds, at, lo, n)

    at: Checkpoint = (None, np.zeros(len(seeds), np.int64))
    if backward:
        cuts = [0, *reversed(range(length - rows, 0, -rows)), length]
        starts = [at]
        for lo, hi in zip(cuts, cuts[1:-1]):
            starts.append(at := _walk(model, seeds, at, lo, hi - lo))
        for lo, hi, at in reversed(list(zip(cuts, cuts[1:], starts))):
            yield (lo, *draw(at, lo, hi - lo)[:2])
        return
    for lo in range(0, length, rows):
        sigma, xi, at = draw(at, lo, min(rows, length - lo))
        yield lo, sigma, xi
        del sigma, xi  # not held while the next chunk is drawn


def _walk(model: InputModel, seeds: list[int], at: Checkpoint, lo: int, n: int) -> Checkpoint:
    """Every seed's checkpoint ``n`` marks after ``at``, its checkpoint at mark
    ``lo``, with no mark drawn: each chain is walked ``_CHUNK`` marks at a time."""
    if isinstance(model, MarkovModulatedModel):
        for a in range(lo, lo + n, _CHUNK):
            at = _chain(model, seeds, at, a, min(_CHUNK, lo + n - a))[1]
    return at


def _generate_iid(
    model: IIDModel, seeds: list[int], at: Checkpoint, lo: int, n: int, out=None
) -> tuple[np.ndarray, np.ndarray, Checkpoint]:
    """Marks ``[lo, lo + n)`` of every seed, and ``at`` as it was: iid marks
    carry none. Drawn in place in a new array, or in ``out`` as in
    :func:`generate_chunks`; ``sigma`` and ``xi`` are views of it."""
    sigma_law, xi_law = model.sigma_law, model.xi_law
    ku = sigma_law.uniforms + xi_law.uniforms
    size = n * len(seeds)
    out = np.empty(ku * size) if out is None else out
    scratch, words = out[: len(out) - ku * size], out[len(out) - ku * size :]
    # uniform c of mark t of seeds[r] is u[(r * n + t) * ku + c], the sigma law's first
    u = _uniforms(0, ((seed, lo * ku, n * ku) for seed in seeds), words.view(np.uint64))

    def draw(law: Law, first: int) -> np.ndarray:
        cols = [u[c::ku] for c in range(first, first + law.uniforms)]
        return law.draw_batch(cols, size, scratch).reshape(len(seeds), n).T

    return draw(sigma_law, 0), draw(xi_law, sigma_law.uniforms), at


def _markov_states(
    start: Sequence[float],
    rows: Sequence[Sequence[float]],
    u: np.ndarray,
    prev: np.ndarray | None = None,
) -> np.ndarray:
    """The state paths of R chains picked by the uniforms ``u``, an ``(R, n)``
    array: row r of the ``(R, n)`` result is chain r's path, of dtype uint8
    for at most 256 states.

    Chain r's first state is picked by ``u[r, 0]`` from ``rows[prev[r]]``,
    or from the running sums ``start`` when ``prev`` is None (the chains'
    first mark); state t from ``rows[state t - 1]`` by ``u[r, t]``. A pick
    is the first j with ``u < cum[j]``, or the last state when there is none.

    Every row's picks come from one ``searchsorted`` over all of ``u``. A
    mark at which every row picks one state sets the state, and one at
    which each row k picks k keeps it. Only the other marks depend on the
    state before them: they are stepped in order through their tables, each
    run of them from the state set before it. Every other state is the
    last one set, carried forward.
    """
    small = len(rows) <= 256  # a state fits in a byte
    n = u.shape[1]
    # picks[k, r, t]: the state after mark t of chain r when the state before
    # is k. Searching all running sums but the last picks the last state
    # wherever none is above u.
    picks = np.empty((len(rows), *u.shape), dtype=np.uint8 if small else np.intp)
    for pick, cum in zip(picks, rows):
        pick[...] = np.searchsorted(cum[:-1], u, side="right")
    if prev is None:
        picks[:, :, 0] = np.searchsorted(start[:-1], u[:, 0], side="right")
    same, keeps = np.ones(u.shape, dtype=bool), picks[0] == 0
    for k, pick in enumerate(picks[1:], 1):
        same &= pick == picks[0]
        keeps &= pick == k
    # value[r, 1 + t] is the state mark t of chain r sets, if it sets one,
    # and value[r, 0] the state before its mark 0
    value = np.empty((len(u), n + 1), dtype=picks.dtype)
    value[:, 0] = 0 if prev is None else prev
    value[:, 1:] = picks[0]
    # set_at[r, j]: the flat index in value of the last state set at or
    # before value[r, j]
    set_at = np.arange(value.size).reshape(value.shape)
    set_at[:, 1:][keeps] = 0
    np.maximum.accumulate(set_at, axis=1, out=set_at)
    at = np.flatnonzero(~(same | keeps))
    if at.size:
        # np.take, as it gathers several times faster than an index array
        tables = np.take(picks.reshape(len(rows), -1), at, axis=1)
        del picks, same, keeps  # not held through the walk
        pos = at + at // n + 1  # in value
        before = np.take(set_at, pos - 1)
        # the first mark of each run steps from a state set before it
        first = np.flatnonzero(np.append(True, before[1:] != pos[:-1]))
        tables[:, first] = tables[np.take(value, before[first]), first]
        # a row of bytes gives ints as fast as a list, and the walk's states
        # make a bytearray, which numpy reads at once
        rows_of = map(bytes, tables) if small else tables.tolist()
        state = 0  # any: the first mark's table is constant
        walked = [state := nxt[state] for nxt in zip(*rows_of)]
        value.ravel()[pos] = bytearray(walked) if small else walked
    return np.take(value, set_at[:, 1:])


def _chain(
    model: MarkovModulatedModel, seeds: list[int], at: Checkpoint, lo: int, n: int
) -> tuple[np.ndarray, Checkpoint]:
    """The ``(R, n)`` states of marks ``[lo, lo + n)`` from ``at``, and the checkpoint
    after, which copies the last states so that a kept checkpoint holds no path."""
    start_cum, row_cums, used = model._tables  # type: ignore[attr-defined]
    states, words = at
    u = _uniforms(1, ((seed, lo, n) for seed in seeds), np.empty(len(seeds) * n, np.uint64))
    path = _markov_states(start_cum, row_cums, u.reshape(len(seeds), n), states)
    return path, (path[:, -1].copy(), words + used[path].sum(axis=1))


def _generate_markov(
    model: MarkovModulatedModel, seeds: list[int], at: Checkpoint, lo: int, n: int
) -> tuple[np.ndarray, np.ndarray, Checkpoint]:
    """Marks ``[lo, lo + n)`` of every seed from its checkpoint ``at``, and the checkpoint after."""
    path, after = _chain(model, seeds, at, lo, n)
    # Mark t of seeds[r] reads its state's sigma uniforms, then its xi
    # uniforms, from offset first[r, t] of the joined stream-0 words of all seeds.
    used = model._tables[2][path]  # type: ignore[attr-defined]
    first = np.cumsum(used).reshape(used.shape)
    first -= used
    shape, words = used.shape, int(used.sum())
    del used  # 8 bytes a mark, not needed while the marks are drawn
    reads = zip(seeds, at[1].tolist(), (after[1] - at[1]).tolist())
    u = _uniforms(0, reads, np.empty(words, np.uint64))
    first = first.ravel()
    # Each state's marks of every seed are drawn in batches of _BATCH and
    # scattered back.
    sig = np.empty(shape)
    xis = np.empty(shape)
    for s, laws in enumerate(zip(model.sigma_laws, model.xi_laws)):
        picked = np.flatnonzero(path == s)
        for a in range(0, len(picked), _BATCH):
            batch = picked[a : a + _BATCH]
            offset = first[batch]
            for out, law in zip((sig.reshape(-1), xis.reshape(-1)), laws):
                cols = [u[offset + c] for c in range(law.uniforms)]
                out[batch] = law.draw_batch(cols, len(batch))
                offset += law.uniforms
    return sig.T, xis.T, after


def _read_trace(path: str) -> tuple[tuple[np.ndarray, np.ndarray], tuple[float, float]]:
    """The trace's ``(sigma, xi)`` columns, read-only 1-d float64 views of
    one ``(n, 2)`` array that holds the marks, 16 bytes each, and their
    sums, equal to ``math.fsum`` of each column.

    ``np.loadtxt`` splits on the same whitespace and comments as
    :func:`_read_trace_lines` and converts each token with CPython's
    correctly rounded ``PyOS_string_to_double``, so a file it reads into n
    valid rows of two values gives ``float()``'s bits. Its array is kept,
    and one pass of :func:`_column_sums` checks every mark and sums each
    column, holding nothing of size n. numpy refuses some tokens ``float()``
    takes (``1_0``, non-ASCII digits), and every refusal, wrong shape, empty
    file or out-of-range value is left to the loop, which returns its marks
    or raises its ``path:line`` error; its marks then go through the same
    pass. A -0.0 sigma, which both take and the pass refuses, stays in its
    column and is summed from the marks + 0.0, as the loop's are. A column
    whose sum passes the largest float raises ``InputError``.

    The file is opened here, as UTF-8 text, and numpy is handed the path
    of that descriptor, ``/dev/fd/N``, where the platform has one, else the
    file object. numpy reads a path in large pieces but a file object line
    by line. It is never given ``path`` itself: it would read a compressed
    sibling of a missing file and decompress a ``.gz`` name.
    """
    try:
        with open(path, "r", encoding="utf-8") as f, warnings.catch_warnings():
            # numpy warns on a file without data; the loop reports it
            warnings.simplefilter("ignore", UserWarning)
            fd = f"/dev/fd/{f.fileno()}"
            source = fd if os.path.exists(fd) else f
            marks = np.loadtxt(source, comments="#", ndmin=2, dtype=np.float64, encoding="utf-8")
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        marks = None
    if marks is not None and marks.shape[0] >= 1 and marks.shape[1] == 2:
        sums = _column_sums(path, marks) or _column_sums(path, marks + 0.0)
        if sums is not None:
            marks.setflags(write=False)
            return tuple(marks.T), sums
    sig_list, xis_list = _read_trace_lines(path)
    if not sig_list:
        raise InputError(f"trace {path!r} is empty")
    marks = np.empty((len(sig_list), 2))
    marks[:, 0], marks[:, 1] = sig_list, xis_list
    marks.setflags(write=False)
    # the loop checked every mark; + 0.0 maps a -0.0 sigma, which it takes,
    # to +0.0, and fsum adds it as 0.0
    return tuple(marks.T), _column_sums(path, marks + 0.0)


# Rows of trace marks that _column_sums checks and sums at a time: 2**12
# rows hold 128 KiB of buffers. One pass over the 2**18 marks of the
# benchmark's trace took 3.0 ms in blocks of 2**13 rows, 3.6 ms in 2**12
# and 4.7 ms in 2**11, against 22 ms for the three reductions and two
# fsum loops it replaced (medians of 15, one 2-core VM).
_SUM_BLOCK = 2**12
# Rows of marks whose parts _column_sums adds in float64 buckets before it
# carries the buckets to Python ints: at most 2**26, to keep them exact.
_SUM_CARRY = 2**26
_HIGH_BITS = np.uint64(2**64 - 2**26)  # all but the 26 low fraction bits


def _column_sums(path: str, marks: np.ndarray) -> tuple[float, float] | None:
    """``math.fsum`` of each column of the C-contiguous ``(n, 2)`` float64
    ``marks``, bit for bit, from one pass over them in row blocks; None if a
    mark is negative (-0.0 too), inf or NaN, or a xi is 0.

    :func:`_bucket_sums` sums the marks of up to ``_SUM_CARRY`` rows at a
    time exactly, in float64 buckets. They are carried as integers in units
    of 2**-1074, and one int/int division, which CPython rounds correctly,
    as ``fsum`` is, gives each column's sum. Every term is >= 0, so a bucket
    reaches inf only when its column's sum passes the largest float; then
    ``InputError`` names the column.
    """
    totals = [0, 0]
    for top in range(0, len(marks), _SUM_CARRY):
        buckets = _bucket_sums(marks[top : top + _SUM_CARRY])
        if buckets is None:
            return None
        for i in np.flatnonzero(buckets).tolist():
            value = float(buckets[i])
            # an inf bucket counts as 2**1024, which the division below refuses
            num, den = value.as_integer_ratio() if value < math.inf else (2**1024, 1)
            totals[(i >> 11) & 1] += num << (1075 - den.bit_length())
    sums = []
    for name, total in zip(("sigma", "xi"), totals):
        try:
            sums.append(total / 2**1074)
        except OverflowError:
            message = f"trace {path!r}: its {name} column sums past the largest float"
            raise InputError(message) from None
    return sums[0], sums[1]


def _bucket_sums(marks: np.ndarray) -> np.ndarray | None:
    """Exact float64 sums of the parts of up to 2**26 rows of ``marks``, as
    :func:`_column_sums` takes them, ``_SUM_BLOCK`` rows at a time: 8192
    buckets, keyed by part (high, low), column and exponent field. None if a
    mark is outside the trace format.

    A mark's bits shifted right by 52 are its exponent field e, with the
    sign bit above it, so a key of 2047 or more is a negative, inf or NaN
    mark. Each mark x splits into ``high``, x with its 26 low fraction bits
    cleared, and ``low = x - high``, both exact. With E = max(e, 1) - 1075,
    every ``high`` of a bucket is a multiple of 2**(E + 26) below
    2**(E + 53), and every ``low`` one of 2**E below 2**(E + 26), so every
    running sum of up to 2**26 of them is exact, or inf past the largest
    float.
    """
    words = marks.view(np.uint64)
    block = min(_SUM_BLOCK, len(marks))
    key = np.empty((block, 2), dtype=np.uint64)
    part = np.empty((block, 2), dtype=np.uint64)
    buckets = np.zeros(2 * 4096)
    with np.errstate(over="ignore"):  # _column_sums refuses an inf bucket
        for a in range(0, len(marks), block):
            w = words[a : a + block]
            k, p = key[: len(w)], part[: len(w)]
            np.right_shift(w, 52, out=k)
            if k.max() >= 2047 or w[:, 1].min() == 0:
                return None
            k[:, 1] += 2048  # the xi buckets follow the sigma buckets
            keys = k.view(np.int64).reshape(-1)
            p = np.bitwise_and(w, _HIGH_BITS, out=p).view(np.float64)
            buckets[:4096] += np.bincount(keys, p.reshape(-1), 4096)
            np.subtract(marks[a : a + block], p, out=p)  # the low parts
            buckets[4096:] += np.bincount(keys, p.reshape(-1), 4096)
    return buckets


def _read_trace_lines(path: str) -> tuple[list[float], list[float]]:
    """The trace format's definition: per line, the text before the first
    '#', split on whitespace into nothing or a ``sigma xi`` pair that
    ``float()`` parses, with sigma finite and >= 0 and xi finite and > 0.
    Raises ``InputError`` naming the path and line of the first problem."""
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
    return sig, xis


def _require_seeds(seeds: Iterable[int]) -> list[int]:
    """``seeds`` as ints. Philox keys a stream by a 64-bit seed, so every seed
    is an integer in [0, 2**64): any other would alias one, as 1.5 would 1."""
    try:
        seeds = [operator.index(seed) for seed in seeds]
    except TypeError as exc:
        raise ValueError(f"seed must be an integer: {exc}") from None
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seeds


def _chunk_rows(length: int, seeds: int) -> int:
    """Rows per chunk of a loynes pass of ``length`` marks of ``seeds``
    seeds: ``_PASS_MARKS`` marks in all, but at least ``_MIN_CHUNK_ROWS``
    rows and at most ``length``."""
    return min(length, max(_MIN_CHUNK_ROWS, _PASS_MARKS // max(seeds, 1)))


def generate_chunks(
    model: InputModel, seeds: Sequence[int], length: int, rows: int, out=None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The first ``length`` marks of every seed, ``rows`` at a time, in
    descending mark index: the deepest past first.

    Yields ``(lo, sigma, xi)`` for hi = length, length - rows, ... while
    hi > 0, with lo = max(0, hi - rows): column r of ``sigma`` and ``xi``
    equals, bit for bit, marks ``[lo, hi)`` of ``generate(model, seeds[r],
    length)``, and only one chunk is held at a time: the backward read of
    :func:`_stream`.
    With ``out``, a 1-d float64 array ``_SCRATCH`` floats longer than the
    words of a chunk or more, an iid chunk is drawn in place in its tail,
    with its head as scratch, so each chunk overwrites the one before it.
    """
    return _stream(model, seeds, length, rows, backward=True, out=out)


def generate_forward(
    model: InputModel, seed: int, length: int, rows: int
) -> Iterator[MarkSequence]:
    """The first ``length`` marks of (model, seed), ``rows`` at a time, in
    ascending mark index: the first mark first.

    Yields :class:`MarkSequence` chunks of ``rows`` marks, the last one
    shorter, bit for bit the slices of ``generate(model, seed, length)``;
    only one chunk is held at a time, and a trace too short for ``length``
    marks is refused before the first one: the one-seed case of
    :func:`_stream`.
    """
    for _, sigma, xi in _stream(model, [seed], length, rows):
        yield MarkSequence(sigma=sigma[:, 0], xi=xi[:, 0])
        del sigma, xi  # not held while the next chunk is drawn


def generate(model: InputModel, seed: int, length: int) -> MarkSequence:
    """Generate ``length`` marks for (model, seed).

    Bit-identical on regeneration, and a longer run extends a shorter one:
    ``generate(m, s, a).sigma == generate(m, s, b).sigma[:a]`` for a <= b.
    The arrays are allocated once and filled from :func:`_stream` a chunk of
    ``_DRAW_MARKS`` marks at a time, so a draw holds its 16 bytes per mark
    and one chunk's temporaries. A trace ignores the seed, so its arrays are
    read-only views of the file's marks.
    """
    rows = length if isinstance(model, TraceModel) else _DRAW_MARKS
    chunks = _stream(model, [seed], length, rows)
    if length <= rows:  # one chunk: a trace's views, or a short draw as it is drawn
        _, sigma, xi = next(chunks)
    else:
        sigma, xi = np.empty((length, 1)), np.empty((length, 1))
        for lo, s, x in chunks:
            sigma[lo : lo + len(s)], xi[lo : lo + len(x)] = s, x
            del s, x  # not held while the next chunk is drawn
    return MarkSequence(sigma=sigma[:, 0], xi=xi[:, 0])


def _pass_buffer(model: InputModel) -> tuple[np.ndarray, np.ndarray]:
    """A draw buffer for every chunk of up to ``_PASS_MARKS`` marks of
    ``model``, the ``out`` of :func:`generate_chunks`, and its head: the
    ``_SCRATCH`` floats that a draw takes as the logarithm's scratch and
    that are free between draws."""
    words = model.sigma_law.uniforms + model.xi_law.uniforms if isinstance(model, IIDModel) else 0
    buffer = np.empty(_SCRATCH + words * _PASS_MARKS)
    return buffer, buffer[:_SCRATCH]


# --------------------------------------------------------------------------
# Moments and stability.


def _mean(model: InputModel, side: int) -> float:
    """Mean of the sigma (``side`` 0) or xi (1) marks, empirical for a trace."""
    if isinstance(model, IIDModel):
        return (model.sigma_law, model.xi_law)[side].mean()
    if isinstance(model, MarkovModulatedModel):
        laws = (model.sigma_laws, model.xi_laws)[side]
        return math.fsum(p * law.mean() for p, law in zip(model.stationary(), laws))
    if isinstance(model, TraceModel):
        columns, sums = model._read
        return sums[side] / len(columns[side])
    raise TypeError(f"unknown input model {model!r}")


def mean_sigma(model: InputModel) -> float:
    """Mean service requirement (empirical for trace models)."""
    return _mean(model, 0)


def mean_xi(model: InputModel) -> float:
    """Mean inter-arrival gap (empirical for trace models)."""
    return _mean(model, 1)


class StabilityVerdict(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    CRITICAL = "critical"


def stability_check(model: InputModel, servers: int) -> StabilityVerdict:
    """Compare mean arriving work against the drain capacity of ``servers`` queues.

    Stable when E[sigma] < servers * E[xi], unstable when greater; ties within
    a relative tolerance of 1e-12 are reported as critical.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    work = mean_sigma(model)
    capacity = servers * mean_xi(model)
    if abs(work - capacity) <= _CRITICALITY_REL_TOL * max(work, capacity):
        return StabilityVerdict.CRITICAL
    if work < capacity:
        return StabilityVerdict.STABLE
    return StabilityVerdict.UNSTABLE


def model_label(model: InputModel) -> str:
    """Canonical one-line description, used in report headers."""
    if isinstance(model, IIDModel):
        return f"iid(sigma={model.sigma_law.label()},xi={model.xi_law.label()})"
    if isinstance(model, MarkovModulatedModel):
        rows = "/".join(" ".join(repr(p) for p in row) for row in model.transition)
        sl = "|".join(law.label() for law in model.sigma_laws)
        xl = "|".join(law.label() for law in model.xi_laws)
        return f"markov(transition={rows};sigma={sl};xi={xl})"
    if isinstance(model, TraceModel):
        return f"trace(path={model.path})"
    raise TypeError(f"unknown input model {model!r}")
