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
stamped into CSV headers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Sequence

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
    "generate_many",
    "mean_sigma",
    "mean_xi",
    "model_label",
    "stability_check",
]

RNG_ALGORITHM = "philox4x64/u52/inverse-cdf-v2"

_CRITICALITY_REL_TOL = 1e-12
# Uniforms whose state picks _markov_states turns into Python ints at a time,
# and marks _markov_checkpoints walks at a time.
_CHUNK = 4096


def _reset(bitgen: np.random.Philox, seed: int, stream: int, block: int) -> np.random.Philox:
    """``bitgen`` moved to word ``4 * block`` of stream ``stream`` of ``seed``.

    Philox is counter-based (Salmon et al. 2011, "Parallel random numbers:
    as easy as 1, 2, 3"): each 4-word block is a function of the key and
    the counter alone. With the key ``(seed, stream)``, the counter
    ``[block, 0, 0, 0]`` and an empty buffer, the next word is word
    ``4 * block`` of the words a freshly built ``np.random.Philox(key=...)``
    gives, and no earlier word is computed.
    """
    # The state setter reads each word with a C cast, so plain lists serve
    # and no small arrays are built for them.
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [block, 0, 0, 0], "key": [seed, stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # empty: the next word starts a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Map raw words to uniforms in (0, 1) in place; returns a float64 view of ``raw``."""
    np.right_shift(raw, np.uint64(12), out=raw)
    u = raw.view(np.float64)
    np.add(raw, 0.5, out=u)  # exact: the shifted words are below 2**52
    u *= 2.0**-52
    return u


def _words(bitgen: np.random.Philox, seed: int, stream: int, first: int, count: int) -> np.ndarray:
    """Words ``[first, first + count)`` of Philox stream ``stream`` of ``seed``,
    read with ``bitgen`` (see :func:`_reset`)."""
    _reset(bitgen, seed, stream, first // 4)
    if first % 4:
        bitgen.random_raw(first % 4)  # the earlier words of the first block
    return bitgen.random_raw(count)


def _uniforms(
    bitgen: np.random.Philox, seed: int, stream: int, count: int, first: int = 0
) -> np.ndarray:
    """Uniforms ``[first, first + count)`` in (0, 1) of Philox stream ``stream``
    of ``seed``, one per word, read with ``bitgen``."""
    return _to_uniforms(_words(bitgen, seed, stream, first, count))


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
# Elements per pass of _log1m: its eight float buffers stay in a core's L2.
_LOG_CHUNK = 8192


def _log1m(u: np.ndarray) -> np.ndarray:
    """``log(1 - u)`` of every element of the 1-d ``u``, a float64 array of
    uniforms on the u52 grid, bit for bit as fdlibm's ``log1p(-u)``
    (s_log1p.c) computes it with plain IEEE operations, as glibc's build for
    a CPU without FMA does.

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
    through reused buffers.
    """
    out = np.empty(u.size)
    n = min(_LOG_CHUNK, u.size)
    f, k, h, s, z, z2, r, t = np.empty((8, n))
    b = np.empty(n, np.int64)
    rare = np.empty(n, bool)
    for lo in range(0, u.size, _LOG_CHUNK):
        o = out[lo : lo + n]
        part = u[lo : lo + n]
        if len(part) < n:
            m = len(part)
            f, k, h, s, z, z2, r, t, b, rare = (a[:m] for a in (f, k, h, s, z, z2, r, t, b, rare))
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


# --------------------------------------------------------------------------
# Distribution laws. Each law knows how many uniforms one draw consumes and
# has a single code path, ``draw_batch(cols, n)``, that maps n draws' worth
# of uniforms to a float64 array of n samples; ``cols[c]`` is a float64 array
# of the c-th uniform of every draw. Each sample takes the same IEEE
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

    def mean(self) -> float:
        return 1.0 / self.rate

    def positive(self) -> bool:
        # draws use uniforms in the open interval, so 0 is never returned
        return True

    def draw_batch(self, cols: Sequence[np.ndarray], n: int) -> np.ndarray:
        # -log(1 - u) / rate; dividing by -rate gives the same bits
        draws = _log1m(cols[0])
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

    def draw_batch(self, cols: Sequence[np.ndarray], n: int) -> np.ndarray:
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

    def draw_batch(self, cols: Sequence[np.ndarray], n: int) -> np.ndarray:
        return self.lo + cols[0] * (self.hi - self.lo)

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
        object.__setattr__(self, "_cum", _cumulative(self.probs))

    def mean(self) -> float:
        return math.fsum(p / r for p, r in zip(self.probs, self.rates))

    def positive(self) -> bool:
        return True

    def draw_batch(self, cols: Sequence[np.ndarray], n: int) -> np.ndarray:
        # Branch j is the first with cols[0] < cum[j], the last if there is
        # none; then -log(1 - u) / rates[j] with u from cols[1].
        cum = self._cum  # type: ignore[attr-defined]
        branch = np.minimum(np.searchsorted(cum, cols[0], side="right"), len(cum) - 1)
        draws = _log1m(cols[1])
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

    Blank lines are skipped and '#' starts a comment. The seed is ignored.
    The file is read on first use and kept for the model's lifetime.
    """

    path: str

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        sig, xis = _read_trace(self.path)
        if not sig:
            raise InputError(f"trace {self.path!r} is empty")
        return np.asarray(sig, dtype=np.float64), np.asarray(xis, dtype=np.float64)


InputModel = IIDModel | MarkovModulatedModel | TraceModel


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
            bad = np.flatnonzero(~((a >= 0.0) & (a < math.inf)))  # NaN too
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}] = {float(a[bad[0]])!r}, must be finite, >= 0")
            a.setflags(write=False)
        if len(self.sigma) != len(self.xi):
            raise ValueError(f"{len(self.sigma)} sigma marks but {len(self.xi)} xi marks")

    def __len__(self) -> int:
        return len(self.sigma)


def _generate_iid(
    sigma_law: Law, xi_law: Law, seeds: Sequence[int], length: int, start: int
) -> tuple[np.ndarray, np.ndarray]:
    # mark t of a seed reads words [t * ku, (t + 1) * ku) of its stream 0
    ku = sigma_law.uniforms + xi_law.uniforms
    bitgen = np.random.Philox(key=0)
    words = np.empty((len(seeds), length * ku), dtype=np.uint64)
    for r, seed in enumerate(seeds):
        words[r] = _words(bitgen, seed, 0, start * ku, length * ku)
    # Uniform c of mark t of seeds[r] is u[t, r, c]; the sigma law's come first.
    u = _to_uniforms(words).reshape(len(seeds), length, ku).swapaxes(0, 1)
    size = length * len(seeds)

    def draw(law: Law, first: int) -> np.ndarray:
        cols = [u[:, :, c].ravel() for c in range(first, first + law.uniforms)]
        return law.draw_batch(cols, size).reshape(length, len(seeds))

    return draw(sigma_law, 0), draw(xi_law, sigma_law.uniforms)


def _markov_states(
    start: Sequence[float],
    rows: Sequence[Sequence[float]],
    u: np.ndarray,
    prev: int | None = None,
) -> list[int]:
    """The chain's state path picked by the uniforms ``u``.

    The first state is picked by ``u[0]`` from ``rows[prev]``, or from the
    running sums ``start`` when ``prev`` is None (the chain's first mark);
    state t from ``rows[state t - 1]`` by ``u[t]``. A pick is the first j
    with ``u < cum[j]``, or the last state when there is none. For each
    chunk of ``u``, every row's picks come from one ``searchsorted`` and the
    path walks those tables, so memory stays at (states, chunk) entries.
    """
    last = len(rows) - 1

    def picks(cum, v):
        return np.minimum(np.searchsorted(cum, v, side="right"), last)

    state = int(picks(start if prev is None else rows[prev], u[0]))
    states = [state]
    for lo in range(1, len(u), _CHUNK):
        part = u[lo : lo + _CHUNK]
        # tables[t][k] is the state after u[lo + t] when the state before is k
        tables = zip(*(picks(cum, part).tolist() for cum in rows))
        states += [state := nxt[state] for nxt in tables]
    return states


# Where a Markov seed's marks start: the chain's state before the first mark
# (None at mark 0) and the stream-0 words the earlier marks read.
Checkpoint = tuple[int | None, int]


def _markov_checkpoints(
    model: MarkovModulatedModel, seed: int, stops: Sequence[int]
) -> list[Checkpoint]:
    """The checkpoint of ``seed`` at each of the ascending ``stops``.

    One walk of stream 1 from mark 0, ``_CHUNK`` marks at a time, so memory
    does not grow with the distance walked.
    """
    start_cum, row_cums, used = model._tables  # type: ignore[attr-defined]
    bitgen = np.random.Philox(key=0)
    out = []
    state, words, at = None, 0, 0
    for stop in stops:
        while at < stop:
            step = min(_CHUNK, stop - at)
            path = _markov_states(start_cum, row_cums, _uniforms(bitgen, seed, 1, step, at), state)
            state, words, at = path[-1], words + int(used[path].sum()), at + step
        out.append((state, words))
    return out


def _generate_markov(
    model: MarkovModulatedModel,
    seeds: Sequence[int],
    length: int,
    start: int,
    checkpoints: Sequence[Checkpoint],
) -> tuple[np.ndarray, np.ndarray]:
    """Marks ``[start, start + length)`` of every seed, from its checkpoint at ``start``."""
    start_cum, row_cums, mark_uniforms = model._tables  # type: ignore[attr-defined]
    bitgen = np.random.Philox(key=0)
    # Entry r * length + t of the joined paths is the state of mark t of seeds[r].
    path = np.empty(len(seeds) * length, dtype=np.intp)
    for r, (seed, (state, _)) in enumerate(zip(seeds, checkpoints)):
        u1 = _uniforms(bitgen, seed, 1, length, start)
        path[r * length : (r + 1) * length] = _markov_states(start_cum, row_cums, u1, state)
    # That mark reads its state's sigma uniforms, then its xi uniforms, from
    # offset first[r * length + t] of the joined stream-0 words of all seeds.
    used = mark_uniforms[path]
    ends = np.cumsum(used)
    first = ends - used
    u = np.empty(int(ends[-1]))
    for r, (seed, (_, words)) in enumerate(zip(seeds, checkpoints)):
        lo, hi = int(first[r * length]), int(ends[(r + 1) * length - 1])
        u[lo:hi] = _uniforms(bitgen, seed, 0, hi - lo, words)
    # Each state's marks of every seed are drawn in one batch, as short
    # batches cost the array logarithm more per draw, and scattered back.
    sig = np.empty((len(seeds), length))
    xis = np.empty((len(seeds), length))
    for s, laws in enumerate(zip(model.sigma_laws, model.xi_laws)):
        at = np.flatnonzero(path == s)
        offset = first[at]
        for out, law in zip((sig.reshape(-1), xis.reshape(-1)), laws):
            cols = [u[offset + c] for c in range(law.uniforms)]
            out[at] = law.draw_batch(cols, len(at))
            offset = offset + law.uniforms
    return sig.T, xis.T


def _read_trace(path: str) -> tuple[list[float], list[float]]:
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


def _require_seeds(seeds: Sequence[int]) -> None:
    """Philox keys a stream by a 64-bit seed, so every seed is in [0, 2**64)."""
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def generate_many(
    model: InputModel, seeds: Sequence[int], length: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Marks ``[start, start + length)`` of every seed, as ``(sigma, xi)``.

    Both are ``(length, R)`` float64 arrays for R seeds: column r holds the
    marks of ``seeds[r]``, bit for bit rows ``start`` onward of
    ``generate(model, seeds[r], start + length)``. The words of all iid
    seeds are drawn into one block, from the Philox block that holds the
    first one, and each law maps the block's uniforms in one call. A Markov
    seed first walks its chain over the ``start`` earlier marks. A trace
    ignores the seed, so its arrays are read-only views whose columns share
    the file's marks.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    seeds = list(seeds)
    _require_seeds(seeds)
    if isinstance(model, IIDModel):
        return _generate_iid(model.sigma_law, model.xi_law, seeds, length, start)
    if isinstance(model, MarkovModulatedModel):
        checkpoints = [_markov_checkpoints(model, seed, [start])[0] for seed in seeds]
        return _generate_markov(model, seeds, length, start, checkpoints)
    if isinstance(model, TraceModel):
        sig, xis = model._columns
        if len(sig) < start + length:
            raise InputError(f"trace {model.path!r} has {len(sig)} marks, need {start + length}")
        shape = (length, len(seeds))
        part = slice(start, start + length)
        return np.broadcast_to(sig[part, None], shape), np.broadcast_to(xis[part, None], shape)
    raise TypeError(f"unknown input model {model!r}")


def generate_chunks(
    model: InputModel, seeds: Sequence[int], length: int, rows: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The first ``length`` marks of every seed, oldest first, ``rows`` at a time.

    Yields ``(lo, sigma, xi)`` for hi = length, length - rows, ... while
    hi > 0, with lo = max(0, hi - rows): ``sigma`` and ``xi`` equal, bit
    for bit, the arrays of ``generate_many(model, seeds, hi - lo, lo)``, and
    only one chunk is held at a time. A Markov model walks each seed's chain once,
    recording its checkpoint at every chunk start, and each chunk then
    walks only its own marks.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    seeds = list(seeds)
    _require_seeds(seeds)
    bounds = [(max(0, hi - rows), hi) for hi in range(length, 0, -rows)]
    if not isinstance(model, MarkovModulatedModel):
        for lo, hi in bounds:
            yield (lo, *generate_many(model, seeds, hi - lo, lo))
        return
    starts = [lo for lo, _ in reversed(bounds)]
    walks = [dict(zip(starts, _markov_checkpoints(model, seed, starts))) for seed in seeds]
    for lo, hi in bounds:
        yield (lo, *_generate_markov(model, seeds, hi - lo, lo, [walk[lo] for walk in walks]))


def generate(model: InputModel, seed: int, length: int) -> MarkSequence:
    """Generate ``length`` marks for (model, seed): the one-seed case of
    :func:`generate_many`.

    Bit-identical on regeneration, and a longer run extends a shorter one:
    ``generate(m, s, a).sigma == generate(m, s, b).sigma[:a]`` for a <= b.
    """
    sig, xis = generate_many(model, [seed], length)
    return MarkSequence(sigma=sig[:, 0], xi=xis[:, 0])


# --------------------------------------------------------------------------
# Moments and stability.


def mean_sigma(model: InputModel) -> float:
    """Mean service requirement (empirical for trace models)."""
    if isinstance(model, IIDModel):
        return model.sigma_law.mean()
    if isinstance(model, MarkovModulatedModel):
        pi = model.stationary()
        return math.fsum(p * law.mean() for p, law in zip(pi, model.sigma_laws))
    if isinstance(model, TraceModel):
        sig = model._columns[0]
        return math.fsum(sig.tolist()) / len(sig)
    raise TypeError(f"unknown input model {model!r}")


def mean_xi(model: InputModel) -> float:
    """Mean inter-arrival gap (empirical for trace models)."""
    if isinstance(model, IIDModel):
        return model.xi_law.mean()
    if isinstance(model, MarkovModulatedModel):
        pi = model.stationary()
        return math.fsum(p * law.mean() for p, law in zip(pi, model.xi_laws))
    if isinstance(model, TraceModel):
        xis = model._columns[1]
        return math.fsum(xis.tolist()) / len(xis)
    raise TypeError(f"unknown input model {model!r}")


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
