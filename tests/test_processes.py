"""Mark generation: laws, reproducibility, modulation, traces, stability."""

import dataclasses
import decimal
import functools
import hashlib
import itertools
import math
import operator
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.stats
from conftest import traced_peak
from formulas import log1p_fdlibm, read_trace_reference
from hypothesis import example, given, settings, strategies as st

import jswsim
from jswsim.errors import ConfigError, InputError
from jswsim.processes import (
    RNG_ALGORITHM,
    Deterministic,
    Exponential,
    Hyperexponential,
    IIDModel,
    MarkSequence,
    MarkovModulatedModel,
    StabilityVerdict,
    TraceModel,
    Uniform,
    _CHUNK,
    _DRAW_MARKS,
    _LOG_CHUNK,
    _chain,
    _column_sums,
    _generate_markov,
    _log1m,
    _markov_states,
    _read_trace,
    _stream,
    _uniforms,
    _walk,
    generate,
    generate_chunks,
    generate_forward,
    mean_sigma,
    mean_xi,
    model_label,
    stability_check,
)

MM1 = IIDModel(Exponential(1.0), Exponential(0.5))


def uniforms(seed, stream, count, first=0):
    """Uniforms ``[first, first + count)`` of Philox stream ``stream`` of ``seed``."""
    return _uniforms(stream, [(seed, first, count)], np.empty(count, np.uint64))


class TestLaws:
    def test_means(self):
        assert Exponential(2.0).mean() == 0.5
        assert Deterministic(1.5).mean() == 1.5
        assert Uniform(1.0, 3.0).mean() == 2.0
        assert Hyperexponential((0.5, 0.5), (1.0, 2.0)).mean() == 0.75

    def test_validation(self):
        with pytest.raises(ConfigError):
            Exponential(0.0)
        with pytest.raises(ConfigError):
            Exponential(-1.0)
        with pytest.raises(ConfigError):
            Deterministic(-0.5)
        with pytest.raises(ConfigError):
            Uniform(2.0, 1.0)
        with pytest.raises(ConfigError):
            Uniform(-1.0, 1.0)
        with pytest.raises(ConfigError):
            Hyperexponential((0.7, 0.7), (1.0, 2.0))  # probs sum > 1
        with pytest.raises(ConfigError):
            Hyperexponential((0.5, 0.5), (1.0,))  # length mismatch
        with pytest.raises(ConfigError):
            Hyperexponential((0.5, 0.5), (1.0, -2.0))

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            IIDModel(Exponential(1.0), Deterministic(0.0))  # zero inter-arrivals
        IIDModel(Deterministic(0.0), Deterministic(1.0))  # zero service is fine

    def test_labels_mention_parameters(self):
        lab = model_label(MM1)
        assert "exponential" in lab and "1.0" in lab and "0.5" in lab


class TestMarkSequence:
    """A mark sequence is two checked arrays."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    @pytest.mark.parametrize("field", ["sigma", "xi"])
    def test_entries_must_be_finite_and_nonnegative(self, field, bad):
        arrays = {"sigma": np.ones(4), "xi": np.ones(4)}
        arrays[field][2] = bad
        with pytest.raises(ValueError, match=rf"{field}\[2\] = .*must be finite, >= 0"):
            MarkSequence(**arrays)

    @pytest.mark.parametrize(
        "sigma,xi",
        [
            (np.ones((2, 2)), np.ones((2, 2))),
            (np.ones(3), np.ones((3, 1))),
            (np.ones(3, dtype=np.float32), np.ones(3)),
            (np.ones(3), np.ones(3, dtype=np.int64)),
            ([1.0, 2.0], np.ones(2)),
            (np.float64(1.0), np.ones(1)),
        ],
        ids=["2d", "xi-column", "float32-sigma", "int-xi", "list-sigma", "scalar-sigma"],
    )
    def test_arrays_must_be_1d_float64(self, sigma, xi):
        with pytest.raises(ValueError, match="must be a 1-d float64 array"):
            MarkSequence(sigma, xi)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="3 sigma marks but 2 xi marks"):
            MarkSequence(np.ones(3), np.ones(2))

    def test_empty_and_zero_marks_are_accepted(self):
        assert len(MarkSequence(np.empty(0), np.empty(0))) == 0
        marks = MarkSequence(np.array([0.0, -0.0, 2.5]), np.zeros(3))
        assert len(marks) == 3
        assert not marks.sigma.flags.writeable and not marks.xi.flags.writeable

    def test_only_the_two_arrays(self):
        assert [f.name for f in dataclasses.fields(MarkSequence)] == ["sigma", "xi"]


class TestReproducibility:
    def test_algorithm_tag(self):
        assert RNG_ALGORITHM == "philox4x64/u52/inverse-cdf-v2"

    def test_same_seed_identical(self):
        a = generate(MM1, 42, 1000)
        b = generate(MM1, 42, 1000)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.xi, b.xi)

    def test_different_seeds_differ(self):
        a = generate(MM1, 1, 100)
        b = generate(MM1, 2, 100)
        assert not np.array_equal(a.sigma, b.sigma)

    def test_prefix_stable_under_extension(self):
        short = generate(MM1, 7, 100)
        long = generate(MM1, 7, 100_000)
        assert np.array_equal(long.sigma[:100], short.sigma)
        assert np.array_equal(long.xi[:100], short.xi)

    def test_sigma_xi_streams_are_separate(self):
        # swapping the rates re-scales each component in place: the two
        # streams draw from independent fixed uniform sources
        swapped = IIDModel(Exponential(0.5), Exponential(1.0))
        a = generate(MM1, 3, 50)
        b = generate(swapped, 3, 50)
        assert np.allclose(a.sigma, 0.5 * b.sigma)
        assert np.allclose(a.xi, 2.0 * b.xi)

    def test_draws_strictly_inside_support(self):
        marks = generate(MM1, 11, 10_000)
        assert marks.sigma.min() > 0.0
        assert marks.xi.min() > 0.0
        u = generate(IIDModel(Uniform(0.0, 1.0), Exponential(1.0)), 11, 10_000)
        assert 0.0 < u.sigma.min() and u.sigma.max() < 1.0

    def test_sequence_interface(self):
        marks = generate(MM1, 5, 10)
        assert len(marks) == 10
        assert marks.sigma.shape == marks.xi.shape == (10,)
        assert marks.sigma.dtype == marks.xi.dtype == np.float64

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seeds_outside_64_bits_are_refused(self, seed):
        # Philox keys a stream by 64 bits: such a seed would alias seed % 2**64
        for call in (
            lambda: generate(MM1, seed, 3),
            lambda: next(generate_chunks(MM1, [1, seed], 3, 2)),
            lambda: next(generate_chunks(THREE_STATE, [seed], 3, 2)),
            lambda: jswsim.estimate_stationary_many(MM1, [1, seed], 2, window=4, max_n=8),
        ):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                call()

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
    def test_seeds_that_are_not_integers_are_refused(self, seed):
        # Philox would truncate 1.5 to seed 1's key and give seed 1's marks
        for call in (
            lambda: generate(MM1, seed, 3),
            lambda: next(generate_chunks(MM1, [1, seed], 3, 2)),
            lambda: next(generate_chunks(THREE_STATE, [seed], 3, 2)),
            lambda: next(generate_forward(MM1, seed, 3, 2)),
        ):
            with pytest.raises(ValueError, match="seed must be an integer"):
                call()

    def test_numpy_integer_seeds_are_accepted(self):
        for seed in (np.uint64(2**64 - 1), np.int32(7)):
            marks, same = generate(THREE_STATE, seed, 5), generate(THREE_STATE, int(seed), 5)
            assert np.array_equal(bits(marks.sigma), bits(same.sigma))

    # sha256 of the sigma and xi bytes of 1000 marks, seed 11, with the law
    # as sigma and then as xi (exponential(0.5) on the other side); recorded
    # before the iid generator stopped building one list of all uniforms,
    # and re-recorded for inverse-cdf-v2, whose logarithm moved 1, 1 and 2
    # of the 4000 draws behind the exponential, uniform and hyperexponential
    # digests by 1 ulp.
    IID_DIGESTS = {
        Exponential(1.25): "f4224793a191b2a4b2e3a8908f13d46da8bb9a79a20aea4eccb1b4798b7baac4",
        Deterministic(0.75): "a08b14e3d37d7aebf683c53699566111122c97cbcc27cfb504d4bd1aeab4fdec",
        Uniform(0.25, 1.75): "3afacb6694ae3f060c085890e7c62f19757a4086be3ecb812adb02f6a09d6173",
        Hyperexponential((0.4, 0.6), (1.0, 3.0)): (
            "f837835404d31a002d9572ce1b6233aefab671ff66630aa0321df23f8516a92e"
        ),
    }

    @pytest.mark.parametrize("law", IID_DIGESTS, ids=lambda law: type(law).__name__)
    def test_iid_bytes_match_recorded_digest(self, law):
        digest = hashlib.sha256()
        for model in (IIDModel(law, Exponential(0.5)), IIDModel(Exponential(0.5), law)):
            marks = generate(model, 11, 1000)
            digest.update(marks.sigma.tobytes())
            digest.update(marks.xi.tobytes())
        assert digest.hexdigest() == self.IID_DIGESTS[law]

    def test_arrays_read_only(self):
        marks = generate(MM1, 5, 10)
        with pytest.raises(ValueError):
            marks.sigma[0] = 99.0

    def test_length_validated(self):
        with pytest.raises(ValueError):
            generate(MM1, 1, 0)


LAWS = (
    Exponential(1.25),
    Deterministic(0.75),
    Uniform(0.25, 1.75),
    Hyperexponential((0.4, 0.6), (1.0, 3.0)),
)
THREE_STATE = MarkovModulatedModel(
    ((0.5, 0.3, 0.2), (0.1, 0.8, 0.1), (0.3, 0.3, 0.4)),
    (Exponential(1.0), LAWS[3], Deterministic(0.5)),
    (Uniform(0.5, 1.5), Exponential(2.0), LAWS[3]),
)
BLOCK_SEEDS = (0, 2**63 + 9, 2**64 - 1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def block_cases():
    """``(seeds, length, rows)`` of ``generate_chunks`` draws: short ones of
    three seeds, and for one and three seeds one mark below, at and above
    the ``_DRAW_MARKS`` rows of a chunk of ``generate``, in one chunk, and
    the longest in two, the deeper from mark 5."""
    cases = [pytest.param(BLOCK_SEEDS, n, n, id=str(n)) for n in (1, 7, 64)]
    for seeds in (BLOCK_SEEDS[1:2], BLOCK_SEEDS):
        for n in (_DRAW_MARKS - 1, _DRAW_MARKS, _DRAW_MARKS + 1):
            cases.append(pytest.param(seeds, n, n, id=f"R{len(seeds)}-{n}"))
        n = _DRAW_MARKS + 1
        cases.append(pytest.param(seeds, n, n - 5, id=f"R{len(seeds)}-{n}-rows{n - 5}"))
    return cases


def joined_chunks(model, seeds, length, rows):
    """The chunks of ``generate_chunks``, deepest first, joined in mark order."""
    chunks = list(generate_chunks(model, seeds, length, rows))
    assert [lo for lo, _, _ in chunks] == [max(0, hi - rows) for hi in range(length, 0, -rows)]
    return tuple(np.concatenate([c[k] for c in reversed(chunks)]) for k in (1, 2))


class TestBlockGeneration:
    """``generate_chunks`` columns are the per-seed ``generate`` marks, bit for bit."""

    @staticmethod
    def assert_columns_match(model, seeds, length, rows):
        sigma, xi = joined_chunks(model, seeds, length, rows)
        assert sigma.shape == xi.shape == (length, len(seeds))
        assert sigma.dtype == xi.dtype == np.float64
        # the whole draw as one chunk, then each seed on its own, cut elsewhere
        _, whole_sigma, whole_xi = next(_stream(model, seeds, length, length))
        assert np.array_equal(bits(sigma), bits(whole_sigma))
        assert np.array_equal(bits(xi), bits(whole_xi))
        for r, seed in enumerate(seeds):
            marks = generate(model, seed, length)
            assert np.array_equal(bits(sigma[:, r]), bits(marks.sigma)), (seed, "sigma")
            assert np.array_equal(bits(xi[:, r]), bits(marks.xi)), (seed, "xi")

    @pytest.mark.parametrize("seeds,length,rows", block_cases())
    @pytest.mark.parametrize("xi_law", LAWS, ids=lambda law: type(law).__name__)
    @pytest.mark.parametrize("sigma_law", LAWS, ids=lambda law: type(law).__name__)
    def test_iid_columns(self, sigma_law, xi_law, seeds, length, rows):
        self.assert_columns_match(IIDModel(sigma_law, xi_law), seeds, length, rows)

    @pytest.mark.parametrize("seeds,length,rows", block_cases())
    def test_markov_columns(self, seeds, length, rows):
        self.assert_columns_match(THREE_STATE, seeds, length, rows)

    def test_trace_columns_are_shared(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("".join(f"{0.5 + k} {1.0 + k / 8}\n" for k in range(64)))
        model = TraceModel(str(p))
        for length, rows in ((1, 1), (7, 7), (64, 64), (64, 5)):
            self.assert_columns_match(model, BLOCK_SEEDS, length, rows)
        _, sigma, _ = next(generate_chunks(model, BLOCK_SEEDS, 7, 7))
        assert sigma.strides[1] == 0 and not sigma.flags.writeable
        # generate returns a trace's marks as views of the file's
        assert np.shares_memory(generate(model, 1, 64).sigma, model._columns[0])

    def test_leftover_words_do_not_leak_between_seeds(self):
        # three words per mark: seven marks leave words of the last Philox
        # block buffered, which must not start the next seed's stream
        model = IIDModel(Hyperexponential((0.4, 0.6), (1.0, 3.0)), Exponential(1.8))
        seeds = [5, 5, 6, 2**64 - 1, 6]
        self.assert_columns_match(model, seeds, 7, 7)
        _, sigma, _ = next(generate_chunks(model, seeds, 7, 7))
        assert np.array_equal(bits(sigma[:, 0]), bits(sigma[:, 1]))
        assert np.array_equal(bits(sigma[:, 2]), bits(sigma[:, 4]))

    def test_block_spans_several_log1p_chunks(self):
        # 2 x (_LOG_CHUNK + 7) draws per law in the block, three passes of
        # the array logarithm; two in each one-seed call
        n = _LOG_CHUNK + 7
        self.assert_columns_match(IIDModel(LAWS[3], LAWS[0]), [1, 2], n, n)

    def test_uniforms_reset_between_streams(self):
        for seed, stream in ((2**63 + 9, 1), (3, 0)):
            # the first read leaves three of four block words buffered
            reads = [(3, 0, 5), (seed, 0, 11)]
            got = _uniforms(stream, reads, np.empty(16, np.uint64))[5:]
            key = np.array([seed % 2**64, stream], dtype=np.uint64)
            raw = np.random.Philox(key=key).random_raw(11)
            fresh = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
            assert np.array_equal(bits(got), bits(fresh))

    # the smallest and the largest uniform the u52 mapping produces, and the
    # first cumulative probability of LAWS[3], where the branch test is a tie
    EDGES = (2.0**-53, 0.4, 1.0 - 2.0**-53)

    @staticmethod
    def scalar_draw(law, u_first, u_second):
        if isinstance(law, Exponential):
            return -log1p_fdlibm(-u_first) / law.rate
        if isinstance(law, Deterministic):
            return law.value
        if isinstance(law, Uniform):
            return law.lo + u_first * (law.hi - law.lo)
        for c, rate in zip(itertools.accumulate(law.probs), law.rates):
            if u_first < c:
                return -log1p_fdlibm(-u_second) / rate
        return -log1p_fdlibm(-u_second) / law.rates[-1]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_draw_batch_at_the_edge_uniforms(self, law):
        pairs = list(itertools.product(self.EDGES, repeat=2))
        cols = [np.array([p[c] for p in pairs]) for c in range(law.uniforms)]
        got = law.draw_batch(cols, len(pairs))
        want = np.array([self.scalar_draw(law, a, b) for a, b in pairs])
        assert got.dtype == np.float64
        assert np.array_equal(bits(got), bits(want))

    def test_length_validated(self):
        with pytest.raises(ValueError):
            next(generate_chunks(MM1, [1, 2], 0, 4))


def grid(m):
    """Grid point m of the u52 mapping: (m + 1/2) * 2**-52, m in [0, 2**52)."""
    return (m + 0.5) * 2.0**-52


def grid_near(x):
    """The four u52 grid points nearest ``x``, two on each side."""
    m = math.floor(x * 2.0**52 - 0.5)
    return [grid(j) for j in range(m - 1, m + 3) if 0 <= j < 2**52]


# Two grid points below 2**-29 where the common path rounds fdlibm's
# x - x*x/2 the other way.
TINY_OTHER_WAY = (float.fromhex("0x1.fec81e0000000p-30"), float.fromhex("0x1.ffe0520000000p-30"))


def rare_uniforms():
    """Grid points where fdlibm's log1p(-u) leaves its common path, or where
    its reduction changes: u below and above 2**-29; v = 1 - u just above a
    power of two (a zero high mantissa word) and just below one (a reduced
    high word of 0 after the sqrt(2)/2 fold), with v = 2**-53 the last grid
    point; both sides of the |x| < 0.2929 test (high word 0x3fd2bec3) and of
    the sqrt(2)/2 fold of v (high mantissa word 0x6a09e)."""
    points = [grid(0), grid(1), grid(2**52 - 1), grid(2**52 - 2), *TINY_OTHER_WAY]
    points += grid_near(2.0**-29) + grid_near(3 * 2.0**-21) + grid_near(2.0**-20)
    points += grid_near(float.fromhex("0x1.2bec4p-2"))  # high word 0x3fd2bec4
    for j in (1, 2, 3, 7, 20, 31, 32):
        power = 2.0**-j
        for word in (0, 1, 0xFFFFC, 0xFFFFD, 0x6A09D, 0x6A09E):
            points += grid_near(1.0 - power * (1 + word * 2.0**-20))
        # v = 2**-j plus or minus one and three grid half-steps (2**-53)
        points += [1.0 - (power + e * 2.0**-53) for e in (1, 3, -1, -3) if power + e * 2.0**-53 < 1]
    return np.array(sorted(set(points)))


def within_one_ulp(u, got):
    """``got`` is within one unit in the last place of ln(1 - u)."""
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = (decimal.Decimal(1) - decimal.Decimal(u)).ln()
        return abs(decimal.Decimal(got) - exact) < decimal.Decimal(math.ulp(got))


class TestLog1m:
    """The array logarithm behind the exponential draws: bit for bit the
    scalar fdlibm port, within one ulp of ln(1 - u)."""

    @staticmethod
    def assert_matches_port(u):
        got = _log1m(u)
        want = np.array([log1p_fdlibm(-x) for x in u.tolist()])
        assert np.array_equal(bits(got), bits(want)), u[bits(got) != bits(want)]
        return got

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**52 - 1), min_size=1, max_size=64))
    def test_matches_port_and_decimal_on_the_grid(self, ms):
        u = np.array([grid(m) for m in ms])
        got = self.assert_matches_port(u)
        for x, y in zip(u.tolist(), got.tolist()):
            assert within_one_ulp(x, y), x.hex()

    def test_grid_ends(self):
        u = np.array([grid(m) for m in (0, 1, 2, 3, 2**52 - 4, 2**52 - 3, 2**52 - 2, 2**52 - 1)])
        got = self.assert_matches_port(u)
        assert all(within_one_ulp(x, y) for x, y in zip(u.tolist(), got.tolist()))
        assert _log1m(np.empty(0)).shape == (0,)

    def test_rare_lanes(self):
        u = rare_uniforms()
        assert ((u - 2.0**-53) * 2.0**52 == np.round((u - 2.0**-53) * 2.0**52)).all()
        got = self.assert_matches_port(u)
        for x, y in zip(u.tolist(), got.tolist()):
            assert within_one_ulp(x, y), x.hex()

    @pytest.mark.parametrize("length", [_LOG_CHUNK - 1, _LOG_CHUNK, _LOG_CHUNK + 1])
    def test_chunk_boundaries(self, length):
        u = uniforms(5, 0, length)
        # lanes that need the fix-up at both ends of each pass
        for j, at in enumerate((0, _LOG_CHUNK - 1, _LOG_CHUNK, length - 1)):
            if at < length:
                u[at] = TINY_OTHER_WAY[j % 2]
        self.assert_matches_port(u)

    # (u, log(1 - u)) by float.hex. The first two are uniforms 3790 and 3872
    # of seed 0, stream 0, where the result is 1 ulp from glibc's FMA build
    # of log1p; then the smallest and largest grid points and 0.5 + 2**-53.
    PINNED = (
        ("0x1.2a75de2ada42ep-2", "-0x1.60d355e45e991p-2"),
        ("0x1.a2ba2982b1104p-3", "-0x1.d4705ac5ebb71p-3"),
        ("0x1.0000000000000p-53", "-0x1.0000000000000p-53"),
        ("0x1.fffffffffffffp-1", "-0x1.25e4f7b2737fap+5"),
        ("0x1.0000000000001p-1", "-0x1.62e42fefa39f1p-1"),
    )

    def test_pinned_draws(self):
        u = np.array([float.fromhex(x) for x, _ in self.PINNED])
        assert [float(y).hex() for y in _log1m(u)] == [y for _, y in self.PINNED]
        # the first marks of seed 1 under MM1
        marks = generate(MM1, 1, 2)
        sigma, xi = ([float(x).hex() for x in a] for a in (marks.sigma, marks.xi))
        assert sigma == ["0x1.7277cfd314743p-2", "0x1.5bac6f45dfc49p-3"]
        assert xi == ["0x1.e377e9f10d2d4p+1", "0x1.02df1567e07bcp-4"]

    def test_bits_do_not_depend_on_cpu_features(self):
        # numpy picks its SIMD kernels by CPU when it is imported. With
        # X86_V4 disabled, np.log1p(-u) changes bits on an AVX-512 CPU;
        # the marks must not.
        code = (
            "import hashlib\n"
            "from jswsim.processes import Exponential, IIDModel, generate\n"
            "m = generate(IIDModel(Exponential(1.0), Exponential(0.5)), 3, 100000)\n"
            "print(hashlib.sha256(m.sigma.tobytes() + m.xi.tobytes()).hexdigest())\n"
        )
        src = str(pathlib.Path(jswsim.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4", PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        marks = generate(MM1, 3, 100000)
        here = hashlib.sha256(marks.sigma.tobytes() + marks.xi.tobytes()).hexdigest()
        assert run.stdout.strip() == here


class TestOffsets:
    """A chunk from a later mark is the slice of a draw from mark 0, bit for bit."""

    @staticmethod
    def assert_slice(model, seeds, length, start):
        # the deepest chunk of start + length marks is marks [start, start + length)
        lo, sigma, xi = next(generate_chunks(model, seeds, start + length, length))
        _, longer_sigma, longer_xi = next(_stream(model, seeds, start + length, start + length))
        assert lo == start
        assert sigma.shape == xi.shape == (length, len(seeds))
        assert np.array_equal(bits(sigma), bits(longer_sigma[start:])), start
        assert np.array_equal(bits(xi), bits(longer_xi[start:])), start

    @settings(max_examples=80, deadline=None)
    @given(
        sigma_law=st.sampled_from(LAWS),
        xi_law=st.sampled_from(LAWS),
        seeds=st.lists(st.sampled_from(BLOCK_SEEDS + (7,)), min_size=1, max_size=3),
        length=st.integers(1, 24),
        start=st.integers(0, 40),
    )
    def test_iid(self, sigma_law, xi_law, seeds, length, start):
        self.assert_slice(IIDModel(sigma_law, xi_law), seeds, length, start)

    # one, two and three uniforms per mark: every start below 8 begins at
    # each word of a Philox block
    @pytest.mark.parametrize(
        "sigma_law,xi_law",
        [(LAWS[0], LAWS[1]), (LAWS[1], LAWS[3]), (LAWS[3], LAWS[0])],
        ids=["ku1", "ku2", "ku3"],
    )
    def test_iid_every_word_offset(self, sigma_law, xi_law):
        for start in range(9):
            self.assert_slice(IIDModel(sigma_law, xi_law), BLOCK_SEEDS, 5, start)

    @settings(max_examples=25, deadline=None)
    @given(
        start=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 3])
        | st.integers(0, 2 * _CHUNK),
        length=st.integers(1, 40),
    )
    def test_markov(self, start, length):
        self.assert_slice(THREE_STATE, BLOCK_SEEDS[:2], length, start)

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 63), length=st.integers(1, 64))
    def test_trace(self, tmp_path_factory, start, length):
        p = tmp_path_factory.mktemp("trace") / "marks.txt"
        p.write_text("".join(f"{0.5 + k} {1.0 + k / 8}\n" for k in range(64)))
        model = TraceModel(str(p))
        if start + length > 64:
            with pytest.raises(InputError):
                next(generate_chunks(model, [1], start + length, length))
        else:
            self.assert_slice(model, BLOCK_SEEDS, length, start)

    @pytest.mark.parametrize("rows", [5, 500, _CHUNK, 3 * _CHUNK])
    def test_chunks_tile_oldest_first(self, rows, tmp_path):
        # 2 * _CHUNK + 5 marks: the Markov checkpoints fall on both sides of
        # its walk's _CHUNK boundaries
        p = tmp_path / "marks.txt"
        n = 2 * _CHUNK + 5
        p.write_text("".join(f"{k % 5} {1 + k % 3}\n" for k in range(n)))
        models = [THREE_STATE, IIDModel(LAWS[3], LAWS[0]), TraceModel(str(p))]
        for model in models:
            _, sigma, xi = next(_stream(model, BLOCK_SEEDS, n, n))
            hi = n
            for lo, s, x in generate_chunks(model, BLOCK_SEEDS, n, rows):
                assert lo == max(0, hi - rows)
                assert np.array_equal(bits(s), bits(sigma[lo:hi]))
                assert np.array_equal(bits(x), bits(xi[lo:hi]))
                hi = lo
            assert hi == 0

    def test_chunk_rows_validated(self):
        with pytest.raises(ValueError):
            next(generate_chunks(MM1, [1], 4, 0))
        for length in (0, -3):
            for model in (MM1, THREE_STATE):
                with pytest.raises(ValueError, match="length must be >= 1"):
                    next(generate_chunks(model, [1], length, 4))

    def test_no_seeds(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("".join(f"{0.5 + k} {1.0 + k / 8}\n" for k in range(9)))
        for model in (MM1, THREE_STATE, TraceModel(str(p))):
            chunks = [(lo, s.shape, x.shape) for lo, s, x in generate_chunks(model, [], 9, 4)]
            assert chunks == [(5, (4, 0), (4, 0)), (1, (4, 0), (4, 0)), (0, (1, 0), (1, 0))]


# Chunk sizes of the forward source: single marks, a size that divides
# nothing here, the Markov walk's _CHUNK and the forward walk's _PATH_CHUNK.
FORWARD_ROWS = [1, 7, 4096, 2**14]


def lengths_around(rows):
    """One and two chunks of ``rows`` marks, each one mark short and over."""
    return sorted({k * rows + d for k in (1, 2) for d in (-1, 0, 1)} - {0})


@st.composite
def markov_chains(draw):
    """Irreducible chains of up to 5 states, rows with zero entries or
    near-absorbing ones (0.999 to stay), and a law per state."""
    k = draw(st.integers(1, 5))
    rows = []
    for i in range(k):
        if k > 1 and draw(st.booleans()):
            row = [0.0] * k
            row[i], row[(i + 1) % k] = 0.999, 0.001
        else:
            weight = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])
            weights = draw(st.lists(weight, min_size=k, max_size=k))
            # the cycle 0 -> 1 -> ... -> 0 keeps every chain irreducible
            weights[(i + 1) % k] += 1.0
            total = math.fsum(weights)
            row = [w / total for w in weights]
        rows.append(tuple(row))
    laws = st.lists(st.sampled_from(LAWS), min_size=k, max_size=k)
    return MarkovModulatedModel(tuple(rows), tuple(draw(laws)), tuple(draw(laws)))


class TestForwardChunks:
    """``generate_forward`` yields the marks of one seed oldest first, in
    checked chunks that are the slices of ``generate``, bit for bit."""

    @staticmethod
    def assert_slices(model, seed, length, rows):
        whole = generate(model, seed, length)
        chunks = list(generate_forward(model, seed, length, rows))
        assert [len(c) for c in chunks] == [min(rows, length - lo) for lo in range(0, length, rows)]
        for lo, chunk in zip(range(0, length, rows), chunks):
            assert isinstance(chunk, MarkSequence)
            assert not (chunk.sigma.flags.writeable or chunk.xi.flags.writeable)
            assert np.array_equal(bits(chunk.sigma), bits(whole.sigma[lo : lo + rows])), lo
            assert np.array_equal(bits(chunk.xi), bits(whole.xi[lo : lo + rows])), lo

    @pytest.mark.parametrize("rows", FORWARD_ROWS)
    def test_iid_every_law(self, rows):
        for sigma_law, xi_law in itertools.product(LAWS, repeat=2):
            for length in lengths_around(rows):
                self.assert_slices(IIDModel(sigma_law, xi_law), 2**64 - 1, length, rows)

    @settings(max_examples=60, deadline=None)
    @given(
        model=markov_chains(),
        rows=st.sampled_from(FORWARD_ROWS),
        chunks=st.integers(1, 2),
        extra=st.integers(-1, 1),
        seed=st.sampled_from(BLOCK_SEEDS),
    )
    def test_markov_walks_each_chain_once(self, model, rows, chunks, extra, seed):
        length = chunks * rows + extra or 1
        self.assert_slices(model, seed, length, rows)
        seeds = [seed, 5]
        states = jswsim.processes._markov_states

        def walked(run):
            # the uniforms _markov_states turns into states in run(), over all calls
            counts = []

            def counting_states(start, rows_, u, prev=None):
                counts.append(u.size)
                return states(start, rows_, u, prev)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(jswsim.processes, "_markov_states", counting_states)
                for _ in run():
                    pass
            return sum(counts)

        assert walked(lambda: generate_forward(model, seed, length, rows)) == length
        # a states-only walk to the start of the last chunk, then each chunk
        # once: at most 2 * length per seed
        chunks_walked = walked(lambda: generate_chunks(model, seeds, length, rows))
        assert chunks_walked == (2 * length - min(rows, length)) * len(seeds)

    def test_a_chunk_is_dropped_before_the_next_is_drawn(self, monkeypatch):
        # neither generator holds the chunk it yielded while it draws the next
        for model in (MM1, THREE_STATE):
            name = "_generate_iid" if model is MM1 else "_generate_markov"
            draw = getattr(jswsim.processes, name)
            held = []

            def checked(*args, draw=draw, held=held):
                assert all(ref() is None for ref in held)
                sigma, xi, at = draw(*args)
                held.extend(weakref.ref(a.base if a.base is not None else a) for a in (sigma, xi))
                return sigma, xi, at

            monkeypatch.setattr(jswsim.processes, name, checked)
            chunks = generate_forward(model, 3, 40, 16)
            for _ in range(3):
                chunk = next(chunks)
                del chunk
            assert len(held) == 6

    def test_trace(self, tmp_path):
        p = tmp_path / "marks.txt"
        n = 2 * 2**14 + 1
        p.write_text("".join(f"{k % 5} {1 + k % 3}\n" for k in range(n)))
        model = TraceModel(str(p))
        for rows in FORWARD_ROWS:
            for length in lengths_around(rows):
                self.assert_slices(model, 3, length, rows)
        # a trace too short for the run is refused before any chunk
        with pytest.raises(InputError, match=f"has {n} marks, need {n + 1}"):
            next(generate_forward(model, 3, n + 1, 7))

    @pytest.mark.parametrize(
        "seed,length,rows", [(1, 0, 4), (1, 4, 0), (-1, 4, 4), (2**64, 4, 4)]
    )
    def test_arguments_are_checked(self, seed, length, rows):
        for model in (MM1, THREE_STATE):
            with pytest.raises(ValueError):
                next(generate_forward(model, seed, length, rows))


class TestStatisticalFit:
    # all seeds fixed: these are frozen regression checks, not flaky stats
    def test_exponential_lln(self):
        marks = generate(MM1, 123, 1_000_000)
        assert abs(marks.sigma.mean() - 1.0) < 0.005
        assert abs(marks.xi.mean() - 2.0) < 0.01

    def test_exponential_ks(self):
        marks = generate(MM1, 9, 100_000)
        stat, p = scipy.stats.kstest(marks.sigma, "expon", args=(0, 1.0))
        assert p > 0.01, (stat, p)

    def test_uniform_ks(self):
        model = IIDModel(Uniform(0.5, 2.5), Exponential(1.0))
        marks = generate(model, 9, 100_000)
        stat, p = scipy.stats.kstest(marks.sigma, "uniform", args=(0.5, 2.0))
        assert p > 0.01, (stat, p)

    def test_hyperexponential_ks(self):
        law = Hyperexponential((0.4, 0.6), (1.0, 3.0))
        model = IIDModel(law, Exponential(1.0))
        marks = generate(model, 21, 100_000)

        def cdf(x):
            return 1.0 - 0.4 * np.exp(-1.0 * x) - 0.6 * np.exp(-3.0 * x)

        stat, p = scipy.stats.kstest(marks.sigma, cdf)
        assert p > 0.01, (stat, p)
        assert abs(marks.sigma.mean() - law.mean()) < 0.01


TWO_STATE = MarkovModulatedModel(
    ((0.9, 0.1), (0.2, 0.8)),
    (Exponential(1.0), Exponential(0.5)),
    (Exponential(0.5), Exponential(0.25)),
)


class TestMarkovModulation:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MarkovModulatedModel(((0.5, 0.4),), (Exponential(1.0),), (Exponential(1.0),))
        with pytest.raises(ConfigError):
            MarkovModulatedModel(
                ((1.0, 0.0), (0.0, 1.0)),  # reducible
                (Exponential(1.0), Exponential(1.0)),
                (Exponential(1.0), Exponential(1.0)),
            )
        with pytest.raises(ConfigError):
            MarkovModulatedModel(
                ((0.9, 0.1), (0.2, 0.8)),
                (Exponential(1.0),),  # law count mismatch
                (Exponential(1.0), Exponential(1.0)),
            )

    def test_stationary_two_state(self):
        pi = TWO_STATE.stationary()
        # analytic stationary of ((.9,.1),(.2,.8)) is (2/3, 1/3)
        assert pi == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_stationary_periodic_chain(self):
        flip = MarkovModulatedModel(
            ((0.0, 1.0), (1.0, 0.0)),
            (Exponential(1.0), Exponential(2.0)),
            (Exponential(1.0), Exponential(1.0)),
        )
        assert flip.stationary() == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_stationary_slowly_mixing_chain_is_exact(self):
        # mixes so slowly that an iterative solver stopped early is far off
        slow = MarkovModulatedModel(
            ((1 - 1e-6, 1e-6), (2e-6, 1 - 2e-6)),
            (Exponential(1.0), Exponential(2.0)),
            (Exponential(1.0), Exponential(1.0)),
        )
        assert slow.stationary() == pytest.approx((2 / 3, 1 / 3), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.lists(
                st.lists(st.floats(1e-9, 1.0), min_size=k, max_size=k), min_size=k, max_size=k
            )
        )
    )
    def test_stationary_is_balanced(self, weights):
        # positive rows, so every chain is irreducible
        rows = tuple(tuple(w / math.fsum(row) for w in row) for row in weights)
        k = len(rows)
        model = MarkovModulatedModel(rows, (Exponential(1.0),) * k, (Exponential(1.0),) * k)
        pi = model.stationary()
        assert math.fsum(pi) == pytest.approx(1.0, abs=1e-15)
        for j in range(k):
            flow = math.fsum(pi[i] * rows[i][j] for i in range(k))
            assert flow == pytest.approx(pi[j], rel=1e-12)

    def test_single_state_reduces_to_iid(self):
        single = MarkovModulatedModel(((1.0,),), (Exponential(1.0),), (Exponential(0.5),))
        a = generate(single, 17, 500)
        b = generate(MM1, 17, 500)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.xi, b.xi)

    def test_reproducible_and_prefix_stable(self):
        a = generate(TWO_STATE, 5, 200)
        b = generate(TWO_STATE, 5, 1000)
        assert np.array_equal(b.sigma[:200], a.sigma)
        assert np.array_equal(b.xi[:200], a.xi)

    def test_stationary_weighted_means(self):
        # means use the stationary law mix, not a plain average
        assert mean_sigma(TWO_STATE) == pytest.approx(2 / 3 * 1.0 + 1 / 3 * 2.0)
        assert mean_xi(TWO_STATE) == pytest.approx(2 / 3 * 2.0 + 1 / 3 * 4.0)

    def test_empirical_mix_matches_stationary(self):
        marks = generate(TWO_STATE, 31, 200_000)
        # state 2 doubles the mean service; the blend shows in the average
        assert abs(marks.sigma.mean() - mean_sigma(TWO_STATE)) < 0.02


def pick_state(cum, u):
    """The scalar pick: the first j with u < cum[j], else the last state."""
    for j, c in enumerate(cum):
        if u < c:
            return j
    return len(cum) - 1


def scalar_states(start, rows, u, prev=None):
    """State path with one scalar pick per uniform, the reference for
    _markov_states: the first state is picked from ``rows[prev]``, or from
    ``start`` when ``prev`` is None."""
    state = pick_state(start if prev is None else rows[prev], u[0])
    states = [state]
    for x in u[1:]:
        state = pick_state(rows[state], x)
        states.append(state)
    return states


# Transition entries: exact zeros, values whose running sums tie, arbitrary
# floats. Rows are not normalised, so running sums may end below 1.
ENTRY = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.25, 0.5]), st.floats(0.0, 1.0))
# A chain whose every mark moves it on: no mark sets or keeps the state.
CYCLIC = MarkovModulatedModel(
    ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    (Exponential(1.0), LAWS[3], Deterministic(0.5)),
    (Uniform(0.5, 1.5), Exponential(2.0), LAWS[3]),
)
# Lengths at and around the _CHUNK marks a states-only walk steps at a time.
CHAIN_LENGTHS = [1, 2, 3, 100, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 1]


def assert_scalar_paths(start, rows, u, prev, path):
    """Row r of ``path`` is the scalar path of chain r from ``prev[r]``."""
    assert path.shape == u.shape
    for r, chain in enumerate(path.tolist()):
        before = None if prev is None else int(prev[r])
        assert chain == scalar_states(start, rows, u[r].tolist(), before), r


class TestMarkovStatePath:
    """``_markov_states`` and ``_chain`` step several chains at once; each
    chain's path is the one the scalar picks give, one uniform at a time."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=k + 1, max_size=k + 1)
        ),
        st.sampled_from(CHAIN_LENGTHS),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_picks(self, probs, length, chains, checkpoint, seed):
        cums = [tuple(itertools.accumulate(p)) for p in probs]
        start, rows = cums[0], cums[1:]
        rng = np.random.default_rng(seed)
        u = rng.random((chains, length))
        # a third of the uniforms hit a running sum exactly or lie past them all
        edges = np.array(sorted({c for cum in cums for c in cum} | {max(cums[0][-1], 1.0)}))
        at = rng.random(u.shape) < 1 / 3
        u[at] = rng.choice(edges, int(at.sum()))
        prev = rng.integers(0, len(rows), chains) if checkpoint else None
        assert_scalar_paths(start, rows, u, prev, _markov_states(start, rows, u, prev))

    def test_zero_entries_and_short_rows(self):
        # Row 0 never stays (a zero entry). Row 1 never moves to state 1 and
        # sums to 0.75, so u = 0.75 falls past it and picks the last state.
        rows = [(0.0, 1.0, 1.0), (0.5, 0.5, 0.75), (0.0, 0.0, 1.0)]
        u = np.array([0.3, 0.2, 0.9, 0.1, 0.5, 0.75, 0.999])
        expected = [1, 0, 1, 0, 1, 2, 2]
        assert _markov_states((0.25, 0.5, 1.0), rows, u[None]).tolist() == [expected]
        assert scalar_states((0.25, 0.5, 1.0), rows, u.tolist()) == expected
        # from a checkpoint in each state
        paths = _markov_states((0.25, 0.5, 1.0), rows, np.tile(u, (3, 1)), np.arange(3))
        assert paths.tolist() == [[1, 0, 1, 0, 1, 2, 2], [0, 1, 2, 2, 2, 2, 2], [2] * 7]

    def test_more_states_than_a_byte_holds(self):
        # 300 states, each row moving to a few of them: most marks step
        rng = np.random.default_rng(11)
        probs = rng.random((301, 300)) * (rng.random((301, 300)) < 0.02)
        probs[:, 0] += 0.01
        cums = [tuple(itertools.accumulate(p)) for p in (probs / probs.sum(1)[:, None]).tolist()]
        start, rows = cums[0], cums[1:]
        u = rng.random((2, 3000))
        for prev in (None, np.array([299, 7])):
            path = _markov_states(start, rows, u, prev)
            assert path.max() > 255
            assert_scalar_paths(start, rows, u, prev, path)

    @settings(max_examples=30, deadline=None)
    @given(
        model=markov_chains() | st.sampled_from([THREE_STATE, CYCLIC]),
        length=st.sampled_from(CHAIN_LENGTHS),
        lo=st.sampled_from([0, 5, _CHUNK]),
        checkpoint=st.booleans(),
    )
    def test_chain_of_several_seeds(self, model, length, lo, checkpoint):
        # each seed's states from stream 1 of its own, from its checkpoint,
        # and the stream-0 words its marks then read
        start, rows, used = model._tables
        seeds = list(BLOCK_SEEDS)
        rng = np.random.default_rng(length + lo)
        prev = rng.integers(0, len(rows), len(seeds)) if checkpoint else None
        words = rng.integers(0, 100, len(seeds))
        path, (last, after) = _chain(model, seeds, (prev, words), lo, length)
        u = np.array([uniforms(seed, 1, length, lo) for seed in seeds])
        assert_scalar_paths(start, rows, u, prev, path)
        assert np.array_equal(last, path[:, -1])
        assert after.tolist() == [w + sum(used[s] for s in p) for w, p in zip(words, path.tolist())]

    @pytest.mark.parametrize("length", CHAIN_LENGTHS)
    def test_walk_reaches_the_drawn_checkpoint(self, length):
        # the states-only walk, _CHUNK marks a call, ends where one call
        # that draws the marks does, on the path of that call
        seeds = list(BLOCK_SEEDS)
        for model in (TWO_STATE, THREE_STATE, CYCLIC):
            zero = (None, np.zeros(len(seeds), np.int64))
            *_, drawn = _generate_markov(model, seeds, zero, 0, length)
            path, _ = _chain(model, seeds, zero, 0, length)
            pieces, at = [], zero
            for lo in range(0, length, _CHUNK):
                piece, at = _chain(model, seeds, at, lo, min(_CHUNK, length - lo))
                pieces.append(piece)
            assert np.array_equal(np.hstack(pieces), path)
            walked = _walk(model, seeds, zero, 0, length)
            for a, b, c in zip(walked, drawn, at):
                assert np.array_equal(a, b) and np.array_equal(a, c)


# Tokens where numpy's text reader and float() could part ways: spellings
# float() takes and numpy may not, values at the edges of float64 and of the
# trace's ranges, and near misses of a number.
TRICKY_TOKENS = [
    "1_0", "1__0", "_1", "\u0661\u0662", "\uff11", "inf", "-inf", "Infinity", "nan", "-nan",
    "NaN", "1e400", "-1e400", "5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "1.7976931348623157e308", "1.7976931348623159e308", "9007199254740993", "0x1p3", "0x10",
    "1d0", "1e", ".5", "5.", "+.5e-3", "-0", "-0.0", "0", "007", "\ufeff1", "1\ufeff",
    "0." + "3" * 400, "1,5", "'1'", "1\x002",
]  # fmt: skip
# Whitespace str.split() and str.strip() know, and characters that only look like it.
WHITESPACE = [
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003",
    "\u3000", "\u2028",
]  # fmt: skip
NOT_WHITESPACE = ["\ufeff", "_", ","]
COMMENTS = ["", "#", " # note", "#\x85 1 2", "\t#1 2 3"]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def trace_files(draw):
    """The bytes of a trace file. Half hold only lines of two numbers in
    several spellings, split and padded by any whitespace; the other half
    also hold tricky tokens, lines of 0, 1 or 3 fields, characters that only
    look like whitespace, a BOM or a byte that is not UTF-8."""
    noisy = draw(st.booleans())
    number = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
        st.floats(min_value=1e-320, max_value=1e300).map(lambda x: f"{x:.6e}"),
        st.integers(1, 10**30).map(str),
    )
    odd = 0 if noisy else -1
    token = st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(TRICKY_TOKENS) if k == odd else number
    )
    spaces = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)
    gap = st.integers(0, 5).flatmap(
        lambda k: st.text(st.sampled_from(NOT_WHITESPACE + WHITESPACE), min_size=1, max_size=3)
        if k == odd
        else st.one_of(st.sampled_from([" ", "  ", "\t"]), spaces)
    )
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = draw(st.sampled_from([2] * 8 + [0, 1, 3])) if noisy else 2
        body = draw(gap).join(draw(token) for _ in range(fields))
        pad = st.one_of(st.just(""), spaces)
        note, end = draw(st.sampled_from(COMMENTS)), draw(st.sampled_from(ENDINGS))
        lines.append(draw(pad) + body + draw(pad) + note + end)
    data = "".join(lines).encode()
    if noisy and draw(st.integers(0, 9)) == 0:
        data = b"\xef\xbb\xbf" + data
    if noisy and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_or_message(reader, path):
    """``reader(path)``'s two columns and two sums as uint64 bit patterns,
    or its ``InputError`` message."""
    try:
        columns, sums = reader(path)
    except InputError as exc:
        return str(exc)
    return [np.asarray(c, dtype=np.float64).view(np.uint64).tolist() for c in (*columns, sums)]


def reference_read(path):
    """The reference reader's columns and ``math.fsum`` of each; a column
    whose sum passes the largest float is refused, naming the trace."""
    columns = read_trace_reference(path)
    sums = []
    for name, column in zip(("sigma", "xi"), columns):
        try:
            sums.append(math.fsum(column))
        except OverflowError:
            raise InputError(f"trace {path!r}: its {name} column sums past the largest float")
    return columns, sums


def read_by_the_loop(path):
    """``_read_trace(path)`` with numpy's text reader refusing every file,
    so that the line loop reads it."""

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", refuse)
        return _read_trace(path)


class TestTraces:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("# demo\n3.0 1.0\n0.5 2.0  # inline note\n\n")
        model = TraceModel(str(p))
        marks = generate(model, 999, 2)  # seed is irrelevant for traces
        assert list(marks.sigma) == [3.0, 0.5]
        assert list(marks.xi) == [1.0, 2.0]
        assert mean_sigma(model) == 1.75

    def test_means_are_exactly_rounded(self, tmp_path):
        # Added left to right, 1.0 swallows every small entry; fsum keeps them.
        p = tmp_path / "marks.txt"
        p.write_text("1.0 1.0\n" + "1e-16 3e-17\n" * 10)
        model = TraceModel(str(p))
        for mean, col in zip((mean_sigma, mean_xi), model._columns):
            values = col.tolist()
            assert functools.reduce(operator.add, values) != math.fsum(values)
            assert repr(mean(model)) == repr(math.fsum(values) / len(values))

    def test_length_capped_by_file(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("1.0 1.0\n")
        with pytest.raises(InputError):
            generate(TraceModel(str(p)), 0, 2)

    def test_bad_lines_are_located(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 1.0\nnonsense\n")
        with pytest.raises(InputError, match=r"bad\.txt:2"):
            generate(TraceModel(str(p)), 0, 2)
        p.write_text("1.0 1.0 7.0\n")
        with pytest.raises(InputError):
            generate(TraceModel(str(p)), 0, 1)
        p.write_text("-1.0 1.0\n")
        with pytest.raises(InputError):
            generate(TraceModel(str(p)), 0, 1)
        p.write_text("1.0 0.0\n")
        with pytest.raises(InputError):
            generate(TraceModel(str(p)), 0, 1)
        p.write_bytes(b"1.0 1.0\n\xff\xfe 1.0\n")  # not UTF-8
        with pytest.raises(InputError):
            generate(TraceModel(str(p)), 0, 1)

    def test_file_parsed_once_per_model(self, tmp_path, monkeypatch):
        import builtins

        from jswsim.loynes import estimate_stationary_many

        p = tmp_path / "marks.txt"
        p.write_text("".join(f"{1.0 + (k % 3) * 0.25} 1.5\n" for k in range(4096)))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        res = estimate_stationary_many(TraceModel(str(p)), [1], 2, window=64, max_n=4096)[0]
        assert res.steps_used >= 128  # means plus at least two depths
        assert opened.count(str(p)) == 1

    def test_missing_file(self):
        with pytest.raises(InputError):
            generate(TraceModel("/nonexistent/trace.txt"), 0, 1)

    @settings(max_examples=400, deadline=None)
    @given(trace_files())
    @example(b"1_0 2\n")
    @example(b"\xef\xbb\xbf1 2\n")
    @example(b"1\x0b2\r\n3\x0c4\r5\x1c6\n")
    @example("1\x852\n3\xa04\u20035 6\n".encode())
    @example(b"1e400 1\n")
    @example(b"5e-324 5e-324\n0 2.4703282292062328e-324\n")
    @example(b"1 1\n\n# only comments after\n")
    @example(b"-0.0 1\n2 3\n-0 0.5\n")  # a -0.0 sigma is a mark of the loop
    @example(b"1 1\n1 -0.0\n")
    @example(b"1e308 1\n1e308 1\n")  # column sums past the largest float
    @example(b"1 1e308\n1_0 1e308\n")
    @example(b"1.7976931348623157e308 1\n9.9792015476736e291 1\n")  # ties, rounds to inf
    @example(b"1.7976931348623157e308 1\n4.9896007738368e291 1\n")  # rounds down: kept
    def test_reader_matches_the_line_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("trace") / "marks.txt"
        path.write_bytes(data)
        new = read_or_message(_read_trace, str(path))
        assert new == read_or_message(reference_read, str(path))
        assert new == read_or_message(read_by_the_loop, str(path))
        if not isinstance(new, str):
            # read-only columns of one array that holds 16 bytes per mark
            # (np.shares_memory(sig, xis) is false: interleaved columns have no
            # element in common)
            (sig, xis), _ = _read_trace(str(path))
            assert sig.ndim == xis.ndim == 1 and sig.dtype == xis.dtype == np.float64
            assert not sig.flags.writeable and not xis.flags.writeable
            assert sig.base is xis.base and sig.base.nbytes == 16 * len(sig)
            assert np.shares_memory(sig.base, sig) and np.shares_memory(sig.base, xis)

    # Each kind of refusal, after a comment, a mark and a blank line, so the
    # message must count lines as the reference does.
    BAD_LINES = {
        "one-field": b"2\n",
        "three-fields": b"1 2 3\n",
        "unparsable": b"1 x\n",
        "sigma-negative": b"-1 1\n",
        "sigma-nan": b"nan 1\n",
        "sigma-inf": b"inf 1\n",
        "xi-zero": b"1 0\n",
        "xi-minus-zero": b"1 -0.0\n",
        "xi-negative": b"1 -2\n",
        "xi-inf": b"1 inf\n",
        "not-utf8": b"\xff\xfe 1\n",
    }

    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_errors_match_the_line_loop(self, tmp_path, kind):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# trace\r\n0.5 1.5\r\n\r\n" + self.BAD_LINES[kind] + b"1 1\n")
        message = read_or_message(_read_trace, str(path))
        assert isinstance(message, str)
        assert message == read_or_message(reference_read, str(path))
        assert message == read_or_message(read_by_the_loop, str(path))
        if kind != "not-utf8":
            assert message.startswith(f"{path}:4: ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "empty", "comments"])
    def test_unreadable_and_empty_match_the_line_loop(self, tmp_path, kind):
        path = tmp_path / "t.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "comments":
            path.write_bytes(b"# a\r\n\r\n  # b\n\t\n")
        message = read_or_message(_read_trace, str(path))
        assert isinstance(message, str)
        assert message == read_or_message(reference_read, str(path))

    def test_valid_trace_skips_the_line_loop(self, tmp_path, monkeypatch):
        import builtins

        import jswsim.processes as processes

        p = tmp_path / "marks.txt"
        rows = (f"{1.0 + (k % 3) * 0.25} {1.5 + k / 4096!r}  # mark {k}\n" for k in range(4096))
        p.write_text("# sigma xi\n" + "".join(rows))
        expected = read_or_message(reference_read, str(p))

        def no_loop(path):
            raise AssertionError("the line loop ran")

        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(processes, "_read_trace_lines", no_loop)
        monkeypatch.setattr(builtins, "open", counting_open)
        model = TraceModel(str(p))
        assert read_or_message(lambda path: model._read, str(p)) == expected
        assert opened == [str(p)]
        # the columns are the two views of numpy's one array, and stay as read
        sig, xis = model._columns
        assert sig.base is xis.base and sig.base.shape == (4096, 2)
        for column in (sig, xis):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0


@st.composite
def mark_arrays(draw):
    """``(n, 2)`` arrays of finite nonnegative floats from the whole
    exponent range: any such float, subnormals, zeros, powers of two,
    values near the largest float, pairs whose sum ties at half an ulp, and
    runs of many rows of one exponent. The shorter column is padded with
    0.0 (sigma) or 1.0 (xi)."""
    top = 1.7976931348623157e308
    value = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
        st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
        st.just(0.0),
        st.floats(min_value=top / 4, max_value=top),
    )
    tie = value.map(lambda x: [x, math.ulp(x) / 2])
    run = st.tuples(st.integers(-1074, 971), st.integers(1, 3 * 4096 + 5), st.integers(0, 2**32))

    def run_values(spec):
        k, count, seed = spec
        mantissas = np.random.default_rng(seed).integers(2**52, 2**53, count)
        return np.ldexp(mantissas.astype(np.float64), k).tolist()

    piece = st.one_of(value.map(lambda x: [x]), tie, run.map(run_values))
    columns = []
    for _ in range(2):
        column = [x for part in draw(st.lists(piece, max_size=6)) for x in part]
        columns.append(draw(st.permutations(column)) if len(column) < 64 else column)
    n = max(1, *map(len, columns))
    columns[0] += [0.0] * (n - len(columns[0]))
    columns[1] += [1.0] * (n - len(columns[1]))
    return np.array(columns).T.copy()


def fsums_or_message(marks):
    """What ``_column_sums`` must give: None if a xi is 0, else
    ``math.fsum`` of each column, or the message for the first whose sum
    passes the largest float."""
    if (marks[:, 1] == 0.0).any():
        return None
    sums = []
    for name, column in zip(("sigma", "xi"), marks.T):
        try:
            sums.append(math.fsum(column.tolist()))
        except OverflowError:
            return f"trace 't': its {name} column sums past the largest float"
    return tuple(sums)


class TestColumnSums:
    """One pass over a trace's marks sums each column exactly, bit for bit
    ``math.fsum``, in any cut of its rows into blocks and carries."""

    @settings(max_examples=200, deadline=None)
    @given(mark_arrays(), st.sampled_from([None, (1, 1), (3, 7), (5, 10)]))
    @example(np.array([[1.0, 1.0]] + [[2.0**-1074, 3.0]] * (3 * 4096 + 1)), None)
    @example(np.array([[1.0, 2.0**-1022], [2.0**-53, 2.0**-1074]] * 9), (2, 4))
    @example(np.array([[2.0**1023, 1.0]] * 2), (1, 1))  # a bucket overflows between blocks
    def test_sums_equal_fsum(self, marks, cut):
        import jswsim.processes as processes

        with pytest.MonkeyPatch.context() as mp:
            if cut is not None:  # rows per block, rows per carry
                mp.setattr(processes, "_SUM_BLOCK", cut[0])
                mp.setattr(processes, "_SUM_CARRY", cut[1])
            try:
                got = _column_sums("t", marks)
            except InputError as exc:
                got = str(exc)
        expected = fsums_or_message(marks)
        hexed = [[x.hex() for x in r] if isinstance(r, tuple) else r for r in (got, expected)]
        assert hexed[0] == hexed[1]  # bit for bit: -0.0 is not 0.0


class TestPeakMemory:
    """Marks are held at their final size, 16 bytes each, and a draw adds
    the temporaries of one chunk, however long it is."""

    def test_trace_read_holds_one_array(self, tmp_path):
        lines = 2**16
        rng = np.random.default_rng(5)
        marks = zip(rng.exponential(0.9, lines).tolist(), rng.exponential(1.0, lines).tolist())
        p = tmp_path / "marks.trace"
        p.write_text("# sigma xi\n" + "".join(f"{s!r} {x!r}\n" for s, x in marks))
        _read_trace(str(p))  # numpy's reader and its imports are warm
        peak = traced_peak(lambda: _read_trace(str(p)))
        assert peak <= 1.4 * 16 * lines, peak / (16 * lines)

    # A chunk of 2**15 marks of one seed holds about 60 bytes per mark of
    # temporaries for these iid laws, and about 75 for the Markov model,
    # whose draw keeps its state path, offsets and uniforms.
    @pytest.mark.parametrize(
        "model,chunk_bytes", [(MM1, 2 * 2**20), (THREE_STATE, 3 * 2**20)], ids=["iid", "markov"]
    )
    def test_generate_holds_the_marks_and_one_chunk(self, model, chunk_bytes):
        length = 2**17
        generate(model, 1, 5)  # Philox's lazy imports are done
        peak = traced_peak(lambda: generate(model, 1, length))
        assert peak <= 16 * length + chunk_bytes, (peak - 16 * length) / 2**20


class TestStability:
    def test_verdicts(self):
        assert stability_check(MM1, 1) is StabilityVerdict.STABLE
        lam2 = IIDModel(Exponential(0.5), Exponential(2.0))  # work 2 per 0.5 time
        assert stability_check(lam2, 2) is StabilityVerdict.UNSTABLE
        assert stability_check(lam2, 8) is StabilityVerdict.STABLE
        knife = IIDModel(Deterministic(2.0), Deterministic(1.0))
        assert stability_check(knife, 2) is StabilityVerdict.CRITICAL
