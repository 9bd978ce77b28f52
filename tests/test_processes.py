"""Mark generation: laws, reproducibility, modulation, traces, stability."""

import dataclasses
import decimal
import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats
from formulas import log1p_fdlibm
from hypothesis import given, settings, strategies as st

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
    _LOG_CHUNK,
    _log1m,
    _markov_states,
    _uniforms,
    generate,
    generate_chunks,
    generate_many,
    mean_sigma,
    mean_xi,
    model_label,
    stability_check,
)

MM1 = IIDModel(Exponential(1.0), Exponential(0.5))


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
            lambda: generate_many(MM1, [1, seed], 3),
            lambda: next(generate_chunks(MM1, [seed], 3, 2)),
            lambda: next(generate_chunks(THREE_STATE, [seed], 3, 2)),
            lambda: jswsim.estimate_stationary_many(MM1, [1, seed], 2, window=4, max_n=8),
        ):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                call()

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


class TestBlockGeneration:
    """``generate_many`` columns are the per-seed ``generate`` marks, bit for bit."""

    @staticmethod
    def assert_columns_match(model, seeds, length):
        sigma, xi = generate_many(model, seeds, length)
        assert sigma.shape == xi.shape == (length, len(seeds))
        assert sigma.dtype == xi.dtype == np.float64
        for r, seed in enumerate(seeds):
            marks = generate(model, seed, length)
            assert np.array_equal(bits(sigma[:, r]), bits(marks.sigma)), (seed, "sigma")
            assert np.array_equal(bits(xi[:, r]), bits(marks.xi)), (seed, "xi")

    @pytest.mark.parametrize("length", [1, 7, 64])
    @pytest.mark.parametrize("xi_law", LAWS, ids=lambda law: type(law).__name__)
    @pytest.mark.parametrize("sigma_law", LAWS, ids=lambda law: type(law).__name__)
    def test_iid_columns(self, sigma_law, xi_law, length):
        self.assert_columns_match(IIDModel(sigma_law, xi_law), BLOCK_SEEDS, length)

    @pytest.mark.parametrize("length", [1, 7, 64])
    def test_markov_columns(self, length):
        self.assert_columns_match(THREE_STATE, BLOCK_SEEDS, length)

    def test_trace_columns_are_shared(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("".join(f"{0.5 + k} {1.0 + k / 8}\n" for k in range(64)))
        model = TraceModel(str(p))
        for length in (1, 7, 64):
            self.assert_columns_match(model, BLOCK_SEEDS, length)
        sigma, _ = generate_many(model, BLOCK_SEEDS, 7)
        assert sigma.strides[1] == 0 and not sigma.flags.writeable

    def test_leftover_words_do_not_leak_between_seeds(self):
        # three words per mark: seven marks leave words of the last Philox
        # block buffered, which must not start the next seed's stream
        model = IIDModel(Hyperexponential((0.4, 0.6), (1.0, 3.0)), Exponential(1.8))
        seeds = [5, 5, 6, 2**64 - 1, 6]
        self.assert_columns_match(model, seeds, 7)
        sigma, _ = generate_many(model, seeds, 7)
        assert np.array_equal(bits(sigma[:, 0]), bits(sigma[:, 1]))
        assert np.array_equal(bits(sigma[:, 2]), bits(sigma[:, 4]))

    def test_block_spans_several_log1p_chunks(self):
        # 2 x (_LOG_CHUNK + 7) draws per law in the block, three passes of
        # the array logarithm; two in each one-seed call
        self.assert_columns_match(IIDModel(LAWS[3], LAWS[0]), [1, 2], _LOG_CHUNK + 7)

    def test_uniforms_reset_between_streams(self):
        bitgen = np.random.Philox(key=0)
        _uniforms(bitgen, 3, 0, 5)  # leaves three of four block words buffered
        for seed, stream in ((2**63 + 9, 1), (3, 0)):
            key = np.array([seed % 2**64, stream], dtype=np.uint64)
            raw = np.random.Philox(key=key).random_raw(11)
            fresh = ((raw >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
            assert np.array_equal(bits(_uniforms(bitgen, seed, stream, 11)), bits(fresh))

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
            generate_many(MM1, [1, 2], 0)


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
        u = _uniforms(np.random.Philox(key=0), 5, 0, length)
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
    """Marks from a start offset are the slice of a longer draw, bit for bit."""

    @staticmethod
    def assert_slice(model, seeds, length, start):
        sigma, xi = generate_many(model, seeds, length, start)
        longer_sigma, longer_xi = generate_many(model, seeds, start + length)
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
                generate_many(model, [1], length, start)
        else:
            self.assert_slice(model, BLOCK_SEEDS, length, start)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            generate_many(MM1, [1], 4, -1)

    @pytest.mark.parametrize("rows", [5, 500, _CHUNK, 3 * _CHUNK])
    def test_chunks_tile_oldest_first(self, rows, tmp_path):
        # 2 * _CHUNK + 5 marks: the Markov checkpoints fall on both sides of
        # its walk's _CHUNK boundaries
        p = tmp_path / "marks.txt"
        n = 2 * _CHUNK + 5
        p.write_text("".join(f"{k % 5} {1 + k % 3}\n" for k in range(n)))
        models = [THREE_STATE, IIDModel(LAWS[3], LAWS[0]), TraceModel(str(p))]
        for model in models:
            sigma, xi = generate_many(model, BLOCK_SEEDS, n)
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


def scalar_states(start, rows, u):
    """State path with one scalar pick per uniform, the reference for _markov_states."""
    state = pick_state(start, u[0])
    states = [state]
    for x in u[1:]:
        state = pick_state(rows[state], x)
        states.append(state)
    return states


# Transition entries: exact zeros, values whose running sums tie, arbitrary
# floats. Rows are not normalised, so running sums may end below 1.
ENTRY = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.2, 0.25, 0.5]), st.floats(0.0, 1.0))


class TestMarkovStatePath:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=k + 1, max_size=k + 1)
        ),
        st.sampled_from([1, 2, 3, 100, 4095, 4096, 4097, 4098, 8193]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_picks(self, probs, length, seed):
        cums = [tuple(itertools.accumulate(p)) for p in probs]
        start, rows = cums[0], cums[1:]
        rng = np.random.default_rng(seed)
        u = rng.random(length)
        # a third of the uniforms hit a running sum exactly or lie past them all
        edges = np.array(sorted({c for cum in cums for c in cum} | {max(cums[0][-1], 1.0)}))
        at = rng.random(length) < 1 / 3
        u[at] = rng.choice(edges, int(at.sum()))
        assert _markov_states(start, rows, u) == scalar_states(start, rows, u.tolist())

    def test_zero_entries_and_short_rows(self):
        # Row 0 never stays (a zero entry). Row 1 never moves to state 1 and
        # sums to 0.75, so u = 0.75 falls past it and picks the last state.
        rows = [(0.0, 1.0, 1.0), (0.5, 0.5, 0.75), (0.0, 0.0, 1.0)]
        u = np.array([0.3, 0.2, 0.9, 0.1, 0.5, 0.75, 0.999])
        expected = [1, 0, 1, 0, 1, 2, 2]
        assert _markov_states((0.25, 0.5, 1.0), rows, u) == expected
        assert scalar_states((0.25, 0.5, 1.0), rows, u.tolist()) == expected


class TestTraces:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "marks.txt"
        p.write_text("# demo\n3.0 1.0\n0.5 2.0  # inline note\n\n")
        model = TraceModel(str(p))
        marks = generate(model, 999, 2)  # seed is irrelevant for traces
        assert list(marks.sigma) == [3.0, 0.5]
        assert list(marks.xi) == [1.0, 2.0]
        assert mean_sigma(model) == 1.75

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

        from jswsim.loynes import estimate_stationary

        p = tmp_path / "marks.txt"
        p.write_text("".join(f"{1.0 + (k % 3) * 0.25} 1.5\n" for k in range(4096)))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        res = estimate_stationary(TraceModel(str(p)), 1, 2, window=64, max_n=4096)
        assert res.steps_used >= 128  # means plus at least two depths
        assert opened.count(str(p)) == 1

    def test_missing_file(self):
        with pytest.raises(InputError):
            generate(TraceModel("/nonexistent/trace.txt"), 0, 1)


class TestStability:
    def test_verdicts(self):
        assert stability_check(MM1, 1) is StabilityVerdict.STABLE
        lam2 = IIDModel(Exponential(0.5), Exponential(2.0))  # work 2 per 0.5 time
        assert stability_check(lam2, 2) is StabilityVerdict.UNSTABLE
        assert stability_check(lam2, 8) is StabilityVerdict.STABLE
        knife = IIDModel(Deterministic(2.0), Deterministic(1.0))
        assert stability_check(knife, 2) is StabilityVerdict.CRITICAL
