"""Backward stationary construction: monotonicity, convergence, refusals."""

import hashlib
import math

import numpy as np
import pytest

import jswsim.loynes as loynes
from formulas import backward_marks, loynes_iterate
from jswsim.errors import StabilityError
from jswsim.loynes import estimate_stationary, estimate_stationary_many
from jswsim.orderings import prec
from jswsim.processes import Deterministic, Exponential, IIDModel, TraceModel, generate
from jswsim.profiles import _LOCKSTEP_MIN_ROWS, pth_step

MM1_HALF = IIDModel(Exponential(1.0), Exponential(0.5))  # load 0.25 on 2 servers


def marks_from_pairs(pairs):
    # tiny helper: a real MarkSequence whose draws are the given pairs,
    # via a trace file is overkill; reuse generate's machinery instead
    import jswsim.processes as proc

    sigma = np.array([p[0] for p in pairs], dtype=np.float64)
    xi = np.array([p[1] for p in pairs], dtype=np.float64)
    return proc.MarkSequence(sigma=sigma, xi=xi)


class TestBackwardFold:
    def test_empty_past_is_zero_profile(self):
        assert loynes_iterate(marks_from_pairs([]), 3) == (0.0, 0.0, 0.0)

    def test_single_server_example(self):
        # fold (3,1) then (0,1) from empty: (0)->(2)->(1)
        marks = marks_from_pairs([(3.0, 1.0), (0.0, 1.0)])
        assert loynes_iterate(marks, 1) == (1.0,)

    def test_backward_marks_reverses_generation(self):
        fwd = generate(MM1_HALF, 11, 64)
        back = backward_marks(MM1_HALF, 11, 64)
        assert np.array_equal(back.sigma, fwd.sigma[::-1])
        assert np.array_equal(back.xi, fwd.xi[::-1])

    def test_monotone_in_window_length(self):
        # growing the window into the older past can only raise the iterate,
        # coordinate by coordinate, with no tolerance
        for seed in range(10):
            prev = None
            for n in (1, 2, 3, 7, 16, 33, 64):
                cur = loynes_iterate(backward_marks(MM1_HALF, seed, n), 2)
                if prev is not None:
                    assert prec(prev, cur), (seed, n)
                prev = cur

    def test_recent_past_is_shared(self):
        # the last marks folded are the same for every window length
        a = backward_marks(MM1_HALF, 3, 8)
        b = backward_marks(MM1_HALF, 3, 32)
        assert np.array_equal(a.sigma[-8:], b.sigma[-8:])
        assert np.array_equal(a.xi[-8:], b.xi[-8:])


class TestEstimate:
    def test_converges_at_light_load(self):
        res = estimate_stationary(MM1_HALF, 1, 2)
        assert res.converged
        assert res.last_increment <= 1e-6
        assert len(res.profile) == 2
        assert all(x >= 0.0 for x in res.profile)

    def test_history_records_doublings(self):
        res = estimate_stationary(MM1_HALF, 1, 2, window=16, keep_history=True)
        ns = [n for n, _ in res.history]
        assert ns[0] == 16
        assert all(b == 2 * a for a, b in zip(ns, ns[1:]))
        assert ns[-1] == res.steps_used
        assert res.history[-1][1] == res.profile
        for (_, a), (_, b) in zip(res.history, res.history[1:]):
            assert prec(a, b)

    def test_refuses_unstable(self):
        heavy = IIDModel(Exponential(0.5), Exponential(2.0))
        with pytest.raises(StabilityError):
            estimate_stationary(heavy, 1, 2)

    def test_refuses_critical(self):
        knife = IIDModel(Deterministic(2.0), Deterministic(1.0))
        with pytest.raises(StabilityError):
            estimate_stationary(knife, 1, 2)

    def test_rank_shrinks_effective_capacity(self):
        # stable on two servers, but rank-2 arrivals only ever see one
        model = IIDModel(Deterministic(1.6), Deterministic(1.0))
        assert estimate_stationary(model, 1, 2).converged
        with pytest.raises(StabilityError):
            estimate_stationary(model, 1, 2, rank=2)

    def test_non_convergence_reports_last_iterate(self):
        # seed 12 keeps finding new maxima through n=64 at this load
        heavy = IIDModel(Exponential(1.0), Exponential(0.9))  # load 0.9
        res = estimate_stationary(heavy, 12, 1, tolerance=1e-9, window=16, max_n=64)
        assert not res.converged
        assert res.steps_used == 64
        assert res.last_increment > 1e-9
        assert res.profile[0] > 0.0

    def test_single_evaluation_never_converges(self):
        res = estimate_stationary(MM1_HALF, 1, 2, window=64, max_n=64)
        assert not res.converged
        assert math.isinf(res.last_increment)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_stationary(MM1_HALF, 1, 2, tolerance=0.0)
        with pytest.raises(ValueError):
            estimate_stationary(MM1_HALF, 1, 2, window=0)
        with pytest.raises(ValueError):
            estimate_stationary(MM1_HALF, 1, 2, window=128, max_n=64)

    def test_deterministic_given_seed(self):
        a = estimate_stationary(MM1_HALF, 77, 3)
        b = estimate_stationary(MM1_HALF, 77, 3)
        assert a.profile == b.profile and a.steps_used == b.steps_used

    def test_one_trace_seed_is_the_formulas_replay(self, tmp_path):
        # The 2^14 most recent marks load two servers to 1.3 and the older
        # ones to 0.5, so no two depths agree before n = 2^15. Depths 2^14
        # and 2^15 replay their one row a walk chunk or more at a time, as
        # time-blocked paths.
        rng = np.random.default_rng(0)
        lines = 2**15
        sigma = rng.exponential(1.0, lines)
        xi = rng.exponential(1.0, lines) / np.where(np.arange(lines) < 2**14, 2.6, 1.0)
        path = tmp_path / "marks.trace"
        path.write_text("".join(f"{s!r} {x!r}\n" for s, x in zip(sigma.tolist(), xi.tolist())))
        model = TraceModel(str(path))
        res = estimate_stationary(model, 5, 2, window=2**12, max_n=lines, keep_history=True)
        depths = [2**12, 2**13, 2**14, 2**15]
        expected = tuple((n, loynes_iterate(backward_marks(model, 5, n), 2)) for n in depths)
        assert res.steps_used == lines
        assert repr(res.history) == repr(expected)
        assert repr(res.profile) == repr(expected[-1][1])


class TestManySeeds:
    """The lockstep estimator gives every seed the result it gets alone."""

    # load 0.9 on the two queues a rank-2 arrival can join; at max_n = 64
    # some seeds stop at each depth and some are not converged
    MODEL = IIDModel(Exponential(1.0), Exponential(1.8))
    ARGS = dict(servers=3, rank=2, tolerance=1e-6, window=8, max_n=64, keep_history=True)

    @staticmethod
    def _fields(res):
        return (res.profile, res.steps_used, res.converged, repr(res.last_increment), res.history)

    @pytest.mark.parametrize("pass_marks", [2**14, 256])
    def test_equals_one_seed_at_a_time(self, pass_marks, monkeypatch):
        # 256 marks per pass splits the early depths into several lockstep
        # passes and replays n = 64 in passes of four seeds, seed by seed
        monkeypatch.setattr(loynes, "_PASS_MARKS", pass_marks)
        calls = []
        kernel = loynes.lockstep_profiles
        monkeypatch.setattr(
            loynes, "lockstep_profiles", lambda *a: calls.append(a[0].shape) or kernel(*a)
        )
        seeds = list(range(1, 41))
        many = estimate_stationary_many(self.MODEL, seeds, **self.ARGS)
        # every pass calls the kernel; a call this large steps its rows as one array
        assert max(rows for rows, _ in calls) >= _LOCKSTEP_MIN_ROWS, "the array kernel was not used"
        one = [estimate_stationary(self.MODEL, s, **self.ARGS) for s in seeds]
        assert [self._fields(r) for r in many] == [self._fields(r) for r in one]
        assert {r.steps_used for r in many} == {16, 32, 64}
        assert 0 < sum(not r.converged for r in many) < len(seeds)

    # sha256 of the repr of every seed's fields for seeds 1..40 under ARGS,
    # recorded before the passes drew their marks in one block
    DIGEST_1_40 = "40ad9f96f66d865fbc1b77b75839ebf9dfb9d235fb5c7334b4d51b62a130c10c"

    # (marks per pass, rows per chunk at least): the defaults, which hold
    # each depth in one chunk, and small ones, which cut every depth into
    # chunks of 5 to 12 rows, one of them across the row where the 8-deep
    # replay joins the 16-deep one
    @pytest.mark.parametrize(
        "pass_marks,min_rows", [(loynes._PASS_MARKS, loynes._MIN_CHUNK_ROWS), (100, 5)]
    )
    def test_chunks_tile_each_depth_oldest_first(self, pass_marks, min_rows, monkeypatch):
        monkeypatch.setattr(loynes, "_PASS_MARKS", pass_marks)
        monkeypatch.setattr(loynes, "_MIN_CHUNK_ROWS", min_rows)
        draws = {}
        generate_chunks = loynes.generate_chunks

        def recording_chunks(model, seeds, length, rows):
            for lo, sigma, xi in generate_chunks(model, seeds, length, rows):
                assert sigma.size <= pass_marks
                for seed in seeds:
                    draws.setdefault(seed, []).append((lo, lo + len(sigma)))
                yield lo, sigma, xi

        monkeypatch.setattr(loynes, "generate_chunks", recording_chunks)
        kernel_rows = []
        kernel = loynes.lockstep_profiles
        monkeypatch.setattr(
            loynes, "lockstep_profiles", lambda *a: kernel_rows.append(len(a[0])) or kernel(*a)
        )
        many = estimate_stationary_many(self.MODEL, range(1, 41), **self.ARGS)
        assert max(kernel_rows) >= _LOCKSTEP_MIN_ROWS, "the array kernel was not used"
        # 40 seeds at n = 8 and 16, the 14 still running at n = 32, the 8 at n = 64
        running = [(sum(n in dict(r.history) for r in many), n) for n in (8, 16, 32, 64)]
        assert running == [(40, 8), (40, 16), (14, 32), (8, 64)]
        for seed, res in zip(range(1, 41), many):
            # the first draw serves n = 8 and n = 16; each later depth has its own
            depths = [n for n, _ in res.history if n > self.ARGS["window"]]
            calls = iter(draws[seed])
            for n in depths:
                hi = n
                while hi > 0:
                    lo, top = next(calls)
                    assert top == hi and 0 <= lo < hi, (seed, n, lo, top)
                    hi = lo
            assert next(calls, None) is None, seed
        text = repr([(r.profile, r.steps_used, r.converged, r.last_increment, r.history)
                     for r in many])
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST_1_40

    def test_deep_replay_stays_in_lockstep(self, monkeypatch):
        # 8 seeds at n = 2^13 and 2^14: a pass of all eight, in chunks
        kernel_rows = []
        kernel = loynes.lockstep_profiles
        monkeypatch.setattr(
            loynes, "lockstep_profiles", lambda *a: kernel_rows.append(len(a[0])) or kernel(*a)
        )
        model = IIDModel(Exponential(1.0), Exponential(0.55))
        args = dict(servers=2, tolerance=1e-12, window=2**13, max_n=2**14)
        seeds = list(range(8))
        many = estimate_stationary_many(model, seeds, **args)
        assert set(kernel_rows) == {8, 16}
        one = [estimate_stationary(model, s, **args) for s in seeds]
        assert [self._fields(r) for r in many] == [self._fields(r) for r in one]
        assert {r.steps_used for r in many} == {2**14}

    def test_one_depth_stops_every_seed_unconverged(self):
        # 2 * window > max_n: each seed is replayed at one depth, with no
        # increment to compare
        args = dict(self.ARGS, window=16, max_n=31)
        many = estimate_stationary_many(self.MODEL, range(1, 21), **args)
        assert [(r.steps_used, r.converged, r.last_increment) for r in many] == [
            (16, False, math.inf)
        ] * 20
        assert all(r.converged is False and len(r.history) == 1 for r in many)

    def test_a_seed_stops_when_its_increment_equals_the_tolerance(self):
        # the stop rule is increment <= tolerance, decided at depth 2 * window
        seeds = list(range(1, 11))
        first = estimate_stationary_many(self.MODEL, seeds, **dict(self.ARGS, max_n=16))
        (_, a), (_, b) = first[4].history
        t = max(abs(x - y) for x, y in zip(b, a))
        assert 0.0 < t < math.inf
        at = estimate_stationary_many(self.MODEL, seeds, **dict(self.ARGS, tolerance=t))[4]
        assert (at.steps_used, at.converged, at.last_increment) == (16, True, t)
        below = dict(self.ARGS, tolerance=math.nextafter(t, 0.0))
        assert estimate_stationary_many(self.MODEL, seeds, **below)[4].steps_used > 16

    def test_seed_order_and_repeats(self):
        seeds = [9, 3, 9, 1, 4, 7]
        many = estimate_stationary_many(self.MODEL, seeds, **self.ARGS)
        assert [self._fields(r) for r in many] == [
            self._fields(estimate_stationary(self.MODEL, s, **self.ARGS)) for s in seeds
        ]

    def test_no_seeds(self):
        assert estimate_stationary_many(MM1_HALF, [], 2) == []

    def test_rank_outside_servers_is_refused(self):
        with pytest.raises(ValueError):
            estimate_stationary_many(MM1_HALF, range(8), 2, rank=0)


class TestStationarity:
    """A converged estimate should behave like a fixed point in law: a
    forward run started there has no transient, so early and late stretches
    of the offered-wait series are draws from the same distribution."""

    @staticmethod
    def _offered_waits(model, start, mark_seed, n):
        marks = generate(model, mark_seed, n)
        state = tuple(start)
        waits = []
        for s_, x_ in zip(marks.sigma.tolist(), marks.xi.tolist()):
            waits.append(state[0])
            state = pth_step(state, (s_, x_), 1)
        return waits

    def test_no_transient_from_converged_start(self):
        from scipy import stats

        model = IIDModel(Exponential(1.0), Exponential(1.0))
        est = estimate_stationary(model, 2, 2)
        assert est.converged and est.profile[0] > 0.0
        n = 20_000
        # the series is autocorrelated, so the bar sits well above the
        # iid two-sample KS band; all mark seeds are pinned
        for mark_seed in (7, 99, 2024):
            waits = self._offered_waits(model, est.profile, mark_seed, n)
            ks = stats.ks_2samp(waits[: n // 10], waits[-n // 10 :])
            assert ks.statistic < 0.1, (mark_seed, ks.statistic)

    def test_cold_start_fails_the_same_check(self):
        # sensitivity control: a start far from stationarity leaves a
        # transient in the first tenth that the KS statistic must see
        from scipy import stats

        model = IIDModel(Exponential(1.0), Exponential(1.0))
        n = 20_000
        waits = self._offered_waits(model, (400.0, 400.0), 7, n)
        ks = stats.ks_2samp(waits[: n // 10], waits[-n // 10 :])
        assert ks.statistic > 0.25
