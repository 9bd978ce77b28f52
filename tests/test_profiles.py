"""Profile arithmetic and the one-step workload recursion."""

import functools
import math
import operator
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import traced_peak
from formulas import rank_waiting_times, sort_formula_step
from hypothesis import given, settings, strategies as st

import jswsim.profiles
from jswsim.comparison import SystemConfig, compare_allocation_ranks, fcfs_waiting_times
from jswsim.loynes import estimate_stationary_many
from jswsim.orderings import prec_p
from jswsim.processes import _SCRATCH, Exponential, IIDModel, MarkSequence, generate
from jswsim.profiles import (
    _PATH_CHUNK,
    Mark,
    iter_profiles,
    pad,
    path_profiles,
    pth_step,
    total_workload,
    zero_profile,
)

# Small strategy toolkit. Workloads stay in a modest range; what matters
# for the recursion is ordering and clamping, not magnitude.
coords = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
profiles = st.lists(coords, min_size=1, max_size=9).map(lambda xs: tuple(sorted(xs)))
marks = st.tuples(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=1e-3, max_value=20.0),
).map(lambda t: Mark(*t))


class TestStepExamples:
    # hand-computed single steps
    def test_two_servers_from_empty(self):
        assert pth_step((0.0, 0.0), Mark(1.0, 0.4), 1) == (0.0, 0.6)

    def test_three_servers_interior(self):
        assert pth_step((1.0, 2.0, 3.0), Mark(2.0, 1.0), 1) == (1.0, 2.0, 2.0)

    def test_clamp_dominates(self):
        assert pth_step((5.0,), Mark(0.0, 10.0), 1) == (0.0,)

    def test_ranked_step(self):
        assert pth_step((1.0, 2.0, 3.0), Mark(2.0, 1.0), 2) == (0.0, 2.0, 3.0)

    def test_two_step_trajectory(self):
        u = zero_profile(2)
        u = pth_step(u, Mark(1.0, 0.4), 1)
        assert u == (0.0, 0.6)
        u = pth_step(u, Mark(1.0, 0.4), 1)
        assert u == pytest.approx((0.2, 0.6), abs=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            pth_step((0.0, 0.0), Mark(1.0, 1.0), 0)
        with pytest.raises(ValueError):
            pth_step((0.0, 0.0), Mark(1.0, 1.0), 3)
        with pytest.raises(ValueError):
            pth_step((), Mark(1.0, 1.0), 1)


class TestHelpers:
    def test_pad_prepends_zeros(self):
        assert pad((1.0, 3.0), 4) == (0.0, 0.0, 1.0, 3.0)
        assert pad((1.0, 3.0), 2) == (1.0, 3.0)

    def test_pad_rejects_shrinking(self):
        with pytest.raises(ValueError):
            pad((1.0, 3.0), 1)

    def test_zero_profile(self):
        assert zero_profile(3) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            zero_profile(0)

    def test_totals_and_wait(self):
        assert total_workload((0.25, 0.5, 1.0)) == 1.75


class TestStepProperties:
    @given(profiles, marks)
    def test_output_sorted_nonnegative(self, u, m):
        out = pth_step(u, m, 1)
        assert len(out) == len(u)
        assert all(x >= 0.0 for x in out)
        assert list(out) == sorted(out)
        # clamping never produces a negative zero
        assert all(math.copysign(1.0, x) > 0 for x in out)

    @given(profiles, marks, st.integers(min_value=1, max_value=9))
    def test_ranked_output_sorted_nonnegative(self, u, m, rank):
        if rank > len(u):
            rank = len(u)
        out = pth_step(u, m, rank)
        assert all(x >= 0.0 for x in out)
        assert list(out) == sorted(out)

    @given(profiles, marks)
    def test_monotone_in_state(self, u, m):
        # coordinatewise monotonicity of the one-step map
        v = tuple(x + 0.5 for x in u)
        a, b = pth_step(u, m, 1), pth_step(v, m, 1)
        assert all(x <= y for x, y in zip(a, b))

    @given(profiles, marks)
    def test_sup_norm_contraction_in_state(self, u, m):
        # the map is 1-Lipschitz for the sup norm
        v = tuple(x + 0.25 for x in u)
        a, b = pth_step(u, m, 1), pth_step(v, m, 1)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 0.25 + 1e-12

    @given(profiles, marks, st.integers(min_value=1, max_value=9))
    def test_padding_commutes_with_ranked_step(self, u, m, rank):
        # an always-idle extra server leaves a zero at the front, so the
        # rank+1 step on the padded profile is the rank step on the original
        if rank > len(u):
            rank = len(u)
        wide = pth_step(pad(u, len(u) + 1), m, rank + 1)
        assert wide == pad(pth_step(u, m, rank), len(u) + 1)

    @given(profiles, st.floats(min_value=0.0, max_value=20.0))
    def test_zero_interarrival_adds_exactly(self, u, sigma):
        out = pth_step(u, Mark(sigma, 1e-309), len(u))
        assert total_workload(out) == pytest.approx(
            total_workload(u) + sigma, rel=1e-12
        )


def _bits(rows):
    # float.hex tells -0.0 from +0.0, which == does not
    return [tuple(float.hex(x) for x in row) for row in rows]


# Few distinct values, so that ties, sigma = 0 and xi equal to a coordinate
# (exact zeros before the clamp) come up often; -0.0 tests the clamp's sign.
tie_coords = st.sampled_from([-0.0, 0.0, 0.25, 1.0, 1.5, 3.0]) | coords


class TestInsertionStep:
    """pth_step moves coordinate rank into place instead of sorting; the
    floats must be those of the sort formula, bit for bit."""

    @pytest.mark.parametrize("servers", range(1, 9))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sort_formula(self, servers, data):
        u = tuple(sorted(data.draw(st.lists(tie_coords, min_size=servers, max_size=servers))))
        sigma = data.draw(st.sampled_from([0.0, 0.25, 1.0]) | marks.map(lambda m: m.sigma))
        # xi equal to a coordinate, or to a coordinate plus sigma, clamps to exact zeros
        xi = data.draw(
            st.sampled_from(u)
            | st.sampled_from([x + sigma for x in u])
            | st.sampled_from([0.0, 0.25, 1e-3])
            | marks.map(lambda m: m.xi)
        )
        for rank in range(1, servers + 1):
            expected = sort_formula_step(u, (sigma, xi), rank)
            assert _bits([pth_step(u, Mark(sigma, xi), rank)]) == _bits([expected]), rank

    @pytest.mark.parametrize("servers,rank", [(1, 1), (3, 1), (3, 3), (8, 1), (8, 5)])
    @settings(max_examples=30, deadline=None)
    @given(
        start=st.lists(tie_coords, min_size=8, max_size=8),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.5]) | coords, st.sampled_from([0.0, 0.5]) | coords
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_iter_profiles_matches_sort_formula(self, servers, rank, start, steps):
        u = tuple(sorted(start[:servers]))
        expected = [u]
        for mark in steps:
            expected.append(sort_formula_step(expected[-1], mark, rank))
        sigma, xi = (np.array(col) for col in zip(*steps))
        got = list(iter_profiles(u, SimpleNamespace(sigma=sigma, xi=xi), rank))
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize(
        "bad", [(2.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 1.0, math.inf), (0.0, math.nan, 1.0)]
    )
    def test_profile_must_be_sorted_finite_nonnegative(self, bad):
        # an unsorted start once sent the arrival to the 2.0 queue
        with pytest.raises(ValueError):
            pth_step(bad, Mark(1.0, 0.0), 1)
        with pytest.raises(ValueError):
            iter_profiles(bad, SimpleNamespace(sigma=np.ones(2), xi=np.ones(2)), 1)

    def test_signed_zeros_are_accepted(self):
        assert _bits([pth_step((0.0, -0.0), Mark(0.0, 0.0), 2)]) == _bits([(0.0, 0.0)])


# Starts with ties, zeros of both signs and queues near the largest float;
# sigma with both zeros; gaps from the least subnormal to 1e300, and equal
# to a queue, so that it clamps to an exact zero. Marks near the largest
# float push a queue to inf, where it stays.
row_coords = st.sampled_from([-0.0, 0.0, 0.25, 1.0, 1.5, 1e308, 1.7e308]) | coords
row_sigmas = st.sampled_from([0.0, -0.0, 0.25, 1.0, 1e308]) | st.floats(0.0, 1e300)
row_gaps = st.sampled_from([5e-324, 0.25, 1.0, 1.5, 1e300]) | st.floats(5e-324, 1e300)


def advance(start, sigma, xi, rank):
    """The final profiles of R systems from the rows of the ``(R, S)``
    ``start``, stepped through the ``(n, R)`` marks by ``profiles._advance``
    as one replay, an ``(S, 1, R)`` state, with a scratch of ``_SCRATCH``
    floats: the rows of an ``(R, S)`` array. The state starts from
    ``start + 0.0``, as a replay holds no -0.0."""
    state = np.array(np.transpose(start)[:, None] + 0.0, order="C")
    jswsim.profiles._advance(state, sigma, xi, rank, np.empty(_SCRATCH))
    return state[:, 0].T


@pytest.mark.parametrize("servers", range(1, 9))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_loop_matches_step(servers, data):
    # every rank's generated loop against the chain of _step calls, and the
    # row branch of _advance, one row of fewer than _PATH_CHUNK marks,
    # against iter_profiles
    start = tuple(sorted(data.draw(st.lists(row_coords, min_size=servers, max_size=servers))))
    steps = data.draw(st.lists(st.tuples(row_sigmas, row_gaps), min_size=1, max_size=30))
    sigma, xi = (list(column) for column in zip(*steps))
    for rank in range(1, servers + 1):
        expected = [start]
        for s, x in steps:
            expected.append(jswsim.profiles._step(expected[-1], s, x, rank))
        rows = []
        last = jswsim.profiles._row_loop(servers, rank)(start, sigma, xi, rows)
        assert _bits([last]) == _bits(expected[-1:]), rank
        got, want = np.array(rows).view(np.uint64), np.ravel(expected[1:]).view(np.uint64)
        assert np.array_equal(got, want), rank
        columns = np.array(sigma)[:, None], np.array(xi)[:, None]
        final = advance(np.array([start]), *columns, rank)
        marks = SimpleNamespace(sigma=columns[0][:, 0], xi=columns[1][:, 0])
        reference = deque(iter_profiles(start, marks, rank), maxlen=1)[0]
        assert _bits(final.tolist()) == _bits([reference]), rank


class TestLockstep:
    """The (S, 1, R) replay of the array kernel, through _advance, against
    pth_step, bit for bit."""

    # rows per call from which the kernel steps them as one array: every call here
    MIN_ROWS = 0

    @pytest.fixture(autouse=True, scope="class")
    def min_rows(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jswsim.profiles, "_LOCKSTEP_MIN_ROWS", request.cls.MIN_ROWS)
            yield

    # past the bench's 8 servers too: the rank-1 view of the other queues
    # and the copy taken at every other rank
    @pytest.mark.parametrize("servers", range(1, 13))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_step_matches_pth_step(self, servers, data):
        systems = data.draw(st.integers(min_value=1, max_value=5))
        rows, sigma, xi = [], [], []
        for _ in range(systems):
            row = tuple(sorted(data.draw(st.lists(tie_coords, min_size=servers, max_size=servers))))
            rows.append(row)
            sigma.append(data.draw(st.sampled_from([0.0, 0.5]) | marks.map(lambda m: m.sigma)))
            xi.append(data.draw(st.sampled_from(row) | st.sampled_from([0.0, 0.25, 1e-3])))
        for rank in range(1, servers + 1):
            out = advance(np.array(rows), np.array([sigma]), np.array([xi]), rank)
            expected = [pth_step(u, Mark(s, x), rank) for u, s, x in zip(rows, sigma, xi)]
            assert _bits(out.tolist()) == _bits(expected), rank

    @pytest.mark.parametrize(
        "servers,rank", [(1, 1), (2, 1), (3, 2), (8, 8), (12, 1), (12, 6), (12, 12)]
    )
    def test_replay_matches_iter_profiles(self, servers, rank):
        rng = np.random.default_rng(servers * 10 + rank)
        n, systems = 300, 7
        sigma = rng.exponential(1.0, (n, systems)) * (rng.random((n, systems)) < 0.8)
        xi = rng.exponential(0.9 / servers, (n, systems))
        final = advance(np.zeros((systems, servers)), sigma, xi, rank)
        expected = [
            list(iter_profiles((0.0,) * servers, SimpleNamespace(sigma=sigma[:, r], xi=xi[:, r]), rank))[-1]
            for r in range(systems)
        ]
        assert _bits(final.tolist()) == _bits(expected)

    @pytest.mark.parametrize("servers,rank", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_two_chunks_chain_into_one_call(self, servers, rank):
        rng = np.random.default_rng(servers * 7 + rank)
        n, systems = 300, 6
        sigma = rng.exponential(1.0, (n, systems))
        xi = rng.exponential(0.9 / servers, (n, systems))
        start = np.sort(rng.exponential(1.0, (systems, servers)), axis=1)
        whole = advance(start, sigma, xi, rank)
        head = advance(start, sigma[:137], xi[:137], rank)
        chained = advance(head, sigma[137:], xi[137:], rank)
        assert _bits(chained.tolist()) == _bits(whole.tolist())

    def test_no_marks_leave_the_state(self):
        start = np.array([[0.0, 0.0, 1.5], [0.25, 2.0, 2.0]])
        out = advance(start, np.empty((0, 2)), np.empty((0, 2)), 2)
        assert _bits(out.tolist()) == _bits(start.tolist())

    def test_signed_zero_sigma_gives_positive_zeros(self):
        # 0.0 + -0.0 is 0.0, and every queue is aged by a zero gap: the
        # state stays +0.0, as _step gives it
        start = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        out = advance(start, np.full((3, 2), -0.0), np.zeros((3, 2)), 1)
        assert _bits(out.tolist()) == _bits([(0.0, 0.0, 0.0), (0.0, 0.0, 2.0)])

    # R systems over 2**16 arrivals, the marks of each array 4.2 and 8.4 MB:
    # the kernel steps them through the given scratch, and a row of them a
    # walk chunk at a time, so neither holds anything the size of the marks
    @pytest.mark.parametrize("systems,servers", [(8, 8), (16, 2)])
    def test_a_long_replay_allocates_less_than_its_marks(self, systems, servers):
        rng = np.random.default_rng([systems, servers])
        n = 2**16
        sigma = rng.exponential(1.0, (n, systems))
        xi = rng.exponential(2.0 / servers, (n, systems))  # load 0.5
        state, scratch = np.zeros((servers, 1, systems)), np.empty(_SCRATCH)
        peak = traced_peak(lambda: jswsim.profiles._advance(state, sigma, xi, 1, scratch))
        assert peak < sigma.nbytes, peak

    # walk chunks, whole and with a ragged last one, at load 0.5 and 1.5 on
    # the servers a rank-th arrival can join
    @pytest.mark.parametrize("n", [_PATH_CHUNK, _PATH_CHUNK + 37])
    @pytest.mark.parametrize("servers,rank", [(1, 1), (2, 1), (2, 2), (8, 1), (8, 8)])
    @pytest.mark.parametrize("load", [0.5, 1.5])
    def test_long_call_matches_iter_profiles(self, n, servers, rank, load):
        start, sigma, xi = _long_call(n, servers, rank, load)
        final = advance(start, sigma, xi, rank)
        assert _bits(final.tolist()) == _long_call_reference(n, servers, rank, load)


def _long_call(n, servers, rank, load):
    """The start rows and marks of a two-row call of ``n`` arrivals."""
    rng = np.random.default_rng([n, servers, rank, int(10 * load)])
    sigma = rng.exponential(1.0, (n, 2)) * (rng.random((n, 2)) < 0.9)
    xi = rng.exponential(0.9 / (load * (servers - rank + 1)), (n, 2))
    start = np.vstack([np.zeros(servers), np.sort(rng.exponential(3.0, servers))])
    return start, sigma, xi


@functools.cache
def _long_call_reference(n, servers, rank, load):
    start, sigma, xi = _long_call(n, servers, rank, load)
    columns = (SimpleNamespace(sigma=sigma[:, r], xi=xi[:, r]) for r in range(len(start)))
    return _bits(
        deque(iter_profiles(tuple(row), marks, rank), maxlen=1)[0]
        for row, marks in zip(start.tolist(), columns)
    )


class TestLockstepRowByRow(TestLockstep):
    """The same cases with every call stepping its rows one by one: those of
    a walk chunk or more as time-blocked paths."""

    MIN_ROWS = 2**62


@pytest.mark.usefixtures("forced_split")
class TestLockstepSplitPaths:
    """The long calls, their rows stepped as paths cut into blocks of 1 to 3
    arrivals, each pass of them stepped as one array."""

    test_long_call_matches_iter_profiles = TestLockstep.test_long_call_matches_iter_profiles


def test_only_long_few_row_calls_step_as_paths(monkeypatch):
    # a call of fewer than _LOCKSTEP_MIN_ROWS rows steps each row through
    # path_profiles, a walk chunk at a time, once it spans a chunk; shorter
    # calls step one arrival at a time and wider ones as one array
    calls = []
    walk = jswsim.profiles.path_profiles
    monkeypatch.setattr(
        jswsim.profiles, "path_profiles", lambda *a: calls.append(len(a[1])) or walk(*a)
    )
    rng = np.random.default_rng(1)
    wide = jswsim.profiles._LOCKSTEP_MIN_ROWS
    cases = [(1, 128), (wide - 1, 128), (wide, _PATH_CHUNK), (1, _PATH_CHUNK)]
    for systems, n in cases + [(wide - 1, _PATH_CHUNK + 37)]:
        sigma, xi = rng.exponential(1.0, (n, systems)), rng.exponential(1.0, (n, systems))
        advance(np.zeros((systems, 2)), sigma, xi, 1)
    assert calls == [_PATH_CHUNK] + [_PATH_CHUNK, 37] * (wide - 1)


# the stepper's three branches: the array kernel, the row loop and, over a
# walk chunk, the time-blocked path, as (columns from which the kernel
# steps, arrivals)
ADVANCE_BRANCHES = {"kernel": (0, 300), "rows": (2**62, 300), "path": (2**62, _PATH_CHUNK + 37)}


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("scratch", ["one-row", "ragged", "full"])
@pytest.mark.parametrize("branch", sorted(ADVANCE_BRANCHES))
def test_advance_gives_the_same_bits_at_every_scratch_size(branch, scratch, rank, monkeypatch):
    # two replays of three systems, from zeros and from a loaded profile, at
    # each rank of 3 servers (rank 1 steps on a view of the other queues,
    # the others on a copy of them): the kernel copies a scratch-full of
    # rows at a time, one row, 37 rows, which leave a ragged last fill of
    # 300 arrivals, or _SCRATCH floats, which hold them all
    min_rows, n = ADVANCE_BRANCHES[branch]
    monkeypatch.setattr(jswsim.profiles, "_LOCKSTEP_MIN_ROWS", min_rows)
    servers, reps, width = 3, 2, 3
    row = width * (servers * reps + 1)
    size = {"one-row": row, "ragged": 37 * row, "full": _SCRATCH}[scratch]
    rng = np.random.default_rng(n)
    sigma = rng.exponential(1.0, (n, width)) * (rng.random((n, width)) < 0.9)
    xi = rng.exponential(0.6, (n, width))
    starts = np.zeros((reps, width, servers))
    starts[1] = np.sort(rng.exponential(2.0, (width, servers)), axis=1)
    state = np.array(starts.transpose(2, 0, 1), order="C")
    jswsim.profiles._advance(state, sigma, xi, rank, np.empty(size))
    for k, r in np.ndindex(reps, width):
        marks = SimpleNamespace(sigma=sigma[:, r], xi=xi[:, r])
        reference = deque(iter_profiles(tuple(starts[k, r].tolist()), marks, rank), maxlen=1)[0]
        assert _bits([state[:, k, r].tolist()]) == _bits([reference]), (k, r)


def _path_reference(start, sigma, xi, rank):
    marks = SimpleNamespace(sigma=np.array(sigma, float), xi=np.array(xi, float))
    return np.array(list(iter_profiles(start, marks, rank)), float).reshape(-1, len(start))


def _assert_same_path(start, sigma, xi, rank):
    path = path_profiles(start, np.array(sigma, float), np.array(xi, float), rank)
    expected = _path_reference(start, sigma, xi, rank)
    assert path.shape == expected.shape
    assert (path.view(np.uint64) == expected.view(np.uint64)).all()


@pytest.mark.usefixtures("forced_split")
class TestPathProfiles:
    """path_profiles against iter_profiles, bit for bit, with each path cut
    into blocks of 1 to 3 arrivals stepped side by side."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_iter_profiles(self, data):
        servers = data.draw(st.integers(1, 5))
        rank = data.draw(st.integers(1, servers))
        start = tuple(sorted(data.draw(st.lists(tie_coords, min_size=servers, max_size=servers))))
        # zero marks, ties with the coordinates, and lengths that leave the
        # last block ragged or empty
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 20.0),
                    st.sampled_from([0.0, 0.25, 1.0, 1.5]) | st.floats(0.0, 5.0),
                ),
                max_size=40,
            )
        )
        sigma, xi = [p[0] for p in pairs], [p[1] for p in pairs]
        _assert_same_path(start, sigma, xi, rank)

    @pytest.mark.parametrize("servers,rank", [(1, 1), (2, 1), (3, 2), (3, 3)])
    def test_overloaded_blocks_never_merge(self, servers, rank):
        # the workload grows at every arrival, so no block stepped from zeros
        # ever meets its true start and the path is finished in order
        n = 50
        _assert_same_path((0.0,) * servers, [1.0] * n, [0.1] * n, rank)

    def test_signed_zero_start_is_row_zero(self):
        path = path_profiles((-0.0, 0.0, 1.0), np.array([0.5, 0.0]), np.array([0.0, 0.25]), 1)
        assert _bits(path.tolist())[0] == _bits([(-0.0, 0.0, 1.0)])[0]
        _assert_same_path((-0.0, -0.0, 1.0), [0.5, 0.0, 2.0], [0.0, 0.25, 0.0], 2)

    def test_no_marks(self):
        path = path_profiles((0.0, 2.0), np.empty(0), np.empty(0), 2)
        assert path.tolist() == [[0.0, 2.0]]


def test_path_chunks_hold_no_chunk_while_the_next_is_drawn(monkeypatch):
    # a chunk's marks and path are dropped before the next chunk is drawn,
    # and every block is a copy of its rows, a one-column block too, so
    # that no block holds a path
    monkeypatch.setattr(jswsim.profiles, "_PATH_CHUNK", 8)
    monkeypatch.setattr(jswsim.profiles, "_CHUNK", 4)
    whole_path = jswsim.profiles.path_profiles
    held = []

    def path_profiles_kept(*args):
        path = whole_path(*args)
        held.append(weakref.ref(path))
        return path

    monkeypatch.setattr(jswsim.profiles, "path_profiles", path_profiles_kept)
    rng = np.random.default_rng(5)
    sigma, xi = rng.exponential(1.0, 24), rng.exponential(0.6, 24)

    def draw(rows):
        for lo in range(0, len(sigma), rows):
            assert all(ref() is None for ref in held), lo
            chunk = MarkSequence(sigma=sigma[lo : lo + rows].copy(), xi=xi[lo : lo + rows].copy())
            held.append(weakref.ref(chunk.sigma))
            yield chunk
            del chunk

    widths = []
    for _, rows in jswsim.profiles._path_chunks((0.0, 0.0), draw, 1, "run"):
        assert rows.base is None
        widths.append(rows.shape[1])
    assert widths == [4, 4, 1] + [4, 4] * 2 and len(held) == 6


@pytest.mark.parametrize("path_chunk", [1, 7, 2**14])
def test_path_chunks_walk_every_step_once(path_chunk, monkeypatch):
    # the one forward walk, at horizons around whole path_profiles calls
    monkeypatch.setattr(jswsim.profiles, "_PATH_CHUNK", path_chunk)
    rng = np.random.default_rng(path_chunk)
    start, rank = (-0.0, 0.5, 1.0), 2
    for n in sorted({1} | {k * path_chunk + d for k in (1, 2) for d in (-1, 0, 1)} - {0}):
        marks = MarkSequence(sigma=rng.exponential(1.0, n), xi=rng.exponential(0.6, n))
        asked = []

        def draw(rows):
            # the walk asks its marks for chunks of _PATH_CHUNK, lazily
            asked.append(rows)
            return jswsim.profiles._slices(marks)(rows)

        walk = jswsim.profiles._path_chunks(start, draw, rank, "run")
        assert asked == []
        chunks = list(walk)
        assert asked == [path_chunk]
        # one profile per column, each coordinate a contiguous row
        assert all(rows.shape[0] == 3 for _, rows in chunks)
        assert all(rows.flags.c_contiguous for _, rows in chunks)
        assert all(row.flags.c_contiguous for _, rows in chunks for row in rows)
        assert all(1 <= rows.shape[1] <= jswsim.profiles._CHUNK for _, rows in chunks)
        steps = [step + i for step, rows in chunks for i in range(rows.shape[1])]
        assert steps == list(range(n + 1))
        walked = np.concatenate([rows for _, rows in chunks], axis=1).T.view(np.uint64)
        whole = path_profiles(start, marks.sigma, marks.xi, rank).view(np.uint64)
        reference = _path_reference(start, marks.sigma, marks.xi, rank).view(np.uint64)
        assert walked.shape == whole.shape == reference.shape == (n + 1, 3)
        assert (walked == whole).all() and (walked == reference).all()
        assert math.copysign(1.0, chunks[0][1][0, 0]) == -1.0


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_offered_wait_adds_as_reduce_does(chunk, rank):
    # np.add.accumulate seeded with the running sum against the Python
    # adds of functools.reduce, bit for bit, fed as the walk's (S, rows)
    # blocks: profiles scaled by 1e-300 to 1e300 among unscaled ones, whose
    # adds round, with zeros between
    rng = np.random.default_rng(chunk * 10 + rank)
    # a sum past a 1e300 step stays there, so short runs take many draws
    for n in [2 * chunk, 2 * chunk + 3] * (1 if chunk > 100 else 20):
        # 2 * chunk arrivals leave step n alone in the last block
        scale = np.where(rng.random(n + 1) < 0.2, 10.0 ** rng.uniform(-300, 300, n + 1), 1.0)
        coords = rng.random((3, n + 1)) * scale * (rng.random((3, n + 1)) < 0.8)
        path = np.ascontiguousarray(np.sort(coords, axis=0))
        wait = jswsim.profiles._OfferedWait(rank, n, "run")
        blocks = [(step, path[:, step : step + chunk]) for step in range(0, n + 1, chunk)]
        for step, rows in blocks:
            wait.add(step, rows)
        expected = functools.reduce(operator.add, path[rank - 1, :n].tolist(), 0.0)
        if n == 2 * chunk:
            assert blocks[-1][0] == n and blocks[-1][1].shape == (3, 1)
        assert wait.sum.hex() == expected.hex()
        assert wait.mean.hex() == (expected / n).hex()


@pytest.mark.parametrize(
    "servers,rank,xi_rate", [(4, 1, 3.2), (4, 2, 3.9), (2, 1, 1.8), (8, 1, 3.2)]
)
def test_path_profiles_at_full_size(servers, rank, xi_rate):
    # the real block length and row threshold, light and heavy load: fix-up
    # passes stepped as arrays, and paths finished in order
    rng = np.random.default_rng(servers * 10 + rank)
    n = 4000
    sigma, xi = rng.exponential(1.0, n), rng.exponential(1.0 / xi_rate, n)
    _assert_same_path((0.0,) * servers, sigma, xi, rank)
    start = tuple(np.sort(rng.exponential(2.0, servers)).tolist())
    _assert_same_path(start, sigma[:1001], xi[:1001], rank)
    # bursts: gaps cut to 0.3 of their length for 150 of every 600
    # arrivals, so that the in-order tail meets dirty chains with clean
    # blocks between them; 0, 1 and 2 blocks past a multiple of the
    # first pass's classes, the last block ragged
    length, classes = jswsim.profiles._PATH_BLOCK, jswsim.profiles._PATH_CLASSES
    for blocks in range(40 * classes, 40 * classes + 3):
        n = blocks * length - 7
        sigma, xi = rng.exponential(1.0, n), rng.exponential(1.0 / xi_rate, n)
        xi[np.arange(n) % 600 < 150] *= 0.3
        _assert_same_path((0.0,) * servers, sigma, xi, rank)


@pytest.mark.parametrize("servers,rank,xi_rate", [(1, 1, 1.1), (2, 1, 1.8), (3, 2, 2.0)])
def test_in_order_tail_steps_just_the_stale_blocks(servers, rank, xi_rate):
    # A path whose blocks were stepped, in runs, from made-up starts, as
    # array passes leave it. The tail must step exactly the blocks whose
    # recorded start is not their true one, jumping over the rest, and
    # leave the true rows.
    rng = np.random.default_rng(servers)
    length, blocks = jswsim.profiles._PATH_BLOCK, 40
    sig = rng.exponential(1.0, (blocks, length))
    gap = rng.exponential(1.0 / xi_rate, (blocks, length))
    true = _path_reference((0.0,) * servers, sig.ravel(), gap.ravel(), rank)
    true_starts = true[:-1:length]
    body = np.array(true[1:]).reshape(blocks, length, servers)
    starts = np.array(true_starts)
    for first in rng.choice(blocks, 8, replace=False):
        # blocks first .. first + run - 1 stepped in turn from a wrong start
        state = tuple(np.sort(rng.exponential(3.0, servers)).tolist())
        for b in range(first, min(first + rng.integers(1, 4), blocks)):
            starts[b] = state
            body[b] = _path_reference(state, sig[b], gap[b], rank)[1:]
            state = tuple(body[b, -1].tolist())
    stale = set(np.flatnonzero((starts != true_starts).any(axis=1)).tolist())
    ends = np.vstack([true[:1], body[:-1, -1]])
    dirty = np.flatnonzero((starts != ends).any(axis=1))
    # stale blocks reached only by a chain, and dirty ones whose start is
    # made true again by fixing the block before
    assert stale - set(dirty.tolist()) and set(dirty.tolist()) - stale
    stepped = jswsim.profiles._step_blocks_in_order(body, starts, sig, gap, dirty, true[0], rank)
    assert stepped == len(stale) < blocks
    assert (body.reshape(-1, servers).view(np.uint64) == true[1:].view(np.uint64)).all()


@pytest.mark.parametrize(
    "start,rank", [((0.0, 1.0), 0), ((0.0, 1.0), 3), ((1.0, 0.0), 1), ((), 1)]
)
def test_path_profiles_checks_start_and_rank(start, rank):
    with pytest.raises(ValueError):
        path_profiles(start, np.ones(3), np.ones(3), rank)


# Every public call that steps from a start profile or at a rank, with a
# 2-server start, checks both when it is called, by profiles' one rule each.
_MARKS = MarkSequence(sigma=np.full(3, 0.5), xi=np.full(3, 0.1))
START_ENTRIES = {
    "pth_step": lambda start, rank: pth_step(start, Mark(0.5, 0.1), rank),
    "iter_profiles": lambda start, rank: iter_profiles(start, _MARKS, rank),
    "path_profiles": lambda start, rank: path_profiles(start, _MARKS.sigma, _MARKS.xi, rank),
    "SystemConfig": lambda start, rank: SystemConfig(len(start), rank, start),
    "compare_allocation_ranks": lambda start, rank: compare_allocation_ranks(
        len(start), rank, start, start, _MARKS
    ),
}
RANK_ENTRIES = {
    **START_ENTRIES,
    "estimate_stationary_many": lambda start, rank: estimate_stationary_many(
        IIDModel(Exponential(1.0), Exponential(0.5)), [1], len(start), rank
    ),
    "prec_p": lambda start, rank: prec_p(start, start, rank),
}


@pytest.mark.parametrize(
    "bad",
    [(math.nan, 1.0), (0.5, math.nan), (0.0, math.inf), (-1.0, 0.0), (1.0, 0.5), (-0.5, -1.0)],
)
@pytest.mark.parametrize("entry", sorted(START_ENTRIES))
def test_every_start_must_be_a_profile(entry, bad):
    # unchecked, a NaN start stepped to NaNs, and an unsorted one sent its
    # arrivals to the wrong queue
    with pytest.raises(ValueError, match="must be finite, nonnegative and nondecreasing"):
        START_ENTRIES[entry](bad, 1)


@pytest.mark.parametrize("rank", [0, -1, 3])
@pytest.mark.parametrize("entry", sorted(RANK_ENTRIES))
def test_every_rank_outside_the_servers_is_refused(entry, rank):
    # unchecked, rank 0 would step as rank S and rank -1 leave profiles unsorted
    with pytest.raises(ValueError, match=rf"allocation rank {rank} outside \[1, 2\]"):
        RANK_ENTRIES[entry]((0.0, 1.0), rank)


@pytest.mark.parametrize("entry", sorted(set(RANK_ENTRIES) - {"prec_p"}))
def test_every_system_needs_a_server(entry):
    with pytest.raises(ValueError, match="server"):
        RANK_ENTRIES[entry]((), 1)


def test_iter_profiles_crosses_chunk_boundaries():
    rng = np.random.default_rng(3)
    n = 2 * 4096 + 3
    marks = SimpleNamespace(sigma=rng.exponential(1.0, n), xi=rng.exponential(0.6, n))
    state = (0.0, 0.0)
    expected = [state]
    for m in zip(marks.sigma.tolist(), marks.xi.tolist()):
        state = pth_step(state, m, 2)
        expected.append(state)
    assert list(iter_profiles((0.0, 0.0), marks, 2)) == expected


# The profile recursion against the event-based oracle for every rank: each
# arrival's offered wait is coordinate P of the profile it sees. Rank 1 is
# also the FCFS oracle's wait, bit for bit. The load is 0.8 per queue, so at
# rank S, where every arrival joins the longest queue, the waits grow.
@pytest.mark.parametrize("servers", [2, 3, 4, 5, 6])
def test_every_rank_matches_the_event_oracle(servers):
    model = IIDModel(Exponential(1.0), Exponential(0.8 * servers))
    for seed in (1, 2, 3):
        marks = generate(model, seed, 1000)
        for rank in range(1, servers + 1):
            oracle = rank_waiting_times(marks, servers, rank)
            profiles = list(iter_profiles(zero_profile(servers), marks, rank))[:-1]
            recursion = [p[rank - 1] for p in profiles]
            np.testing.assert_allclose(oracle, recursion, rtol=1e-9, atol=1e-9)
            if rank == 1:
                assert oracle == fcfs_waiting_times(marks, servers)
