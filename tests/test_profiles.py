"""Profile arithmetic and the one-step workload recursion."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jswsim.profiles
from jswsim.profiles import (
    Mark,
    iter_profiles,
    kw_step,
    lockstep_profiles,
    pad,
    pth_step,
    sort_ascending,
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
        assert kw_step((0.0, 0.0), Mark(1.0, 0.4)) == (0.0, 0.6)

    def test_three_servers_interior(self):
        assert kw_step((1.0, 2.0, 3.0), Mark(2.0, 1.0)) == (1.0, 2.0, 2.0)

    def test_clamp_dominates(self):
        assert kw_step((5.0,), Mark(0.0, 10.0)) == (0.0,)

    def test_ranked_step(self):
        assert pth_step((1.0, 2.0, 3.0), Mark(2.0, 1.0), 2) == (0.0, 2.0, 3.0)

    def test_rank_one_is_shortest(self):
        u = (0.5, 1.25, 4.0)
        m = Mark(2.0, 0.75)
        assert pth_step(u, m, 1) == kw_step(u, m)

    def test_two_step_trajectory(self):
        u = zero_profile(2)
        u = kw_step(u, Mark(1.0, 0.4))
        assert u == (0.0, 0.6)
        u = kw_step(u, Mark(1.0, 0.4))
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

    def test_sort_ascending_validates(self):
        assert sort_ascending([2.0, 0.0, 1.0]) == (0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            sort_ascending([-1.0, 2.0])
        with pytest.raises(ValueError):
            sort_ascending([])
        with pytest.raises(ValueError):
            sort_ascending([math.nan])

    def test_totals_and_wait(self):
        assert total_workload((0.25, 0.5, 1.0)) == 1.75


class TestStepProperties:
    @given(profiles, marks)
    def test_output_sorted_nonnegative(self, u, m):
        out = kw_step(u, m)
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
        a, b = kw_step(u, m), kw_step(v, m)
        assert all(x <= y for x, y in zip(a, b))

    @given(profiles, marks)
    def test_sup_norm_contraction_in_state(self, u, m):
        # the map is 1-Lipschitz for the sup norm
        v = tuple(x + 0.25 for x in u)
        a, b = kw_step(u, m), kw_step(v, m)
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


def sort_formula_step(u, mark, rank):
    """The step as first written: add sigma at rank, age all, clamp, sort."""
    sigma, xi = mark
    vals = [x - xi for x in u]
    vals[rank - 1] = (u[rank - 1] + sigma) - xi
    return tuple(sorted(0.0 if v <= 0.0 else v for v in vals))


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


class TestLockstep:
    """The (R, S) array kernel against pth_step, bit for bit."""

    # rows per call from which the kernel steps them as one array: every call here
    MIN_ROWS = 0

    @pytest.fixture(autouse=True, scope="class")
    def min_rows(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jswsim.profiles, "_LOCKSTEP_MIN_ROWS", request.cls.MIN_ROWS)
            yield

    @pytest.mark.parametrize("servers", range(1, 9))
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
            out = lockstep_profiles(np.array(rows), np.array([sigma]), np.array([xi]), rank)
            expected = [pth_step(u, Mark(s, x), rank) for u, s, x in zip(rows, sigma, xi)]
            assert _bits(out.tolist()) == _bits(expected), rank

    def test_signed_zero_start_is_cleared(self):
        out = lockstep_profiles(np.array([[-0.0, 0.0]]), np.array([[0.0]]), np.array([[0.0]]), 1)
        assert _bits(out.tolist()) == _bits([(0.0, 0.0)])

    def test_zero_marks_clear_a_signed_zero_start(self):
        start = np.array([[-0.0, 0.0, 1.5], [-0.0, -0.0, 0.0]])
        out = lockstep_profiles(start, np.empty((0, 2)), np.empty((0, 2)), 2)
        assert _bits(out.tolist()) == _bits([(0.0, 0.0, 1.5), (0.0, 0.0, 0.0)])
        assert math.copysign(1.0, start[0, 0]) == -1.0

    def test_zero_rows(self):
        out = lockstep_profiles(np.zeros((0, 3)), np.ones((5, 0)), np.ones((5, 0)), 2)
        assert out.shape == (0, 3)

    # rows of start, shape of sigma, shape of xi
    @pytest.mark.parametrize(
        "rows,sigma_shape,xi_shape",
        [
            (8, (3, 1), (3, 1)),
            (7, (3, 1), (3, 1)),
            (2, (3, 2), (4, 2)),
            (2, (3, 2), (3, 3)),
            (2, (2,), (2,)),
            (1, (3, 1, 1), (3, 1, 1)),
        ],
    )
    def test_marks_need_one_column_per_row(self, rows, sigma_shape, xi_shape):
        with pytest.raises(ValueError, match="need"):
            lockstep_profiles(np.zeros((rows, 2)), np.ones(sigma_shape), np.ones(xi_shape), 1)

    def test_start_needs_rows_of_servers(self):
        for start in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="need"):
                lockstep_profiles(start, np.ones((3, 2)), np.ones((3, 2)), 1)
        with pytest.raises(ValueError, match="servers must be >= 1"):
            lockstep_profiles(np.zeros((2, 0)), np.ones((3, 2)), np.ones((3, 2)), 1)

    @pytest.mark.parametrize("rank", [0, -1, 4])
    def test_rank_outside_the_servers_is_refused(self, rank):
        # unchecked, rank 0 would step as rank S and rank -1 leave profiles unsorted
        sigma, xi = np.full((4, 2), 0.5), np.full((4, 2), 0.1)
        with pytest.raises(ValueError, match=rf"allocation rank {rank} outside \[1, 3\]"):
            lockstep_profiles(np.zeros((2, 3)), sigma, xi, rank)

    @pytest.mark.parametrize("servers,rank", [(1, 1), (2, 1), (3, 2), (8, 8)])
    def test_replay_matches_iter_profiles(self, servers, rank):
        rng = np.random.default_rng(servers * 10 + rank)
        n, systems = 300, 7
        sigma = rng.exponential(1.0, (n, systems)) * (rng.random((n, systems)) < 0.8)
        xi = rng.exponential(0.9 / servers, (n, systems))
        start = np.zeros((systems, servers))
        final = lockstep_profiles(start, sigma, xi, rank)
        expected = [
            list(iter_profiles((0.0,) * servers, SimpleNamespace(sigma=sigma[:, r], xi=xi[:, r]), rank))[-1]
            for r in range(systems)
        ]
        assert _bits(final.tolist()) == _bits(expected)
        assert not start.any()

    @pytest.mark.parametrize("servers,rank", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_two_chunks_chain_into_one_call(self, servers, rank):
        rng = np.random.default_rng(servers * 7 + rank)
        n, systems = 300, 6
        sigma = rng.exponential(1.0, (n, systems))
        xi = rng.exponential(0.9 / servers, (n, systems))
        start = np.sort(rng.exponential(1.0, (systems, servers)), axis=1)
        whole = lockstep_profiles(start, sigma, xi, rank)
        head = lockstep_profiles(start, sigma[:137], xi[:137], rank)
        chained = lockstep_profiles(head, sigma[137:], xi[137:], rank)
        assert _bits(chained.tolist()) == _bits(whole.tolist())


class TestLockstepRowByRow(TestLockstep):
    """The same cases with every call stepping its rows one at a time."""

    MIN_ROWS = 2**62


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
