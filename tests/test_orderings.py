"""Partial orderings on workload profiles and their closure properties."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jswsim.errors import PremiseError
from jswsim.orderings import (
    check_clamp_insert_stability,
    check_negation_symmetry,
    check_shift_monotonicity,
    check_sorted_difference_balance,
    check_step_comparison,
    convex_symmetric_battery,
    prec,
    prec_p,
    prec_star,
    run_property_suite,
    sample_balance_pair,
    sample_coordinatewise_pair,
    sample_signed_vector,
    sample_sorted_profile,
    sample_tail_sum_pair,
    schur_convex_leq,
    suite_names,
)
from jswsim.profiles import Mark, pad, pth_step


class TestPredicateExamples:
    def test_prec(self):
        assert prec((0.0, 1.0), (1.0, 1.0))
        assert not prec((0.0, 3.0), (1.0, 1.0))
        v = prec((0.0, 3.0), (1.0, 1.0)).first_violation
        assert v.clause == "coordinate" and v.index == 2
        assert (v.lhs, v.rhs) == (3.0, 1.0)

    def test_prec_star(self):
        assert prec_star((0.0, 1.0), (1.0, 1.0))
        bad = prec_star((0.0, 3.0), (1.0, 1.0))
        assert not bad
        assert bad.first_violation.clause == "tail_sum"
        assert bad.first_violation.index == 2

    def test_prec_star_is_weaker_than_prec(self):
        # tail sums hold here although coordinate 1 does not
        assert prec_star((1.0, 1.0), (0.5, 2.0))
        assert not prec((1.0, 1.0), (0.5, 2.0))

    def test_prec_p(self):
        u, v = (0.0, 2.0, 2.0), (1.0, 1.0, 3.0)
        assert prec_p(u, v, 3)
        bad = prec_p(u, v, 2)
        assert not bad
        assert bad.first_violation.clause == "coordinate"
        assert bad.first_violation.index == 2

    def test_prec_p_rank_one_is_coordinatewise(self):
        rng = random.Random(5)
        for _ in range(200):
            u, v = sample_coordinatewise_pair(rng, 1 + rng.randrange(6))
            assert prec_p(u, v, 1).holds == prec(u, v).holds
        assert prec_p((1.0, 1.0), (0.5, 2.0), 1).holds == prec((1.0, 1.0), (0.5, 2.0)).holds

    def test_schur_convex_leq(self):
        assert schur_convex_leq((1.0, 1.0), (0.0, 2.0))
        assert not schur_convex_leq((0.0, 2.0), (1.0, 1.0))
        off = schur_convex_leq((1.0, 1.0), (0.0, 3.0))
        assert not off and off.first_violation.clause == "total_sum"

    def test_length_mismatch_rejected(self):
        for pred in (prec, prec_star, schur_convex_leq):
            with pytest.raises(ValueError):
                pred((0.0,), (0.0, 1.0))

    def test_tolerance_loosens(self):
        assert not prec((0.0, 1.05), (1.0, 1.0))
        assert prec((0.0, 1.05), (1.0, 1.0), tol=0.1)

    def test_negative_tolerance_holds_the_balance_order_for_no_pair(self):
        # |sum(u) - sum(v)| > tol for every pair when tol < 0: the total-sum
        # clause fails even for u = v, where the tail clauses hold
        same = schur_convex_leq([1.0, 2.0], [1.0, 2.0], -0.01)
        assert not same and same.first_violation.clause == "total_sum"
        assert schur_convex_leq([1.0, 2.0], [1.0, 2.0], 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN or infinite tolerance would make every clause that adds it hold
        for check in (
            lambda: prec((5.0,), (1.0,), tol),
            lambda: prec_star((5.0,), (1.0,), tol),
            lambda: prec_p((5.0,), (1.0,), 1, tol),
            lambda: schur_convex_leq((5.0,), (1.0,), tol),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                check()


class TestVerdictObject:
    def test_truthiness_and_fields(self):
        good = prec((0.0,), (1.0,))
        assert bool(good) and good.holds and good.first_violation is None
        bad = prec((2.0,), (1.0,))
        assert not bool(bad) and bad.first_violation is not None


class TestCheckerExamples:
    def test_negation_symmetry(self):
        assert check_negation_symmetry((1.0, 1.0), (0.0, 2.0))
        assert check_negation_symmetry((3.0, -1.0), (4.0, -2.0))

    def test_shift_monotonicity(self):
        assert check_shift_monotonicity((0.0, 1.0), (1.0, 1.0), 0.5, 0.75)
        with pytest.raises(PremiseError):
            check_shift_monotonicity((0.0, 1.0), (1.0, 1.0), 0.75, 0.5)
        with pytest.raises(PremiseError):
            check_shift_monotonicity((0.0, 1.0), (1.0, 1.0), -0.5, 0.5)

    def test_battery(self):
        assert convex_symmetric_battery((1.0, 1.0), (0.0, 2.0))
        with pytest.raises(PremiseError):
            convex_symmetric_battery((0.0, 2.0), (1.0, 1.0))

    def test_sorted_difference(self):
        assert check_sorted_difference_balance((2.0, 0.0), (0.0, 1.0))

    def test_clamp_insert(self):
        assert check_clamp_insert_stability((0.0, 1.0), (1.0, 1.0), 0.5, 2, 1.0)
        with pytest.raises(PremiseError):
            check_clamp_insert_stability((0.0, 3.0), (1.0, 1.0), 0.5, 1, 1.0)

    def test_step_comparison(self):
        u, v = (0.0, 2.0, 2.0), (1.0, 1.0, 3.0)
        m = Mark(1.0, 0.5)
        # the two advanced states are exactly (0.5, 1.5, 1.5) and (0.5, 0.5, 3.5)
        assert pth_step(u, m, 1) == (0.5, 1.5, 1.5)
        assert pth_step(v, m, 3) == (0.5, 0.5, 3.5)
        shortest_ok, ranked_ok = check_step_comparison(u, v, m, 3)
        assert shortest_ok and ranked_ok
        with pytest.raises(PremiseError):
            check_step_comparison(v, u, m, 3)


class TestSamplers:
    def test_dyadic_grid(self):
        rng = random.Random(0)
        for _ in range(100):
            u = sample_sorted_profile(rng, 5)
            assert all(x * 64 == round(x * 64) for x in u)
            assert list(u) == sorted(u)
            w = sample_signed_vector(rng, 4)
            assert all(x * 64 == round(x * 64) for x in w)

    def test_tail_sum_pair_invariant(self):
        rng = random.Random(1)
        for _ in range(500):
            servers = 1 + rng.randrange(8)
            u, v = sample_tail_sum_pair(rng, servers)
            assert prec_star(u, v), (u, v)

    def test_tail_sum_pair_reaches_non_coordinatewise(self):
        # the sampler must produce pairs ordered by tail sums but not
        # coordinatewise, otherwise the weaker ordering is never exercised
        rng = random.Random(2)
        seen = False
        for _ in range(500):
            u, v = sample_tail_sum_pair(rng, 4)
            if prec_star(u, v) and not prec(u, v):
                seen = True
                break
        assert seen

    def test_rank_ordered_pair_invariant(self):
        rng = random.Random(3)
        for _ in range(500):
            servers = 1 + rng.randrange(8)
            rank = 1 + rng.randrange(servers)
            u, v = sample_tail_sum_pair(rng, servers, rank)
            assert prec_p(u, v, rank), (u, v, rank)

    def test_balance_pair_invariant(self):
        rng = random.Random(4)
        for _ in range(500):
            u, v = sample_balance_pair(rng, 1 + rng.randrange(8))
            assert schur_convex_leq(u, v), (u, v)
            assert math.fsum(u) == math.fsum(v)


class TestOrderingProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_prec_implies_prec_star(self, seed):
        rng = random.Random(seed)
        u, v = sample_coordinatewise_pair(rng, 1 + rng.randrange(8))
        assert prec(u, v)
        assert prec_star(u, v)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_schur_reflexive_transitive(self, seed):
        rng = random.Random(seed)
        size = 1 + rng.randrange(6)
        u, v = sample_balance_pair(rng, size)
        v2, w = sample_balance_pair(rng, size)
        assert schur_convex_leq(u, u)
        # chain through a common middle by shifting w to match v's total
        shift = (math.fsum(v) - math.fsum(v2)) / size
        w = tuple(x + shift for x in w)
        v2 = tuple(x + shift for x in v2)
        if schur_convex_leq(u, v) and schur_convex_leq(v, w):
            assert schur_convex_leq(u, w, tol=1e-9)


class TestSuites:
    def test_names_stable(self):
        assert suite_names() == (
            "negation-symmetry",
            "shift-monotonicity",
            "convex-battery",
            "sorted-difference",
            "clamp-insert-stability",
            "step-comparison",
        )

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_property_suite("no-such-suite", 10)

    @pytest.mark.parametrize("name", suite_names())
    def test_small_runs_clean(self, name):
        report = run_property_suite(name, 300, seed=7)
        assert report.instances == 300
        assert report.failures == 0
        assert report.passed
        assert report.counterexamples == []

    def test_seed_reproducibility(self):
        a = run_property_suite("convex-battery", 100, seed=3)
        b = run_property_suite("convex-battery", 100, seed=3)
        assert (a.instances, a.failures) == (b.instances, b.failures)
