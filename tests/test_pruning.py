"""Pruning plans: the two-stage method, every baseline, and plan application."""

import itertools
import math

import numpy as np
import pytest

from vidspec.errors import PlanError
from vidspec.guidance import GuidanceScores
from vidspec.pruning import (
    PruningPlan,
    apply_plan,
    plan_attention_top_k,
    plan_frame_drop,
    plan_random,
    plan_temporal_similarity,
    plan_two_stage,
    plan_uniform,
    plan_window,
    retention_budget,
    stage1_top_p,
    stage2_uniform,
)
from vidspec.sequence import MultimodalSequence, VideoLayout


def brute_force_top_p(values, lam):
    """Shortest descending-score prefix whose running sum reaches lam * total.

    Ties by ascending index; the empty prefix counts. Sequential sums, so the
    float comparisons match any straightforward implementation bit-for-bit.
    """
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    total = 0.0
    for i in order:
        total = total + values[i]
    target = lam * total
    running = 0.0
    if running >= target:
        return set()
    chosen = []
    for i in order:
        chosen.append(i)
        running = running + values[i]
        if running >= target:
            return set(chosen)
    return set(chosen)


class TestStage1TopP:
    def test_hand_case(self):
        a = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
        assert set(stage1_top_p(a, 0.6).tolist()) == {0, 1}

    def test_lambda_zero_empty(self):
        assert stage1_top_p(np.array([0.5, 0.5]), 0.0).size == 0

    def test_lambda_one_keeps_all(self):
        a = np.array([0.3, 0.1, 0.6])
        assert set(stage1_top_p(a, 1.0).tolist()) == {0, 1, 2}

    def test_zero_mass_keeps_nothing(self):
        """Zero total mass is reached by the empty prefix, for every lambda."""
        for lam in (0.0, 1e-300, 0.25, 0.5, 0.75, 1.0):
            assert stage1_top_p(np.zeros(4), lam).size == 0

    def test_matches_brute_force_oracle(self):
        """Uniform scores, scores with some or most entries zero (ties in the
        zero tail), and all-zero scores."""
        rng = np.random.default_rng(123)
        for trial in range(400):
            n = int(rng.integers(1, 256))
            values = rng.uniform(size=n)
            if trial % 4:
                values[rng.uniform(size=n) < (trial % 4) / 4] = 0.0
            if trial % 50 == 0:
                values[:] = 0.0
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
                got = set(stage1_top_p(values, lam).tolist())
                assert got == brute_force_top_p(values.tolist(), lam)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(321)
        values = rng.uniform(size=64)
        lambdas = np.linspace(0, 1, 11)
        sets = [set(stage1_top_p(values, lam).tolist()) for lam in lambdas]
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_ties_break_by_ascending_index(self):
        a = np.array([0.25, 0.25, 0.25, 0.25])
        assert stage1_top_p(a, 0.5).tolist() == [0, 1]

    def test_float32_lambda_on_a_total_beyond_float32(self):
        """The threshold is taken in float64 whatever lambda_r's dtype, so a
        score total beyond float32's range does not overflow it."""
        for lam in (np.float32(0.5), 0.5):
            assert stage1_top_p([1e39, 1, 1], lam).tolist() == [0]


class TestStage2Uniform:
    def test_hand_case(self):
        layout = VideoLayout(1, 3, 4)  # 12 tokens
        v_u = stage2_uniform(layout, np.array([3, 7]), 0.5)
        assert v_u.tolist() == [0, 2, 6, 9]

    def test_r_zero_keeps_all_remaining(self):
        layout = VideoLayout(1, 2, 5)
        v_u = stage2_uniform(layout, np.array([2, 4]), 0.0)
        assert v_u.tolist() == [0, 1, 3, 5, 6, 7, 8, 9]

    def test_saturated_guided_set_leaves_nothing(self):
        """A guided set over the budget of 4, or exactly filling it."""
        layout = VideoLayout(1, 2, 4)
        for v_r in (np.arange(6), [1, 3, 5, 6]):
            v_u = stage2_uniform(layout, v_r, 0.5)
            assert v_u.dtype == np.int64 and v_u.shape == (0,)

    def test_spacing_is_floor_or_ceil(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            total = int(rng.integers(4, 300))
            layout = VideoLayout(1, 1, total)
            n_guided = int(rng.integers(0, total // 2))
            v_r = np.sort(rng.choice(total, n_guided, replace=False))
            r = float(rng.uniform(0, 1))
            v_u = stage2_uniform(layout, v_r, r)
            if v_u.size < 2:
                continue
            remaining = np.setdiff1d(np.arange(total), v_r)
            ranks = np.searchsorted(remaining, v_u)
            m, k_u = remaining.size, v_u.size
            gaps = np.diff(ranks)
            assert set(gaps.tolist()) <= {m // k_u, -(-m // k_u)}


class TestPlanTwoStage:
    def test_budget_count_at_r90(self):
        layout = VideoLayout(10, 10, 10)
        rng = np.random.default_rng(11)
        plan = plan_two_stage(rng.uniform(size=1000), layout, 0.9, 0.4)
        assert plan.n_retained == 100

    def test_lambda_zero_degenerates_to_uniform(self):
        layout = VideoLayout(2, 3, 4)
        rng = np.random.default_rng(12)
        plan = plan_two_stage(rng.uniform(size=layout.total), layout, 0.5, 0.0)
        uniform = plan_uniform(layout, 0.5)
        np.testing.assert_array_equal(plan.retained, uniform.retained)
        assert plan.v_r.size == 0

    def test_identity_when_nothing_pruned(self):
        layout = VideoLayout(2, 2, 2)
        rng = np.random.default_rng(13)
        plan = plan_two_stage(rng.uniform(size=8), layout, 0.0, 1.0)
        assert plan.n_retained == layout.total
        np.testing.assert_array_equal(plan.retained, np.arange(8))

    def test_stage1_overflow_truncates_to_best(self):
        layout = VideoLayout(1, 1, 6)
        scores = np.array([0.3, 0.25, 0.2, 0.15, 0.06, 0.04])
        plan = plan_two_stage(scores, layout, 0.5, 1.0)  # budget 3, lambda wants all
        assert plan.stage1_truncated
        assert plan.v_r.tolist() == [0, 1, 2]
        assert plan.n_retained == 3

    def test_truncated_stage1_is_top_k(self):
        """When Stage I overflows the budget, the guided set is the Top-K
        set and the uniform set is empty, ties included (scores rounded to
        a tenth tie often)."""
        layout = VideoLayout(2, 3, 4)
        rng = np.random.default_rng(18)
        truncated = 0
        for _ in range(200):
            scores = np.round(rng.uniform(size=layout.total), 1)
            r = float(rng.uniform(0.3, 0.9))
            plan = plan_two_stage(scores, layout, r, float(rng.uniform(0.7, 1.0)))
            if plan.stage1_truncated:
                truncated += 1
                np.testing.assert_array_equal(plan.v_r, plan_attention_top_k(scores, layout, r).v_r)
                assert plan.v_u.size == 0
        assert truncated > 50

    def test_guidance_scale_invariance(self):
        layout = VideoLayout(2, 2, 4)
        rng = np.random.default_rng(14)
        scores = rng.uniform(size=layout.total)
        a = plan_two_stage(scores, layout, 0.6, 0.45)
        b = plan_two_stage(scores * 37.5, layout, 0.6, 0.45)
        np.testing.assert_array_equal(a.retained, b.retained)
        np.testing.assert_array_equal(a.v_r, b.v_r)

    def test_degenerate_scores_fall_back_to_uniform(self):
        layout = VideoLayout(1, 2, 4)
        plan = plan_two_stage(np.zeros(8), layout, 0.5, 0.4)
        np.testing.assert_array_equal(plan.retained, plan_uniform(layout, 0.5).retained)

    def test_disjoint_union(self):
        layout = VideoLayout(3, 3, 3)
        rng = np.random.default_rng(15)
        for _ in range(50):
            plan = plan_two_stage(
                rng.uniform(size=layout.total),
                layout,
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
            )
            assert np.intersect1d(plan.v_r, plan.v_u).size == 0
            np.testing.assert_array_equal(
                plan.retained, np.union1d(plan.v_r, plan.v_u)
            )


class TestBaselinePlanners:
    def test_random_identity_empty_and_determinism(self):
        layout = VideoLayout(1, 2, 5)
        assert plan_random(layout, 0.0, 1).n_retained == layout.total
        assert plan_random(layout, 1.0, 1).n_retained == 0
        a = plan_random(layout, 0.6, 42)
        b = plan_random(layout, 0.6, 42)
        np.testing.assert_array_equal(a.retained, b.retained)

    def test_window_anchors(self):
        layout = VideoLayout(1, 2, 5)
        assert plan_window(layout, 0.6, "front").retained.tolist() == [0, 1, 2, 3]
        assert plan_window(layout, 0.6, "end").retained.tolist() == [6, 7, 8, 9]
        assert plan_window(layout, 0.6, "middle").retained.tolist() == [3, 4, 5, 6]
        with pytest.raises(PlanError):
            plan_window(layout, 0.5, "sideways")

    def test_frame_drop_even_frames(self):
        """The frames kept are the ones the budget fills, spread evenly: at
        r = 0.7, (1 - r) * 10 frames is 3.0000000000000004 in floating point,
        but a budget of 12 tokens fills 3 frames of 4, not 4."""
        cases = [
            (VideoLayout(8, 1, 4), 0.5, [0, 2, 4, 6], 16),
            (VideoLayout(10, 2, 2), 0.7, [0, 3, 6], 12),
        ]
        for layout, r, expected, budget in cases:
            plan = plan_frame_drop(layout, r)
            frames = sorted(set(int(i) // layout.frame_size for i in plan.retained))
            assert frames == expected
            assert plan.n_retained == budget

    def test_frame_drop_single_frame_trims_spatially(self):
        layout = VideoLayout(1, 2, 4)
        plan = plan_frame_drop(layout, 0.5)
        assert plan.retained.tolist() == [0, 1, 2, 3]

    def test_frame_drop_r_zero_keeps_everything(self):
        layout = VideoLayout(3, 2, 2)
        assert plan_frame_drop(layout, 0.0).n_retained == layout.total

    def test_temporal_identical_frames_keep_frame_zero(self):
        layout = VideoLayout(4, 2, 2)
        cell = np.random.default_rng(16).normal(size=(layout.frame_size, 6))
        embeds = np.tile(cell, (layout.frames, 1))
        r = 1.0 - layout.frame_size / layout.total  # budget = one frame
        plan = plan_temporal_similarity(embeds, layout, r)
        assert plan.retained.tolist() == [0, 1, 2, 3]

    def test_temporal_orthogonal_drops_lowest_candidates_first(self):
        layout = VideoLayout(3, 1, 2)
        embeds = np.eye(6)
        plan = plan_temporal_similarity(embeds, layout, 0.5)
        # all similarities zero: candidates (flats 2..5) drop ascending
        assert plan.retained.tolist() == [0, 1, 5]

    def test_temporal_budget_below_one_frame_trims_frame_zero(self):
        """Every candidate drops first, then frame 0 highest index first."""
        layout = VideoLayout(2, 1, 4)
        embeds = np.array([[1, 0], [1, 0], [1, 0], [1, 0], [1, 0], [1, 1], [0, 1], [-1, 0]])
        plan = plan_temporal_similarity(embeds, layout, 0.75)  # budget 2
        assert plan.retained.tolist() == [0, 1]

    def test_temporal_r_zero_identity(self):
        layout = VideoLayout(2, 2, 2)
        embeds = np.random.default_rng(17).normal(size=(8, 5))
        assert plan_temporal_similarity(embeds, layout, 0.0).n_retained == layout.total

    def test_attention_top_k_keeps_best(self):
        layout = VideoLayout(1, 2, 3)
        scores = np.array([0.1, 0.5, 0.05, 0.2, 0.1, 0.05])
        plan = plan_attention_top_k(scores, layout, 0.5)
        assert set(plan.retained.tolist()) == {0, 1, 3}


MALFORMED_INPUT = {
    "two_stage_nan": lambda layout: plan_two_stage([np.nan, 1, 1, 1], layout, 0.5, 0.5),
    "attention_top_k_nan": lambda layout: plan_attention_top_k([1, 1, np.nan, 1], layout, 0.5),
    "top_p_inf": lambda layout: stage1_top_p([np.inf, 1, 1], 0.5),
    "temporal_nan": lambda layout: plan_temporal_similarity(
        np.where(np.arange(12).reshape(4, 3) == 7, np.nan, 1.0), layout, 0.5
    ),
    "random_seed_none": lambda layout: plan_random(layout, 0.5, None),
    "random_seed_negative": lambda layout: plan_random(layout, 0.5, -1),
    "random_seed_fraction": lambda layout: plan_random(layout, 0.5, 1.5),
    "random_seed_string": lambda layout: plan_random(layout, 0.5, "x"),
    "random_seed_bool": lambda layout: plan_random(layout, 0.5, True),
    "budget_ratio_string": lambda layout: retention_budget(layout, "x"),
    "top_p_lambda_string": lambda layout: stage1_top_p([1, 1, 1], "x"),
    "uniform_fill_fraction": lambda layout: stage2_uniform(layout, [0.7, 2.9], 0.5),
    "two_stage_string": lambda layout: plan_two_stage(["a", "b", "c", "d"], layout, 0.5, 0.5),
    "top_p_ragged": lambda layout: stage1_top_p([[1], [1, 2]], 0.5),
    "temporal_string": lambda layout: plan_temporal_similarity([["x"] * 3] * 4, layout, 0.5),
    "uniform_fill_ragged": lambda layout: stage2_uniform(layout, [[0], [1, 2]], 0.5),
    "top_p_sum_overflow": lambda layout: stage1_top_p([1e308, 1e308, 1, 1], 0.0),
    "two_stage_sum_overflow": lambda layout: plan_two_stage([1e308, 1e308, 1, 1], layout, 0.5, 0.5),
    "budget_ratio_bool": lambda layout: retention_budget(layout, True),
    "top_p_lambda_bool": lambda layout: stage1_top_p([1, 1, 1], True),
    "plan_layout_none": lambda layout: PruningPlan(None, [], []),
    "two_stage_layout_none": lambda layout: plan_two_stage([1, 1, 1, 1], None, 0.5, 0.5),
    "uniform_layout_none": lambda layout: plan_uniform(None, 0.5),
    "attention_top_k_layout_none": lambda layout: plan_attention_top_k([1, 1, 1, 1], None, 0.5),
    "random_layout_none": lambda layout: plan_random(None, 0.5, 1),
    "window_layout_none": lambda layout: plan_window(None, 0.5, "front"),
    "frame_drop_layout_none": lambda layout: plan_frame_drop(None, 0.5),
    "temporal_layout_none": lambda layout: plan_temporal_similarity(np.ones((4, 3)), None, 0.5),
    "uniform_fill_layout_none": lambda layout: stage2_uniform(None, [], 0.5),
    "apply_plan_none": lambda layout: apply_plan(
        MultimodalSequence.full(layout, np.ones((layout.total, 3)), [0]), None
    ),
    "apply_sequence_none": lambda layout: apply_plan(None, plan_uniform(layout, 0.5)),
    "budget_layout_negative_count": lambda layout: retention_budget(-5, 0.5),
    "budget_layout_string": lambda layout: retention_budget("a", 0.5),
    "plan_sets_overlap": lambda layout: PruningPlan(layout, [0], [0]),
    "plan_truncated_string": lambda layout: PruningPlan(layout, [], [], stage1_truncated="x"),
    "attention_top_k_negative": lambda layout: plan_attention_top_k([-1, 1, 1, 1], layout, 0.5),
    "two_stage_score_count": lambda layout: plan_two_stage([1, 1, 1], layout, 0.5, 0.5),
    "temporal_row_count": lambda layout: plan_temporal_similarity(np.ones((3, 3)), layout, 0.5),
    "apply_plan_other_layout": lambda layout: apply_plan(
        MultimodalSequence.full(layout, np.ones((layout.total, 3)), [0]),
        plan_uniform(VideoLayout(1, 1, layout.total), 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUT))
def test_non_finite_input_rejected(name):
    """Non-finite, string or ragged scores or embeddings, scores whose total
    overflows float64, a random plan's seed that is not a non-negative
    integer (a ``bool`` included), a ratio or lambda_r that is not a number
    or is a ``bool``, a guided set that is not integers or is ragged, a
    layout that is not a ``VideoLayout`` (a raw count included), a plan that
    is not a ``PruningPlan``, overlapping guided and uniform sets, a
    ``stage1_truncated`` flag that is not a ``bool``, negative scores, a
    score or embedding count that is not the layout's, and a plan of
    another layout raise ``PlanError``."""
    with pytest.raises(PlanError):
        MALFORMED_INPUT[name](VideoLayout(2, 1, 2))


class TestBudgetExactness:
    def test_every_method_hits_round_half_away_budget(self):
        rng = np.random.default_rng(99)
        for _, r in itertools.product(range(120), (0.0, 1.0, None)):
            layout = VideoLayout(
                int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
            )
            r = float(rng.uniform(0, 1)) if r is None else r
            k = retention_budget(layout, r)
            assert k == math.floor((1 - r) * layout.total + 0.5)
            scores = rng.uniform(size=layout.total)
            embeds = rng.normal(size=(layout.total, 4))
            plans = {
                "two_stage": plan_two_stage(scores, layout, r, float(rng.uniform(0, 1))),
                "attention_top_k": plan_attention_top_k(scores, layout, r),
                "uniform": plan_uniform(layout, r),
                "random": plan_random(layout, r, int(rng.integers(1 << 30))),
                "window_front": plan_window(layout, r, "front"),
                "window_middle": plan_window(layout, r, "middle"),
                "window_end": plan_window(layout, r, "end"),
                "frame_drop": plan_frame_drop(layout, r),
                "temporal_similarity": plan_temporal_similarity(embeds, layout, r),
            }
            for method, plan in plans.items():
                assert plan.n_retained == k, method


class TestApplyPlan:
    def make_seq(self, layout, d=6, n_language=3, seed=0):
        rng = np.random.default_rng(seed)
        return MultimodalSequence.full(
            layout, rng.normal(size=(layout.total, d)), rng.integers(0, 9, n_language)
        )

    def test_identity_plan_unchanged(self):
        layout = VideoLayout(1, 2, 2)
        seq = self.make_seq(layout)
        out = apply_plan(seq, plan_uniform(layout, 0.0))
        assert out.n_video == 4
        np.testing.assert_array_equal(out.positions, seq.positions)

    def test_empty_plan_language_only(self):
        layout = VideoLayout(1, 2, 2)
        seq = self.make_seq(layout)
        out = apply_plan(seq, plan_uniform(layout, 1.0))
        assert out.n_video == 0
        assert out.n_language == 3
        np.testing.assert_array_equal(out.positions, [4, 5, 6])

    def test_partial_plan_keeps_positions(self):
        layout = VideoLayout(1, 2, 2)
        seq = self.make_seq(layout)
        plan = PruningPlan(layout, np.array([0]), np.array([2]))
        out = apply_plan(seq, plan)
        np.testing.assert_array_equal(out.video_indices, [0, 2])
        np.testing.assert_array_equal(out.video_embeds, seq.video_embeds[[0, 2]])
        np.testing.assert_array_equal(out.positions, [0, 2, 4, 5, 6])

    def test_double_application_rejected(self):
        layout = VideoLayout(1, 2, 2)
        seq = self.make_seq(layout)
        plan = plan_uniform(layout, 0.5)
        once = apply_plan(seq, plan)
        with pytest.raises(PlanError):
            apply_plan(once, plan)
