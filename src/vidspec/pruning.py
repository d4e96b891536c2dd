"""Video-token pruning plans.

A plan is its two disjoint sets of retained flat video indices: the guided
set V_R and the uniform set V_U. The guided method runs two stages: Stage I
keeps the smallest set of highest-scoring tokens whose cumulative guidance
mass reaches a threshold fraction lambda_r of the total; Stage II fills the
remaining retention budget by the even spread over the spatially ordered
leftovers, and frame drop spreads its kept frames the same way: K picks over
M ordered items take ranks floor(i * M / K), i = 0..K-1, in exact integer
arithmetic (consecutive picks lie floor(M/K) or ceil(M/K) apart; K <= 0 picks
nothing). Baseline pruners (random, window, frame-drop, temporal-similarity,
plain uniform, attention Top-K) share the same plan type and the same exact
budget, ``retention_budget``: floor((1 - r) * N + 0.5) of a layout's N
tokens for every method (halves round up).

Zero total guidance mass is reached by the empty prefix, so Stage I keeps
nothing and the two-stage plan is the uniform plan. A Stage I set over the
budget gives way to the attention Top-K plan (the budget-long prefix of the
same descending order, no uniform fill), marked ``stage1_truncated``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PlanError
from .guidance import GuidanceScores
from .sequence import MultimodalSequence, VideoLayout, check_integer, check_type, float_array
from .sequence import index_array

WINDOW_ANCHORS = ("front", "middle", "end")


def _check_unit(value, what: str) -> None:
    """``PlanError`` unless ``value`` is a real number in [0, 1], not a ``bool``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not real or not 0.0 <= value <= 1.0:
        raise PlanError(f"{what} must lie in [0, 1], got {value!r}")


def retention_budget(layout: VideoLayout, r: float) -> int:
    """The count of ``layout``'s tokens every plan keeps at pruning ratio ``r``;
    ``PlanError`` unless ``layout`` is a ``VideoLayout`` and ``r`` is in [0, 1]."""
    check_type(layout, VideoLayout, PlanError, "layout")
    _check_unit(r, "pruning ratio")
    return int(np.floor((1.0 - r) * layout.total + 0.5))


def _spread(k: int, m: int) -> np.ndarray:
    """The even spread's ranks: K = ``k`` picks over ``m`` items."""
    return (np.arange(k, dtype=np.int64) * m) // k


@dataclass(frozen=True)
class PruningPlan:
    """Retained flat video-token indices, split into the guided set and the
    spatially uniform remainder."""

    layout: VideoLayout
    v_r: np.ndarray  # ascending flat indices chosen by the guided stage
    v_u: np.ndarray  # ascending flat indices chosen by the uniform stage
    stage1_truncated: bool = False

    def __post_init__(self):
        check_type(self.layout, VideoLayout, PlanError, "layout")
        check_type(self.stage1_truncated, bool, PlanError, "stage1_truncated")
        v_r = index_array(self.v_r, self.layout.total, PlanError, "v_r")
        v_u = index_array(self.v_u, self.layout.total, PlanError, "v_u")
        if np.intersect1d(v_r, v_u).size:
            raise PlanError("guided and uniform sets overlap")
        object.__setattr__(self, "v_r", v_r)
        object.__setattr__(self, "v_u", v_u)

    @property
    def retained(self) -> np.ndarray:
        return np.union1d(self.v_r, self.v_u)

    @property
    def n_retained(self) -> int:
        return int(self.v_r.size + self.v_u.size)


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values descending; ties broken by ascending index."""
    return np.argsort(-np.asarray(values), kind="stable")


def _score_values(scores) -> np.ndarray:
    values = scores.values if isinstance(scores, GuidanceScores) else scores
    values = float_array(values, 1, PlanError, "scores")
    if np.any(values < 0):
        raise PlanError("scores must be nonnegative")
    with np.errstate(over="ignore"):
        if not np.isfinite(values.sum()):
            raise PlanError("scores must have a finite total")
    return values


def _layout_scores(scores, layout: VideoLayout) -> np.ndarray:
    """``_score_values``, and ``PlanError`` unless there is one per layout cell."""
    values = _score_values(scores)
    if values.shape[0] != layout.total:
        raise PlanError(f"{values.shape[0]} scores for a {layout.total}-token layout")
    return values


def stage1_top_p(scores, lambda_r: float) -> np.ndarray:
    """Minimal descending-score prefix reaching lambda_r of the total mass.

    Ties in score order break by ascending flat index, and the empty prefix
    counts. Returns ascending flat indices. lambda_r = 0 keeps nothing;
    lambda_r = 1 keeps every token up to the last positive score.
    """
    _check_unit(lambda_r, "lambda_r")
    values = _score_values(scores)
    order = descending_order(values)
    # prefix sums with the empty prefix included; the threshold is taken
    # against the same running total so the comparison is bit-consistent
    # with a sequential scan
    cum = np.concatenate([[0.0], np.cumsum(values[order])])
    count = int(np.searchsorted(cum, float(lambda_r) * float(cum[-1]), side="left"))
    return np.sort(order[:count])


def stage2_uniform(layout: VideoLayout, v_r, r: float) -> np.ndarray:
    """The budget's remaining K - |v_r| picks, spread evenly over the
    non-guided leftovers in ascending flat order; none when |v_r| >= K."""
    k_total = retention_budget(layout, r)
    v_r = index_array(v_r, layout.total, PlanError, "v_r")
    remaining = np.setdiff1d(np.arange(layout.total, dtype=np.int64), v_r)
    return remaining[_spread(k_total - v_r.size, remaining.size)]


def plan_two_stage(scores, layout: VideoLayout, r: float, lambda_r: float) -> PruningPlan:
    """Guided Top-P retention, then spatially uniform fill, to the exact budget;
    the Top-K plan, marked truncated, when Stage I overflows the budget."""
    k_total = retention_budget(layout, r)
    values = _layout_scores(scores, layout)
    v_r = stage1_top_p(values, lambda_r)
    if v_r.size > k_total:
        return replace(plan_attention_top_k(values, layout, r), stage1_truncated=True)
    return PruningPlan(layout, v_r, stage2_uniform(layout, v_r, r))


def plan_uniform(layout: VideoLayout, r: float) -> PruningPlan:
    """Spatially uniform pruning alone (the guided stage disabled)."""
    v_u = stage2_uniform(layout, [], r)
    return PruningPlan(layout, [], v_u)


def plan_attention_top_k(scores, layout: VideoLayout, r: float) -> PruningPlan:
    """Guided stage alone under the same fixed budget: the K highest-scoring
    tokens, no uniform fill."""
    k_total = retention_budget(layout, r)
    values = _layout_scores(scores, layout)
    v_r = np.sort(descending_order(values)[:k_total])
    return PruningPlan(layout, v_r, [])


def plan_random(layout: VideoLayout, r: float, seed: int) -> PruningPlan:
    check_integer(seed, 0, PlanError, "seed")
    k_total = retention_budget(layout, r)
    rng = np.random.default_rng(seed)
    retained = np.sort(rng.choice(layout.total, size=k_total, replace=False))
    return PruningPlan(layout, [], retained)


def plan_window(layout: VideoLayout, r: float, anchor: str) -> PruningPlan:
    """K contiguous flat indices at the front, middle or end of the grid: the
    anchor's place in ``WINDOW_ANCHORS`` starts the window at 0, 1/2 or 1 of
    the slack ``total - K``, rounded down."""
    if anchor not in WINDOW_ANCHORS:
        raise PlanError(f"anchor must be one of {WINDOW_ANCHORS}, got {anchor!r}")
    k_total = retention_budget(layout, r)
    start = (layout.total - k_total) * WINDOW_ANCHORS.index(anchor) // 2
    retained = np.arange(start, start + k_total, dtype=np.int64)
    return PruningPlan(layout, [], retained)


def plan_frame_drop(layout: VideoLayout, r: float) -> PruningPlan:
    """Keep the ceil(K / frame_size) frames that the budget K fills, spread
    evenly over the F frames, then trim trailing tokens of the last kept
    frame down to the exact budget."""
    k_total = retention_budget(layout, r)
    frames = _spread(-(-k_total // layout.frame_size), layout.frames)
    per_frame = np.arange(layout.frame_size, dtype=np.int64)
    retained = (frames[:, None] * layout.frame_size + per_frame).reshape(-1)[:k_total]
    return PruningPlan(layout, [], retained)


def plan_temporal_similarity(embeddings, layout: VideoLayout, r: float) -> PruningPlan:
    """Drop the tokens most cosine-similar to the same spatial cell one frame
    earlier, until the budget is met.

    The drop order is the later frames' cells by descending similarity (ties
    by ascending flat index, so equal-similarity candidates drop lowest-index
    first), then the frame-0 cells highest-index first; the plan drops its
    first ``total - K`` entries, so a budget below one frame trims frame 0.
    """
    k_total = retention_budget(layout, r)
    embeddings = float_array(embeddings, 2, PlanError, "embeddings")
    if embeddings.shape[0] != layout.total:
        raise PlanError(
            f"embeddings of shape {embeddings.shape} for a {layout.total}-token layout"
        )
    grid = embeddings.reshape(layout.frames, layout.frame_size, -1)
    cur, prev = grid[1:], grid[:-1]
    norms = np.linalg.norm(cur, axis=-1) * np.linalg.norm(prev, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(norms > 0, np.einsum("fsd,fsd->fs", cur, prev) / norms, 0.0)
    candidates = np.arange(layout.frame_size, layout.total, dtype=np.int64)
    frame0 = np.arange(layout.frame_size - 1, -1, -1, dtype=np.int64)
    drop_order = np.concatenate([candidates[descending_order(sims.reshape(-1))], frame0])
    retained = np.setdiff1d(np.arange(layout.total, dtype=np.int64), drop_order[: layout.total - k_total])
    return PruningPlan(layout, [], retained)


def apply_plan(seq: MultimodalSequence, plan: PruningPlan) -> MultimodalSequence:
    """Drop the video items outside the plan; survivors keep their embeddings
    and original positions, language items are untouched."""
    check_type(seq, MultimodalSequence, PlanError, "sequence")
    check_type(plan, PruningPlan, PlanError, "plan")
    if seq.layout != plan.layout:
        raise PlanError(f"plan layout {plan.layout} != sequence layout {seq.layout}")
    if seq.is_pruned:
        raise PlanError("sequence is already pruned; positions no longer cover the layout")
    # unpruned, so video item i sits at flat index i
    keep = plan.retained
    return MultimodalSequence(seq.layout, seq.video_embeds[keep], keep, seq.language_tokens)
