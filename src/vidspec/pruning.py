"""Video-token pruning plans.

A plan is its two disjoint sets of retained flat video indices: the guided
set V_R and the uniform set V_U. The guided method runs two stages: Stage I
keeps the smallest set of highest-scoring tokens whose cumulative guidance
mass reaches a threshold fraction lambda_r of the total; Stage II fills the
remaining retention budget by evenly spaced selection (ranks floor(k*M/K_U))
over the spatially ordered leftovers. Baseline pruners (random, window,
frame-drop, temporal-similarity, plain uniform, attention Top-K) share the
same plan type and the same exact budget: round_half_away((1 - r) * n_video)
retained tokens for every method.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScoresError, PlanError
from .guidance import GuidanceScores, descending_order
from .sequence import MultimodalSequence, VideoLayout, integer_array

logger = logging.getLogger(__name__)

WINDOW_ANCHORS = ("front", "middle", "end")


def round_half_away(x: float) -> int:
    """round() with halves away from zero, fixed across platforms."""
    return int(np.floor(x + 0.5)) if x >= 0 else -int(np.floor(-x + 0.5))


def retention_budget(n_video: int, r: float) -> int:
    if not 0.0 <= r <= 1.0:
        raise PlanError(f"pruning ratio must lie in [0, 1], got {r}")
    return round_half_away((1.0 - r) * n_video)


@dataclass(frozen=True)
class PruningPlan:
    """Retained flat video-token indices, split into the guided set and the
    spatially uniform remainder."""

    layout: VideoLayout
    v_r: np.ndarray  # ascending flat indices chosen by the guided stage
    v_u: np.ndarray  # ascending flat indices chosen by the uniform stage
    stage1_truncated: bool = False

    def __post_init__(self):
        v_r = integer_array(self.v_r, PlanError, "v_r")
        v_u = integer_array(self.v_u, PlanError, "v_u")
        for name, arr in (("v_r", v_r), ("v_u", v_u)):
            if arr.ndim != 1:
                raise PlanError(f"{name} must be 1-D")
            if arr.size and (arr.min() < 0 or arr.max() >= self.layout.total):
                raise PlanError(f"{name} index outside layout")
            if arr.size > 1 and np.any(np.diff(arr) <= 0):
                raise PlanError(f"{name} must be strictly increasing")
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


def _score_values(scores) -> np.ndarray:
    values = scores.values if isinstance(scores, GuidanceScores) else np.asarray(scores)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise PlanError("scores must be 1-D")
    if not np.all(np.isfinite(values)):
        raise PlanError("scores must be finite")
    if np.any(values < 0):
        raise PlanError("scores must be nonnegative")
    return values


def stage1_top_p(scores, lambda_r: float) -> np.ndarray:
    """Minimal descending-score prefix reaching lambda_r of the total mass.

    Ties in score order break by ascending flat index. Returns ascending flat
    indices. lambda_r = 0 keeps nothing; lambda_r = 1 keeps everything.
    """
    if not 0.0 <= lambda_r <= 1.0:
        raise PlanError(f"lambda_r must lie in [0, 1], got {lambda_r}")
    values = _score_values(scores)
    order = descending_order(values)
    # prefix sums with the empty prefix included; the threshold is taken
    # against the same running total so the comparison is bit-consistent
    # with a sequential scan
    cum = np.concatenate([[0.0], np.cumsum(values[order])])
    total = float(cum[-1])
    if total <= 0.0:
        raise DegenerateScoresError("all-zero guidance scores")
    count = min(int(np.searchsorted(cum, lambda_r * total, side="left")), values.shape[0])
    return np.sort(order[:count])


def stage2_uniform(layout: VideoLayout, v_r, r: float) -> np.ndarray:
    """Fill the budget with evenly spaced picks over the non-guided leftovers.

    With K = budget, K_U = K - |v_r| and M leftovers in ascending flat order,
    pick the leftovers at ranks floor(k * M / K_U), k = 0..K_U-1 (exact integer
    arithmetic, so the spacing between consecutive picks is floor(M/K_U) or
    ceil(M/K_U)).
    """
    v_r = np.asarray(v_r, dtype=np.int64)
    k_total = retention_budget(layout.total, r)
    k_uniform = k_total - v_r.size
    if k_uniform <= 0:
        return np.zeros(0, dtype=np.int64)
    remaining = np.setdiff1d(np.arange(layout.total, dtype=np.int64), v_r)
    m = remaining.shape[0]
    ranks = (np.arange(k_uniform, dtype=np.int64) * m) // k_uniform
    return remaining[ranks]


def plan_two_stage(scores, layout: VideoLayout, r: float, lambda_r: float) -> PruningPlan:
    """Guided Top-P retention, then spatially uniform fill, to the exact budget.

    If Stage I overflows the budget it is truncated to the highest-scoring
    tokens (ties by ascending index), recorded on the plan. All-zero scores
    fall back to the pure uniform plan with a logged warning.
    """
    values = _score_values(scores)
    if values.shape[0] != layout.total:
        raise PlanError(f"{values.shape[0]} scores for a {layout.total}-token layout")
    k_total = retention_budget(layout.total, r)
    if float(values.sum()) <= 0.0:
        logger.warning("degenerate all-zero guidance; falling back to uniform pruning")
        return plan_uniform(layout, r)
    v_r = stage1_top_p(values, lambda_r)
    truncated = False
    if v_r.size > k_total:
        order = descending_order(values)
        keep = order[np.isin(order, v_r)][:k_total]
        v_r = np.sort(keep)
        truncated = True
    v_u = stage2_uniform(layout, v_r, r)
    return PruningPlan(layout, v_r, v_u, stage1_truncated=truncated)


def plan_uniform(layout: VideoLayout, r: float) -> PruningPlan:
    """Spatially uniform pruning alone (the guided stage disabled)."""
    v_u = stage2_uniform(layout, [], r)
    return PruningPlan(layout, [], v_u)


def plan_attention_top_k(scores, layout: VideoLayout, r: float) -> PruningPlan:
    """Guided stage alone under the same fixed budget: the K highest-scoring
    tokens, no uniform fill."""
    values = _score_values(scores)
    if values.shape[0] != layout.total:
        raise PlanError(f"{values.shape[0]} scores for a {layout.total}-token layout")
    k_total = retention_budget(layout.total, r)
    v_r = np.sort(descending_order(values)[:k_total])
    return PruningPlan(layout, v_r, [])


def plan_random(layout: VideoLayout, r: float, seed: int) -> PruningPlan:
    k_total = retention_budget(layout.total, r)
    rng = np.random.default_rng(seed)
    retained = np.sort(rng.choice(layout.total, size=k_total, replace=False))
    return PruningPlan(layout, [], retained)


def plan_window(layout: VideoLayout, r: float, anchor: str) -> PruningPlan:
    """K contiguous flat indices at the front, middle or end of the grid."""
    if anchor not in WINDOW_ANCHORS:
        raise PlanError(f"anchor must be one of {WINDOW_ANCHORS}, got {anchor!r}")
    k_total = retention_budget(layout.total, r)
    if anchor == "front":
        start = 0
    elif anchor == "end":
        start = layout.total - k_total
    else:
        start = (layout.total - k_total) // 2
    retained = np.arange(start, start + k_total, dtype=np.int64)
    return PruningPlan(layout, [], retained)


def plan_frame_drop(layout: VideoLayout, r: float) -> PruningPlan:
    """Keep ceil((1-r)*F) whole frames at evenly spaced frame ranks, then trim
    trailing tokens of the last kept frame down to the exact budget."""
    k_total = retention_budget(layout.total, r)
    n_frames = int(np.ceil((1.0 - r) * layout.frames))
    if n_frames == 0:
        retained = np.zeros(0, dtype=np.int64)
    else:
        frame_ranks = (np.arange(n_frames, dtype=np.int64) * layout.frames) // n_frames
        per_frame = np.arange(layout.frame_size, dtype=np.int64)
        retained = (frame_ranks[:, None] * layout.frame_size + per_frame[None, :]).reshape(-1)
        retained = retained[:k_total]
    return PruningPlan(layout, [], retained)


def plan_temporal_similarity(embeddings, layout: VideoLayout, r: float) -> PruningPlan:
    """Drop the tokens most cosine-similar to the same spatial cell one frame
    earlier, until the budget is met.

    Frame-0 cells are never candidates for this rule; ties break by ascending
    flat index (so equal-similarity candidates drop lowest-index first). If the
    budget is smaller than one frame, frame-0 cells are trimmed
    highest-index-first after every candidate is gone.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] != layout.total:
        raise PlanError(
            f"embeddings of shape {embeddings.shape} for a {layout.total}-token layout"
        )
    if not np.all(np.isfinite(embeddings)):
        raise PlanError("embeddings must be finite")
    k_total = retention_budget(layout.total, r)
    n_drop = layout.total - k_total
    grid = embeddings.reshape(layout.frames, layout.frame_size, -1)
    cur, prev = grid[1:], grid[:-1]
    norms = np.linalg.norm(cur, axis=-1) * np.linalg.norm(prev, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(norms > 0, np.einsum("fsd,fsd->fs", cur, prev) / norms, 0.0)
    candidates = np.arange(layout.frame_size, layout.total, dtype=np.int64)
    drop_order = candidates[descending_order(sims.reshape(-1))]
    dropped = drop_order[:n_drop]
    if n_drop > drop_order.size:
        overflow = n_drop - drop_order.size
        frame0 = np.arange(layout.frame_size - 1, layout.frame_size - 1 - overflow, -1)
        dropped = np.concatenate([drop_order, frame0])
    retained = np.setdiff1d(np.arange(layout.total, dtype=np.int64), dropped)
    return PruningPlan(layout, [], retained)


def apply_plan(seq: MultimodalSequence, plan: PruningPlan) -> MultimodalSequence:
    """Drop the video items outside the plan; survivors keep their embeddings
    and original positions, language items are untouched."""
    if seq.layout != plan.layout:
        raise PlanError(f"plan layout {plan.layout} != sequence layout {seq.layout}")
    if seq.is_pruned:
        raise PlanError("sequence is already pruned; positions no longer cover the layout")
    # unpruned, so video item i sits at flat index i
    keep = plan.retained
    return MultimodalSequence(seq.layout, seq.video_embeds[keep], keep, seq.language_tokens)
