"""The benchmark's three workloads, driven through vidspec's public API.

A workload is a closed loop of requests; each function below runs one
request, checks every output between calls (outside the timed calls) and adds
its measurements to a ``Samples``. A request ends at its first failed call or
failed check: later calls would only compound the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from vidspec import guidance, pruning
from vidspec.model import Model, ModelConfig, init_model, load_checkpoint, save_checkpoint
from vidspec.sequence import MultimodalSequence, VideoLayout

import inputs as gen

# The fixed-point verifier of the roadmap and a 2-layer draft of the same width.
VERIFIER = ModelConfig(n_layers=4, n_heads=8, d_model=gen.D_MODEL, vocab_size=gen.VOCAB, seed=0)
DRAFT = ModelConfig(n_layers=2, n_heads=8, d_model=gen.D_MODEL, vocab_size=gen.VOCAB, seed=1)

RATIOS = (0.0, 0.5, 0.9)
LAMBDA_R = 0.5  # Stage I mass threshold of the two-stage pruner
VERIFY_ROUNDS = 32  # forward_tree + rollback rounds per tree_verify request
DECODE_STEPS = 64  # greedy tokens per greedy_decode request
# Tree and causal forwards reduce over different block sizes; float64 logits
# agree far inside this tolerance.
LOGIT_RTOL = 1e-9
LOGIT_ATOL = 1e-9

PRUNERS = {
    "two_stage": lambda scores, seq, r, seed: pruning.plan_two_stage(scores, seq.layout, r, LAMBDA_R),
    "uniform": lambda scores, seq, r, seed: pruning.plan_uniform(seq.layout, r),
    "attention_top_k": lambda scores, seq, r, seed: pruning.plan_attention_top_k(scores, seq.layout, r),
    "random": lambda scores, seq, r, seed: pruning.plan_random(seq.layout, r, seed),
    "window": lambda scores, seq, r, seed: pruning.plan_window(seq.layout, r, "middle"),
    "frame_drop": lambda scores, seq, r, seed: pruning.plan_frame_drop(seq.layout, r),
    "temporal_similarity": lambda scores, seq, r, seed: pruning.plan_temporal_similarity(
        seq.video_embeds, seq.layout, r
    ),
}
PRUNER_NAMES = tuple(PRUNERS)


@dataclass
class Models:
    verifier: Model
    draft: Model | None


@dataclass
class Samples:
    """Measurements of the requests of one loop (successful calls unless noted)."""

    prompt_s: list[float] = field(default_factory=list)  # prompt to ready, per request
    # One unit of the work after the prompt phase: guidance to draft-ready per
    # long_video request, one tree round, or one decode step, failed ones too.
    work_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)  # verify rounds or decode steps
    gen_s: float = 0.0  # seconds inside generation calls, failed ones included
    tokens: int = 0  # committed tree nodes or decoded tokens
    nodes_verified: int = 0
    capacity_ratio: list[float] = field(default_factory=list)
    v_r: list[int] = field(default_factory=list)
    v_u: list[int] = field(default_factory=list)
    stage1_truncated: list[bool] = field(default_factory=list)  # two_stage plans only
    kept_mass: list[float] = field(default_factory=list)


def set_up(rec, role: str, config: ModelConfig, path) -> Model | None:
    """Build a model, write its checkpoint and load it back; None on failure."""
    ok, model, _ = rec.call("model.init" + role, init_model, config)
    if ok:
        ok, _, _ = rec.call("model.save_checkpoint" + role, save_checkpoint, model, path)
    if ok:
        ok, model, _ = rec.call("model.load_checkpoint" + role, load_checkpoint, path)
    return model if ok else None


# -- output checks -------------------------------------------------------------


def first_problem(*problems):
    return next((p for p in problems if p is not None), None)


def logits_problem(logits, shape) -> str | None:
    if logits.shape != shape:
        return f"logits shape {logits.shape}, expected {shape}"
    if not np.all(np.isfinite(logits)):
        return "non-finite logits"
    return None


def length_problem(cache, expected: int) -> str | None:
    if cache.length != expected:
        return f"cache length {cache.length}, expected {expected}"
    return None


def budget(n_video: int, r: float) -> int:
    """Retained-token count every pruner must hit: round half away from zero."""
    return int(math.floor((1.0 - r) * n_video + 0.5))


def causal_reference(model: Model, cache, tokens, positions):
    """Logits of a plain causal forward of ``tokens`` on ``cache`` (a clone)."""
    try:
        return model.forward_block(cache, tokens, positions), None
    except Exception as exc:  # a reference that cannot run fails the check
        return None, f"reference forward raised {type(exc).__name__}: {exc}"


def full_sequence(rec, prompt: gen.Prompt):
    layout = VideoLayout(prompt.frames, gen.GRID_ROWS, gen.GRID_COLS)
    return rec.call("sequence.full", MultimodalSequence.full, layout, prompt.video, prompt.text)


def verifier_prefill(models, rec, seq, name: str, capture: bool):
    ok, res, seconds = rec.call(name, models.verifier.prefill, seq, capture=capture, peak_memory=True)
    if ok:
        problem = first_problem(
            logits_problem(res.logits, (gen.VOCAB,)),
            length_problem(res.cache, len(seq)),
            None if (res.capture is not None) == capture else "capture presence",
        )
        ok = rec.check(name, problem)
    return ok, res, seconds


# -- workloads -------------------------------------------------------------------


def long_video(models: Models, rec, samples: Samples, rng, frames: int, index: int) -> None:
    """Prompt to draft-ready: capture prefill, guidance, plan, pruned draft prefill."""
    prompt = gen.make_prompt(rng, frames)
    method = PRUNER_NAMES[index % len(PRUNER_NAMES)]
    r = RATIOS[index % len(RATIOS)]  # 3 and 7 are coprime: 21 requests cover every pair
    plan_seed = int(rng.integers(2**31))
    n_video, n_text = prompt.video.shape[0], prompt.text.shape[0]
    spent = 0.0

    ok, seq, seconds = full_sequence(rec, prompt)
    spent += seconds
    if not ok:
        return
    ok, res, seconds = verifier_prefill(models, rec, seq, "model.prefill_capture", capture=True)
    spent += seconds
    if not ok:
        return
    cache = res.cache
    prompt_phase = spent

    ok, matrix, seconds = rec.call("guidance.extract", guidance.extract_guidance, res.capture, seq)
    spent += seconds
    del res  # the (L, H, N, N) capture is not needed past guidance
    if not ok or not rec.check(
        "guidance.extract",
        None
        if matrix.values.shape == (n_text, n_video) and np.all(np.isfinite(matrix.values))
        else f"guidance matrix {matrix.values.shape} or non-finite",
    ):
        return
    ok, scores, seconds = rec.call("guidance.score", guidance.score_tokens, matrix)
    spent += seconds
    if not ok or not rec.check(
        "guidance.score",
        None
        if scores.values.shape == (n_video,)
        and np.all(np.isfinite(scores.values))
        and scores.values.min() >= 0.0
        else "scores wrong length, non-finite or negative",
    ):
        return

    name = f"pruning.plan.{method}"
    ok, plan, seconds = rec.call(name, PRUNERS[method], scores, seq, r, plan_seed)
    spent += seconds
    keep = budget(n_video, r)
    if not ok or not rec.check(
        name,
        None if plan.n_retained == keep else f"{plan.n_retained} retained, budget {keep}",
    ):
        return
    ok, pruned, seconds = rec.call("pruning.apply", pruning.apply_plan, seq, plan)
    spent += seconds
    if not ok or not rec.check(
        "pruning.apply",
        None if pruned.n_video == keep and len(pruned) == keep + n_text else "pruned length",
    ):
        return
    ok, draft_res, seconds = rec.call("model.draft_prefill", models.draft.prefill, pruned)
    spent += seconds
    if not ok or not rec.check(
        "model.draft_prefill",
        first_problem(
            logits_problem(draft_res.logits, (gen.VOCAB,)),
            length_problem(draft_res.cache, len(pruned)),
        ),
    ):
        return

    samples.prompt_s.append(spent)
    samples.work_s.append(spent - prompt_phase)
    samples.capacity_ratio.append(cache.capacity / cache.length)
    samples.v_r.append(int(plan.v_r.size))
    samples.v_u.append(int(plan.v_u.size))
    if method == "two_stage":
        samples.stage1_truncated.append(bool(plan.stage1_truncated))
    total = float(scores.values.sum())
    if total > 0.0:
        samples.kept_mass.append(float(scores.values[plan.retained].sum()) / total)


def tree_verify(models: Models, rec, samples: Samples, rng, frames: int, index: int) -> None:
    """Medium prompt, then rounds of tree verification and subset rollback."""
    prompt = gen.make_prompt(rng, frames)
    ok, seq, t_seq = full_sequence(rec, prompt)
    if not ok:
        return
    ok, res, t_prefill = verifier_prefill(models, rec, seq, "model.prefill", capture=False)
    if not ok:
        return
    samples.prompt_s.append(t_seq + t_prefill)
    verifier, cache = models.verifier, res.cache
    next_position = seq.original_length

    for _ in range(VERIFY_ROUNDS):
        rnd = gen.make_round(rng)
        n = len(rnd.parents)
        positions = next_position + gen.depths(rnd.parents)
        reference = cache.clone()
        base = cache.length

        ok, logits, t_tree = rec.call(
            "model.forward_tree",
            verifier.forward_tree,
            cache,
            rnd.tokens,
            positions,
            gen.ancestor_mask(rnd.parents),
        )
        samples.gen_s += t_tree
        if not ok or not rec.check(
            "model.forward_tree",
            first_problem(logits_problem(logits, (n, gen.VOCAB)), length_problem(cache, base + n)),
        ):
            return

        keep = np.concatenate([np.arange(base, dtype=np.int64), base + rnd.path])
        ok, _, t_rollback = rec.call("model.kv_rollback", cache.rollback, keep)
        samples.gen_s += t_rollback
        if not ok or not rec.check("model.kv_rollback", length_problem(cache, base + rnd.path.size)):
            return

        expected, problem = causal_reference(
            verifier, reference, rnd.tokens[rnd.path], positions[rnd.path]
        )
        if problem is None and not np.allclose(
            logits[rnd.path], expected, rtol=LOGIT_RTOL, atol=LOGIT_ATOL
        ):
            problem = "accepted path logits differ from a causal forward of the path"
        del reference  # so the next round's clone does not coexist with this one
        if not rec.check("model.forward_tree", problem):
            return

        samples.step_s.append(t_tree + t_rollback)
        samples.work_s.append(t_tree + t_rollback)
        samples.tokens += int(rnd.path.size)
        samples.nodes_verified += n
        next_position += int(rnd.path.size)
    samples.capacity_ratio.append(cache.capacity / cache.length)


def greedy_decode(models: Models, rec, samples: Samples, rng, frames: int, index: int) -> None:
    """Medium prompt, then one-item greedy decode steps (vanilla baseline)."""
    prompt = gen.make_prompt(rng, frames)
    ok, seq, t_seq = full_sequence(rec, prompt)
    if not ok:
        return
    ok, res, t_prefill = verifier_prefill(models, rec, seq, "model.prefill", capture=False)
    if not ok:
        return
    samples.prompt_s.append(t_seq + t_prefill)
    verifier, cache = models.verifier, res.cache
    reference = cache.clone()
    start = seq.original_length
    token = int(np.argmax(res.logits))
    fed: list[int] = []
    chosen: list[int] = []

    for step in range(DECODE_STEPS):
        ok, logits, seconds = rec.call("model.decode_step", verifier.decode_step, cache, token, start + step)
        samples.gen_s += seconds
        samples.work_s.append(seconds)
        if not ok:
            break
        if not rec.check(
            "model.decode_step",
            first_problem(
                logits_problem(logits, (gen.VOCAB,)), length_problem(cache, len(seq) + step + 1)
            ),
        ):
            return
        samples.step_s.append(seconds)
        samples.tokens += 1
        fed.append(token)
        token = int(np.argmax(logits))
        chosen.append(token)
    samples.capacity_ratio.append(cache.capacity / cache.length)

    if fed:
        # each chosen token must be the argmax of one causal forward of the chain
        expected, problem = causal_reference(
            verifier, reference, np.array(fed), start + np.arange(len(fed))
        )
        if problem is None and not np.array_equal(np.argmax(expected, axis=1), chosen):
            problem = "greedy tokens differ from the argmax of a causal forward of the chain"
        rec.check("model.decode_step", problem)


WORKLOADS = {  # name -> (request, frame-count choices of its prompts)
    "long_video": (long_video, gen.LONG_FRAMES),
    "tree_verify": (tree_verify, gen.MEDIUM_FRAMES),
    "greedy_decode": (greedy_decode, gen.MEDIUM_FRAMES),
}
NEEDS_DRAFT = {"long_video"}
