"""The benchmark's set-up and its own requests, run once each: a change that
breaks a call the benchmark makes fails here, not only in a benchmark run.
The benchmark's input-generator self-test runs here too, and its tree
templates' masks are read back through the model's tree rule.

No request grows a KV cache: prefill leaves ``_CACHE_HEADROOM`` free slots,
which every later block of a request fits in, so growth never sits on a
benchmark's hot path.

``greedy_decode``'s request is a strict expected failure: every one of its
decode steps fails until the one-item forward is mended (ROADMAP item 0),
and the change that mends it drops the marker.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from vidspec.errors import MaskError, VidspecError
from vidspec.model import KvCache, _tree_depths, init_model

from reference import reference_tree_depths

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import recorder  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def models():
    return workloads.Models(init_model(workloads.VERIFIER), init_model(workloads.DRAFT))


@pytest.fixture
def growths(monkeypatch):
    """The ``needed`` of each ``KvCache.ensure_capacity`` call that grows a
    cache while the test runs."""
    grown = []
    ensure = KvCache.ensure_capacity

    def counting(cache, needed):
        if needed > cache.capacity:
            grown.append(needed)
        ensure(cache, needed)

    monkeypatch.setattr(KvCache, "ensure_capacity", counting)
    return grown


def send(models, name, index):
    """Request ``index`` of workload ``name``, drawn as a benchmark run draws
    it; its recorder and samples."""
    request, frame_choices = workloads.WORKLOADS[name]
    rec = recorder.Recorder(False, VidspecError)
    samples = workloads.Samples()
    rng = inputs.request_rng(SEED, inputs.MEASURED, index)
    frames = inputs.frame_count(SEED, inputs.MEASURED, index, frame_choices)
    request(models, rec, samples, rng, frames, index)
    assert rec.failed == 0, (dict(rec.failures), rec.check_messages, list(rec.tracebacks.values()))
    return samples


def test_set_up(models, tmp_path):
    """Each model is built, saved and loaded back as the benchmark's set-up
    does it, and the loaded verifier's prefill logits on a ``long_video``
    prompt equal those of the model built in memory."""
    rec = recorder.Recorder(False, VidspecError)
    verifier = workloads.set_up(rec, "", workloads.VERIFIER, tmp_path / "model.ckpt")
    workloads.set_up(rec, ".draft", workloads.DRAFT, tmp_path / "model.draft.ckpt")
    assert rec.failed == 0, (dict(rec.failures), list(rec.tracebacks.values()))
    prompt = inputs.make_prompt(inputs.request_rng(SEED, inputs.MEASURED, 0), inputs.LONG_FRAMES[1])
    seq = workloads.full_sequence(rec, prompt)[1]
    assert np.array_equal(verifier.prefill(seq).logits, models.verifier.prefill(seq).logits)


@pytest.mark.parametrize("index", range(len(workloads.PRUNER_NAMES)), ids=workloads.PRUNER_NAMES)
def test_long_video_request(models, growths, index):
    """Request ``index`` plans with the index-th pruner."""
    samples = send(models, "long_video", index)
    assert len(samples.prompt_s) == len(samples.work_s) == len(samples.v_r) == 1
    assert growths == []


def test_tree_verify_request(models, growths):
    samples = send(models, "tree_verify", 0)
    assert len(samples.prompt_s) == 1
    assert len(samples.step_s) == workloads.VERIFY_ROUNDS
    assert growths == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every decode_step raises TypeError in the one-item forward (ROADMAP item 0)",
)
def test_greedy_decode_request(models, growths):
    samples = send(models, "greedy_decode", 0)
    assert len(samples.prompt_s) == 1
    assert len(samples.step_s) == workloads.DECODE_STEPS
    assert growths == []


def test_input_generator_selftest():
    """The benchmark's own input-generator self-test passes."""
    assert selftest.main() == 0


@pytest.mark.parametrize("parents", inputs.TEMPLATES, ids=["CHAIN_5", "BRANCH_15"])
def test_template_masks_match_tree_rule(parents):
    """The model reads each template's benchmark mask back to the template's
    depths, and on every mask one entry away from it agrees with the
    node-by-node reference on whether it is a tree and, if so, on depths."""
    mask = inputs.ancestor_mask(parents)
    assert np.array_equal(_tree_depths(mask), inputs.depths(parents))
    accepted = 0
    for i, j in np.ndindex(mask.shape):
        flipped = mask.copy()
        flipped[i, j] = not flipped[i, j]
        try:
            expected = reference_tree_depths(flipped)
        except MaskError:
            with pytest.raises(MaskError):
                _tree_depths(flipped)
            continue
        assert np.array_equal(_tree_depths(flipped), expected), (i, j)
        accepted += 1
    assert 0 < accepted < mask.size
