"""Model core: determinism, cache semantics, incremental/tree equivalence."""

import json
import tracemalloc

import numpy as np
import pytest

from vidspec.errors import (
    ConfigError,
    MaskError,
    PositionError,
    RollbackError,
    SequenceError,
)
from vidspec.model import (
    KvCache,
    Model,
    ModelConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from vidspec.sequence import MultimodalSequence, VideoLayout

from reference import reference_forward, reference_guidance


def small_config(**overrides):
    base = dict(
        n_layers=2, n_heads=4, d_model=64, vocab_size=256, max_positions=512, seed=7
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_prompt(config, layout=VideoLayout(4, 4, 4), n_language=16, seed=0):
    rng = np.random.default_rng(seed)
    video = rng.normal(0.0, 0.02, size=(layout.total, config.d_model))
    tokens = rng.integers(0, config.vocab_size, size=n_language)
    return MultimodalSequence.full(layout, video, tokens)


def text_cache(model, tokens):
    """A fresh cache holding ``tokens`` at positions 0..n-1, written as one
    causal block."""
    cache = model.new_cache()
    model.forward_block(cache, tokens, np.arange(len(tokens)))
    return cache


class TestInit:
    def test_same_config_same_seed_bitwise_identical(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            small_config(d_model=60, n_heads=8)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_layers=0)

    def test_different_seeds_differ_on_fixed_input(self):
        m7 = init_model(small_config(seed=7))
        m8 = init_model(small_config(seed=8))
        prompt = random_prompt(m7.config, seed=3)
        l7 = m7.prefill(prompt).logits
        l8 = m8.prefill(prompt).logits
        assert not np.allclose(l7, l8)


class TestPrefill:
    def test_single_language_token(self):
        model = init_model(small_config())
        no_video = np.zeros((0, model.config.d_model))
        seq = MultimodalSequence(VideoLayout(1, 1, 1), no_video, [], [5])
        out = model.prefill(seq, capture=True)
        assert out.cache.length == 1
        assert out.capture.shape == (1, 0)

    def test_full_sequence_shapes(self):
        config = small_config()
        model = init_model(config)
        seq = random_prompt(config, VideoLayout(4, 4, 4), n_language=16)
        assert len(seq) == 4 * 4 * 4 + 16 == 80
        out = model.prefill(seq, capture=True)
        assert out.cache.length == 80
        assert out.capture.shape == (16, 64)
        assert out.logits.shape == (config.vocab_size,)

    def test_capture_rows_are_causal_distributions(self):
        """The reference attention the capture is checked against has causal
        rows that are probability distributions, and reproduces the logits."""
        model = init_model(small_config())
        seq = random_prompt(model.config, VideoLayout(2, 3, 3), n_language=7)
        logits, probs = reference_forward(model, seq)
        for i in range(len(seq)):
            rows = probs[:, :, i, : i + 1]
            assert np.all(rows >= 0.0) and np.all(rows <= 1.0)
            np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(probs[:, :, i, i + 1 :] == 0.0)
        np.testing.assert_allclose(logits[-1], model.prefill(seq).logits, rtol=0, atol=1e-12)

    def test_pruned_prefill_differs_from_full(self):
        config = small_config()
        model = init_model(config)
        full = random_prompt(config, seed=5)
        pruned = MultimodalSequence(
            full.layout,
            full.video_embeds[::2],
            full.video_indices[::2],
            full.language_tokens,
        )
        assert not np.allclose(model.prefill(full).logits, model.prefill(pruned).logits)

    def test_pruned_positions_preserved_in_cache(self):
        config = small_config()
        model = init_model(config)
        full = random_prompt(config, seed=5)
        keep = np.array([3, 17, 40])
        pruned = MultimodalSequence(
            full.layout, full.video_embeds[keep], full.video_indices[keep], full.language_tokens
        )
        cache = model.prefill(pruned).cache
        expected = np.concatenate([keep, 64 + np.arange(16)])
        assert np.array_equal(cache.pos[: cache.length], expected)

    def test_position_overflow_rejected(self):
        config = small_config(max_positions=40)
        model = init_model(config)
        seq = random_prompt(config)  # positions reach 79
        with pytest.raises(PositionError):
            model.prefill(seq)

    def test_embedding_width_mismatch_rejected(self):
        model = init_model(small_config())
        layout = VideoLayout(1, 2, 2)
        seq = MultimodalSequence.full(
            layout, np.zeros((4, 32)), np.array([1, 2])
        )
        with pytest.raises(SequenceError):
            model.prefill(seq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_video_row_rejected(self, bad):
        model = init_model(small_config())
        seq = random_prompt(model.config)
        video = seq.video_embeds.copy()
        video[5, 3] = bad
        with pytest.raises(SequenceError):
            model.prefill(MultimodalSequence.full(seq.layout, video, seq.language_tokens))


# Prompts longer than one 512-item prefill chunk: the chunk boundary falls
# inside the video rows, exactly on the first language row, or inside the
# language rows. The last prompt fits one chunk, and the boundary between two
# 64-row attention tiles (row 320) falls inside its language rows (300..339).
CHUNKED_PROMPTS = {
    "boundary_in_video": (VideoLayout(6, 10, 10), 20),
    "boundary_at_first_language": (VideoLayout(8, 8, 8), 20),
    "boundary_in_language": (VideoLayout(5, 10, 10), 40),
    "tile_boundary_in_language": (VideoLayout(3, 10, 10), 40),
}


class TestGuidanceCapture:
    @pytest.mark.parametrize("name", sorted(CHUNKED_PROMPTS))
    def test_capture_equals_reference_mean(self, name):
        layout, n_language = CHUNKED_PROMPTS[name]
        model = init_model(small_config(max_positions=1024))
        seq = random_prompt(model.config, layout, n_language, seed=1)
        capture = model.prefill(seq, capture=True).capture
        assert capture.shape == (n_language, layout.total)
        assert capture.dtype == np.float64
        np.testing.assert_allclose(
            capture, reference_guidance(model, seq), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("name", sorted(CHUNKED_PROMPTS))
    def test_capture_leaves_logits_and_cache_bitwise(self, name):
        layout, n_language = CHUNKED_PROMPTS[name]
        model = init_model(small_config(max_positions=1024))
        seq = random_prompt(model.config, layout, n_language, seed=2)
        off = model.prefill(seq)
        on = model.prefill(seq, capture=True)
        assert off.capture is None
        assert np.array_equal(on.logits, off.logits)
        assert on.cache.length == off.cache.length == len(seq)
        n = len(seq)
        assert np.array_equal(on.cache.k[:, :n], off.cache.k[:, :n])
        assert np.array_equal(on.cache.v[:, :n], off.cache.v[:, :n])
        assert np.array_equal(on.cache.pos[:n], off.cache.pos[:n])


D = small_config().d_model


def two_cells(embeds=None, indices=(0, 1), tokens=(3,), layout=VideoLayout(1, 1, 2)):
    """A two-cell video prompt with one language token, one field replaced."""
    embeds = np.zeros((2, D)) if embeds is None else embeds
    return MultimodalSequence(layout, embeds, indices, tokens)


NON_INTEGER_INPUT = {
    "position_nan": (PositionError, lambda m: m.forward_block(m.new_cache(), [1, 2], [0, np.nan])),
    "position_fraction": (PositionError, lambda m: m.forward_block(m.new_cache(), [1, 2], [0, 1.5])),
    "embeds_1d": (SequenceError, lambda m: two_cells(embeds=np.zeros(7))),
    "embeds_1d_even": (SequenceError, lambda m: two_cells(embeds=np.zeros(2 * D))),
    "token_fraction": (SequenceError, lambda m: two_cells(tokens=[1.7])),
    "index_fraction": (SequenceError, lambda m: two_cells(indices=[0, 1.5])),
    "layout_fraction": (SequenceError, lambda m: VideoLayout(1.5, 2, 2)),
    "no_layout": (SequenceError, lambda m: two_cells(layout=None)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUT))
def test_malformed_input_raises_typed_error(name):
    """Non-integer positions, tokens, indices and layout sizes, 1-D video
    embeddings and a missing layout raise the package's own errors."""
    error, call = NON_INTEGER_INPUT[name]
    with pytest.raises(error):
        call(init_model(small_config()))


class TestTiledAttention:
    """Blocks and trees that span several 64-row attention tiles."""

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_block_after_cache_matches_reference(self, n):
        model = init_model(small_config())
        L0 = 37
        seq = random_prompt(model.config, VideoLayout(2, 4, 4), n_language=L0 - 32 + n, seed=n)
        emb, positions = model.embed_sequence(seq), seq.positions
        cache = model.new_cache()
        model.forward_block(cache, emb[:L0], positions[:L0])
        logits = model.forward_block(cache, emb[L0:], positions[L0:])
        expected, _ = reference_forward(model, seq)
        # rtol 1e-12 of the logits' scale: entries near zero carry the same
        # absolute rounding as the large ones
        scale = np.abs(expected[L0:]).max()
        np.testing.assert_allclose(logits, expected[L0:], rtol=0, atol=1e-12 * scale)

    def test_tree_spanning_tiles_matches_causal_paths(self):
        """Two 65-node sibling chains: 130 nodes over three tiles, the second
        chain starting inside the second tile."""
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config, seed=8))
        depth = 65
        chain = np.tril(np.ones((depth, depth), dtype=bool))
        mask = np.zeros((2 * depth, 2 * depth), dtype=bool)
        mask[:depth, :depth] = chain
        mask[depth:, depth:] = chain
        tokens = np.random.default_rng(3).integers(0, model.config.vocab_size, 2 * depth)
        positions = 80 + np.concatenate([np.arange(depth), np.arange(depth)])
        tree_logits = model.forward_tree(out.cache.clone(), tokens, positions, mask)
        for path in (slice(0, depth), slice(depth, 2 * depth)):
            ref = model.forward_block(out.cache.clone(), tokens[path], positions[path])
            np.testing.assert_allclose(tree_logits[path], ref, rtol=1e-9, atol=1e-9)

    def test_prefill_peak_below_one_score_array(self):
        """A 1-layer, 8-head prefill of 512 items never holds an (8, 512, 512)
        float64 score array (16 MiB)."""
        model = init_model(small_config(n_layers=1, n_heads=8, max_positions=1024))
        seq = random_prompt(model.config, VideoLayout(7, 8, 8), n_language=64)
        assert len(seq) == 512
        tracemalloc.start()
        try:
            model.prefill(seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 512 * 512 * 8


class TestDecode:
    def test_decode_extends_cache(self):
        model = init_model(small_config())
        seq = random_prompt(model.config)
        out = model.prefill(seq)
        n = out.cache.length
        model.decode_step(out.cache, 3, position=seq.original_length)
        assert out.cache.length == n + 1

    def test_non_finite_embedding_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        n = out.cache.length
        row = np.full(model.config.d_model, 0.01)
        row[7] = np.nan
        with pytest.raises(SequenceError):
            model.decode_step(out.cache, row, 80)
        assert out.cache.length == n

    def test_repeated_position_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        pos = 80
        model.decode_step(out.cache, 1, pos)
        with pytest.raises(PositionError):
            model.decode_step(out.cache, 2, pos)

    def test_incremental_matches_full_forward(self):
        """Chained single-token decodes reproduce the one-shot forward."""
        config = small_config()
        model = init_model(config)
        rng = np.random.default_rng(11)
        tokens = rng.integers(0, config.vocab_size, size=24)
        full_cache = model.new_cache()
        full_logits = model.forward_block(full_cache, tokens, np.arange(24))

        cache = model.new_cache()
        inc = [model.decode_step(cache, int(t), i) for i, t in enumerate(tokens)]
        inc = np.stack(inc)
        denom = np.maximum(np.abs(full_logits), 1e-9)
        assert np.max(np.abs(inc - full_logits) / denom) <= 1e-5


class TestForwardTree:
    def test_single_node_equals_decode_step(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config, seed=2))
        ref_cache = out.cache.clone()
        ref = model.decode_step(ref_cache, 9, 80)
        got = model.forward_tree(
            out.cache, np.array([9]), np.array([80]), np.ones((1, 1), dtype=bool)
        )
        assert np.array_equal(got[0], ref)

    def test_chain_tree_matches_sequential(self):
        config = small_config()
        model = init_model(config)
        out = model.prefill(random_prompt(config, seed=4))
        depth = 5
        tokens = np.arange(10, 10 + depth)
        mask = np.tril(np.ones((depth, depth), dtype=bool))
        positions = 80 + np.arange(depth)
        tree_logits = model.forward_tree(out.cache.clone(), tokens, positions, mask)

        seq_cache = out.cache.clone()
        seq_logits = np.stack(
            [model.decode_step(seq_cache, int(t), 80 + i) for i, t in enumerate(tokens)]
        )
        denom = np.maximum(np.abs(seq_logits), 1e-9)
        assert np.max(np.abs(tree_logits - seq_logits) / denom) <= 1e-5

    def test_siblings_match_their_own_paths(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config, seed=6))
        mask = np.eye(2, dtype=bool)
        logits = model.forward_tree(
            out.cache.clone(), np.array([11, 29]), np.array([80, 80]), mask
        )
        for tok, row in zip((11, 29), logits):
            ref = model.decode_step(out.cache.clone(), tok, 80)
            denom = np.maximum(np.abs(ref), 1e-9)
            assert np.max(np.abs(row - ref) / denom) <= 1e-5

    def test_non_ancestor_mask_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        # node 2 hangs off node 1 but also peeks at node 0 (a non-ancestor sibling)
        mask = np.array(
            [[1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=bool
        )
        with pytest.raises(MaskError):
            model.forward_tree(
                out.cache, np.array([1, 2, 3]), np.array([80, 80, 81]), mask
            )

    def test_wrong_depth_positions_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        mask = np.tril(np.ones((2, 2), dtype=bool))
        with pytest.raises(PositionError):
            model.forward_tree(out.cache, np.array([1, 2]), np.array([80, 80]), mask)


class TestRollback:
    def test_full_keep_is_noop(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        before = out.cache.pos[: out.cache.length].copy()
        out.cache.rollback(out.cache.length)
        assert np.array_equal(out.cache.pos[: out.cache.length], before)

    def test_rollback_zero_then_refill(self):
        model = init_model(small_config())
        seq = random_prompt(model.config, seed=9)
        out = model.prefill(seq)
        fresh = model.prefill(seq)
        out.cache.rollback(0)
        emb = model.embed_sequence(seq)
        logits = model.forward_block(out.cache, emb, seq.positions)
        assert np.array_equal(logits[-1], fresh.logits)

    def test_decode_after_rollback_matches_fresh(self):
        """prefill 10, decode 3, rollback(10), decode X == prefill 10, decode X."""
        config = small_config()
        model = init_model(config)
        tokens = np.arange(10) + 30
        cache = text_cache(model, tokens)
        for i, t in enumerate((1, 2, 3)):
            model.decode_step(cache, t, 10 + i)
        cache.rollback(10)
        rolled = model.decode_step(cache, 7, 10)

        direct = model.decode_step(text_cache(model, tokens), 7, 10)
        assert np.array_equal(rolled, direct)

    def test_subset_rollback_keeps_accepted_tree_path(self):
        """Dropping the sibling branch leaves the surviving path equivalent to
        a cache that never saw the siblings (the tree mask hides them; only
        blocked-vs-sequential reduction order separates the two)."""
        config = small_config()
        model = init_model(config)
        tokens = np.arange(10) + 40
        cache = text_cache(model, tokens)
        # two branches of depth 2 hanging off the context: nodes 0,1 are
        # siblings; node 2 extends node 0; node 3 extends node 1
        mask = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
            ],
            dtype=bool,
        )
        tree_tokens = np.array([3, 5, 7, 9])
        positions = np.array([10, 10, 11, 11])
        model.forward_tree(cache, tree_tokens, positions, mask)
        # accept the (1, 3) branch: keep prefill slots plus slots 11 and 13
        cache.rollback(np.concatenate([np.arange(10), [11, 13]]))
        rolled = model.decode_step(cache, 2, 12)

        fresh = text_cache(model, tokens)
        model.decode_step(fresh, 5, 10)
        model.decode_step(fresh, 9, 11)
        direct = model.decode_step(fresh, 2, 12)
        denom = np.maximum(np.abs(direct), 1e-9)
        assert np.max(np.abs(rolled - direct) / denom) <= 1e-5

    @pytest.mark.parametrize(
        "keep",
        [np.r_[0:8, 9, 11], np.array([1, 2, 5]), np.arange(7)],
        ids=["prefix_and_path", "no_identity_prefix", "all_identity"],
    )
    def test_subset_rollback_equals_plain_gather(self, keep):
        rng = np.random.default_rng(0)
        cache = KvCache(2, 3, 4, capacity=16)
        cache.k[:] = rng.normal(size=cache.k.shape)
        cache.v[:] = rng.normal(size=cache.v.shape)
        cache.pos[:12] = 3 * np.arange(12)
        cache.length = 12
        k, v, pos = cache.k[:, keep], cache.v[:, keep], cache.pos[keep]
        cache.rollback(keep)
        m = keep.size
        assert cache.length == m
        assert np.array_equal(cache.k[:, :m], k)
        assert np.array_equal(cache.v[:, :m], v)
        assert np.array_equal(cache.pos[:m], pos)
        assert np.all(cache.pos[m:12] == -1)

    def test_keep_beyond_length_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        with pytest.raises(RollbackError):
            out.cache.rollback(out.cache.length + 1)


def edit_first_tensor(header, **fields):
    first = {**header["tensors"][0], **fields}
    return {**header, "tensors": [first] + header["tensors"][1:]}


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = init_model(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name]), name

    def test_header_is_textual(self, tmp_path):
        model = init_model(small_config(n_layers=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with open(path, "rb") as fh:
            assert fh.readline().startswith(b"VIDSPEC-CKPT")
            header = fh.readline().decode("ascii")
        assert '"tensors"' in header and '"config"' in header

    def test_loaded_model_reproduces_logits(self, tmp_path):
        model = init_model(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        seq = random_prompt(model.config, seed=13)
        assert np.array_equal(model.prefill(seq).logits, loaded.prefill(seq).logits)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config(n_layers=1)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_bad_json_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config(n_layers=1)), path)
        magic, _header, data = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + b'{"config": ' + b"\n" + data)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: {},
            lambda header: {"config": {"n_layers": 1}, "tensors": header["tensors"]},
            lambda header: [header],
            lambda header: {**header, "tensors": [{"name": "embed", "shape": [1], "offset": 0}]},
            lambda header: edit_first_tensor(header, offset="0"),
            lambda header: edit_first_tensor(header, shape=["a"]),
            lambda header: edit_first_tensor(header, shape=[-2, -4]),
            lambda header: {**header, "config": {**header["config"], "n_layers": 1.5}},
            lambda header: {**header, "config": {**header["config"], "rope_theta": "1e4"}},
        ],
        ids=[
            "empty",
            "partial_config",
            "list",
            "tensor_without_dtype",
            "offset_string",
            "shape_not_integer",
            "shape_negative",
            "n_layers_fraction",
            "rope_theta_string",
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config(n_layers=1)), path)
        magic, header, data = path.read_bytes().split(b"\n", 2)
        header = json.dumps(edit(json.loads(header))).encode("ascii")
        path.write_bytes(magic + b"\n" + header + b"\n" + data)
        with pytest.raises(ConfigError):
            load_checkpoint(path)
