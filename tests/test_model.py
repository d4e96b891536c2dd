"""Model core: determinism, cache semantics, incremental/tree equivalence."""

import hashlib
import itertools
import json
import os
import tracemalloc
from dataclasses import asdict

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
    _CACHE_HEADROOM,
    _HEAD_ROWS,
    MAX_POSITIONS,
    KvCache,
    Model,
    ModelConfig,
    _tree_depths,
    init_model,
    load_checkpoint,
    param_shapes,
    rope,
    save_checkpoint,
)
from vidspec.sequence import MultimodalSequence, VideoLayout

from reference import (
    reference_forward,
    reference_guidance,
    reference_rope,
    reference_row_max,
    reference_tree_depths,
)


def small_config(**overrides):
    base = dict(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


def random_prompt(config, layout=VideoLayout(4, 4, 4), n_language=16, seed=0):
    rng = np.random.default_rng(seed)
    video = rng.normal(0.0, 0.02, size=(layout.total, config.d_model))
    tokens = rng.integers(0, config.vocab_size, size=n_language)
    return MultimodalSequence.full(layout, video, tokens)


def traced_peak(call):
    """``call()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def text_cache(model, tokens):
    """A fresh cache holding ``tokens`` at positions 0..n-1, written as one
    causal block."""
    cache = model.new_cache()
    model.forward_block(cache, tokens, np.arange(len(tokens)))
    return cache


def rows_logits(model, cache, rows, positions):
    """Logits of a causal block of embedding ``rows`` at ``positions`` on
    ``cache``: the core and head that ``forward_block`` runs on token ids,
    here fed a copy of the rows (as ``prefill`` feeds video rows)."""
    return model._logits(model._hidden(cache, rows.copy(), positions))


def with_leading(w, *values):
    """A copy of ``w`` whose first entries are ``values``."""
    w = w.copy()
    w.flat[: len(values)] = values
    return w


# SHA-256 of each weight of init_model(small_config()), widened to
# little-endian float64 (the embedding table is stored as float32).
INIT_DIGESTS = {
    "embed": "07ec62917ecbbb3763f21f45e5f0502afe9f3afff8983f3d2302ba36e8c4a833",
    "head": "81d050b8140a8cf4df98189a81674b79bfed0c02e4dcc25395119b5a7c3d1d4e",
    "layers.0.w1": "e3038b8c21803d139d6a4c5ec2a9dd8465572de165a82e73d321d98b04631a78",
    "layers.0.w2": "f99763fac8bf50878c4cc9b02e6fabcdee3e26b55b13c2db9f41176f9425f2e1",
    "layers.0.wk": "f9725558c4d09f501ec4ea692bd421c23301ced6585e33e9717574f04204b171",
    "layers.0.wo": "04a232b21e6e494f9d2b1d9832e689b5a0f72e765287dc122744fa03ed17515c",
    "layers.0.wq": "794a01957315bc37c04237c2a8b64ee906386b6041517247a1136e7012589849",
    "layers.0.wv": "495e7af025077343515b444666411cb66b3da315b530dd05769ece6075e51798",
    "layers.1.w1": "98c039d2e05cae99a0c2564cd88d7a3eb445c119bad4f2b16dcfd4c3bfa640c4",
    "layers.1.w2": "b4189300c4c7efe72b771c822778cb0837d822fc69cd7587eab9d169e1fcc265",
    "layers.1.wk": "d901f934fb74a0e61d6dabee80116a8f0b791c33220e1bba6e68327ec9148412",
    "layers.1.wo": "295d2b2238ce855fa284486ca6b8058bfd5f1c891a0db7a1f647ffe5e4211590",
    "layers.1.wq": "28ee86ff6b911c27fd990e3beefb7e7606da85535d28159c56feb07324749c5a",
    "layers.1.wv": "774a509c4ed74d1f9caf71f899bf7302136e9146e4da73995f4ecb7287ac96cf",
}
# SHA-256 of the file save_checkpoint(init_model(small_config())) writes.
CHECKPOINT_DIGEST = "884d4a44deea867c75721fe425e510c2346bc19ecfb17ee089f0751ca55dd97f"


class TestInit:
    def test_same_config_same_seed_bitwise_identical(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    def test_draws_pinned_across_versions(self):
        """Each weight of ``init_model(small_config())`` hashes to a recorded
        digest: the model holds the drawn tensors alone, and a change to the
        parameter list or the draw order that moves any draw fails here."""
        model = init_model(small_config())
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(w, dtype="<f8").tobytes()).hexdigest()
            for name, w in model.params.items()
        }
        assert digests == INIT_DIGESTS

    def test_draws_uniform_of_fixed_variance(self):
        """Each weight is drawn uniform on [-sqrt(3)s, sqrt(3)s], whose standard
        deviation is s: 0.02 for the embedding/head and 0.02/sqrt(n_layers)
        for block projections. A normal draw of the same s puts about 8% of
        its entries beyond sqrt(3)s."""
        config = small_config()
        for name, w in init_model(config).params.items():
            s = 0.02 if name in ("embed", "head") else 0.02 / np.sqrt(config.n_layers)
            w = w.astype(np.float64)
            # the float32 scale sqrt(12)s may round up by half an ulp
            assert np.abs(w).max() <= np.sqrt(3) * s * (1 + 2.0**-23), name
            assert abs(w.std() / s - 1) <= 0.05, name
            assert abs(w.mean()) <= 4 * w.std() / np.sqrt(w.size), name

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            small_config(d_model=60, n_heads=8)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_layers=0)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: with_leading(w, np.nan),
            lambda w: with_leading(w, -np.inf),
            lambda w: with_leading(w, np.inf, -np.inf),
            lambda w: w.astype(np.complex128),
            lambda w: w.astype(np.int64),
            lambda w: w.tolist(),
            lambda w: w.astype(np.float32),
            lambda w: w.astype(np.float16),
            lambda w: w.astype(np.longdouble),
        ],
        ids=[
            "nan", "inf", "inf_minus_inf", "complex", "int", "list",
            "float32", "float16", "longdouble",
        ],
    )
    def test_malformed_weight_rejected(self, bad):
        """A matmul weight that is not a float64 ndarray, or holds NaN or
        inf, raises ``ConfigError`` when a ``Model`` is built from it directly,
        as ``TestCheckpoint::test_non_finite_tensor_rejected`` does through a
        checkpoint."""
        model = init_model(small_config(n_layers=1))
        params = {**model.params, "layers.0.wk": bad(model.params["layers.0.wk"])}
        with pytest.raises(ConfigError):
            Model(model.config, params)

    def test_embedding_table_stays_float32(self, tmp_path):
        """Init and load each copy the embedding table out of the float32
        staging view, as they copy every tensor, so it stays the float32
        values it was drawn as; widened, they hash to the recorded digest."""
        model = init_model(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        for embed in (model.params["embed"], load_checkpoint(path).params["embed"]):
            assert embed.dtype == np.float32
            digest = hashlib.sha256(embed.astype("<f8").tobytes()).hexdigest()
            assert digest == INIT_DIGESTS["embed"]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: w.astype(np.float64),
            lambda w: w.astype(np.float16),
            lambda w: with_leading(w, np.nan),
        ],
        ids=["float64", "float16", "nan"],
    )
    def test_malformed_embedding_table_rejected(self, bad):
        """The embedding table must be a finite float32 array; a float64 one,
        the dtype of every other weight, is refused too."""
        model = init_model(small_config(n_layers=1))
        params = {**model.params, "embed": bad(model.params["embed"])}
        with pytest.raises(ConfigError):
            Model(model.config, params)

    def test_embed_items_widens_into_a_new_array(self):
        """``embed_items`` returns the gathered rows widened to a new float64
        array, which the forward may update without touching the table."""
        model = init_model(small_config())
        ids = np.array([5, 0, 5, 255])
        rows = model.embed_items(ids)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, model.params["embed"][ids])
        assert not np.shares_memory(rows, model.params["embed"])

    def test_weight_bytes_at_benchmark_width(self):
        """The float32 embedding table and float64 matmul weights of a
        benchmark-width model take 4 v d + 8 (v d + L (4 d^2 + 2 d f)) bytes."""
        c = BENCH_WIDTH
        v, d, f = c.vocab_size, c.d_model, c.d_ff
        expected = 4 * v * d + 8 * (v * d + c.n_layers * (4 * d * d + 2 * d * f))
        assert sum(w.nbytes for w in init_model(c).params.values()) == expected

    def test_finite_weight_whose_sum_overflows_accepted(self):
        """The sum test falls back to the entries when the sum overflows."""
        model = init_model(small_config(n_layers=1))
        big = np.full_like(model.params["layers.0.wk"], 1e308)
        Model(model.config, {**model.params, "layers.0.wk": big})

    def test_different_seeds_differ_on_fixed_input(self):
        m7 = init_model(small_config(seed=7))
        m8 = init_model(small_config(seed=8))
        prompt = random_prompt(m7.config, seed=3)
        l7 = m7.prefill(prompt).logits
        l8 = m8.prefill(prompt).logits
        assert not np.allclose(l7, l8)


# Prompts of 1 to 4 prefill chunks; the final chunk holds N mod 512 items
# (272, 76, 79 and 478).
ONE_TO_FOUR_CHUNKS = {
    272: (VideoLayout(4, 8, 8), 16),
    1100: (VideoLayout(4, 16, 16), 76),
    1103: (VideoLayout(4, 16, 16), 79),
    2014: (VideoLayout(7, 16, 16), 222),
}

# The benchmark's verifier width, where BLAS rounds a product of 1 to 3 rows
# differently from the same rows inside a larger product.
BENCH_WIDTH = ModelConfig(n_layers=4, n_heads=8, d_model=256, vocab_size=4096)

# Benchmark-width prompts whose final chunk would hold 2, 1 and 3 items, fewer
# than one 64-row tile; such a chunk joins the chunk before it.
SHORT_FINAL_CHUNK = {
    514: (VideoLayout(2, 15, 15), 64),
    1025: (VideoLayout(3, 16, 20), 65),
    1027: (VideoLayout(3, 16, 20), 67),
}


class RowCounter(np.ndarray):
    """A weight that records the row count of its left operand in every
    matrix product, then takes the product as a plain array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.rows.append(inputs[0].shape[0])
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def count_last_w1_rows(model):
    """``model`` with its last layer's ``w1`` replaced by a ``RowCounter``,
    and that counter's list of row counts."""
    name = f"layers.{model.config.n_layers - 1}.w1"
    w1 = model.params[name].view(RowCounter)
    w1.rows = []
    return Model(model.config, {**model.params, name: w1}), w1.rows


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
        """Language items follow the whole layout, so after a 4096-cell video
        pruned to two cells the first one sits at 4096; after 4095 cells it
        fits."""
        model = init_model(small_config())

        def pruned(total):
            return MultimodalSequence(VideoLayout(1, 1, total), np.zeros((2, D)), [0, 1], [3])

        assert model.prefill(pruned(MAX_POSITIONS - 1)).cache.max_position == MAX_POSITIONS - 1
        with pytest.raises(PositionError):
            model.prefill(pruned(MAX_POSITIONS))

    def test_embedding_width_mismatch_rejected(self):
        model = init_model(small_config())
        layout = VideoLayout(1, 2, 2)
        seq = MultimodalSequence.full(
            layout, np.zeros((4, 32)), np.array([1, 2])
        )
        with pytest.raises(SequenceError):
            model.prefill(seq)

    @pytest.mark.parametrize("n", sorted(ONE_TO_FOUR_CHUNKS) + sorted(SHORT_FINAL_CHUNK))
    def test_logits_equal_last_row_of_one_block(self, n):
        """Prefill applies the head to its final chunk's last rows only; the
        result is bitwise the last row of one whole-sequence block through
        the core and head."""
        if n in ONE_TO_FOUR_CHUNKS:
            config, (layout, n_language) = small_config(), ONE_TO_FOUR_CHUNKS[n]
        else:
            config, (layout, n_language) = BENCH_WIDTH, SHORT_FINAL_CHUNK[n]
        model = init_model(config)
        seq = random_prompt(model.config, layout, n_language, seed=n)
        assert len(seq) == n
        emb = model.embed_sequence(seq)
        whole = rows_logits(model, model.new_cache(), emb, seq.positions)
        assert np.array_equal(emb, model.embed_sequence(seq))  # input left as it was
        assert np.array_equal(model.prefill(seq).logits, whole[-1])

    @pytest.mark.parametrize("n", sorted(ONE_TO_FOUR_CHUNKS))
    def test_cache_equals_one_block(self, n):
        """The last layer skips rows nothing reads but still writes every
        row's keys and values: the cache is bitwise that of one
        whole-sequence block through the core."""
        layout, n_language = ONE_TO_FOUR_CHUNKS[n]
        model = init_model(small_config())
        seq = random_prompt(model.config, layout, n_language, seed=n)
        whole = model.new_cache()
        rows_logits(model, whole, model.embed_sequence(seq), seq.positions)
        cache = model.prefill(seq).cache
        assert cache.length == whole.length == n
        assert np.array_equal(cache.k[:, :n], whole.k[:, :n])
        assert np.array_equal(cache.v[:, :n], whole.v[:, :n])
        assert np.array_equal(cache.pos[:n], whole.pos[:n])

    def test_cache_has_decode_headroom(self):
        """A 64-item block after a prefill fits the prefill's cache, which is
        not reallocated."""
        model = init_model(small_config())
        seq = random_prompt(model.config)
        cache = model.prefill(seq).cache
        k = cache.k
        tokens = np.arange(64)
        model.forward_block(cache, tokens, len(seq) + tokens)
        assert cache.k is k
        assert cache.length == len(seq) + 64

    @pytest.mark.parametrize("capture", [False, True])
    def test_last_layer_mlp_runs_on_the_head_rows(self, capture):
        """A 2014-item prefill sends exactly its last ``_HEAD_ROWS`` rows
        through the last layer's MLP; a ``forward_block`` still sends all of
        its rows. The results are those of the plain weights."""
        layout, n_language = ONE_TO_FOUR_CHUNKS[2014]
        model = init_model(small_config())
        counted, rows = count_last_w1_rows(model)
        seq = random_prompt(model.config, layout, n_language, seed=4)
        out = counted.prefill(seq, capture=capture)
        assert rows == [_HEAD_ROWS]
        plain = model.prefill(seq, capture=capture)
        assert np.array_equal(out.logits, plain.logits)
        if capture:
            assert np.array_equal(out.capture, plain.capture)
        rows.clear()
        tokens, positions = seq.language_tokens, np.arange(n_language)
        logits = counted.forward_block(counted.new_cache(), tokens, positions)
        assert sum(rows) == n_language
        assert np.array_equal(logits, model.forward_block(model.new_cache(), tokens, positions))

    @pytest.mark.parametrize("n_language", [16, 0])
    def test_video_rows_left_unchanged(self, n_language):
        """The forward updates its embedded input in place; the sequence's
        own video rows stay bitwise as they were, with or without tokens."""
        model = init_model(small_config())
        seq = random_prompt(model.config, n_language=n_language)
        before = seq.video_embeds.tobytes()
        model.prefill(seq)
        assert seq.video_embeds.tobytes() == before

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
        model = init_model(small_config())
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
        model = init_model(small_config())
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
    "full_no_layout": (
        SequenceError,
        lambda m: MultimodalSequence.full(None, np.zeros((2, D)), [3]),
    ),
    "seed_none": (ConfigError, lambda m: small_config(seed=None)),
    "seed_negative": (ConfigError, lambda m: small_config(seed=-1)),
    "seed_fraction": (ConfigError, lambda m: small_config(seed=1.5)),
    "seed_string": (ConfigError, lambda m: small_config(seed="x")),
    "seed_bool": (ConfigError, lambda m: small_config(seed=False)),
    "new_cache_negative": (ConfigError, lambda m: m.new_cache(-1)),
    "new_cache_fraction": (ConfigError, lambda m: m.new_cache(1.5)),
    "new_cache_bool": (ConfigError, lambda m: m.new_cache(True)),
    "config_bools": (
        ConfigError,
        lambda m: ModelConfig(n_layers=True, n_heads=1, d_model=True, vocab_size=2, seed=False),
    ),
    "layout_bool": (SequenceError, lambda m: VideoLayout(True, 2, 2)),
    # rotary encoding pairs a head's dimensions
    "head_width_odd": (ConfigError, lambda m: ModelConfig(1, 1, 3, 5)),
    "head_width_odd_two_heads": (ConfigError, lambda m: ModelConfig(1, 2, 6, 5)),
    "tokens_ragged": (SequenceError, lambda m: two_cells(tokens=[[3], [3, 4]])),
    "positions_ragged": (
        PositionError,
        lambda m: m.forward_block(m.new_cache(), [1, 2], [[0], [1, 2]]),
    ),
    "positions_column": (PositionError, lambda m: m.forward_block(m.new_cache(), [1, 2], [[0], [1]])),
    "positions_row": (PositionError, lambda m: m.forward_block(m.new_cache(), [1, 2], [[0, 1]])),
    "embeds_string": (SequenceError, lambda m: two_cells(embeds=[["x"] * D] * 2)),
    "items_string": (
        SequenceError,
        lambda m: m.forward_block(m.new_cache(), [["x"] * D] * 2, [0, 1]),
    ),
    "items_ragged": (
        SequenceError,
        lambda m: m.forward_block(m.new_cache(), [[1], [1, 2]], [0, 1]),
    ),
    "rollback_ragged": (RollbackError, lambda m: m.new_cache().rollback([[0], [0, 1]])),
    "tree_mask_ragged": (
        MaskError,
        lambda m: m.forward_tree(m.new_cache(), [1, 2], [0, 1], [[True], [True, True]]),
    ),
    "tree_mask_string": (
        MaskError,
        lambda m: m.forward_tree(m.new_cache(), [1, 2], [0, 1], [["a", ""], ["b", "c"]]),
    ),
    "tree_mask_float": (
        MaskError,
        lambda m: m.forward_tree(m.new_cache(), [1, 2], [0, 1], [[0.5, 0], [0.5, 0.2]]),
    ),
    # forwards take token ids: no embedding rows, no float ids, no empty block
    "items_float_rows": (
        SequenceError,
        lambda m: m.forward_block(m.new_cache(), np.zeros((2, D)), [0, 1]),
    ),
    "items_float_ids": (SequenceError, lambda m: m.forward_block(m.new_cache(), [1.0, 2.0], [0, 1])),
    "block_empty_int64": (
        SequenceError,
        lambda m: m.forward_block(m.new_cache(), np.zeros(0, np.int64), []),
    ),
    "block_empty_list": (SequenceError, lambda m: m.forward_block(m.new_cache(), [], [])),
    "tree_empty": (
        SequenceError,
        lambda m: m.forward_tree(m.new_cache(), np.zeros(0, np.int64), [], np.zeros((0, 0), bool)),
    ),
    "rollback_count": (RollbackError, lambda m: m.new_cache().rollback(0)),
    "token_ids_2d": (SequenceError, lambda m: m.forward_block(m.new_cache(), [[1, 2]], [0, 1])),
    "token_id_beyond_vocab": (
        SequenceError,
        lambda m: m.forward_block(m.new_cache(), [1, m.config.vocab_size], [0, 1]),
    ),
    "position_not_beyond_cache": (
        PositionError,
        lambda m: m.forward_block(m.prefill(random_prompt(m.config)).cache, [1, 2], [79, 80]),
    ),
    # a causal block's positions rise strictly, as one-item steps' do
    "block_positions_repeated": (
        PositionError,
        lambda m: m.forward_block(m.new_cache(), [1, 2], [0, 0]),
    ),
    "block_positions_falling": (
        PositionError,
        lambda m: m.forward_block(m.new_cache(), [1, 2], [1, 0]),
    ),
    "tree_one_position_per_node": (
        PositionError,
        lambda m: m.forward_tree(m.new_cache(), [1, 2], [0, 1], np.eye(3, dtype=bool)),
    ),
    "params_mismatch": (ConfigError, lambda m: Model(m.config, {})),
    "tokens_2d": (SequenceError, lambda m: two_cells(tokens=[[3]])),
    "embeds_count": (SequenceError, lambda m: two_cells(embeds=np.zeros((3, D)))),
    "token_negative": (SequenceError, lambda m: two_cells(tokens=[-1])),
    "sequence_empty": (
        SequenceError,
        lambda m: MultimodalSequence(VideoLayout(1, 1, 2), np.zeros((0, D)), [], []),
    ),
    # arguments of the wrong type
    "prefill_none": (SequenceError, lambda m: m.prefill(None)),
    "prefill_capture_string": (
        ConfigError,
        lambda m: m.prefill(random_prompt(m.config), capture="no"),
    ),
    "block_cache_none": (PositionError, lambda m: m.forward_block(None, [1, 2], [0, 1])),
    "tree_cache_none": (
        PositionError,
        lambda m: m.forward_tree(None, [1, 2], [0, 1], np.eye(2, dtype=bool)),
    ),
    "decode_cache_none": (PositionError, lambda m: m.decode_step(None, 1, 0)),
    "model_config_string": (ConfigError, lambda m: Model("x", {})),
    "model_params_none": (ConfigError, lambda m: Model(m.config, None)),
    "save_model_none": (ConfigError, lambda m: save_checkpoint(None, os.devnull)),
    # a cache that does not fit the model, or is not a cache of any model
    "block_cache_other_model": (
        PositionError,
        lambda m: m.forward_block(KvCache(1, 1, 2, 16), [1, 2], [0, 1]),
    ),
    "cache_layers_negative": (ConfigError, lambda m: KvCache(-1, 1, 2, 4)),
    "cache_layers_string": (ConfigError, lambda m: KvCache("x", 1, 2, 4)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUT))
def test_malformed_input_raises_typed_error(name):
    """Non-integer positions, tokens, indices and layout sizes, 1-D video
    embeddings, a missing layout (also in ``MultimodalSequence.full``), a
    seed that is not a non-negative integer, a ``bool`` where a size or
    seed is due, an odd head width, ragged or string arrays, a tree mask
    that is not boolean, a forward's input that is not token ids or is
    empty, a rollback count, token ids outside the vocabulary, positions
    not beyond the cache, repeated or falling within a block or not one per
    tree node, a mismatched parameter
    set, a malformed sequence, a cache, sequence, config, parameter set or
    model of the wrong type, a prefill ``capture`` that is not a ``bool``,
    a cache of another model's shape and a cache with a malformed size
    raise the package's own errors."""
    error, call = NON_INTEGER_INPUT[name]
    with pytest.raises(error):
        call(init_model(small_config()))


@pytest.mark.parametrize(
    "error, what, call",
    [
        (
            SequenceError,
            "language tokens",
            lambda m: MultimodalSequence.full(
                VideoLayout(1, 1, 2), np.zeros((2, D)), np.array([2**63 + 5], dtype=np.uint64)
            ),
        ),
        (
            PositionError,
            "positions",
            lambda m: m.forward_block(m.new_cache(), [1], np.array([2**64 - 1], dtype=np.uint64)),
        ),
    ],
    ids=["full_token_id", "block_position"],
)
def test_uint64_beyond_int64_rejected(error, what, call):
    """An unsigned value of 2**63 or more is refused as out of range with
    the caller's error, not wrapped to a negative int64 and misreported."""
    with pytest.raises(error, match=rf"^{what} must be below 2\*\*63"):
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
        rows_logits(model, cache, emb[:L0], positions[:L0])
        logits = rows_logits(model, cache, emb[L0:], positions[L0:])
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

    @staticmethod
    def prefill_peak(capture):
        """Traced peak bytes of a 1-layer, 8-head prefill of 512 items."""
        model = init_model(small_config(n_layers=1, n_heads=8))
        seq = random_prompt(model.config, VideoLayout(7, 8, 8), n_language=64)
        assert len(seq) == 512
        return traced_peak(lambda: model.prefill(seq, capture=capture))[1]

    def test_prefill_peak_below_one_score_array(self):
        """The prefill never holds an (8, 512, 512) float64 score array
        (16 MiB)."""
        assert self.prefill_peak(capture=False) < 8 * 512 * 512 * 8

    def test_capture_prefill_peak_below_one_score_array(self):
        """Nor does it with the guidance capture on."""
        assert self.prefill_peak(capture=True) < 8 * 512 * 512 * 8

    def test_causal_block_allocates_no_square_mask(self):
        """A 4000-item causal block from an empty cache never holds an
        (n, n) array: its traced peak stays below 4000**2 bytes, the size of
        one boolean mask over the block."""
        model = init_model(small_config(n_layers=1, n_heads=1, d_model=8, vocab_size=16))
        n = 4000
        tokens = np.arange(n) % model.config.vocab_size
        _, peak = traced_peak(lambda: model.forward_block(model.new_cache(), tokens, np.arange(n)))
        assert peak < n**2


def scaled_qk(model, scale):
    """``model`` with every layer's ``(wq, wk)`` replaced by ``scale(wq, wk)``."""
    params = dict(model.params)
    for layer in range(model.config.n_layers):
        pre = f"layers.{layer}."
        params[pre + "wq"], params[pre + "wk"] = scale(params[pre + "wq"], params[pre + "wk"])
    return Model(model.config, params)


class TestUnshiftedSoftmax:
    """A tile whose unshifted ``exp`` overflows or underflows is computed
    again with the row maximum shifted out; warnings are errors here, so a
    tile kept with an inf or a zero row sum would fail with NaN or raise."""

    @staticmethod
    def check_block(model, seq):
        logits = rows_logits(model, model.new_cache(), model.embed_sequence(seq), seq.positions)
        expected, _ = reference_forward(model, seq)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12 * scale)

    def test_overflow_falls_back(self):
        """wq and wk scaled by 300: scores reach the thousands, so ``exp``
        overflows; the 130-row block spans three tiles."""
        model = scaled_qk(init_model(small_config()), lambda wq, wk: (300 * wq, 300 * wk))
        seq = random_prompt(model.config, VideoLayout(2, 4, 4), n_language=98, seed=4)
        assert len(seq) == 130
        assert reference_row_max(model, seq).max() > 710  # exp(710) overflows
        self.check_block(model, seq)

    def test_underflow_falls_back(self):
        """wk = -1e7 wq and eight items with one embedding: every score is
        a large negative multiple of a positive dot product, so every row
        sum of the unshifted ``exp`` underflows to zero."""
        model = scaled_qk(init_model(small_config()), lambda wq, wk: (wq, -1e7 * wq))
        row = model.params["embed"][5]
        seq = MultimodalSequence.full(VideoLayout(1, 2, 2), np.tile(row, (4, 1)), [5, 5, 5, 5])
        assert reference_row_max(model, seq).max() < -746  # exp(-746) is 0.0
        self.check_block(model, seq)


def rotate(x, positions):
    """``x`` (n, heads, d_head) rotated as the model's core rotates k."""
    out = x.copy()
    out.view(np.complex128)[...] *= rope(positions, x.shape[-1])
    return out


class TestRope:
    @pytest.mark.parametrize("rotation", [rotate, reference_rope], ids=["model", "reference"])
    @pytest.mark.parametrize("pos", [0, 1, 5, 300])
    def test_first_pair_rotates_by_position(self, rotation, pos):
        """A unit vector in dims (0, 1) turns by ``pos * theta**0`` radians
        within its own pair; every other dim stays zero."""
        x = np.zeros((1, 2, 16))
        x[:, :, 0] = 1.0
        out = rotation(x, np.array([pos]))
        expected = np.zeros_like(x)
        expected[:, :, 0], expected[:, :, 1] = np.cos(pos), np.sin(pos)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_score_depends_on_offset_only(self):
        """q . k is unchanged when both positions move by the same shift."""
        rng = np.random.default_rng(1)
        q, k = rng.normal(size=(2, 1, 1, 32))
        dots = [
            np.vdot(rotate(q, np.array([p])), rotate(k, np.array([p - 5])))
            for p in (5, 6, 100, 3000)
        ]
        np.testing.assert_allclose(dots, dots[0], rtol=1e-12)


class TestDecode:
    def test_decode_extends_cache(self):
        model = init_model(small_config())
        seq = random_prompt(model.config)
        out = model.prefill(seq)
        n = out.cache.length
        model.decode_step(out.cache, 3, position=seq.original_length)
        assert out.cache.length == n + 1

    def test_non_finite_embedding_rejected(self):
        """An embedding row is not a token id: ``decode_step`` refuses it,
        NaN and all, before any slot is written."""
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        n = out.cache.length
        row = np.full(model.config.d_model, 0.01)
        row[7] = np.nan
        with pytest.raises(SequenceError):
            model.decode_step(out.cache, row, 80)
        assert out.cache.length == n

    def test_two_items_rejected(self):
        """One position is given, so a two-item input fails the block's
        one-position-per-item check before any slot is written."""
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        with pytest.raises(PositionError):
            model.decode_step(out.cache, [1, 2], 80)
        assert out.cache.length == 80

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


def every_mask(n_max):
    """Every (n, n) boolean mask with 1 <= n <= n_max."""
    return [
        ((bits >> np.arange(n * n)) & 1).astype(bool).reshape(n, n)
        for n in range(1, n_max + 1)
        for bits in range(2 ** (n * n))
    ]


def every_tree_shaped_mask(n_max):
    """Every (n, n) mask with 1 <= n <= n_max that admits each node to
    itself and no later node: one per set of entries below the diagonal."""
    masks = []
    for n in range(1, n_max + 1):
        rows, cols = np.tril_indices(n, k=-1)
        for bits in range(2 ** rows.size):
            mask = np.eye(n, dtype=bool)
            mask[rows, cols] = (bits >> np.arange(rows.size)) & 1
            masks.append(mask)
    return masks


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

    @pytest.mark.parametrize(
        "mask",
        [
            np.array(True),
            np.ones((2, 3), dtype=bool),
            np.array([[1, 0], [1, 0]], dtype=bool),
            np.ones((2, 2), dtype=bool),
        ],
        ids=["scalar", "non_square", "no_diagonal", "descendant"],
    )
    def test_malformed_mask_rejected(self, mask):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        with pytest.raises(MaskError):
            model.forward_tree(out.cache, [1, 2], [80, 81], mask)
        assert out.cache.length == 80

    @pytest.mark.parametrize(
        "masks",
        [every_mask(3), every_tree_shaped_mask(5)],
        ids=["every_mask_n_le_3", "every_lower_triangle_n_le_5"],
    )
    def test_depths_match_reference(self, masks):
        """``_tree_depths`` accepts exactly the masks the node-by-node
        reference accepts, with the same depths: all 530 masks with n <= 3,
        and the 1,099 masks with n <= 5 that admit each node to itself and
        no later node, which differ only in ancestor closure."""
        accepted = 0
        for mask in masks:
            try:
                expected = reference_tree_depths(mask)
            except MaskError:
                with pytest.raises(MaskError):
                    _tree_depths(mask)
                continue
            assert np.array_equal(_tree_depths(mask), expected), mask.astype(int)
            accepted += 1
        assert 0 < accepted < len(masks)

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
        out.cache.rollback(range(out.cache.length))
        assert np.array_equal(out.cache.pos[: out.cache.length], before)

    def test_max_position_of_an_empty_cache(self):
        """-1 on a new cache and on one rolled back to nothing."""
        model = init_model(small_config())
        cache = model.new_cache()
        assert cache.max_position == -1
        cache = model.prefill(random_prompt(model.config)).cache
        cache.rollback(range(0))
        assert cache.max_position == -1

    def test_rollback_zero_then_refill(self):
        model = init_model(small_config())
        seq = random_prompt(model.config, seed=9)
        out = model.prefill(seq)
        fresh = model.prefill(seq)
        out.cache.rollback(range(0))
        logits = rows_logits(model, out.cache, model.embed_sequence(seq), seq.positions)
        assert np.array_equal(logits[-1], fresh.logits)

    def test_decode_after_rollback_matches_fresh(self):
        """prefill 10, decode 3, rollback(range(10)), decode X == prefill 10,
        decode X."""
        config = small_config()
        model = init_model(config)
        tokens = np.arange(10) + 30
        cache = text_cache(model, tokens)
        for i, t in enumerate((1, 2, 3)):
            model.decode_step(cache, t, 10 + i)
        cache.rollback(range(10))
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

    def test_clone_copies_live_slots(self):
        rng = np.random.default_rng(1)
        cache = KvCache(2, 3, 4, capacity=16)
        cache.k[:] = rng.normal(size=cache.k.shape)
        cache.v[:] = rng.normal(size=cache.v.shape)
        cache.pos[:12] = 3 * np.arange(12)
        cache.length = 12
        k, v = cache.k.copy(), cache.v.copy()
        other = cache.clone()
        assert other.capacity == cache.capacity and other.length == 12
        assert np.array_equal(other.k[:, :12], k[:, :12])
        assert np.array_equal(other.v[:, :12], v[:, :12])
        assert np.array_equal(other.pos[:12], cache.pos[:12])
        other.k[:, 3] = 0.0
        other.v[:, 3] = 0.0
        other.pos[3] = -1
        assert np.array_equal(cache.k, k) and np.array_equal(cache.v, v)
        assert cache.pos[3] == 9

    def test_new_cache_holds_headroom(self):
        model = init_model(small_config())
        assert model.new_cache().capacity == _CACHE_HEADROOM
        assert model.new_cache(10).capacity == 10 + _CACHE_HEADROOM

    def test_block_overflow_grows_to_needed_plus_headroom(self):
        """A block past a ``new_cache()`` cache's free slots grows it once, to
        the items it needs plus the headroom, keeps the live slots bitwise,
        and gives the logits of a cache sized up front."""
        model = init_model(small_config())
        rng = np.random.default_rng(5)
        first, block = rng.integers(0, 256, 40), rng.integers(0, 256, _CACHE_HEADROOM)
        needed = first.size + block.size
        cache = text_cache(model, first)
        k, v, pos = cache.k[:, :40].copy(), cache.v[:, :40].copy(), cache.pos[:40].copy()
        grown = model.forward_block(cache, block, 40 + np.arange(block.size))
        assert cache.capacity == needed + _CACHE_HEADROOM
        assert np.array_equal(cache.k[:, :40], k)
        assert np.array_equal(cache.v[:, :40], v)
        assert np.array_equal(cache.pos[:40], pos)

        sized = model.new_cache(needed)
        model.forward_block(sized, first, np.arange(40))
        assert np.array_equal(grown, model.forward_block(sized, block, 40 + np.arange(block.size)))
        assert sized.capacity == needed + _CACHE_HEADROOM
        assert np.array_equal(cache.k[:, :needed], sized.k[:, :needed])
        assert np.array_equal(cache.v[:, :needed], sized.v[:, :needed])
        assert np.array_equal(cache.pos[:needed], sized.pos[:needed])

    @pytest.mark.parametrize("capacity", ["x", None, 2.7, -5, 0, True])
    def test_malformed_capacity_rejected(self, capacity):
        with pytest.raises(ConfigError):
            KvCache(1, 1, 2, capacity=capacity)

    def test_keep_beyond_length_rejected(self):
        model = init_model(small_config())
        out = model.prefill(random_prompt(model.config))
        with pytest.raises(RollbackError):
            out.cache.rollback(range(out.cache.length + 1))

    @pytest.mark.parametrize(
        "keep",
        [np.arange(2.7), "a", np.ones(12, dtype=bool), np.arange(-1, 12)],
        ids=["count_fraction", "string", "bool", "count_negative"],
    )
    def test_malformed_keep_rejected(self, keep):
        """The range of a fractional count (float slots), a string, a
        boolean mask over the slots and a range that starts below zero raise
        ``RollbackError`` and leave the cache as it was; malformed slot
        subsets are in ``test_sequence``'s index-set table."""
        cache = KvCache(1, 1, 2, capacity=16)
        cache.pos[:12] = np.arange(12)
        cache.length = 12
        with pytest.raises(RollbackError):
            cache.rollback(keep)
        assert cache.length == 12
        assert np.array_equal(cache.pos[:12], np.arange(12))


def version_1_tensors(config):
    """The per-tensor index a version-1 header carried after its config."""
    shapes = param_shapes(config)
    entries, offset = [], 0
    for name in sorted(shapes):
        entries.append({"name": name, "shape": list(shapes[name]), "dtype": "float32", "offset": offset})
        offset += 4 * int(np.prod(shapes[name]))
    return entries


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = init_model(small_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name]), name

    def test_bytes_pinned_across_versions(self, tmp_path):
        """The file of ``init_model(small_config())`` hashes to a recorded
        digest: header, tensor order and float32 narrowing stay as written."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_DIGEST

    def test_staging_shares_no_memory(self, tmp_path):
        """Every tensor, the embedding table included, passes through one
        staging buffer in init, save and load, yet no two weights of an
        initialised or a loaded model share memory, and save leaves every
        weight bitwise as it was."""
        model = init_model(small_config())
        before = {name: w.copy() for name, w in model.params.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        for name, w in before.items():
            assert np.array_equal(model.params[name], w), name
        for params in (model.params, load_checkpoint(path).params):
            for a, b in itertools.combinations(sorted(params), 2):
                assert not np.shares_memory(params[a], params[b]), (a, b)

    def test_header_is_textual(self, tmp_path):
        model = init_model(small_config(n_layers=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with open(path, "rb") as fh:
            assert fh.readline() == b"VIDSPEC-CKPT 4\n"
            header = json.loads(fh.readline().decode("ascii"))
        assert header == {"config": asdict(model.config)}

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

    def test_overlong_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config(n_layers=1)), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        """A file in the earlier format: same data, but a version-1 magic
        line and a header that also lists every tensor."""
        path = tmp_path / "model.ckpt"
        model = init_model(small_config(n_layers=1))
        save_checkpoint(model, path)
        _magic, _header, data = path.read_bytes().split(b"\n", 2)
        header = {"config": asdict(model.config), "tensors": version_1_tensors(model.config)}
        header = json.dumps(header, separators=(",", ":")).encode("ascii")
        path.write_bytes(b"VIDSPEC-CKPT 1\n" + header + b"\n" + data)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_version_2_file_rejected(self, tmp_path):
        """Files in the two formats before this one: version 2, before
        adjacent-pair rotary encoding, had the same header and data, whose
        wq and wk columns pair up differently; version 3 also stored each
        RMSNorm gain, all ones, among the tensors."""
        path = tmp_path / "model.ckpt"
        model = init_model(small_config(n_layers=1))
        save_checkpoint(model, path)
        _magic, header, data = path.read_bytes().split(b"\n", 2)
        names = ["layers.0.attn_norm", "layers.0.mlp_norm", "final_norm"]
        gains = dict.fromkeys(names, np.ones(model.config.d_model))
        tensors = {**model.params, **gains}
        v3_data = b"".join(tensors[name].astype("<f4").tobytes() for name in sorted(tensors))
        for version, body in ((2, data), (3, v3_data)):
            path.write_bytes(b"VIDSPEC-CKPT %d\n" % version + header + b"\n" + body)
            with pytest.raises(ConfigError):
                load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        model = init_model(small_config(n_layers=1))
        model.params["layers.0.wk"][3, 4] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
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
            lambda header: {"config": {"n_layers": 1}},
            lambda header: [header],
            lambda header: {**header, "config": {**header["config"], "n_layers": 1.5}},
            lambda header: {**header, "config": {**header["config"], "rope_theta": "1e4"}},
            lambda header: {**header, "config": {**header["config"], "seed": "abc"}},
            lambda header: {
                **header,
                "tensors": version_1_tensors(ModelConfig(**header["config"])),
            },
            lambda header: {**header, "config": {**header["config"], "vocab_size": 10**12}},
        ],
        ids=[
            "empty",
            "partial_config",
            "list",
            "n_layers_fraction",
            "rope_theta_string",
            "seed_string",
            "tensors_key",
            "vocab_beyond_data",
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

    def test_huge_config_rejected_before_per_layer_work(self, tmp_path):
        """A 40-byte data section under ``n_layers=10**4`` is rejected from
        the header alone, before a per-layer shape table is built."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(small_config(n_layers=1)), path)
        magic, header, data = path.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header["config"]["n_layers"] = 10**4
        path.write_bytes(magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + data[:40])
        _, peak = traced_peak(lambda: pytest.raises(ConfigError, load_checkpoint, path))
        assert peak < 2**20

    @staticmethod
    def param_bytes(model):
        """The bytes the params take in memory."""
        return sum(arr.nbytes for arr in model.params.values())

    @staticmethod
    def data_bytes(model):
        """The bytes of a checkpoint's data section: every entry as float32."""
        return sum(4 * arr.size for arr in model.params.values())

    def test_save_streams_tensors(self, tmp_path):
        """Save never holds the data section: its traced peak stays below a
        quarter of the data bytes (the largest float32 tensor here is 7%)."""
        model = init_model(small_config(n_layers=4))
        _, peak = traced_peak(lambda: save_checkpoint(model, tmp_path / "model.ckpt"))
        assert peak < self.data_bytes(model) / 4

    def test_load_streams_tensors(self, tmp_path):
        """Load holds the params and at most a quarter of the data bytes
        besides, never the whole data section."""
        model = init_model(small_config(n_layers=4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        p = self.param_bytes(model)
        loaded, peak = traced_peak(lambda: load_checkpoint(path))
        assert self.param_bytes(loaded) == p
        assert peak < p + self.data_bytes(model) / 4
