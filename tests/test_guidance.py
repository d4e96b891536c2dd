"""Guidance extraction and scoring."""

import numpy as np
import pytest

from vidspec.errors import GuidanceError
from vidspec.guidance import GuidanceMatrix, GuidanceScores, extract_guidance, score_tokens
from vidspec.model import ModelConfig, init_model
from vidspec.pruning import descending_order
from vidspec.sequence import MultimodalSequence, VideoLayout

from reference import reference_forward


def video_seq(layout, n_language, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return MultimodalSequence.full(
        layout, rng.normal(size=(layout.total, d)), rng.integers(0, 50, n_language)
    )


def prefill_guidance(n_layers, n_heads, seq):
    """Guidance matrix from a real capture prefill, plus the reference attention."""
    config = ModelConfig(
        n_layers=n_layers, n_heads=n_heads, d_model=16, vocab_size=64, seed=5
    )
    model = init_model(config)
    g = extract_guidance(model.prefill(seq, capture=True).capture, seq)
    _, probs = reference_forward(model, seq)
    return g, probs[:, :, seq.n_video :, : seq.n_video]


class TestExtractGuidance:
    def test_single_layer_head_is_raw_submatrix(self):
        seq = video_seq(VideoLayout(1, 2, 2), 3, d=16)
        g, block = prefill_guidance(1, 1, seq)
        np.testing.assert_allclose(g.values, block[0, 0], rtol=1e-12, atol=0)

    def test_two_layer_mean(self):
        seq = video_seq(VideoLayout(1, 2, 2), 3, d=16)
        g, block = prefill_guidance(2, 1, seq)
        np.testing.assert_allclose(
            g.values, (block[0, 0] + block[1, 0]) / 2, rtol=1e-12, atol=0
        )

    def test_no_language_rows_rejected(self):
        layout = VideoLayout(1, 1, 2)
        seq = MultimodalSequence.full(layout, np.zeros((2, 4)), np.zeros(0, dtype=int))
        with pytest.raises(GuidanceError):
            extract_guidance(np.zeros((0, 2)), seq)

    def test_length_mismatch_rejected(self):
        seq = video_seq(VideoLayout(1, 1, 2), 2)
        for shape in [(3, 2), (2, 3), (4,), (2, 2, 1)]:
            with pytest.raises(GuidanceError):
                extract_guidance(np.zeros(shape), seq)

    MALFORMED_GUIDANCE = {
        "capture_nan": lambda seq: extract_guidance(np.full((2, 2), np.nan), seq),
        "capture_inf": lambda seq: extract_guidance(np.array([[0.1, np.inf], [0.1, 0.1]]), seq),
        "capture_string": lambda seq: extract_guidance([["a", "b"], ["c", "d"]], seq),
        "scores_inf": lambda seq: GuidanceScores([np.inf]),
        "matrix_no_rows": lambda seq: GuidanceMatrix(np.zeros((0, 3))),
        "sequence_none": lambda seq: extract_guidance(np.zeros((2, 2)), None),
        "score_raw_array": lambda seq: score_tokens(np.zeros((2, 2))),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED_GUIDANCE))
    def test_malformed_guidance_rejected(self, name):
        """A capture or scores holding NaN, inf or strings, a guidance
        matrix without language rows, a sequence that is not a
        ``MultimodalSequence`` and a raw array scored in place of a
        ``GuidanceMatrix`` raise ``GuidanceError``."""
        with pytest.raises(GuidanceError):
            self.MALFORMED_GUIDANCE[name](video_seq(VideoLayout(1, 1, 2), 2))

    def test_pruned_sequence_rejected(self):
        full = video_seq(VideoLayout(1, 1, 3), 2)
        pruned = MultimodalSequence(
            full.layout, full.video_embeds[:2], full.video_indices[:2], full.language_tokens
        )
        with pytest.raises(GuidanceError):
            extract_guidance(np.full((2, 2), 0.1), pruned)

    def test_real_prefill_rows_bounded(self):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=32, vocab_size=64, seed=3)
        model = init_model(config)
        layout = VideoLayout(2, 2, 2)
        seq = video_seq(layout, 5, d=32)
        cap = model.prefill(seq, capture=True).capture
        g = extract_guidance(cap, seq)
        assert g.values.shape == (5, 8)
        assert np.all(g.values >= 0) and np.all(g.values <= 1)
        assert np.all(g.values.sum(axis=1) <= 1.0 + 1e-6)


class TestScoreTokens:
    def test_column_means_hand_case(self):
        g = GuidanceMatrix(np.array([[0.1, 0.9], [0.3, 0.7]]))
        np.testing.assert_allclose(score_tokens(g).values, [0.2, 0.8], atol=1e-12)

    def test_single_row_passthrough(self):
        g = GuidanceMatrix(np.array([[0.4, 0.1, 0.2]]))
        np.testing.assert_allclose(score_tokens(g).values, [0.4, 0.1, 0.2])

    def test_symmetric_rows(self):
        g = GuidanceMatrix(np.full((3, 4), 0.2))
        np.testing.assert_allclose(score_tokens(g).values, [0.2] * 4)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(size=(7, 13))
        fast = score_tokens(GuidanceMatrix(vals)).values
        slow = np.array(
            [sum(vals[i][j] for i in range(7)) / 7 for j in range(13)]
        )
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(size=(5, 11))
        perm = rng.permutation(11)
        a = score_tokens(GuidanceMatrix(vals)).values
        b = score_tokens(GuidanceMatrix(vals[:, perm])).values
        np.testing.assert_array_equal(a[perm], b)

    def test_scale_covariance_preserves_order(self):
        rng = np.random.default_rng(10)
        vals = rng.uniform(size=(4, 9))
        a = score_tokens(GuidanceMatrix(vals)).values
        b = score_tokens(GuidanceMatrix(3.5 * vals)).values
        np.testing.assert_allclose(b, 3.5 * a, rtol=1e-12)
        np.testing.assert_array_equal(descending_order(a), descending_order(b))
