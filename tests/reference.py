"""Float64 reference forward that keeps every attention probability.

A plain re-implementation of the model's architecture from its parameters
alone: one unchunked causal pass over the whole sequence, with explicit masks
and einsums. It stores the full (n_layers, n_heads, N, N) attention, which the
package never does, so tests can compare the guidance that ``prefill``
accumulates against the mean of the materialized block.
"""

import numpy as np

from vidspec.errors import MaskError

RMS_EPS = 1e-6  # the model's documented RMSNorm epsilon
ROPE_THETA = 10000.0  # the model's documented rotary base


def _rms(x):
    """RMSNorm with no gain, as the model documents it."""
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)


def reference_rope(x, positions):
    """Rotate each adjacent pair (2i, 2i+1) of the last axis by
    ``position * ROPE_THETA**(-2i / d_head)``, in real arithmetic."""
    d_head = x.shape[-1]
    inv_freq = ROPE_THETA ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = positions[:, None].astype(np.float64) * inv_freq[None, :]
    cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def reference_forward(model, seq):
    """Causal forward of ``seq`` in one block.

    Returns ``(logits, probs)``: logits ``(N, vocab)`` for every item and the
    post-softmax attention ``probs[l, h, i, j]`` of item i on item j.
    """
    logits, probs, _ = _forward(model, seq)
    return logits, probs


def reference_row_max(model, seq):
    """``(n_layers, n_heads, N)``: each attention row's largest scaled score
    over the columns it sees, before the softmax shifts it out."""
    return _forward(model, seq)[2]


def _forward(model, seq):
    c, p = model.config, model.params
    parts = [seq.video_embeds] if seq.n_video else []
    parts.append(p["embed"][seq.language_tokens])
    h = np.concatenate(parts, axis=0).astype(np.float64)
    n = h.shape[0]
    positions = seq.positions
    causal = np.tril(np.ones((n, n), dtype=bool))
    probs = np.zeros((c.n_layers, c.n_heads, n, n))
    row_max = np.zeros((c.n_layers, c.n_heads, n))
    for layer in range(c.n_layers):
        pre = f"layers.{layer}."
        x = _rms(h)
        q = (x @ p[pre + "wq"]).reshape(n, c.n_heads, c.d_head)
        q = reference_rope(q, positions)
        k = (x @ p[pre + "wk"]).reshape(n, c.n_heads, c.d_head)
        k = reference_rope(k, positions)
        v = (x @ p[pre + "wv"]).reshape(n, c.n_heads, c.d_head)
        scores = np.einsum("ihd,jhd->hij", q, k) / np.sqrt(c.d_head)
        scores = np.where(causal, scores, -np.inf)
        row_max[layer] = scores.max(axis=-1)
        weights = np.exp(scores - row_max[layer][..., None])
        probs[layer] = weights / weights.sum(axis=-1, keepdims=True)
        ctx = np.einsum("hij,jhd->ihd", probs[layer], v).reshape(n, c.d_model)
        h = h + ctx @ p[pre + "wo"]
        x = _rms(h)
        a = x @ p[pre + "w1"]
        h = h + (a / (1.0 + np.exp(-a))) @ p[pre + "w2"]
    return _rms(h) @ p["head"], probs, row_max


def reference_guidance(model, seq):
    """Language-row/video-column block of the reference attention, averaged
    over layers and heads: ``(n_language, n_video)``."""
    _, probs = reference_forward(model, seq)
    return probs[:, :, seq.n_video :, : seq.n_video].mean(axis=(0, 1))


def reference_tree_depths(mask):
    """Each node's depth in the tree a boolean ``mask`` encodes, found node
    by node from explicit ancestor sets; ``MaskError`` for a mask that is not
    square, misses a diagonal entry, admits a later node, or admits a node
    outside the ancestors of the last one it admits."""
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise MaskError(f"tree mask must be square, got shape {mask.shape}")
    n = mask.shape[0]
    if not np.all(np.diagonal(mask)):
        raise MaskError("tree mask must admit self-attention")
    if np.any(np.triu(mask, k=1)):
        raise MaskError("tree mask admits a descendant")
    depths = np.zeros(n, dtype=np.int64)
    ancestors = []
    for i in range(n):
        anc = frozenset(np.flatnonzero(mask[i, :i]).tolist())
        if anc:
            parent = max(anc)
            if anc != ancestors[parent] | {parent}:
                raise MaskError(f"node {i} attends to a non-ancestor")
            depths[i] = depths[parent] + 1
        ancestors.append(anc)
    return depths
