"""Deterministic decoder-only transformer over mixed video/language input.

Architecture (documented because nothing upstream pins it): pre-norm blocks
whose RMSNorm has no gain (a row divided by its root mean square), rotary
position encoding applied per item at its *original* position index, SiLU
feed-forward with a 4x hidden width, untied output head. All arithmetic runs
in float64. Weights are drawn in float32, so a float32 checkpoint
round-trips bit-exactly: the embedding table, which is only ever gathered by
rows, stays float32 and ``embed_items`` widens the rows it gathers; every
matmul weight is widened to float64 once. ``Model`` refuses any other dtype.

Incremental decoding, batched causal continuation and tree-masked forwards all
share one attention core (`_hidden`), which is why their outputs agree to
floating-point reduction error and why a rolled-back cache reproduces a fresh
one bitwise. `forward_block` and `forward_tree` run the core and then the head
(RMSNorm, then `head`); `prefill` runs the core chunk by chunk and the
head on the final chunk's last rows alone. The core's tile, softmax, buffer
and last-layer rules are stated once, in `Model._hidden`; prefill's chunk rule
in `Model.prefill`; the cache sizing rule in `KvCache`; the float32 staging
buffer that `init_model`, `save_checkpoint` and `load_checkpoint` pass
every tensor through in `_staged`.

Rotary encoding rotates each adjacent pair ``(2i, 2i+1)`` of a head's q and k
dimensions by ``position * theta**(-2i / d_head)`` (RoFormer's pairing): the
pairs are read as complex numbers and rotated by one in-place complex
multiply, with ``1/sqrt(d_head)`` folded into q's rotation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    MaskError,
    PositionError,
    RollbackError,
    SequenceError,
)
from .sequence import MultimodalSequence, as_array, check_integer, check_type
from .sequence import index_array, integer_array

_RMS_EPS = 1e-6
_PREFILL_CHUNK = 512
_ROW_TILE = 64  # block rows per attention tile
_HEAD_ROWS = 4  # final rows a prefill takes past its last layer (see Model.prefill)
_CACHE_HEADROOM = 256  # free slots a cache keeps beyond its items (see KvCache)
_CKPT_MAGIC = "VIDSPEC-CKPT 4"
_ROPE_THETA = 10000.0
MAX_POSITIONS = 4096  # every position lies in [0, MAX_POSITIONS)
# An unshifted tile is kept when every softmax row sum lies in [_Z_MIN, _Z_MAX].
_Z_MIN, _Z_MAX = 1e-250, 1e250


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    vocab_size: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "vocab_size"):
            check_integer(getattr(self, name), 1, ConfigError, name)
        if self.d_model % self.n_heads or self.d_head % 2:  # rotary encoding pairs dims
            raise ConfigError(f"d_model={self.d_model} needs {self.n_heads} heads of even width")
        check_integer(self.seed, 0, ConfigError, "seed")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every weight tensor, in a fixed order."""
    d, v, f = config.d_model, config.vocab_size, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embed": (v, d), "head": (d, v)}
    for layer in range(config.n_layers):
        p = f"layers.{layer}."
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "w1"] = (d, f)
        shapes[p + "w2"] = (f, d)
    return shapes


def _weight_dtype(name: str) -> type:
    """The dtype of weight ``name``: float32 for the embedding table, which
    only row gathers read, and float64 for every matmul weight."""
    return np.float32 if name == "embed" else np.float64


class KvCache:
    """Per-layer key/value store with a shared logical length and position tags.

    Slots beyond ``length`` are dead storage that nothing initialises or
    clears: every read is bounded by the logical length, so truncating
    rollback is just a length reset and leaves subsequent writes identical
    to a fresh cache. Sizing: a cache holds its items plus
    ``_CACHE_HEADROOM`` free slots, when made (``Model.new_cache``) and when
    grown (``ensure_capacity``).

    ``k`` and ``v`` stay C-contiguous: ``Model._hidden`` writes a block's
    keys and values into them through ``reshape`` views.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, capacity: int):
        sizes = {"n_layers": n_layers, "n_heads": n_heads, "d_head": d_head, "capacity": capacity}
        for name, value in sizes.items():
            check_integer(value, 1, ConfigError, name)
        self.k = np.empty((n_layers, capacity, n_heads, d_head))
        self.v = np.empty((n_layers, capacity, n_heads, d_head))
        self.pos = np.empty(capacity, dtype=np.int64)
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[1]

    @property
    def max_position(self) -> int:
        """Largest position tag among live slots, -1 when empty."""
        return int(self.pos[: self.length].max(initial=-1))

    def _resized(self, capacity: int) -> "KvCache":
        """A new cache of ``capacity`` slots holding a copy of the live slots."""
        n_layers, _, n_heads, d_head = self.k.shape
        other = KvCache(n_layers, n_heads, d_head, capacity)
        n = self.length
        other.k[:, :n] = self.k[:, :n]
        other.v[:, :n] = self.v[:, :n]
        other.pos[:n] = self.pos[:n]
        other.length = n
        return other

    def ensure_capacity(self, needed: int) -> None:
        if needed > self.capacity:
            grown = self._resized(needed + _CACHE_HEADROOM)
            self.k, self.v, self.pos = grown.k, grown.v, grown.pos

    def rollback(self, keep) -> None:
        """Keep the slots ``keep``, a strictly increasing integer index array
        (a prefix is ``range(k)``), in order.

        A subset rollback reproduces a fresh cache only when every kept slot
        attended kept slots alone when it was written. Prefixes satisfy this
        trivially; so does a committed prefix plus one accepted tree path,
        because the tree mask hides siblings from each other.
        """
        idx = index_array(keep, self.length, RollbackError, "kept slots")
        m = idx.size
        # idx is strictly increasing from >= 0, so idx[i] >= i and the slots
        # that stay where they are form a prefix; only the rest is gathered.
        s = int(np.count_nonzero(idx == np.arange(m)))
        self.k[:, s:m] = self.k[:, idx[s:]]
        self.v[:, s:m] = self.v[:, idx[s:]]
        self.pos[s:m] = self.pos[idx[s:]]
        self.length = m

    def clone(self) -> "KvCache":
        """A copy of the live slots, at the same capacity."""
        return self._resized(self.capacity)


@dataclass
class PrefillResult:
    """Cache and final-item logits of one prefill.

    ``capture`` is None unless ``prefill(seq, capture=True)`` sets it: an
    ``(n_language, n_video)`` float64 array whose entry ``[i, j]`` is the
    attention probability of language item i on video item j, averaged over
    every layer and head. It is the guidance block, accumulated while the
    forward runs; the full attention matrix is never stored.
    """

    cache: KvCache
    logits: np.ndarray  # (vocab,) for the final item
    capture: np.ndarray | None


def _rms_norm(x: np.ndarray) -> np.ndarray:
    """RMSNorm of the rows of a 2-D ``x``, with no gain."""
    return x / np.sqrt(np.einsum("ij,ij->i", x, x) / x.shape[1] + _RMS_EPS)[:, None]


def rope(positions: np.ndarray, d_head: int) -> np.ndarray:
    """(n, 1, d_head // 2) complex rotations ``exp(1j * p * _ROPE_THETA**(-2i / d_head))``.

    Multiplying the complex view of (n, heads, d_head) float vectors by them
    rotates each adjacent pair ``(2i, 2i+1)`` at its row's position ``p``.
    """
    inv_freq = _ROPE_THETA ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    return np.exp(1j * np.multiply.outer(positions.astype(np.float64), inv_freq))[:, None, :]


class Model:
    """Immutable-after-init transformer; safe to share read-only across sessions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        check_type(config, ModelConfig, ConfigError, "config")
        check_type(params, dict, ConfigError, "params")
        expected = param_shapes(config)
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ConfigError(f"parameter set mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            w = params[name]
            dtype = _weight_dtype(name)
            if not isinstance(w, np.ndarray) or w.dtype != dtype or w.shape != shape:
                got = f"{w.dtype} {w.shape}" if isinstance(w, np.ndarray) else type(w).__name__
                want = f"a {dtype.__name__} array of shape {shape}"
                raise ConfigError(f"{name}: expected {want}, got {got}")
            # embed is a finite float32 array, every other weight a finite
            # float64 one; the sum allocates nothing and is finite when every
            # entry is, so only an overflowed sum reads the entries
            with np.errstate(over="ignore", invalid="ignore"):
                if not (np.isfinite(w.sum()) or np.isfinite(w).all()):
                    raise ConfigError(f"{name}: tensor holds NaN or inf")
        self.config = config
        self.params = params

    # -- construction -----------------------------------------------------

    def new_cache(self, items: int = 0) -> KvCache:
        """An empty cache sized for ``items`` items (see ``KvCache``)."""
        check_integer(items, 0, ConfigError, "items")
        c = self.config
        return KvCache(c.n_layers, c.n_heads, c.d_head, items + _CACHE_HEADROOM)

    def embed_items(self, items) -> np.ndarray:
        """Token ids (an int or a 1-D integer array) -> their embedding rows,
        gathered from the float32 table and widened into a new (n, d_model)
        float64 array, which ``_hidden`` may update in place; n may be 0."""
        ids = np.atleast_1d(integer_array(items, SequenceError, "token ids"))
        if ids.ndim != 1:
            raise SequenceError("token id input must be 1-D")
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise SequenceError("token id outside vocabulary")
        return self.params["embed"][ids].astype(np.float64)

    def embed_sequence(self, seq: MultimodalSequence) -> np.ndarray:
        """``seq``'s video rows (admitted by ``MultimodalSequence``) then its
        token embeddings, as one new (len(seq), d_model) float64 array."""
        tokens = self.embed_items(seq.language_tokens)
        if not seq.n_video:
            return tokens
        d = self.config.d_model
        if seq.video_embeds.shape[1] != d:
            raise SequenceError(f"video rows must be {d} wide, got {seq.video_embeds.shape}")
        return np.concatenate([seq.video_embeds, tokens])

    # -- forward passes ----------------------------------------------------

    def forward_block(self, cache: KvCache, items, positions) -> np.ndarray:
        """Run a causal block of token ids against the cache in one forward pass.

        Every block item sees all live cache slots, every earlier block item
        and itself. The cache is extended by the block; the caller owns any
        rollback. The forward is the core ``_hidden`` (which also writes the
        cache) followed by the head: RMSNorm, then ``head``.

        Returns (n, vocab) logits, one row per block item.
        """
        emb, positions = self._block_input(cache, items, positions)
        return self._logits(self._hidden(cache, emb, positions))

    def _block_input(self, cache: KvCache, items, positions) -> tuple[np.ndarray, np.ndarray]:
        """A block's embeddings and int64 positions: at least one item, a 1-D
        position per item, each below ``MAX_POSITIONS`` and beyond ``cache``'s;
        ``cache`` must be a ``KvCache`` of the model's layers, heads and head
        width."""
        check_type(cache, KvCache, PositionError, "cache")
        c = self.config
        n_layers, _, n_heads, d_head = cache.k.shape
        if (n_layers, n_heads, d_head) != (c.n_layers, c.n_heads, c.d_head):
            raise PositionError(
                f"cache of {n_layers} layers x {n_heads} heads x {d_head} does not fit a model "
                f"of {c.n_layers} x {c.n_heads} x {c.d_head}"
            )
        emb = self.embed_items(items)
        if not emb.shape[0]:
            raise SequenceError("a block holds at least one item")
        positions = integer_array(positions, PositionError, "positions")
        if positions.shape != emb.shape[:1]:
            raise PositionError(f"{emb.shape[0]} items need 1-D positions, got {positions.shape}")
        self._check_positions(cache, positions)
        return emb, positions

    def _check_positions(self, cache: KvCache, positions: np.ndarray) -> None:
        """``PositionError`` unless every position is in range and beyond ``cache``'s."""
        if positions.min() < 0 or positions.max() >= MAX_POSITIONS:
            raise PositionError(
                f"positions must lie in [0, {MAX_POSITIONS}), got "
                f"[{positions.min()}, {positions.max()}]"
            )
        if positions.min() <= cache.max_position:
            raise PositionError(
                f"position {positions.min()} not beyond cache maximum {cache.max_position}"
            )

    def _logits(self, h: np.ndarray) -> np.ndarray:
        """(rows, d_model) final hidden states -> (rows, vocab) logits: the
        RMSNorm of each row, then ``head``."""
        return _rms_norm(h) @ self.params["head"]

    def _hidden(
        self,
        cache: KvCache,
        h: np.ndarray,
        positions: np.ndarray,
        tree_mask: np.ndarray | None = None,
        capture: np.ndarray | None = None,
        out_from: int = 0,
    ) -> np.ndarray:
        """Final hidden states of a validated block's rows ``out_from`` on;
        extends the cache.

        ``h`` holds the block's (n, d_model) embeddings, is owned by the
        caller and is updated in place; the returned rows are a view of it.
        The block is causal unless ``forward_tree`` passes its checked
        ``tree_mask``.

        ``capture`` is prefill's ``(n_language, n_video)`` guidance
        accumulator: for every block item at cache slot ``>= n_video`` (a
        language item) and every layer, its head-summed attention on slots
        ``[0, n_video)`` is added to row ``slot - n_video``.

        Attention runs over tiles of ``_ROW_TILE`` block rows, all heads at
        once, and does only the work whose result it keeps; each rule
        changes the result only by rounding:

        - Tiles. Neither a causal block nor a tree mask admits a later block
          item, so tile ``[r0, r1)`` scores only the ``L0 + r1`` columns its
          rows can see (``L0`` slots were live before the block), and no
          ``(heads, n, L0 + n)`` score array is allocated. A causal tile
          masks only its diagonal square, columns ``L0 + r0`` to
          ``L0 + r1``; a tree tile masks all of its block columns, since a
          tree row may not see an earlier block item.
        - Softmax. The tile's scores become ``exp(s)`` in place, with no
          row-maximum shift; if a row sum ``z`` then lies outside
          ``[_Z_MIN, _Z_MAX]`` (an overflow, a row that underflowed, or a
          NaN), the tile is scored again and exponentiated as
          ``exp(s - max)``, whose row sums are at least 1. The tile's
          ``(heads, rows, d_head)`` context is divided by ``z`` after
          ``scores @ V``.
        - Buffers. K and V live only in the cache, projected into the block's
          slots and K rotated there; ``ctx`` is ``(n, heads, d_head)``, so
          ``ctx[o0:]`` is the ``(rows, d_model)`` matrix that ``wo`` reads.
        - Last layer. Every layer writes every row's keys and values, which
          come from its input. Past the last layer only rows from
          ``out_from`` are read: that layer computes queries and attention
          only from the tile that holds ``min(out_from, first language
          row)``, as the capture reads every layer's language rows and the
          tiles stay a whole block's, and ``wo`` and the MLP only from
          ``out_from``.
        """
        c = self.config
        n = h.shape[0]
        L0 = cache.length
        m = L0 + n
        cache.ensure_capacity(m)

        causal = tree_mask is None
        if n == 1:
            # A single item needs no mask, but the tile loop below still
            # indexes it, so a one-item block raises TypeError in layer 0
            # (ROADMAP item 0 keeps this until decode is gated per token).
            blocked = None
        elif causal:
            blocked = np.triu(np.ones((n, n), dtype=bool), k=1)
        else:
            blocked = ~tree_mask

        first = n  # first block row that is a language item; n when not capturing
        if capture is not None:
            n_video = capture.shape[1]
            first = max(n_video - L0, 0)

        rot_k = rope(positions, c.d_head)
        rot_q = rot_k / np.sqrt(c.d_head)  # folds the score scale into q
        p = self.params
        ctx = np.empty((n, c.n_heads, c.d_head))
        q0 = o0 = 0  # rows from q0 attend; rows from o0 take the layer's output
        for layer in range(c.n_layers):
            if layer == c.n_layers - 1:
                q0, o0 = min(out_from, first) // _ROW_TILE * _ROW_TILE, out_from
            pre = f"layers.{layer}."
            x = _rms_norm(h)
            np.matmul(x, p[pre + "wk"], out=cache.k[layer, L0:m].reshape(n, c.d_model))
            np.matmul(x, p[pre + "wv"], out=cache.v[layer, L0:m].reshape(n, c.d_model))
            k = cache.k[layer, L0:m].view(np.complex128)
            k *= rot_k
            q = (x[q0:] @ p[pre + "wq"]).reshape(n - q0, c.n_heads, c.d_head).view(np.complex128)
            q *= rot_q[q0:]
            q = q.view(np.float64).transpose(1, 0, 2)
            keys = cache.k[layer, :m].transpose(1, 2, 0)
            vals = cache.v[layer, :m].transpose(1, 0, 2)
            for r0 in range(q0, n, _ROW_TILE):
                r1 = min(r0 + _ROW_TILE, n)
                c0 = r0 if causal else 0  # block columns before c0 need no mask
                for shift in (False, True):
                    # columns past L0 + r1 are hidden from every row of the tile
                    scores = np.matmul(q[:, r0 - q0 : r1 - q0], keys[:, :, : L0 + r1])
                    np.copyto(scores[:, :, L0 + c0 :], -np.inf, where=blocked[None, r0:r1, c0:r1])
                    if shift:  # then z >= 1: the row maximum gives exp(0)
                        scores -= scores.max(axis=-1, keepdims=True)
                    with np.errstate(over="ignore", invalid="ignore"):
                        np.exp(scores, out=scores)
                        z = scores.sum(axis=-1, keepdims=True)
                    if z.min() >= _Z_MIN and z.max() <= _Z_MAX:  # False for a NaN too
                        break
                if r1 > o0:  # a tile wholly before o0 feeds only the capture
                    tile_ctx = ctx[r0:r1].transpose(1, 0, 2)
                    np.matmul(scores, vals[:, : L0 + r1], out=tile_ctx)
                    tile_ctx /= z
                lang = max(r0, first)
                if lang < r1:  # the scores are spent: divided in place
                    probs = scores[:, lang - r0 :, :n_video]
                    probs /= z[:, lang - r0 :]
                    capture[L0 + lang - n_video : L0 + r1 - n_video] += probs.sum(axis=0)
            if o0 == n:  # no row of this layer's output is read
                break
            out = h[o0:]  # a view, updated in place
            out += ctx[o0:].reshape(n - o0, c.d_model) @ p[pre + "wo"]
            x = _rms_norm(out)
            a = x @ p[pre + "w1"]
            t = np.negative(a)  # SiLU in place: a / (1 + exp(-a))
            np.exp(t, out=t)
            t += 1.0
            np.divide(a, t, out=t)
            out += t @ p[pre + "w2"]

        cache.pos[L0:m] = positions
        cache.length = m
        return h[out_from:]

    def prefill(self, seq: MultimodalSequence, capture: bool = False) -> PrefillResult:
        """Build a fresh cache over the whole sequence; optionally capture guidance.

        Rotary encoding uses each item's original position, so a pruned
        sequence keeps the positions it had before pruning. With ``capture``,
        the result also carries the ``(n_language, n_video)`` language-to-video
        attention averaged over layers and heads (see ``PrefillResult``),
        summed chunk by chunk in float64; logits and cache are the same
        with ``capture`` on or off.

        The cache is made once, sized by ``KvCache``'s rule. The core runs
        over chunks of ``_PREFILL_CHUNK`` items; a final chunk shorter than
        one ``_ROW_TILE`` joins the chunk before it. Only the final item's
        logits are read: earlier chunks output no rows, and the final chunk
        outputs its last ``_HEAD_ROWS`` rows (``out_from``, see ``_hidden``),
        not its last row alone, since BLAS rounds a product of 1 to 3 rows
        differently from the same rows inside a larger product; so the
        logits stay bitwise the last row of a whole-sequence ``forward_block``.
        """
        check_type(seq, MultimodalSequence, SequenceError, "sequence")
        n = len(seq)
        emb = self.embed_sequence(seq)
        positions = seq.positions
        cache = self.new_cache(n)
        self._check_positions(cache, positions)
        acc = np.zeros((seq.n_language, seq.n_video)) if capture else None
        # a final chunk shorter than one tile joins the chunk before it
        starts = list(range(0, max(n - _ROW_TILE, 0) + 1, _PREFILL_CHUNK))
        for start, end in zip(starts, starts[1:] + [n]):
            size = end - start
            h = self._hidden(
                cache,
                emb[start:end],
                positions[start:end],
                capture=acc,
                out_from=max(size - _HEAD_ROWS, 0) if end == n else size,
            )
        if acc is not None:
            acc /= self.config.n_layers * self.config.n_heads
        return PrefillResult(cache, self._logits(h)[-1], acc)

    def decode_step(self, cache: KvCache, item, position: int) -> np.ndarray:
        """Append one token id and return its (vocab,) logits.

        The position must be strictly beyond every position already cached;
        more than one token id raises ``PositionError`` (one position given).
        """
        return self.forward_block(cache, item, [position])[0]

    def forward_tree(
        self,
        cache: KvCache,
        items,
        positions,
        tree_mask: np.ndarray,
    ) -> np.ndarray:
        """Verify a draft tree of token ids in one masked forward.

        The boolean ``tree_mask[i, j]`` admits attention from node i to node
        j; each node must see exactly itself plus its ancestors, and node
        positions must be the next free position advanced by tree depth. The
        cache is extended by all nodes; the caller rolls back the non-accepted
        ones.
        """
        tree_mask = as_array(tree_mask, MaskError, "tree mask")
        if tree_mask.dtype != bool:
            raise MaskError(f"tree mask must be boolean, got dtype {tree_mask.dtype}")
        depths = _tree_depths(tree_mask)
        emb, positions = self._block_input(cache, items, positions)
        expected = cache.max_position + 1 + depths
        if not np.array_equal(positions, expected):
            raise PositionError(
                f"tree positions must equal next-position + depth; expected {expected.tolist()}"
            )
        return self._logits(self._hidden(cache, emb, positions, tree_mask))


def _tree_depths(mask: np.ndarray) -> np.ndarray:
    """Each node's depth in the tree that the boolean ``mask`` encodes.

    ``mask[i, j]`` admits node j to node i. A tree mask is square, admits
    every node to itself and no later node, and is ancestor-closed: a node's
    parent is its last admitted column before the diagonal, and the node
    admits exactly its parent's whole row. A node's depth is then the count
    of its admitted earlier nodes. Any other mask raises ``MaskError``.
    """
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise MaskError(f"tree mask must be square, got shape {mask.shape}")
    if not np.all(np.diagonal(mask)):
        raise MaskError("tree mask must admit self-attention")
    if np.any(np.triu(mask, k=1)):
        raise MaskError("tree mask admits a descendant (parents must precede children)")
    below = np.tril(mask, k=-1)
    parent = np.where(below, np.arange(mask.shape[0]), -1).max(axis=1, initial=-1)
    # a root (parent -1) admits no earlier node
    if not np.array_equal(below, mask[parent] & (parent >= 0)[:, None]):
        raise MaskError("tree mask admits a non-ancestor (rows must be ancestor-closed)")
    return below.sum(axis=1)


def init_model(config: ModelConfig) -> Model:
    """Deterministic weights: normal draws scaled 0.02 for the embedding/head
    and 0.02/sqrt(n_layers) for block projections, drawn in a fixed order.

    Each tensor is drawn in float32 into a view of one staging buffer (see
    ``_staged``) and scaled there in place. The embedding table is kept as a
    float32 copy of the view; every other tensor is widened into its own
    float64 weight."""
    rng = np.random.default_rng(config.seed)
    proj_scale = np.float32(0.02 / np.sqrt(config.n_layers))
    emb_scale = np.float32(0.02)
    shapes = param_shapes(config)
    params = {}
    for name, view in _staged(shapes, shapes):
        rng.standard_normal(dtype=np.float32, out=view)
        view *= emb_scale if name in ("embed", "head") else proj_scale
        params[name] = view.astype(_weight_dtype(name))
    return Model(config, params)


def _staged(shapes: dict[str, tuple[int, ...]], names):
    """``(name, view)`` for each of ``names`` in turn: a float32 view of
    ``shapes[name]`` at the start of one buffer, allocated once and sized to
    the largest tensor of ``shapes``. Every view shares that buffer, so each
    is valid only until the next is yielded."""
    buf = np.empty(max(map(math.prod, shapes.values())), dtype="<f4")
    for name in names:
        yield name, buf[: math.prod(shapes[name])].reshape(shapes[name])


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(model: Model, path) -> None:
    """The magic line, a one-line JSON header ``{"config": ...}``, then each
    tensor as raw little-endian float32, in sorted name order.

    The header holds the config alone: ``param_shapes(config)`` gives every
    tensor's shape, none of them a norm gain, so no index is written. Each
    tensor is copied into a view of one float32 staging buffer (see
    ``_staged``), which narrows a float64 weight and leaves the float32
    embedding table as it is, and written from there, just after the one
    before it.
    ``ConfigError`` unless ``model`` is a ``Model``.
    """
    check_type(model, Model, ConfigError, "model")
    header = json.dumps({"config": asdict(model.config)}, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC.encode("ascii") + b"\n")
        fh.write(header.encode("ascii") + b"\n")
        for name, view in _staged(param_shapes(model.config), sorted(model.params)):
            np.copyto(view, model.params[name], casting="same_kind")
            fh.write(view)


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by ``save_checkpoint``.

    The header must be ``{"config": ...}`` and nothing else; the tensors
    follow in sorted name order with the shapes ``param_shapes(config)``
    gives, none of them a norm gain. Each tensor is read through the
    buffered file into a view of one float32 staging buffer (see
    ``_staged``) and copied from there into its own weight, as
    ``init_model`` copies its draws. A file of another version, a malformed
    header, a data section whose length is not the config's, checked before
    any weight is allocated, raise ``ConfigError``; so does a tensor holding
    NaN or inf, which ``Model`` rejects for every model.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != _CKPT_MAGIC.encode("ascii"):
            raise ConfigError(f"not a {_CKPT_MAGIC} file (first line {magic!r})")
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"checkpoint header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict) or set(header) != {"config"}:
            got = sorted(header) if isinstance(header, dict) else type(header).__name__
            raise ConfigError(f'checkpoint header must be {{"config": ...}} alone, got {got}')
        try:
            config = ModelConfig(**header["config"])
        except TypeError as exc:  # a missing, unknown or non-mapping field
            raise ConfigError(f"malformed checkpoint config: {exc}") from exc
        # param_shapes(config)'s float32 bytes in closed form, so that a
        # header naming a huge model fails here without per-layer work
        d, v, f = config.d_model, config.vocab_size, config.d_ff
        expected = 4 * (2 * d * v + config.n_layers * (4 * d * d + 2 * d * f))
        got = os.fstat(fh.fileno()).st_size - fh.tell()
        if got != expected:
            raise ConfigError(f"data section holds {got} bytes, the config needs {expected}")
        shapes = param_shapes(config)
        weights = {}
        for name, view in _staged(shapes, sorted(shapes)):
            if fh.readinto(view) != view.nbytes:
                raise ConfigError(f"{name}: tensor data cut short")
            weights[name] = view.astype(_weight_dtype(name))
    return Model(config, weights)
