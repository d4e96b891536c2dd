"""Deterministic decoder-only transformer over mixed video/language input.

Architecture (documented because nothing upstream pins it): pre-norm RMSNorm
blocks, rotary position encoding applied per item at its *original* position
index, SiLU feed-forward with a 4x hidden width, untied output head. All
arithmetic runs in float64; weights are drawn in float32 and widened, so a
float32 checkpoint round-trips bit-exactly.

Incremental decoding, batched causal continuation and tree-masked forwards all
share one attention core (`forward_block`), which is why their outputs agree to
floating-point reduction error and why a rolled-back cache reproduces a fresh
one bitwise.

The core runs attention over tiles of 64 block rows, all heads at once, with
the softmax done in place on the tile's scores. A block mask never admits a
later block item, so no row of a tile ``[a, b)`` attends a column past
``L0 + b`` (``L0`` live cache slots before the block): those columns are never
computed, which changes the result only by summation order. No
``(heads, n, L0 + n)`` score array is ever allocated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    MaskError,
    PositionError,
    RollbackError,
    SequenceError,
)
from .sequence import MultimodalSequence, integer_array

_RMS_EPS = 1e-6
_PREFILL_CHUNK = 512
_ROW_TILE = 64  # block rows per attention tile
_CKPT_MAGIC = "VIDSPEC-CKPT 1"


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    vocab_size: int
    rope_theta: float = 10000.0
    max_positions: int = 4096
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "vocab_size", "max_positions"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        theta = self.rope_theta
        if not isinstance(theta, (int, float, np.integer, np.floating)) or not theta > 0:
            raise ConfigError(f"rope_theta must be a positive number, got {theta!r}")

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
        shapes[p + "attn_norm"] = (d,)
        shapes[p + "wq"] = (d, d)
        shapes[p + "wk"] = (d, d)
        shapes[p + "wv"] = (d, d)
        shapes[p + "wo"] = (d, d)
        shapes[p + "mlp_norm"] = (d,)
        shapes[p + "w1"] = (d, f)
        shapes[p + "w2"] = (f, d)
    shapes["final_norm"] = (d,)
    return shapes


class KvCache:
    """Per-layer key/value store with a shared logical length and position tags.

    Slots beyond ``length`` are dead storage: every read is bounded by the
    logical length, so truncating rollback is just a length reset and leaves
    subsequent writes identical to a fresh cache.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int, capacity: int = 64):
        capacity = max(int(capacity), 1)
        self.k = np.zeros((n_layers, capacity, n_heads, d_head))
        self.v = np.zeros((n_layers, capacity, n_heads, d_head))
        self.pos = np.full(capacity, -1, dtype=np.int64)
        self.length = 0

    @property
    def capacity(self) -> int:
        return self.k.shape[1]

    @property
    def max_position(self) -> int:
        """Largest position tag among live slots, -1 when empty."""
        if self.length == 0:
            return -1
        return int(self.pos[: self.length].max())

    def ensure_capacity(self, needed: int) -> None:
        if needed <= self.capacity:
            return
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        for name in ("k", "v"):
            old = getattr(self, name)
            grown = np.zeros((old.shape[0], new_cap) + old.shape[2:])
            grown[:, : self.length] = old[:, : self.length]
            setattr(self, name, grown)
        pos = np.full(new_cap, -1, dtype=np.int64)
        pos[: self.length] = self.pos[: self.length]
        self.pos = pos

    def rollback(self, keep) -> None:
        """Keep a prefix (int) or an ordered slot subset (index array).

        Subset rollback reproduces a fresh cache only when every kept slot
        attended kept slots alone when it was written. Prefixes satisfy this
        trivially; so does a committed prefix plus one accepted tree path,
        because the tree mask hides siblings from each other.
        """
        if np.isscalar(keep) or isinstance(keep, (int, np.integer)):
            keep = int(keep)
            if keep < 0 or keep > self.length:
                raise RollbackError(f"keep={keep} outside [0, {self.length}]")
            self.pos[keep : self.length] = -1
            self.length = keep
            return
        idx = np.asarray(keep, dtype=np.int64)
        if idx.ndim != 1:
            raise RollbackError("slot subset must be 1-D")
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.length:
                raise RollbackError("slot subset outside live range")
            if np.any(np.diff(idx) <= 0):
                raise RollbackError("slot subset must be strictly increasing")
        m = idx.size
        # idx is strictly increasing from >= 0, so idx[i] >= i and the slots
        # that stay where they are form a prefix; only the rest is gathered.
        s = int(np.count_nonzero(idx == np.arange(m)))
        self.k[:, s:m] = self.k[:, idx[s:]]
        self.v[:, s:m] = self.v[:, idx[s:]]
        self.pos[s:m] = self.pos[idx[s:]]
        self.pos[m : self.length] = -1
        self.length = m

    def clone(self) -> "KvCache":
        other = KvCache.__new__(KvCache)
        other.k = self.k.copy()
        other.v = self.v.copy()
        other.pos = self.pos.copy()
        other.length = self.length
        return other


@dataclass
class PrefillResult:
    """Cache and final-item logits of one prefill.

    ``capture`` is set by ``prefill(seq, capture=True)``: an
    ``(n_language, n_video)`` float64 array whose entry ``[i, j]`` is the
    attention probability of language item i on video item j, averaged over
    every layer and head. It is the guidance block, accumulated while the
    forward runs; the full attention matrix is never stored.
    """

    cache: KvCache
    logits: np.ndarray  # (vocab,) for the final item
    capture: np.ndarray | None = None


def _rms_normalize(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _RMS_EPS)


def rope_angles(positions: np.ndarray, d_head: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    inv_freq = theta ** (-np.arange(0, d_head, 2, dtype=np.float64) / d_head)
    ang = positions[:, None].astype(np.float64) * inv_freq[None, :]
    return np.cos(ang), np.sin(ang)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate (n, heads, d_head) vectors by per-row angles; half-split pairing."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    c = cos[:, None, :]
    s = sin[:, None, :]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


class Model:
    """Immutable-after-init transformer; safe to share read-only across sessions."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        expected = param_shapes(config)
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ConfigError(f"parameter set mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ConfigError(f"{name}: expected shape {shape}, got {params[name].shape}")
        self.config = config
        self.params = params
        self._inv_sqrt_dh = 1.0 / np.sqrt(config.d_head)

    # -- construction -----------------------------------------------------

    def new_cache(self, capacity: int = 64) -> KvCache:
        c = self.config
        return KvCache(c.n_layers, c.n_heads, c.d_head, capacity)

    def embed_items(self, items) -> np.ndarray:
        """Token ids (ints) or ready embedding rows -> (n, d_model) float64."""
        d = self.config.d_model
        arr = np.asarray(items)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if np.issubdtype(arr.dtype, np.integer):
            if arr.ndim != 1:
                raise SequenceError("token id input must be 1-D")
            if arr.size and (arr.min() < 0 or arr.max() >= self.config.vocab_size):
                raise SequenceError("token id outside vocabulary")
            return self.params["embed"][arr].astype(np.float64, copy=True)
        arr = arr.astype(np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != d:
            raise SequenceError(f"embedding rows must have width {d}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise SequenceError("embedding rows must be finite")
        return arr

    def embed_sequence(self, seq: MultimodalSequence) -> np.ndarray:
        parts = []
        if seq.n_video:
            parts.append(self.embed_items(seq.video_embeds))
        if seq.n_language:
            parts.append(self.embed_items(seq.language_tokens))
        return np.concatenate(parts, axis=0)

    # -- forward passes ----------------------------------------------------

    def forward_block(
        self,
        cache: KvCache,
        items,
        positions,
        block_mask: np.ndarray | None = None,
        _capture: tuple[np.ndarray, int] | None = None,
    ) -> np.ndarray:
        """Run a block of items against the cache in one forward pass.

        Every block item sees all live cache slots plus the block items allowed
        by ``block_mask`` (causal lower triangle by default; the diagonal must
        be admitted). The cache is extended by the block; the caller owns any
        rollback.

        Attention runs in tiles of ``_ROW_TILE`` block rows. Tile ``[a, b)``
        scores only the ``L0 + b`` columns its rows can see (``L0`` slots were
        live before the block): ``block_mask`` is checked to admit no later
        item, so every column past ``L0 + b`` is hidden from the whole tile
        and skipping it is exact up to summation order. Scaling, masking and
        softmax are done in place on the tile's scores.

        ``_capture = (acc, n_video)`` is prefill's guidance accumulator: for
        every block item at cache slot ``>= n_video`` (a language item) and
        every layer, its head-summed attention on slots ``[0, n_video)`` is
        added to row ``slot - n_video`` of ``acc``.

        Returns (n, vocab) logits, one row per block item.
        """
        emb = self.embed_items(items)
        n = emb.shape[0]
        positions = integer_array(positions, PositionError, "positions").reshape(-1)
        if positions.shape[0] != n:
            raise PositionError(f"{n} items but {positions.shape[0]} positions")
        if positions.size and (positions.min() < 0 or positions.max() >= self.config.max_positions):
            raise PositionError(
                f"positions must lie in [0, {self.config.max_positions}), got "
                f"[{positions.min()}, {positions.max()}]"
            )
        if positions.size and positions.min() <= cache.max_position:
            raise PositionError(
                f"position {positions.min()} not beyond cache maximum {cache.max_position}"
            )
        if block_mask is not None:
            block_mask = np.asarray(block_mask, dtype=bool)
            if block_mask.shape != (n, n):
                raise MaskError(f"block mask must be {(n, n)}, got {block_mask.shape}")
            if not np.all(np.diagonal(block_mask)):
                raise MaskError("block mask must admit self-attention on the diagonal")
            if np.any(np.triu(block_mask, k=1)):
                raise MaskError("block mask admits a later block item")

        c = self.config
        L0 = cache.length
        m = L0 + n
        cache.ensure_capacity(m)

        if n == 1:
            # A single item needs no mask, but the tile loop below still
            # indexes it, so a one-item block raises TypeError in layer 0
            # (ROADMAP item 0 keeps this until decode is gated per token).
            blocked = None
        elif block_mask is None:
            blocked = np.triu(np.ones((n, n), dtype=bool), k=1)
        else:
            blocked = ~block_mask

        first = n  # first block row that is a language item; n when not capturing
        if _capture is not None:
            acc, n_video = _capture
            first = max(n_video - L0, 0)

        cos, sin = rope_angles(positions, c.d_head, c.rope_theta)
        h = emb
        p = self.params
        ctx = np.empty((c.n_heads, n, c.d_head))
        for layer in range(c.n_layers):
            pre = f"layers.{layer}."
            x = _rms_normalize(h) * p[pre + "attn_norm"]
            q = apply_rope((x @ p[pre + "wq"]).reshape(n, c.n_heads, c.d_head), cos, sin)
            k = apply_rope((x @ p[pre + "wk"]).reshape(n, c.n_heads, c.d_head), cos, sin)
            v = (x @ p[pre + "wv"]).reshape(n, c.n_heads, c.d_head)
            cache.k[layer, L0:m] = k
            cache.v[layer, L0:m] = v
            q = q.transpose(1, 0, 2)
            keys = cache.k[layer, :m].transpose(1, 2, 0)
            vals = cache.v[layer, :m].transpose(1, 0, 2)
            for r0 in range(0, n, _ROW_TILE):
                r1 = min(r0 + _ROW_TILE, n)
                # columns past L0 + r1 are hidden from every row of the tile
                scores = np.matmul(q[:, r0:r1], keys[:, :, : L0 + r1])
                scores *= self._inv_sqrt_dh
                np.copyto(scores[:, :, L0:], -np.inf, where=blocked[None, r0:r1, :r1])
                scores -= scores.max(axis=-1, keepdims=True)
                np.exp(scores, out=scores)
                scores /= scores.sum(axis=-1, keepdims=True)
                lang = max(r0, first)
                if lang < r1:
                    acc[L0 + lang - n_video : L0 + r1 - n_video] += scores[
                        :, lang - r0 :, :n_video
                    ].sum(axis=0)
                np.matmul(scores, vals[:, : L0 + r1], out=ctx[:, r0:r1])
            h = h + ctx.transpose(1, 0, 2).reshape(n, c.d_model) @ p[pre + "wo"]
            x = _rms_normalize(h) * p[pre + "mlp_norm"]
            a = x @ p[pre + "w1"]
            t = np.negative(a)  # SiLU in place: a / (1 + exp(-a))
            np.exp(t, out=t)
            t += 1.0
            np.divide(a, t, out=t)
            h = h + t @ p[pre + "w2"]

        logits = (_rms_normalize(h) * p["final_norm"]) @ p["head"]
        cache.pos[L0:m] = positions
        cache.length = m
        return logits

    def prefill(self, seq: MultimodalSequence, capture: bool = False) -> PrefillResult:
        """Build a fresh cache over the whole sequence; optionally capture guidance.

        Rotary encoding uses each item's original position, so a pruned
        sequence keeps the positions it had before pruning. With ``capture``,
        the result also carries the ``(n_language, n_video)`` language-to-video
        attention averaged over layers and heads (see ``PrefillResult``),
        summed chunk by chunk in float64; logits and cache are the same
        with ``capture`` on or off.
        """
        n = len(seq)
        if n == 0:
            raise SequenceError("cannot prefill an empty sequence")
        emb = self.embed_sequence(seq)
        positions = seq.positions
        cache = self.new_cache(capacity=n)
        acc = np.zeros((seq.n_language, seq.n_video)) if capture else None
        logits = None
        for start in range(0, n, _PREFILL_CHUNK):
            end = min(n, start + _PREFILL_CHUNK)
            logits = self.forward_block(
                cache,
                emb[start:end],
                positions[start:end],
                _capture=None if acc is None else (acc, seq.n_video),
            )
        if acc is not None:
            acc /= self.config.n_layers * self.config.n_heads
        return PrefillResult(cache, logits[-1], acc)

    def decode_step(self, cache: KvCache, item, position: int) -> np.ndarray:
        """Append one item and return its (vocab,) logits.

        The position must be strictly beyond every position already cached.
        """
        emb = self.embed_items(item)
        if emb.shape[0] != 1:
            raise SequenceError("decode_step takes exactly one item")
        return self.forward_block(cache, emb, np.array([position]))[0]

    def forward_tree(
        self,
        cache: KvCache,
        items,
        positions,
        tree_mask: np.ndarray,
    ) -> np.ndarray:
        """Verify a draft tree in one masked forward.

        ``tree_mask[i, j]`` admits attention from node i to node j; each node
        must see exactly itself plus its ancestors, and node positions must be
        the next free position advanced by tree depth. The cache is extended by
        all nodes; the caller rolls back the non-accepted ones.
        """
        tree_mask = np.asarray(tree_mask, dtype=bool)
        n = tree_mask.shape[0]
        if tree_mask.shape != (n, n):
            raise MaskError("tree mask must be square")
        if not np.all(np.diagonal(tree_mask)):
            raise MaskError("tree mask must admit self-attention")
        if np.any(np.triu(tree_mask, k=1)):
            raise MaskError("tree mask admits a descendant (parents must precede children)")
        depths = np.zeros(n, dtype=np.int64)
        ancestors: list[frozenset[int]] = []
        for i in range(n):
            anc = frozenset(np.flatnonzero(tree_mask[i, :i]).tolist())
            if anc:
                parent = max(anc)
                if anc != ancestors[parent] | {parent}:
                    raise MaskError(
                        f"node {i} attends to a non-ancestor (rows must be ancestor-closed)"
                    )
                depths[i] = depths[parent] + 1
            ancestors.append(anc)
        positions = integer_array(positions, PositionError, "positions").reshape(-1)
        if positions.shape[0] != n:
            raise PositionError("one position per tree node required")
        base = cache.max_position + 1
        expected = base + depths
        if not np.array_equal(positions, expected):
            raise PositionError(
                f"tree positions must equal next-position + depth; expected {expected.tolist()}"
            )
        return self.forward_block(cache, items, positions, block_mask=tree_mask)


def init_model(config: ModelConfig) -> Model:
    """Deterministic weights: normal draws scaled 0.02 for the embedding/head
    and 0.02/sqrt(n_layers) for block projections, drawn in a fixed order."""
    rng = np.random.default_rng(config.seed)
    proj_scale = np.float32(0.02 / np.sqrt(config.n_layers))
    emb_scale = np.float32(0.02)

    def draw(shape, scale):
        return (rng.standard_normal(shape, dtype=np.float32) * scale).astype(np.float64)

    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("norm"):
            params[name] = np.ones(shape)
        elif name in ("embed", "head"):
            params[name] = draw(shape, emb_scale)
        else:
            params[name] = draw(shape, proj_scale)
    return Model(config, params)


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(model: Model, path) -> None:
    """Textual header (config + per-tensor name/shape/dtype/offset), then raw
    little-endian float32 tensor data."""
    names = sorted(model.params)
    tensors = []
    offset = 0
    blobs = []
    for name in names:
        blob = model.params[name].astype("<f4").tobytes()
        tensors.append(
            {
                "name": name,
                "shape": list(model.params[name].shape),
                "dtype": "float32",
                "offset": offset,
            }
        )
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(
        {"config": asdict(model.config), "tensors": tensors}, separators=(",", ":")
    )
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC.encode("ascii") + b"\n")
        fh.write(header.encode("ascii") + b"\n")
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != _CKPT_MAGIC.encode("ascii"):
            raise ConfigError(f"not a checkpoint file (magic {magic!r})")
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"checkpoint header is not valid JSON: {exc}") from exc
        data = fh.read()
    try:
        config = ModelConfig(**header["config"])
        tensors = [
            (e["name"], tuple(e["shape"]), e["dtype"], e["offset"]) for e in header["tensors"]
        ]
    except (KeyError, TypeError) as exc:  # a missing field or a field of the wrong type
        raise ConfigError(f"malformed checkpoint header: {exc!r}") from exc
    expected = param_shapes(config)
    params: dict[str, np.ndarray] = {}
    for name, shape, dtype, start in tensors:
        if dtype != "float32":
            raise ConfigError(f"unsupported tensor dtype {dtype}")
        if name not in expected or shape != expected[name]:
            raise ConfigError(f"tensor {name!r} of shape {shape} is not in this config")
        if not isinstance(start, int):
            raise ConfigError(f"{name}: offset {start!r} is not an integer")
        count = int(np.prod(shape))
        if start < 0 or start + 4 * count > len(data):
            raise ConfigError(
                f"{name}: tensor data [{start}, {start + 4 * count}) outside "
                f"the {len(data)} data bytes (truncated file?)"
            )
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        params[name] = arr.reshape(shape).astype(np.float64)
    return Model(config, params)
