"""Prompt sequences: a video-token grid followed by language tokens.

Every sequence has a video layout; a prompt without video items is a layout
with none of its cells present. A sequence keeps the *original* position index
of every item. Pruning removes video items but never re-indexes the survivors,
so rotary encodings downstream see the same positions as the unpruned prompt.

Outside arrays enter the package through ``as_array`` and the checks built on
it: ``integer_array`` for token ids and positions, ``float_array`` for video
rows and scores, and ``index_array`` for every set of kept indices (video
indices, a plan's V_R and V_U, the slots a rollback keeps, a prefix being
``range(k)``). A ragged array, a wrong dtype or rank, a NaN or inf float, or
an index set out of range or order raises the caller's typed error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SequenceError


def as_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``np.asarray(values)``; ``error`` where that fails, as for a ragged
    nesting."""
    try:
        return np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} is not a rectangular array of numbers: {exc}") from exc


def integer_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an int64 array; ``error`` unless its dtype is integer
    (an empty array of any dtype passes)."""
    arr = as_array(values, error, what)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise error(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def float_array(values, ndim: int, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as a float64 array of rank ``ndim``; ``error`` unless its
    dtype is integer or floating and every value is finite."""
    arr = as_array(values, error, what)
    if arr.dtype.kind not in "iuf":
        raise error(f"{what} must be real numbers, got dtype {arr.dtype}")
    if arr.ndim != ndim:
        raise error(f"{what} must be {ndim}-D, got shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise error(f"{what} must be finite")
    return arr


def index_array(values, bound: int, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array of strictly increasing indices in
    ``[0, bound)``; ``error`` otherwise."""
    arr = integer_array(values, error, what)
    if arr.ndim != 1:
        raise error(f"{what} must be 1-D, got shape {arr.shape}")
    if arr.size and (arr[0] < 0 or arr[-1] >= bound or np.any(np.diff(arr) <= 0)):
        raise error(f"{what} must be strictly increasing within [0, {bound})")
    return arr


def check_integer(value, minimum: int, error: type[Exception], what: str) -> None:
    """``error`` unless ``value`` is an int or numpy integer, not a ``bool``,
    and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")


def check_type(value, kind: type, error: type[Exception], what: str) -> None:
    """``error`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise error(f"{what} must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class VideoLayout:
    """F frames of an H x W token grid, row-major within a frame, frames in time order."""

    frames: int
    rows: int
    cols: int

    def __post_init__(self):
        for name in ("frames", "rows", "cols"):
            check_integer(getattr(self, name), 1, SequenceError, f"layout {name}")

    @property
    def frame_size(self) -> int:
        return self.rows * self.cols

    @property
    def total(self) -> int:
        return self.frames * self.rows * self.cols


@dataclass(frozen=True)
class MultimodalSequence:
    """Video token embeddings (possibly a pruned subset) followed by language token ids.

    ``video_indices`` holds the original flat layout index of each present video
    item; these double as original positions because video items always precede
    language items. Language item j sits at original position ``layout.total + j``.
    """

    layout: VideoLayout
    video_embeds: np.ndarray  # (n_video, d_model) float
    video_indices: np.ndarray  # (n_video,) int64, strictly increasing
    language_tokens: np.ndarray  # (n_language,) int64

    def __post_init__(self):
        check_type(self.layout, VideoLayout, SequenceError, "layout")
        embeds = float_array(self.video_embeds, 2, SequenceError, "video embeddings")
        indices = index_array(self.video_indices, self.layout.total, SequenceError, "video indices")
        tokens = integer_array(self.language_tokens, SequenceError, "language tokens")
        if tokens.ndim != 1:
            raise SequenceError("language_tokens must be 1-D")
        if embeds.shape[0] != indices.shape[0]:
            raise SequenceError(
                f"{embeds.shape[0]} video embeddings but {indices.shape[0]} indices"
            )
        if tokens.size and tokens.min() < 0:
            raise SequenceError("negative language token id")
        if indices.size + tokens.size == 0:
            raise SequenceError("empty sequence")
        object.__setattr__(self, "video_embeds", embeds)
        object.__setattr__(self, "video_indices", indices)
        object.__setattr__(self, "language_tokens", tokens)

    @classmethod
    def full(
        cls,
        layout: VideoLayout,
        video_embeds: np.ndarray,
        language_tokens: np.ndarray,
    ) -> "MultimodalSequence":
        """Unpruned prompt: one embedding per layout cell, in flat order."""
        check_type(layout, VideoLayout, SequenceError, "layout")
        return cls(layout, video_embeds, np.arange(layout.total, dtype=np.int64), language_tokens)

    @property
    def n_video(self) -> int:
        return int(self.video_indices.shape[0])

    @property
    def n_language(self) -> int:
        return int(self.language_tokens.shape[0])

    def __len__(self) -> int:
        return self.n_video + self.n_language

    @property
    def positions(self) -> np.ndarray:
        """Original position index of every item, strictly increasing."""
        language = self.layout.total + np.arange(self.n_language, dtype=np.int64)
        return np.concatenate([self.video_indices, language])

    @property
    def is_pruned(self) -> bool:
        return self.n_video < self.layout.total

    @property
    def original_length(self) -> int:
        """Length of the unpruned prompt; generated tokens continue from here."""
        return self.layout.total + self.n_language
