"""Prompt sequences: a video-token grid followed by language tokens.

Every sequence has a video layout; a prompt without video items is a layout
with none of its cells present. A sequence keeps the *original* position index
of every item. Pruning removes video items but never re-indexes the survivors,
so rotary encodings downstream see the same positions as the unpruned prompt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SequenceError


def integer_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as an int64 array; ``error`` unless its dtype is integer
    (an empty array of any dtype passes)."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise error(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class VideoLayout:
    """F frames of an H x W token grid, row-major within a frame, frames in time order."""

    frames: int
    rows: int
    cols: int

    def __post_init__(self):
        for dim in (self.frames, self.rows, self.cols):
            if not isinstance(dim, (int, np.integer)) or dim < 1:
                raise SequenceError(f"layout dimensions must be integers >= 1, got {self}")

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
    _positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.layout, VideoLayout):
            raise SequenceError(f"layout must be a VideoLayout, got {self.layout!r}")
        embeds = np.asarray(self.video_embeds, dtype=np.float64)
        indices = integer_array(self.video_indices, SequenceError, "video indices")
        tokens = integer_array(self.language_tokens, SequenceError, "language tokens")
        if embeds.ndim != 2:
            raise SequenceError(f"video embeddings must be 2-D, got shape {embeds.shape}")
        if indices.ndim != 1 or tokens.ndim != 1:
            raise SequenceError("video_indices and language_tokens must be 1-D")
        if embeds.shape[0] != indices.shape[0]:
            raise SequenceError(
                f"{embeds.shape[0]} video embeddings but {indices.shape[0]} indices"
            )
        if indices.size:
            if indices[0] < 0 or indices[-1] >= self.layout.total:
                raise SequenceError("video index outside layout")
            if np.any(np.diff(indices) <= 0):
                raise SequenceError("video indices must be strictly increasing")
        if tokens.size and tokens.min() < 0:
            raise SequenceError("negative language token id")
        if indices.size + tokens.size == 0:
            raise SequenceError("empty sequence")
        positions = np.concatenate(
            [indices, self.layout.total + np.arange(tokens.size, dtype=np.int64)]
        )
        object.__setattr__(self, "video_embeds", embeds)
        object.__setattr__(self, "video_indices", indices)
        object.__setattr__(self, "language_tokens", tokens)
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def full(
        cls,
        layout: VideoLayout,
        video_embeds: np.ndarray,
        language_tokens: np.ndarray,
    ) -> "MultimodalSequence":
        """Unpruned prompt: one embedding per layout cell, in flat order."""
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
        return self._positions

    @property
    def is_pruned(self) -> bool:
        return self.n_video < self.layout.total

    @property
    def original_length(self) -> int:
        """Length of the unpruned prompt; generated tokens continue from here."""
        return self.layout.total + self.n_language
