"""Modality-tagged prompt sequences: a video-token grid followed by language tokens.

A sequence keeps the *original* position index of every item. Pruning removes
video items but never re-indexes the survivors, so rotary encodings downstream
see the same positions as the unpruned prompt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SequenceError

@dataclass(frozen=True)
class VideoLayout:
    """F frames of an H x W token grid, row-major within a frame, frames in time order."""

    frames: int
    rows: int
    cols: int

    def __post_init__(self):
        if self.frames < 1 or self.rows < 1 or self.cols < 1:
            raise SequenceError(f"layout dimensions must be >= 1, got {self}")

    @property
    def frame_size(self) -> int:
        return self.rows * self.cols

    @property
    def total(self) -> int:
        return self.frames * self.rows * self.cols

    def flat_index(self, frame: int, row: int, col: int) -> int:
        return frame * self.frame_size + row * self.cols + col

    def coords(self, flat: int) -> tuple[int, int, int]:
        frame, rest = divmod(int(flat), self.frame_size)
        row, col = divmod(rest, self.cols)
        return frame, row, col


@dataclass(frozen=True)
class MultimodalSequence:
    """Video token embeddings (possibly a pruned subset) followed by language token ids.

    ``video_indices`` holds the original flat layout index of each present video
    item; these double as original positions because video items always precede
    language items. Language item j sits at original position ``layout.total + j``.
    """

    layout: VideoLayout | None
    video_embeds: np.ndarray  # (n_video, d_model) float
    video_indices: np.ndarray  # (n_video,) int64, strictly increasing
    language_tokens: np.ndarray  # (n_language,) int64
    _positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        embeds = np.asarray(self.video_embeds, dtype=np.float64)
        indices = np.asarray(self.video_indices, dtype=np.int64)
        tokens = np.asarray(self.language_tokens, dtype=np.int64)
        if embeds.ndim != 2:
            embeds = embeds.reshape(len(indices), -1) if len(indices) else embeds.reshape(0, 0)
        if indices.ndim != 1 or tokens.ndim != 1:
            raise SequenceError("video_indices and language_tokens must be 1-D")
        if embeds.shape[0] != indices.shape[0]:
            raise SequenceError(
                f"{embeds.shape[0]} video embeddings but {indices.shape[0]} indices"
            )
        if indices.size:
            if self.layout is None:
                raise SequenceError("video items require a layout")
            if indices[0] < 0 or indices[-1] >= self.layout.total:
                raise SequenceError("video index outside layout")
            if np.any(np.diff(indices) <= 0):
                raise SequenceError("video indices must be strictly increasing")
        if tokens.size and tokens.min() < 0:
            raise SequenceError("negative language token id")
        if indices.size + tokens.size == 0:
            raise SequenceError("empty sequence")
        base = self.layout.total if self.layout is not None else 0
        positions = np.concatenate([indices, base + np.arange(tokens.size, dtype=np.int64)])
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
        video_embeds = np.asarray(video_embeds, dtype=np.float64)
        if video_embeds.shape[0] != layout.total:
            raise SequenceError(
                f"expected {layout.total} video embeddings for {layout}, got {video_embeds.shape[0]}"
            )
        return cls(layout, video_embeds, np.arange(layout.total, dtype=np.int64), language_tokens)

    @classmethod
    def language_only(cls, tokens: np.ndarray) -> "MultimodalSequence":
        return cls(None, np.zeros((0, 0)), np.zeros(0, dtype=np.int64), tokens)

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
        return self.layout is not None and self.n_video < self.layout.total

    @property
    def original_length(self) -> int:
        """Length of the unpruned prompt; generated tokens continue from here."""
        base = self.layout.total if self.layout is not None else 0
        return base + self.n_language

