"""Language-to-video attention guidance.

The verifier's prefill attention is reduced to one score per video token: take
the rows of language (query) items against the columns of video (key) items,
average over every layer and head, then average over the language rows. Token
importance downstream keys entirely off these scores.

The layer/head average is accumulated by ``Model.prefill(seq, capture=True)``
while its forward runs; this module checks that block against the sequence and
reduces it to scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScoresError, GuidanceError
from .sequence import MultimodalSequence


@dataclass(frozen=True)
class GuidanceMatrix:
    """(n_language, n_video) attention mass, already averaged over layers/heads.

    Rows need not sum to one: language rows also attend to non-video keys.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise GuidanceError("guidance matrix must be 2-D")
        object.__setattr__(self, "values", values)

    @property
    def n_language(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GuidanceScores:
    """Per-video-token attention mass, indexed by flat layout index."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise GuidanceError("scores must be 1-D")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CumulativeProfile:
    """Cumulative attention mass against token fraction, tokens sorted by
    descending score. Starts at (0, 0), ends at (1, 1), concave in between."""

    token_fraction: np.ndarray
    attention_fraction: np.ndarray


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values descending; ties broken by ascending index."""
    return np.argsort(-np.asarray(values), kind="stable")


def extract_guidance(capture: np.ndarray, seq: MultimodalSequence) -> GuidanceMatrix:
    """Wrap a prefill's guidance block as the guidance matrix of ``seq``.

    ``capture`` is ``PrefillResult.capture`` from ``prefill(seq, capture=True)``:
    language-row/video-column attention already averaged over all layers and
    heads. It must have shape ``(seq.n_language, seq.n_video)``, with at least
    one language row, and ``seq`` must be the unpruned prompt.
    """
    shape = np.shape(capture)
    if shape != (seq.n_language, seq.n_video):
        raise GuidanceError(
            f"capture has shape {shape}, sequence needs {(seq.n_language, seq.n_video)}"
        )
    if seq.n_language == 0:
        raise GuidanceError("guidance is undefined without language query rows")
    if seq.is_pruned:
        raise GuidanceError("guidance is extracted from the unpruned prompt")
    return GuidanceMatrix(capture)


def score_tokens(matrix: GuidanceMatrix) -> GuidanceScores:
    """Column means: average attention each video token received."""
    if matrix.n_language < 1:
        raise GuidanceError("at least one language row required")
    return GuidanceScores(matrix.values.mean(axis=0))


def cumulative_profile(scores: GuidanceScores) -> CumulativeProfile:
    values = scores.values
    if values.shape[0] == 0:
        raise DegenerateScoresError("no scores")
    order = descending_order(values)
    cum = np.cumsum(values[order])
    total = cum[-1]
    if total <= 0.0:
        raise DegenerateScoresError("all-zero scores have no cumulative profile")
    n = values.shape[0]
    return CumulativeProfile(
        token_fraction=np.arange(n + 1) / n,
        attention_fraction=np.concatenate([[0.0], cum / total]),
    )
