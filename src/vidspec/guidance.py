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

from .errors import GuidanceError
from .sequence import MultimodalSequence, check_type, float_array


@dataclass(frozen=True)
class GuidanceMatrix:
    """(n_language, n_video) attention mass, already averaged over layers/heads.

    Rows need not sum to one: language rows also attend to non-video keys.
    Guidance is undefined without at least one language row.
    """

    values: np.ndarray

    def __post_init__(self):
        values = float_array(self.values, 2, GuidanceError, "guidance matrix")
        if values.shape[0] < 1:
            raise GuidanceError("guidance is undefined without language query rows")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GuidanceScores:
    """Per-video-token attention mass, indexed by flat layout index."""

    values: np.ndarray

    def __post_init__(self):
        values = float_array(self.values, 1, GuidanceError, "scores")
        object.__setattr__(self, "values", values)


def extract_guidance(capture: np.ndarray, seq: MultimodalSequence) -> GuidanceMatrix:
    """Wrap a prefill's guidance block as the guidance matrix of ``seq``.

    ``capture`` is ``PrefillResult.capture`` from ``prefill(seq, capture=True)``:
    language-row/video-column attention already averaged over all layers and
    heads. It must be a finite array of shape ``(seq.n_language, seq.n_video)``,
    with at least one language row, and ``seq`` must be the unpruned prompt.
    """
    check_type(seq, MultimodalSequence, GuidanceError, "sequence")
    matrix = GuidanceMatrix(capture)
    shape = matrix.values.shape
    if shape != (seq.n_language, seq.n_video):
        raise GuidanceError(
            f"capture has shape {shape}, sequence needs {(seq.n_language, seq.n_video)}"
        )
    if seq.is_pruned:
        raise GuidanceError("guidance is extracted from the unpruned prompt")
    return matrix


def score_tokens(matrix: GuidanceMatrix) -> GuidanceScores:
    """Column means: average attention each video token received."""
    check_type(matrix, GuidanceMatrix, GuidanceError, "guidance matrix")
    return GuidanceScores(matrix.values.mean(axis=0))
