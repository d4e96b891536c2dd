"""Index sets: every entry point that takes a set of kept indices admits it
through ``index_array``, and rejects a malformed set with its own error."""

import numpy as np
import pytest

from vidspec.errors import PlanError, RollbackError, SequenceError
from vidspec.model import KvCache
from vidspec.pruning import PruningPlan, stage2_uniform
from vidspec.sequence import MultimodalSequence, VideoLayout

BOUND = 4  # every entry point below admits indices in [0, 4)
LAYOUT = VideoLayout(1, 2, 2)


def rollback_to(indices):
    """Roll a 4-slot cache back to ``indices``; a rejected subset leaves the
    cache as it was."""
    cache = KvCache(1, 1, 2, capacity=8)
    cache.pos[:BOUND] = np.arange(BOUND)
    cache.length = BOUND
    try:
        cache.rollback(indices)
    except RollbackError:
        assert cache.length == BOUND
        assert np.array_equal(cache.pos[:BOUND], np.arange(BOUND))
        raise


ENTRY_POINTS = {
    "sequence": (
        SequenceError,
        lambda idx: MultimodalSequence(LAYOUT, np.zeros((np.size(idx), 8)), idx, [3]),
    ),
    "plan_v_r": (PlanError, lambda idx: PruningPlan(LAYOUT, idx, [])),
    "plan_v_u": (PlanError, lambda idx: PruningPlan(LAYOUT, [], idx)),
    "uniform_fill_v_r": (PlanError, lambda idx: stage2_uniform(LAYOUT, idx, 0.0)),
    "rollback_subset": (RollbackError, rollback_to),
}

MALFORMED_SETS = {
    "2d": [[0, 1]],
    "fraction": [0, 1.5],
    "negative": [-1, 0],
    "at_bound": [0, BOUND],
    "repeated": [1, 1],
    "decreasing": [2, 1],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SETS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_malformed_index_set_rejected(entry, case):
    """A set that is not 1-D, not integers, outside ``[0, 4)`` or not
    strictly increasing raises the entry point's own error."""
    error, call = ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(MALFORMED_SETS[case])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_index_set_accepted(entry):
    """The first and last index of the range, in order, pass every entry
    point, so each malformed case above fails on its index set alone."""
    ENTRY_POINTS[entry][1]([0, BOUND - 1])
