"""Deterministic inputs for the benchmark workloads.

Every request is drawn from its own generator, seeded with (workload seed,
stream, request index), so the inputs of request i do not depend on how many
requests a run manages to finish, and a traced run replays exactly the
requests of an untraced one.

Only numpy and plain Python values come out of here: the program under test
receives the generated arrays, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

D_MODEL = 256
VOCAB = 4096
GRID_ROWS = 12
GRID_COLS = 12

# Each frame is a noisy copy of the previous one: f_t = RHO * f_{t-1} + noise.
FRAME_RHO = 0.9

LONG_FRAMES = (7, 8, 9)  # 8 x 12 x 12 + 64 = 1216 items at the centre
MEDIUM_FRAMES = (3, 4, 5)  # 4 x 12 x 12 + 64 = 640 items at the centre
TEXT_TOKENS = (48, 80)  # inclusive range, centred on 64

MEASURED = 1  # stream of the requests inside the timed window
WARMUP = 0  # stream of the request that runs before timing starts

# Draft tree templates as parent lists (parent index < child index; root = -1).
CHAIN_5 = (-1, 0, 1, 2, 3)
BRANCH_15 = (-1, 0, 0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 6, 8, 9)
TEMPLATES = (CHAIN_5, BRANCH_15)


@dataclass(frozen=True)
class Prompt:
    frames: int
    video: np.ndarray  # (frames * rows * cols, D_MODEL) float64
    text: np.ndarray  # (n_text,) int64 token ids


@dataclass(frozen=True)
class TreeRound:
    parents: tuple[int, ...]
    tokens: np.ndarray  # one token id per node
    path: np.ndarray  # node indices root..leaf of the path that is kept


def request_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def frame_count(seed: int, stream: int, index: int, choices: tuple[int, ...]) -> int:
    """Frames of request ``index``, drawn from the seed in balanced blocks.

    With k choices, each block of k consecutive requests takes every choice
    once, and each block of k * k requests takes every (choice, index mod k)
    pair once, so a workload that cycles another parameter with index mod k
    sees every combination equally often. The order within blocks is drawn
    from the seed. Balanced blocks keep the size mix of a run the same
    whatever the seed, so the spread of a run's median reflects the program,
    not the draw.
    """
    k = len(choices)
    block, slot = divmod(index, k * k)
    row, col = divmod(slot, k)
    rng = np.random.default_rng([seed, stream, block, k])
    shifts = rng.permutation(k)
    labels = rng.permutation(choices)
    return int(labels[(col + shifts[row]) % k])


def make_prompt(rng: np.random.Generator, frames: int) -> Prompt:
    n_text = int(rng.integers(TEXT_TOKENS[0], TEXT_TOKENS[1] + 1))
    frame_size = GRID_ROWS * GRID_COLS
    video = np.empty((frames, frame_size, D_MODEL))
    video[0] = rng.standard_normal((frame_size, D_MODEL))
    noise_scale = np.sqrt(1.0 - FRAME_RHO**2)
    for f in range(1, frames):
        video[f] = FRAME_RHO * video[f - 1] + noise_scale * rng.standard_normal(
            (frame_size, D_MODEL)
        )
    text = rng.integers(0, VOCAB, size=n_text, dtype=np.int64)
    return Prompt(frames, video.reshape(frames * frame_size, D_MODEL), text)


def depths(parents: tuple[int, ...]) -> np.ndarray:
    out = np.zeros(len(parents), dtype=np.int64)
    for i, p in enumerate(parents):
        if p >= 0:
            out[i] = out[p] + 1
    return out


def ancestor_mask(parents: tuple[int, ...]) -> np.ndarray:
    """mask[i, j] is True when node j is node i or one of its ancestors."""
    n = len(parents)
    mask = np.eye(n, dtype=bool)
    for i, p in enumerate(parents):
        if p >= 0:
            mask[i] |= mask[p]
    return mask


def leaves(parents: tuple[int, ...]) -> list[int]:
    has_child = {p for p in parents if p >= 0}
    return [i for i in range(len(parents)) if i not in has_child]


def root_path(parents: tuple[int, ...], leaf: int) -> np.ndarray:
    path = []
    node = leaf
    while node >= 0:
        path.append(node)
        node = parents[node]
    return np.array(path[::-1], dtype=np.int64)


def make_round(rng: np.random.Generator) -> TreeRound:
    parents = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
    tokens = rng.integers(0, VOCAB, size=len(parents), dtype=np.int64)
    candidates = leaves(parents)
    leaf = candidates[int(rng.integers(len(candidates)))]
    return TreeRound(parents, tokens, root_path(parents, leaf))

