"""Self-test of the benchmark's input generator.

    python3 perfbench/selftest.py

Checks that the same seed gives the same inputs and a different seed (or
request index) different ones, that consecutive video frames are correlated
as designed, and that the tree templates are well formed. Needs numpy only;
exits non-zero on the first failure.
"""

from __future__ import annotations

import sys

import numpy as np

import inputs as gen


def same_prompt(a: gen.Prompt, b: gen.Prompt) -> bool:
    return a.frames == b.frames and np.array_equal(a.video, b.video) and np.array_equal(a.text, b.text)


def frame_correlation(prompt: gen.Prompt, lag: int) -> float:
    frame_size = gen.GRID_ROWS * gen.GRID_COLS
    frames = prompt.video.reshape(prompt.frames, frame_size * gen.D_MODEL)
    return float(np.mean([np.corrcoef(frames[f], frames[f + lag])[0, 1] for f in range(prompt.frames - lag)]))


def main() -> int:
    failures = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            failures.append(what)

    for frame_choices in (gen.LONG_FRAMES, gen.MEDIUM_FRAMES):

        def prompt(seed, stream, index):
            frames = gen.frame_count(seed, stream, index, frame_choices)
            return gen.make_prompt(gen.request_rng(seed, stream, index), frames)

        a = prompt(7, gen.MEASURED, 3)
        b = prompt(7, gen.MEASURED, 3)
        other_seed = prompt(8, gen.MEASURED, 3)
        other_index = prompt(7, gen.MEASURED, 4)
        warmup = prompt(7, gen.WARMUP, 3)
        expect(same_prompt(a, b), "same seed and index give different prompts")
        expect(not same_prompt(a, other_seed), "different seeds give the same prompt")
        expect(not same_prompt(a, other_index), "different requests give the same prompt")
        expect(not same_prompt(a, warmup), "warm-up and measured streams coincide")
        expect(a.frames in frame_choices, f"frame count {a.frames} outside {frame_choices}")
        n = len(frame_choices)
        for seed in (7, 8):
            for block in range(4):
                drawn = sorted(gen.frame_count(seed, gen.MEASURED, block * n + i, frame_choices) for i in range(n))
                expect(drawn == sorted(frame_choices), f"block {block} of seed {seed} draws {drawn}")
            pairs = sorted(
                (gen.frame_count(seed, gen.MEASURED, i, frame_choices), i % n) for i in range(n * n)
            )
            expect(
                pairs == sorted((f, c) for f in frame_choices for c in range(n)),
                f"seed {seed}: (frames, index mod {n}) pairs unbalanced",
            )
        orders = {
            tuple(gen.frame_count(seed, gen.MEASURED, i, frame_choices) for i in range(4 * n))
            for seed in range(6)
        }
        expect(len(orders) > 1, "frame order does not depend on the seed")
        expect(
            gen.TEXT_TOKENS[0] <= a.text.size <= gen.TEXT_TOKENS[1], f"text length {a.text.size}"
        )
        near, far = frame_correlation(a, 1), frame_correlation(a, a.frames - 1)
        expect(abs(near - gen.FRAME_RHO) < 0.05, f"consecutive-frame correlation {near:.3f}")
        expect(far < near, "distant frames are not less correlated than neighbours")

    r1 = gen.make_round(gen.request_rng(7, gen.MEASURED, 3))
    r2 = gen.make_round(gen.request_rng(7, gen.MEASURED, 3))
    r3 = gen.make_round(gen.request_rng(9, gen.MEASURED, 3))
    expect(
        r1.parents == r2.parents
        and np.array_equal(r1.tokens, r2.tokens)
        and np.array_equal(r1.path, r2.path),
        "same seed gives different tree rounds",
    )
    expect(
        r1.parents != r3.parents or not np.array_equal(r1.tokens, r3.tokens),
        "different seeds give the same tree round",
    )

    for parents in gen.TEMPLATES:
        mask = gen.ancestor_mask(parents)
        expect(all(p < i for i, p in enumerate(parents)), "parent after child")
        expect(bool(np.all(np.diag(mask))) and not np.any(np.triu(mask, 1)), "mask not causal")
        depth = gen.depths(parents)
        for leaf in gen.leaves(parents):
            path = gen.root_path(parents, leaf)
            expect(path[0] == 0 and path[-1] == leaf, "path is not root to leaf")
            expect(np.array_equal(depth[path], np.arange(path.size)), "path depths not 0..d")
            expect(bool(np.all(mask[leaf, path])) and mask[leaf].sum() == path.size, "leaf row")
    expect(len(gen.CHAIN_5) == 5 and len(gen.leaves(gen.CHAIN_5)) == 1, "chain template")
    expect(len(gen.BRANCH_15) == 15, "branching template size")

    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
