"""Random shot sampling and mixture building as txf did them when every draw
copied the eligible records out of the pool. Kept unchanged as the oracle
that tests/test_promptgen.py compares the O(k) draws against: same shot ids,
same order, same prompts."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from render_reference import fit_length_budget
from txf.corpus import DataRecord, TaskManifest
from txf.promptgen import INPUT_BUDGET, SHOT_RANGE, ZERO_SHOT_FRACTION, PromptRecord


def select_shots_random(
    pool: Sequence[DataRecord], n: int, seed: int, exclude_id: str | None = None
) -> list[DataRecord]:
    """n distinct uniform draws from the pool, the query itself excluded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eligible = [r for r in pool if r.record_id != exclude_id]
    if not eligible:
        raise ValueError("empty shot pool")
    rng = random.Random(seed)
    if n >= len(eligible):
        picked = list(eligible)
        rng.shuffle(picked)
        return picked
    return rng.sample(eligible, n)


def build_mixture(
    tasks: dict[str, tuple[TaskManifest, Sequence[DataRecord]]],
    count: int,
    seed: int = 1,
) -> Iterator[PromptRecord]:
    """Sample a finetuning mixture across tasks.

    Tasks are drawn with probability proportional to their train-record
    count, records uniformly within the task. ZERO_SHOT_FRACTION of the
    prompts are zero-shot; the rest take a uniform SHOT_RANGE count of random
    shots from the same task's train set, trimmed to INPUT_BUDGET. Fully
    reproducible from the seed.
    """
    if not tasks:
        raise ValueError("no tasks to mix")
    task_ids = sorted(tasks)
    pools = {}
    for task_id in task_ids:
        manifest, records = tasks[task_id]
        pool = [r for r in records if r.split in (None, "train")]
        if not pool:
            raise ValueError(f"{task_id}: no train records")
        pools[task_id] = (manifest, pool)
    weights = [len(pools[t][1]) for t in task_ids]
    rng = random.Random(seed)
    few_shot_fraction = 1.0 - ZERO_SHOT_FRACTION

    for _ in range(count):
        task_id = rng.choices(task_ids, weights=weights, k=1)[0]
        manifest, pool = pools[task_id]
        record = pool[rng.randrange(len(pool))]
        shots: Sequence[DataRecord] = ()
        if rng.random() < few_shot_fraction and len(pool) > 1:
            want = rng.randint(*SHOT_RANGE)
            shots = select_shots_random(
                pool, want, seed=rng.randrange(1 << 30), exclude_id=record.record_id
            )
        yield fit_length_budget(record, manifest, shots, INPUT_BUDGET)
