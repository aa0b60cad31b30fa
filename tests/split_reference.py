"""Grouped splits by the rule txf has always used for cold-start and
combination tasks, kept as the oracle that tests/test_corpus.py compares
``assign_splits`` against: the groups are ordered by their key's text and
shuffled with the seed, and each group goes to the first split whose
cumulative target is not yet reached. A train group that overshoots its
target therefore eats into the valid split, not the test split."""

from __future__ import annotations

import random


def grouped_splits(keys: list, seed: int) -> list[str]:
    """The split of each record, given each record's group key."""
    n = len(keys)
    targets = [("train", round(0.8 * n)), ("valid", round(0.9 * n))]
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    order = sorted(groups, key=str)
    random.Random(seed).shuffle(order)
    splits = [""] * n
    assigned = 0
    for key in order:
        split = next((name for name, target in targets if assigned < target), "test")
        for i in groups[key]:
            splits[i] = split
        assigned += len(groups[key])
    return splits
