"""Average ranks, shared by the evaluation metrics and the signed-rank test.

Stdlib only, so ``txf compare --pairs`` ranks without loading the layers
that evaluation needs.
"""

from __future__ import annotations


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def average_ranks(values) -> list[float]:
    """1-based ranks with ties averaged; NaNs rank last, each on its own."""
    arr = _floats(values)
    order = sorted((i for i, v in enumerate(arr) if v == v), key=arr.__getitem__)
    order += [i for i, v in enumerate(arr) if v != v]
    ranks = [0.0] * len(arr)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in order[i : j + 1]:
            ranks[k] = rank
        i = j + 1
    return ranks
