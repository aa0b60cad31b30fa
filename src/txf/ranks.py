"""Metric names and directions, shared by every reader of a manifest, result
file or results CSV, and average ranks, shared by the evaluation metrics and
the signed-rank test.

Stdlib only, so ``txf compare --pairs`` ranks without loading the layers
that evaluation needs.
"""

from __future__ import annotations

# The metrics that can score each task kind.
KIND_METRICS = {
    "binary": ("auroc", "auprc", "accuracy"),
    "regression": ("spearman", "pearson", "mae", "mse"),
    "generation": ("set_accuracy",),
}
METRICS = tuple(metric for metrics in KIND_METRICS.values() for metric in metrics)
LOWER_IS_BETTER_METRICS = {"mae", "mse"}


def parse_direction(text: str) -> bool:
    """A ``lower_is_better`` text, ``true`` or ``false`` in any case around
    whitespace. Raises ValueError, worded to follow the field's name, for
    anything else."""
    word = text.strip().lower()
    if word not in ("true", "false"):
        raise ValueError(f"is not true or false: {text!r}")
    return word == "true"


def lower_is_better_for(metric: str, stated: bool | None = None) -> bool:
    """Whether lower values of ``metric`` are better. A metric txf knows, in
    any case around whitespace, has its own direction, and ``stated``, an
    input's direction or None when it gives none, must agree with it; an
    unknown metric keeps ``stated``, False when None. Raises ValueError,
    worded to follow the name of the input's direction field, on a
    contradiction."""
    name = metric.strip().lower()
    if name not in METRICS:
        return bool(stated)
    lower = name in LOWER_IS_BETTER_METRICS
    if stated is not None and stated != lower:
        word = "true" if stated else "false"
        raise ValueError(f"is {word}, but {'lower' if lower else 'higher'} is better for metric {metric!r}")
    return lower


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
