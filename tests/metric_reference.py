"""The numpy metrics txf computed before its stdlib ones, kept unchanged as
the oracle that tests/test_metrics.py compares the stdlib metrics against
bit for bit."""

import math

import numpy as np

from txf.evalharness import EvalRow, accuracy


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties averaged."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def auroc(scores, labels) -> float | None:
    """Rank (Mann-Whitney) formulation: (wins + ties/2) / (P*N)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = int(labels.sum())
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        return None
    ranks = average_ranks(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - pos * (pos + 1) / 2) / (pos * neg)


def auprc(scores, labels) -> float | None:
    """Average precision; score ties keep stable record order."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = int(labels.sum())
    if pos == 0:
        return None
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0.0
    total = 0.0
    for rank, i in enumerate(order, 1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / pos


def mae(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("bad input shapes")
    return float(np.mean(np.abs(p - t)))


def mse(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("bad input shapes")
    return float(np.mean((p - t) ** 2))


def pearson(predictions, targets) -> float | None:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.size != t.size or p.size < 2:
        raise ValueError("need at least two pairs")
    sp = p - p.mean()
    st = t - t.mean()
    denom = math.sqrt(float((sp**2).sum()) * float((st**2).sum()))
    if denom == 0.0:
        return None
    return float((sp * st).sum()) / denom


def spearman(predictions, targets) -> float | None:
    """Pearson correlation of average ranks."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.size != t.size or p.size < 2:
        raise ValueError("need at least two pairs")
    return pearson(average_ranks(p), average_ranks(t))


def _metric_over_rows(metric: str, rows: list[EvalRow]) -> float | None:
    if metric == "auroc":
        return auroc([r.score for r in rows], [bool(r.truth) for r in rows])
    if metric == "auprc":
        return auprc([r.score for r in rows], [bool(r.truth) for r in rows])
    if metric == "accuracy":
        return accuracy([r.prediction for r in rows], [r.target for r in rows])
    if metric == "set_accuracy":
        return sum(r.score for r in rows) / len(rows)
    predictions = [float(r.prediction) for r in rows]
    truths = [float(r.truth) for r in rows]
    if metric == "mae":
        return mae(predictions, truths)
    if metric == "mse":
        return mse(predictions, truths)
    if metric == "pearson":
        return pearson(predictions, truths)
    if metric == "spearman":
        return spearman(predictions, truths)
    raise ValueError(f"unknown metric {metric!r}")


def score_rows(metric: str, rows: list[EvalRow]) -> tuple[float | None, dict | None, str | None]:
    """Metric value over rows, per-subtask values when subtasks exist."""
    if not rows:
        return None, None, "no rows"
    subtasks = {r.subtask for r in rows}
    if subtasks != {None}:
        per: dict[str, float | None] = {}
        for name in sorted(s for s in subtasks if s is not None):
            per[name] = _metric_over_rows(metric, [r for r in rows if r.subtask == name])
        defined = [v for v in per.values() if v is not None]
        if not defined:
            return None, per, "metric undefined for every subtask"
        return float(np.mean(defined)), per, None
    value = _metric_over_rows(metric, rows)
    if value is None:
        return None, None, "metric undefined (degenerate labels or scores)"
    return value, None, None
