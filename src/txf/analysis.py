"""Cross-model statistics: a scoreboard verdict per task against state of
the art and paired signed-rank comparisons.

The contamination scan lives in ``txf.contamination``, which the
contamination command loads alone; it is re-exported here.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

from .contamination import contamination_scan
from .ranks import LOWER_IS_BETTER_METRICS, average_ranks, lower_is_better_for, parse_direction
from .value import Frozen, Value, set_fields

__all__ = [
    "ScoreRow",
    "PairRow",
    "ComparisonResult",
    "relative_difference",
    "VERDICTS",
    "scoreboard",
    "median_relative_difference_by_feature_type",
    "wilcoxon_signed_rank",
    "compare_pairs",
    "contamination_scan",
    "load_score_rows",
    "load_pair_rows",
]

# The verdicts scoreboard gives a row against its reference value.
VERDICTS = ("exceed", "near", "below", "no_sota")
# A row below its reference is "near" within 10 % (see _is_near).
NEAR_THRESHOLD = 0.1
# The signed-rank null is enumerated exactly up to this many nonzero pairs
# and approximated normally above it.
EXACT_LIMIT = 25


class ScoreRow(Frozen):
    __slots__ = ("task", "feature_type", "metric", "lower_is_better", "sota", "model")

    def __init__(
        self, task: str, feature_type: str, metric: str, lower_is_better: bool, sota: float | None, model: float
    ):
        set_fields(self, (task, feature_type, metric, lower_is_better, sota, model))


class PairRow(Frozen):
    __slots__ = ("task", "metric", "lower_is_better", "a", "b", "tie_winner")

    def __init__(
        self, task: str, metric: str, lower_is_better: bool, a: float, b: float,
        tie_winner: str | None = None,  # "a" or "b" when the rounded values tie
    ):
        set_fields(self, (task, metric, lower_is_better, a, b, tie_winner))


def relative_difference(row: ScoreRow) -> float:
    """(model - sota) / |sota|, sign reversed for lower-is-better metrics, so
    a positive difference is always the better model, even below zero."""
    if row.sota is None:
        raise ValueError(f"{row.task}: no reference value")
    if row.sota == 0:
        raise ValueError(f"{row.task}: zero reference value")
    d = (row.model - row.sota) / abs(row.sota)
    return -d if row.lower_is_better else d


def _is_near(row: ScoreRow) -> bool:
    """Whether a row that does not exceed its reference is within
    NEAR_THRESHOLD of it.

    Higher-is-better metrics compare relative difference directly. Error
    magnitudes (MAE/MSE) depend on the label units, so they are compared on
    a log10 scale: near means |log10(model / sota)| <= NEAR_THRESHOLD. Both
    boundaries are inclusive.
    """
    if row.lower_is_better and row.model > 0 and row.sota > 0:
        return abs(math.log10(row.model / row.sota)) <= NEAR_THRESHOLD
    return abs(relative_difference(row)) <= NEAR_THRESHOLD


def scoreboard(rows: Sequence[ScoreRow], na_as_exceed: bool = True) -> list[str]:
    """One verdict from VERDICTS per row, in row order: the row exceeds, is
    near, or is below its reference value.

    Rows with no reference count as exceeding by default (they represent
    best-in-class results); pass na_as_exceed=False to give them "no_sota".
    """
    verdicts = []
    for row in rows:
        if row.sota is None:
            verdicts.append("exceed" if na_as_exceed else "no_sota")
        elif relative_difference(row) > 0:
            verdicts.append("exceed")
        else:
            verdicts.append("near" if _is_near(row) else "below")
    return verdicts


def median_relative_difference_by_feature_type(
    rows: Sequence[ScoreRow],
) -> dict[str, float]:
    """Median relative difference per feature type, over rows with a reference."""
    # Imported here: statistics loads fractions and decimal, which the
    # contamination command does not need.
    import statistics

    groups: dict[str, list[float]] = {}
    for row in rows:
        if row.sota is not None:
            groups.setdefault(row.feature_type, []).append(relative_difference(row))
    return {feature_type: statistics.median(values) for feature_type, values in groups.items()}


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank comparison
# ---------------------------------------------------------------------------


class ComparisonResult(Value):
    __slots__ = ("n_input", "n_used", "wins_a", "wins_b", "zeros", "statistic", "p_value", "differences")

    def __init__(
        self, n_input: int, n_used: int, wins_a: int, wins_b: int, zeros: int, statistic: float, p_value: float,
        differences: list[float] | None = None,  # a new empty list by default
    ):
        self.n_input, self.n_used, self.wins_a, self.wins_b = n_input, n_used, wins_a, wins_b
        self.zeros, self.statistic, self.p_value = zeros, statistic, p_value
        self.differences = [] if differences is None else differences


def _signed_rank_p_exact(ranks: list[float], w_min: float, n: int) -> float:
    # Ranks may be half-integers under ties; work in doubled units so the
    # subset-sum table stays integral.
    doubled = [round(2 * r) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for d in doubled:
        for s in range(total, d - 1, -1):
            if counts[s - d]:
                counts[s] += counts[s - d]
    w2 = round(2 * w_min)
    favorable = sum(counts[: min(w2, total) + 1])
    p = 2.0 * favorable / (2**n)
    return min(1.0, p)


def _signed_rank_p_normal(w_min: float, n: int) -> float:
    mu = n * (n + 1) / 4
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24)  # n > EXACT_LIMIT, so sigma > 0
    # Continuity-corrected two-sided tail from the smaller statistic.
    z = (mu - w_min - 0.5) / (sigma * math.sqrt(2))
    return min(1.0, math.erfc(z))


def wilcoxon_signed_rank(
    a: Sequence[float],
    b: Sequence[float],
    lower_is_better: Sequence[bool] | bool = False,
) -> ComparisonResult:
    """Paired two-sided signed-rank test on mean-normalized differences.

    Per pair, d = (b - a) / mean(a, b), sign-reversed for lower-is-better
    metrics so positive d always means b performed better. Zero differences
    are dropped; |d| ties get average ranks. W = min(W+, W-); the null is
    enumerated exactly up to EXACT_LIMIT pairs and approximated normally
    (with continuity correction) above.
    """
    if len(a) != len(b):
        raise ValueError("paired inputs must have equal length")
    if len(a) < 5:
        raise ValueError("need at least 5 pairs")
    if not all(math.isfinite(x) for x in (*a, *b)):
        raise ValueError("paired values must be finite")
    if isinstance(lower_is_better, bool):
        directions = [lower_is_better] * len(a)
    else:
        directions = list(lower_is_better)
        if len(directions) != len(a):
            raise ValueError("directions length mismatch")

    diffs = []
    wins_a = wins_b = zeros = 0
    for x, y, lower in zip(a, b, directions):
        mean = (x + y) / 2
        d = (y - x) / mean if mean != 0 else (y - x)
        if lower:
            d = -d
        if d > 0:
            wins_b += 1
        elif d < 0:
            wins_a += 1
        else:
            zeros += 1
        diffs.append(d)

    nonzero = [d for d in diffs if d != 0]
    n = len(nonzero)
    if n == 0:
        return ComparisonResult(
            n_input=len(a), n_used=0, wins_a=wins_a, wins_b=wins_b, zeros=zeros,
            statistic=0.0, p_value=1.0, differences=diffs,
        )

    ranks = average_ranks([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        p = _signed_rank_p_exact(ranks, w, n)
    else:
        p = _signed_rank_p_normal(w, n)
    return ComparisonResult(
        n_input=len(a), n_used=n, wins_a=wins_a, wins_b=wins_b, zeros=zeros,
        statistic=w, p_value=min(p, 1.0), differences=diffs,
    )


def compare_pairs(pairs: Sequence[PairRow]) -> ComparisonResult:
    """Signed-rank comparison over per-task pairs.

    Ties at the recorded precision are attributed to the side marked in
    tie_winner for the win counts; the test itself still drops them as zero
    differences.
    """
    result = wilcoxon_signed_rank(
        [p.a for p in pairs],
        [p.b for p in pairs],
        [p.lower_is_better for p in pairs],
    )
    for pair in pairs:
        if pair.a == pair.b and pair.tie_winner in ("a", "b"):
            result.zeros -= 1
            if pair.tie_winner == "a":
                result.wins_a += 1
            else:
                result.wins_b += 1
    return result


# ---------------------------------------------------------------------------
# Fixture loading
# ---------------------------------------------------------------------------


def _read_csv(path, columns) -> list[tuple[int, dict]]:
    """Numbered rows of a UTF-8 CSV file whose header names every one of
    columns and whose rows reach each of them. A leading byte-order mark is
    ignored."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            reader = csv.DictReader(line for line in fh if not line.startswith("#"))
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            rows = list(enumerate(reader, 1))
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    for n, row in rows:
        if any(row[c] is None for c in columns):
            raise ValueError(f"{path}: row {n} has fewer cells than the header")
    return rows


def _number(path, n: int, row: dict, column: str) -> float:
    """The cell as a finite float; raises ValueError naming file, row and column."""
    text = row[column]
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {n} column {column!r} is not a finite number: {text!r}")
    return value


def _direction(path, n: int, row: dict) -> bool:
    """The lower_is_better cell, ``true`` or ``false`` in any case and in
    agreement with a known metric; raises ValueError naming file, row and
    column for anything else."""
    try:
        return lower_is_better_for(row["metric"], parse_direction(row["lower_is_better"]))
    except ValueError as exc:
        raise ValueError(f"{path}: row {n} column 'lower_is_better' {exc}") from None


def load_score_rows(path, model_col: str = "model") -> list[ScoreRow]:
    """Rows of task,feature_type,metric,lower_is_better,sota,<model_col>. A
    sota of zero, which no relative difference can divide by, and a negative
    mae or mse are rejected."""
    rows = []
    for n, rec in _read_csv(path, ("task", "metric", "lower_is_better", model_col)):
        row = ScoreRow(
            task=rec["task"],
            feature_type=rec.get("feature_type", ""),
            metric=rec["metric"],
            lower_is_better=_direction(path, n, rec),
            sota=_number(path, n, rec, "sota") if (rec.get("sota") or "").strip() else None,
            model=_number(path, n, rec, model_col),
        )
        if row.sota == 0:
            raise ValueError(f"{path}: row {n} column 'sota' is zero, so no relative difference: {rec['sota']!r}")
        if row.metric.strip().lower() in LOWER_IS_BETTER_METRICS:
            for column, value in (("sota", row.sota), (model_col, row.model)):
                if value is not None and value < 0:
                    raise ValueError(f"{path}: row {n} column {column!r} is a negative {row.metric}: {rec[column]!r}")
        rows.append(row)
    return rows


def load_pair_rows(path, a_col: str, b_col: str) -> list[PairRow]:
    """Paired per-task values. A tie_winner column is honored when present:
    each cell is empty, or ``a`` or ``b`` in any case around whitespace."""
    pairs = []
    for n, rec in _read_csv(path, ("task", "metric", "lower_is_better", a_col, b_col)):
        tie = (rec.get("tie_winner") or "").strip().lower() or None
        if tie not in (None, "a", "b"):
            raise ValueError(f"{path}: row {n} column 'tie_winner' is not a or b: {rec['tie_winner']!r}")
        pairs.append(
            PairRow(
                task=rec["task"],
                metric=rec["metric"],
                lower_is_better=_direction(path, n, rec),
                a=_number(path, n, rec, a_col),
                b=_number(path, n, rec, b_col),
                tie_winner=tie,
            )
        )
    return pairs
