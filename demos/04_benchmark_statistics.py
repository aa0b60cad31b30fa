"""Reproduce the benchmark statistics from the transcribed result tables:
the scoreboard against state of the art, per-feature-type medians, and
paired signed-rank comparisons between model variants.

Run from the repo root:  python demos/04_benchmark_statistics.py
"""

from pathlib import Path

from txf.analysis import (
    compare_pairs,
    load_pair_rows,
    load_score_rows,
    median_relative_difference_by_feature_type,
    scoreboard,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

print("=== Scoreboard against state of the art ===")
rows = load_score_rows(FIXTURES / "benchmark_results.csv")
verdicts = scoreboard(rows)
exceed, near = verdicts.count("exceed"), verdicts.count("near")
print(f"tasks: {len(verdicts)}")
print(f"exceeding: {exceed}   near (within 10%): {near}   "
      f"near-or-above: {exceed + near}   below: {verdicts.count('below')}")
exceeding = [row.task for row, verdict in zip(rows, verdicts) if verdict == "exceed"]
print("exceeding tasks:", ", ".join(exceeding[:8]), "...")

print("\n=== Median relative difference by feature type ===")
for feature_type, value in sorted(
    median_relative_difference_by_feature_type(rows).items(), key=lambda kv: -kv[1]
):
    print(f"{feature_type:28} {value:+.3f}")

print("\n=== Model size: small vs medium (66 paired tasks) ===")
pairs = load_pair_rows(FIXTURES / "model_size_results.csv", "model_s", "model_m")
result = compare_pairs(pairs)
print(f"medium better on {result.wins_b}/{result.n_input}, "
      f"W={result.statistic:.0f}, two-sided p={result.p_value:.3g}")

print("\n=== Domain finetuning: base vs finetuned ===")
for a_col, b_col, label in (
    ("base_s", "model_s", "small"),
    ("base_m", "model_m", "medium"),
):
    result = compare_pairs(load_pair_rows(FIXTURES / "model_size_results.csv", a_col, b_col))
    print(f"{label:6}: finetuned better on {result.wins_b}/{result.n_input}, "
          f"p={result.p_value:.3g}")

print("\n=== Context removal (10-shot KNN prompting) ===")
pairs = load_pair_rows(FIXTURES / "context_ablation_results.csv", "no_context", "with_context")
result = compare_pairs(pairs)
print(f"with-context better on {result.wins_b}/{result.n_input} "
      f"({result.zeros} ties), p={result.p_value:.3g}")
