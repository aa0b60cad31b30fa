"""Evaluate models over the generation contract without any model server:
the built-in stubs (echo, majority, nearest-neighbor) speak the same
interface in process. Also shows contamination filtering of a result.

Run from the repo root:  python demos/03_stub_evaluation.py
"""

from txf.analysis import contamination_scan
from txf.corpus import DataRecord, FeatureTable, RoleSpec, TaskManifest
from txf.evalharness import (
    EchoClient,
    EvalResult,
    MajorityClient,
    NearestNeighborClient,
    evaluate_task,
)
from txf.promptgen import NeighborIndex, render_prompt

manifest = TaskManifest(
    task_id="demo_families",
    task_kind="binary",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Classify the molecule.",
    context="Phenyl alcohols versus aliphatic amino alcohols.",
    question="Which family?\n\n(A) aliphatic (B) aromatic",
    label_column="Y",
    metric="auroc",
    split_method="random",
)

# Chain lengths make every feature string distinct and containment-free.
train, test = [], []
for k in range(1, 21):
    aromatic = f"c1ccccc1{'C' * k}O"
    aliphatic = f"O{'C' * k}N"
    if k <= 14:
        train.append(DataRecord(f"tr_a{k}", {"drug": aromatic}, True, split="train"))
        train.append(DataRecord(f"tr_b{k}", {"drug": aliphatic}, False, split="train"))
    else:
        test.append(DataRecord(f"te_a{k}", {"drug": aromatic}, True, split="test"))
        test.append(DataRecord(f"te_b{k}", {"drug": aliphatic}, False, split="test"))

prompts = [render_prompt(r, manifest) for r in test]
# The nearest-neighbor stub answers from an index over the train records.
knn = NearestNeighborClient(NeighborIndex(manifest, train, FeatureTable()))

print("=== Three stubs on the same task ===")
for name, client in (
    ("echo (oracle)", EchoClient(prompts)),
    ("majority", MajorityClient()),
    ("1-nearest-neighbor", knn),
):
    result = evaluate_task(manifest, prompts, client, concurrency=4)
    print(
        f"{name:20} auroc={result.value:.3f} n={result.n} "
        f"invalid_rate={result.invalid_rate:.2f}"
    )

print("\n=== Contamination filtering ===")
# Pretend a pretraining corpus contains a few of the test molecules verbatim.
leaked = [test[i].features["drug"] for i in (0, 1, 4, 9)]
corpus_text = "lorem ipsum " + " ... ".join(leaked) + " dolor sit amet"
flags = contamination_scan(
    [(r.record_id, [r.features["drug"]]) for r in test], [corpus_text]
)
flagged = sorted(rid for rid, hit in flags.items() if hit)
print(f"flagged {len(flagged)}/{len(flags)} records "
      f"({100.0 * len(flagged) / len(flags):.1f}% overlap): {', '.join(flagged)}")

# Re-score the same rows without the flagged records.
knn_result = evaluate_task(manifest, prompts, knn, concurrency=4)
kept = [row for row in knn_result.rows if not flags[row.record_id]]
filtered = EvalResult(knn_result.task_id, knn_result.metric, kept)
print(f"unfiltered auroc={knn_result.value:.3f} over n={knn_result.n}")
print(f"filtered   auroc={filtered.value:.3f} over n={filtered.n}")
