"""Build instruction prompts from a task manifest: splits, label binning,
few-shot selection, length budgets, and the weighted training mixture.

Run from the repo root:  python demos/02_prompts_and_mixture.py
"""

import statistics
from collections import Counter

from txf.corpus import DataRecord, RoleSpec, TaskManifest, assign_splits
from txf.promptgen import (
    INPUT_BUDGET,
    NeighborIndex,
    bin_label,
    build_mixture,
    render_prompt,
    shot_source_splits,
    unbin_label,
)

manifest = TaskManifest(
    task_id="demo_permeability",
    task_kind="regression",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Answer the following question about drug properties.",
    context="A synthetic permeability screen over small acids and amides.",
    question=(
        "Given a drug SMILES string, predict its normalized permeability "
        "from 000 to 1000, where 000 is minimum permeability and 1000 is "
        "maximum permeability."
    ),
    label_column="Y",
    metric="mae",
    split_method="random",
    label_range=(0.0, 20.0),
)

def _molecule(i: int) -> str:
    # chain length, head group, and tail length make each record distinct
    chain = "C" * (1 + i % 25)
    head = "N" if i % 2 else "O"
    tail = "C" * (i // 50)
    return f"{chain}C(=O){head}{tail}"


records = [
    DataRecord(str(i), {"drug": _molecule(i)}, float(i % 21)) for i in range(200)
]
records = assign_splits(records, manifest, seed=1)
by_split = Counter(r.split for r in records)
print("split sizes:", dict(by_split))

print("\n=== Label binning ===")
for y in (0.0, 7.88 * 2, 19.0, 25.0):
    b, text = bin_label(y, manifest.label_range)
    print(f"y={y:6.2f} -> bin {b:4d} rendered {text!r} -> back to {unbin_label(b, manifest.label_range):.3f}")

print("\n=== A rendered prompt ===")
test_records = [r for r in records if r.split == "test"]
query = test_records[0]
pool = [r for r in records if r.split in shot_source_splits("test")]
# The index fingerprints each SMILES once; the split above already parsed
# it, and txf.corpus keeps each conversion for the life of the process.
index = NeighborIndex(manifest, pool)
shots = [pool[i] for i, _ in index.nearest(query.features, 3)]
prompt = render_prompt(query, manifest, shots, budget=INPUT_BUDGET)
print(prompt.prompt)
print("<target>", prompt.target)
print("shots used:", prompt.shot_ids, "estimated tokens:", prompt.estimated_length)

print("\n=== Nearest-neighbor similarity by split ===")
# Shots for train/valid queries come from train; test queries may also use
# valid. Nearby records are usually easier to find inside the training set.
# The index over the pool fingerprints each distinct molecule once; a query
# in the pool is excluded by its position there.
positions = {r.record_id: i for i, r in enumerate(pool)}
for split in ("train", "valid", "test"):
    sims = [
        index.nearest(record.features, 1, exclude=positions.get(record.record_id))[0][1]
        for record in records
        if record.split == split
    ]
    print(f"{split:5}: mean best-neighbor similarity {statistics.mean(sims):.3f} over {len(sims)}")

print("\n=== Training mixture ===")
small_task = TaskManifest(
    task_id="demo_small",
    task_kind="binary",
    roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
    instruction="Classify the molecule.",
    context="A tiny companion task.",
    question="Active?\n\n(A) no (B) yes",
    label_column="Y",
    metric="auroc",
    split_method="random",
)
small_records = [
    DataRecord(f"s{i}", {"drug": "C" * (1 + i % 4)}, bool(i % 2), split="train")
    for i in range(50)
]
tasks = {
    "demo_permeability": (manifest, [r for r in records if r.split == "train"]),
    "demo_small": (small_task, small_records),
}
sample = list(build_mixture(tasks, 5000, seed=1))
task_freq = Counter(p.task_id for p in sample)
zero = sum(1 for p in sample if not p.shot_ids)
shot_hist = Counter(len(p.shot_ids) for p in sample if p.shot_ids)
print("task draw frequencies:", {k: f"{v / len(sample):.3f}" for k, v in task_freq.items()})
print(f"zero-shot fraction: {zero / len(sample):.3f} (target 0.70)")
print("shot-count histogram:", dict(sorted(shot_hist.items())))
