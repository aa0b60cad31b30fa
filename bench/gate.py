"""Correctness gate: invariants of one cycle's outputs, checked
independently of the command that produced them.

Each check returns (name, ok, detail). A failed check counts as a failed
operation in the benchmark's error rate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import fakemodel
from workloads import Workload

SPLITS = ("train", "valid", "test")
KNN_SAMPLE = 8  # queries whose shot order is recomputed per workload
FEATURE_CHARS = 512  # the contamination command's default --max-chars


def digest(out: Path) -> str:
    """SHA-256 over every result file of a cycle, in path order."""
    h = hashlib.sha256()
    for sub in ("build", "eval", "scan"):
        for path in sorted((out / sub).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_table(w: Workload, task_id: str) -> tuple[list[str], list[list[str]]]:
    with open(w.data / f"{task_id}.tsv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    return rows[0], rows[1:]


def read_audit(out: Path, task_id: str) -> dict[str, str]:
    audit = {}
    with open(out / "build" / f"{task_id}.splits.tsv", encoding="utf-8") as fh:
        for line in fh:
            record_id, split = line.rstrip("\n").split("\t")
            audit[record_id] = split
    return audit


def _cut_sizes(n: int) -> list[int]:
    train_end, valid_end = round(0.8 * n), round(0.9 * n)
    return [train_end, valid_end - train_end, n - valid_end]


def check_splits(w: Workload, out: Path):
    for task in w.tasks:
        audit = read_audit(out, task.task_id)
        expected = [sum(1 for s in audit.values() if s == split) for split in SPLITS]
        lines = [len(read_jsonl(out / "build" / f"{task.task_id}.{s}.jsonl")) for s in SPLITS]
        ok = lines == expected and len(audit) == task.rows
        if task.split_method == "random":
            ok = ok and lines == _cut_sizes(task.rows)
        detail = f"jsonl {lines} audit {expected} rows {task.rows}"
        yield f"split_counts[{task.task_id}]", ok, detail


def check_no_self_shots(w: Workload, out: Path):
    bad = 0
    total = 0
    for path in sorted((out / "build").glob("*.jsonl")):
        for prompt in read_jsonl(path):
            total += 1
            bad += prompt["record_id"] in prompt["shots"]
    yield "no_self_shots", bad == 0, f"{bad} of {total} prompts use their own record"


def check_knn_order(w: Workload, out: Path, seed: int):
    """Shots of sampled queries equal top_k_tanimoto / top_k_identity."""
    from txf.bioseq import BioSequence, top_k_identity
    from txf.chem import morgan_fingerprint, parse_smiles, top_k_tanimoto

    k = int(w.build_shots[3:])
    task = w.tasks[0]
    header, rows = read_table(w, task.task_id)
    audit = read_audit(out, task.task_id)
    column = header.index(task.features[0])
    if task.similarity == "amino_acid":
        items = [BioSequence(row[column]) for row in rows]
        top_k = top_k_identity
    else:
        items = [morgan_fingerprint(parse_smiles(row[column])) for row in rows]
        top_k = top_k_tanimoto
    prompts = []
    for split in SPLITS:
        prompts += read_jsonl(out / "build" / f"{task.task_id}.{split}.jsonl")
    sample = random.Random(seed).sample(prompts, min(KNN_SAMPLE, len(prompts)))
    mismatches = 0
    for prompt in sample:
        sources = ("train", "valid") if prompt["split"] == "test" else ("train",)
        pool = [
            str(i) for i in range(len(rows))
            if audit[str(i)] in sources and str(i) != prompt["record_id"]
        ]
        ranked = top_k(items[int(prompt["record_id"])], [items[int(i)] for i in pool], k)
        expected = [pool[i] for i, _ in ranked]
        shots = prompt["shots"]
        mismatches += not shots or shots != expected[: len(shots)]
    yield "knn_order", mismatches == 0, f"{mismatches} of {len(sample)} sampled queries differ"


def check_contamination(out: Path, features: Path, corpus: Path):
    text = corpus.read_text(encoding="utf-8")
    expected = {}
    with open(features, encoding="utf-8") as fh:
        for line in fh:
            record_id, *values = line.rstrip("\n").split("\t")
            expected[record_id] = any(v[:FEATURE_CHARS] in text for v in values if v)
    flags = {}
    with open(out / "scan" / "flags.tsv", encoding="utf-8") as fh:
        for line in fh:
            record_id, flag = line.rstrip("\n").split("\t")
            flags[record_id] = flag == "1"
    wrong = sum(flags.get(r) != f for r, f in expected.items()) + len(set(flags) - set(expected))
    yield "contamination_flags", wrong == 0, (
        f"{wrong} of {len(expected)} flags differ; {sum(expected.values())} expected flagged"
    )


def check_evaluation(w: Workload, out: Path, answers: dict | None, requests: int | None):
    records = 0
    for task in w.tasks:
        result = json.loads((out / "eval" / f"{task.task_id}.result.json").read_text("utf-8"))
        tests = read_jsonl(out / "build" / f"{task.task_id}.test.jsonl")
        records += result["n"]
        ok = result["n"] == len(tests) and not result["failures"]
        yield f"eval_rows[{task.task_id}]", ok, (
            f"n={result['n']} test prompts={len(tests)} failures={len(result['failures'])}"
        )
        if answers is None:
            continue
        kinds = [fakemodel.plan(p["prompt"], answers)[0] for p in tests]
        invalid = sum(k.endswith("unparseable") for k in kinds) / len(kinds)
        yield f"invalid_rate[{task.task_id}]", math.isclose(
            result["invalid_rate"], invalid, abs_tol=1e-12
        ), f"{result['invalid_rate']} vs planted {invalid}"
        if result["metric"] == "set_accuracy":
            planted = kinds.count("correct") / len(kinds)
            yield "set_accuracy", math.isclose(result["value"], planted, abs_tol=1e-12), (
                f"{result['value']} vs planted {planted}"
            )
    if requests is not None:
        yield "server_requests", requests == records, f"{requests} requests for {records} records"
