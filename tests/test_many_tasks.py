"""One command over many tasks that share features: the same files as one
command per task, each distinct feature converted once, and no task's
records kept once its files are written."""

import gc
import random
import threading
from collections import Counter

import pytest

import golden_tasks
from conftest import MOLECULE_CORPUS
from txf import corpus
from txf.cli import main

# Features the tasks share. "ACGU" is a peptide in mhc1_iedb, where it is no
# amino-acid sequence, and a miRNA in mirtarbase, where it is a nucleotide one.
_SMILES = MOLECULE_CORPUS[:10] + ["C1CC("]
_PROTEINS = ["YFAMYGEKVAHTHVDTLY", "YFAMYQENVAQTDVDTLY", "MSVNMDELRHQVMINQ", "YYSEYRNIYAQTDESNLY"]
_PEPTIDES = ["QLADETLLKV", "GLADETLLKA", "QLADETLLKW", "ACGU", "SLYNTVATL"]
_MIRNAS = ["UUCCUGUCAGCCGUGG", "UUCCUGACAGCCGUGA", "ACGU", "GGGAAACCCUUU"]
_DISEASES = ["Chronic myeloproliferative disease", "Asthma", "Migraine", "Psoriasis"]
_VALUES = {
    "drug": _SMILES,
    "disease": _DISEASES,
    "peptide": _PEPTIDES,
    "mhc": _PROTEINS,
    "mirna": _MIRNAS,
    "target": _PROTEINS,
}
_MANIFESTS = [
    golden_tasks.BBB_MANIFEST,  # scaffold split
    golden_tasks.CACO2_MANIFEST,  # scaffold split, regression
    golden_tasks.PHASE1_MANIFEST,  # cold-start split on the disease
    golden_tasks.MHC1_MANIFEST,  # two amino-acid roles
    golden_tasks.MIRTARBASE_MANIFEST,  # compared on its nucleotide role
]


def _write_tasks(root, rows=24, seed=7):
    """The golden manifests over seeded tables drawn from the shared features."""
    rng = random.Random(seed)
    manifests, data = root / "manifests", root / "data"
    manifests.mkdir(parents=True)
    data.mkdir()
    for manifest in _MANIFESTS:
        corpus.write_manifest(manifest, manifests / f"{manifest.task_id}.manifest")
        lines = ["\t".join([*(r.column for r in manifest.roles), manifest.label_column])]
        for _ in range(rows):
            label = rng.randint(0, 1000) if manifest.task_kind == "regression" else rng.randint(0, 1)
            lines.append("\t".join([*(rng.choice(_VALUES[r.name]) for r in manifest.roles), str(label)]))
        (data / f"{manifest.task_id}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifests, data


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "mixture.jsonl"}


@pytest.mark.parametrize("command", [
    ["build", "--shots", "0", "--mixture", "40"],
    ["build", "--shots", "random2", "--mixture", "40"],
    ["build", "--shots", "knn3"],
    ["evaluate", "--shots", "knn3", "--stub", "knn"],
])
def test_a_command_over_many_tasks_equals_one_command_per_task(
    tmp_path, command, fresh_feature_memos, fresh_component_memo
):
    manifests, data = _write_tasks(tmp_path)
    task_ids = [m.task_id for m in _MANIFESTS]
    random.Random(3).shuffle(task_ids)

    def run(out, *tasks):
        # Each command starts from empty memos, as a new process does.
        fresh_feature_memos()
        fresh_component_memo.clear()
        return main([
            command[0], "--manifests", str(manifests), "--data", str(data), "--out", str(out),
            "--seed", "5", *command[1:], *(f"--task={t}" for t in tasks),
        ])

    code = run(tmp_path / "all")
    codes = [run(tmp_path / "each", task_id) for task_id in task_ids]
    # An evaluation may find a test split of one label: exit 3, undefined metric.
    assert code in (0, 3) and code == max(codes)
    files = _files(tmp_path / "all")
    assert len(files) == len(task_ids) * (4 if command[0] == "build" else 2)
    assert files == _files(tmp_path / "each")


def _write_drug_target_tasks(manifests, data, task_ids):
    """Scaffold-split drug-target tasks over the same rows, labels apart:
    their SMILES are parsed for the split, their targets aligned for knn."""
    for k, task_id in enumerate(task_ids):
        (manifests / f"{task_id}.manifest").write_text(
            f"task_id: {task_id}\n"
            "task_kind: binary\n"
            "metric: auroc\n"
            "split_method: scaffold\n"
            "label_column: Y\n"
            "roles: target drug\n"
            "role.target.kind: amino_acid\n"
            "role.target.column: Target\n"
            "role.target.label: Target amino acid sequence\n"
            "role.drug.kind: smiles\n"
            "role.drug.column: Drug\n"
            "role.drug.label: Drug SMILES\n"
            "instruction: Classify.\n"
            "context: Ctx.\n"
            "question: Binds?\\n\\n(A) no (B) yes\n"
        )
        lines = ["Target\tDrug\tY"]
        for i in range(30):
            # 20 targets, most of them in more than one row.
            target = _PROTEINS[i % 4] + "ACDEF"[i % 5]
            lines.append(f"{target}\t{_SMILES[i % 11]}\t{(i + k) % 2}")
        (data / f"{task_id}.tsv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", [
    ["build", "--shots", "knn3"],
    ["evaluate", "--shots", "0", "--stub", "knn", "--concurrency", "4"],
])
def test_tasks_sharing_features_convert_and_align_each_once(tmp_path, monkeypatch, command):
    from txf import bioseq, chem

    manifests, data = tmp_path / "manifests", tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_drug_target_tasks(manifests, data, ["dti_a", "dti_b"])
    # The knn stub converts and aligns from worker threads.
    lock = threading.Lock()
    parsed, aligned = Counter(), Counter()
    parse, align = chem.parse_smiles, bioseq.percent_identity

    def counting_parse(text):
        with lock:
            parsed[text] += 1
        return parse(text)

    def counting_align(a, b):
        with lock:
            aligned[a.residues, b.residues] += 1
        return align(a, b)

    monkeypatch.setattr(chem, "parse_smiles", counting_parse)
    monkeypatch.setattr(bioseq, "percent_identity", counting_align)
    assert main([
        command[0], "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--seed", "1", *command[1:],
    ]) in (0, 3)
    assert set(parsed) == set(_SMILES[:11])
    assert aligned and max(parsed.values()) == 1 and max(aligned.values()) == 1


@pytest.mark.parametrize("shots", ["0", "random2", "knn3"])
def test_build_without_a_mixture_keeps_no_records_of_a_written_task(tmp_path, monkeypatch, shots):
    manifests, data = _write_tasks(tmp_path)
    write_audit = corpus.write_split_audit

    def alive():
        gc.collect()
        return [r for r in gc.get_objects() if type(r) is corpus.DataRecord]

    kept = alive()  # the test modules' own records, held so no id is reused
    before = {id(r) for r in kept}
    live = []  # per task: whose records are alive at its first write

    def audit_then_count(records, path):
        # Every earlier task's files are written by now.
        write_audit(records, path)
        features = {id(r.features) for r in records}  # a split copy shares them
        live.append({
            "this task" if id(r.features) in features else "an earlier task"
            for r in alive() if id(r) not in before
        })

    monkeypatch.setattr(corpus, "write_split_audit", audit_then_count)
    assert main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(tmp_path / "out"), "--shots", shots,
    ]) == 0
    assert live == [{"this task"}] * len(_MANIFESTS)
