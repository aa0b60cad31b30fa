"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

import golden_tasks
from conftest import FIXTURES, MOLECULE_CORPUS, permute_molecule
from txf.analysis import (
    compare_pairs,
    contamination_scan,
    load_pair_rows,
    load_score_rows,
    median_relative_difference_by_feature_type,
    wilcoxon_signed_rank,
)
from txf.chem import Fingerprint, morgan_fingerprint, parse_smiles, tanimoto, top_k_tanimoto
from txf.cli import main
from txf.evalharness import auroc
from txf.promptgen import bin_label, build_mixture, render_prompt, unbin_label
from txf.corpus import DataRecord, RoleSpec, TaskManifest


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_scoreboard(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "board.json"
    code = main([
        "scoreboard", "--fixture", str(FIXTURES / "benchmark_results.csv"),
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["exceed"] == 22
    assert payload["near"] == 21
    assert payload["near_or_above"] == 43
    assert elapsed < 1.0
    capsys.readouterr()
    _report(1, "scoreboard 22/21/43")


def test_criterion_2_feature_type_medians():
    started = time.perf_counter()
    rows = load_score_rows(FIXTURES / "benchmark_results.csv")
    medians = median_relative_difference_by_feature_type(rows)
    elapsed = time.perf_counter() - started
    published = {
        "SMILES + Text": 0.048,
        "Nucleotide + Amino acid": -0.007,
        "Amino acid": -0.080,
        "SMILES": -0.082,
        "Amino acid + SMILES": -0.482,
        "Nucleotide": -0.888,
    }
    for feature_type, expected in published.items():
        assert abs(medians[feature_type] - expected) <= 0.005, feature_type
    assert elapsed < 1.0
    _report(2, "feature-type medians within ±0.005")


def test_criterion_3_model_size_comparison():
    started = time.perf_counter()
    pairs = load_pair_rows(FIXTURES / "model_size_results.csv", "model_s", "model_m")
    result = compare_pairs(pairs)
    elapsed = time.perf_counter() - started
    assert result.n_input == 66
    assert result.wins_b == 57
    assert 1.65e-8 <= result.p_value <= 1.65e-6
    assert elapsed < 1.0
    _report(3, f"size comparison 57/66, p={result.p_value:.3g}")


def test_criterion_4_context_removal_comparison():
    pairs = load_pair_rows(FIXTURES / "context_ablation_results.csv", "no_context", "with_context")
    result = compare_pairs(pairs)
    assert result.n_input == 66
    assert result.wins_b == 49
    assert 4.9e-7 <= result.p_value <= 4.9e-5
    _report(4, f"context comparison 49/66, p={result.p_value:.3g}")


def test_criterion_5_property_suite():
    started = time.perf_counter()
    rng = random.Random(2024)

    # (a) AUROC rank formula vs pairwise brute force, 200 random instances.
    for _ in range(200):
        n = rng.randint(2, 1000)
        labels = np.array([rng.random() < 0.5 for _ in range(n)])
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        scores = np.array([rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)) for _ in range(n)])
        pos, neg = scores[labels], scores[~labels]
        cmp = pos[:, None] - neg[None, :]
        oracle = float((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (len(pos) * len(neg))
        got = auroc(scores, labels)
        assert got == pytest.approx(oracle, abs=1e-12)

    # (b) Wilcoxon exact mode vs full sign enumeration for n <= 12.
    for n in range(5, 13):
        for _ in range(4):
            a = [rng.uniform(0, 1) for _ in range(n)]
            b = [x + rng.uniform(-0.4, 0.4) for x in a]
            result = wilcoxon_signed_rank(a, b)
            diffs = [d for d in result.differences if d != 0]
            m = len(diffs)
            if m == 0:
                continue
            order = sorted(range(m), key=lambda i: abs(diffs[i]))
            ranks = [0.0] * m
            i = 0
            while i < m:
                j = i
                while j + 1 < m and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
                    j += 1
                for k in range(i, j + 1):
                    ranks[order[k]] = (i + j) / 2 + 1
                i = j + 1
            w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
            w_obs = min(w_plus, sum(ranks) - w_plus)
            hits = sum(
                1
                for signs in itertools.product((1, -1), repeat=m)
                if min(
                    (s_sum := sum(r for r, s in zip(ranks, signs) if s > 0)),
                    sum(ranks) - s_sum,
                )
                <= w_obs
            )
            assert result.p_value == pytest.approx(min(1.0, hits / 2**m), rel=1e-9)

    # (c) bin/unbin round trip error bound over 10^4 random draws.
    lo, hi = -2.5, 7.5
    bound = (hi - lo) / 2000
    for _ in range(10_000):
        y = rng.uniform(lo, hi)
        b, _ = bin_label(y, (lo, hi))
        assert abs(unbin_label(b, (lo, hi)) - y) <= bound + 1e-12

    # (d) fingerprint invariance under 100 permutations per molecule, 50 molecules.
    corpus = MOLECULE_CORPUS[:50]
    assert len(corpus) == 50
    for smiles in corpus:
        mol = parse_smiles(smiles)
        expected = morgan_fingerprint(mol).bits
        for _ in range(100):
            assert morgan_fingerprint(permute_molecule(mol, rng)).bits == expected

    # (e) contamination scan vs naive substring oracle, 100 random sets.
    for _ in range(100):
        corpus_text = "".join(rng.choice("ABC") for _ in range(1500))
        features = [
            (f"r{k}", ["".join(rng.choice("ABC") for _ in range(rng.randint(2, 7)))])
            for k in range(20)
        ]
        chunks = [corpus_text[i : i + 211] for i in range(0, 1500, 211)]
        flags = contamination_scan(features, chunks)
        for record_id, patterns in features:
            assert flags[record_id] == (patterns[0] in corpus_text)

    # (f) top-k similarity vs naive full scan on a 10^4 pool.
    pool = [Fingerprint(bits=rng.getrandbits(512)) for _ in range(10_000)]
    query = Fingerprint(bits=rng.getrandbits(512))
    naive = sorted(
        ((i, tanimoto(query, fp)) for i, fp in enumerate(pool)),
        key=lambda item: (-item[1], item[0]),
    )[:50]
    assert top_k_tanimoto(query, pool, 50) == naive

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, f"property suite in {elapsed:.1f}s")


def test_criterion_6_golden_prompts():
    for name, manifest, query, shots in golden_tasks.GOLDEN_CASES:
        golden = (FIXTURES / "golden_prompts" / name).read_text(encoding="utf-8").rstrip("\n")
        rendered = render_prompt(query, manifest, shots)
        assert rendered.prompt + " " + rendered.target == golden, name
    _report(6, f"{len(golden_tasks.GOLDEN_CASES)} golden prompts byte-for-byte")


def _write_generation_task(manifests, data):
    (manifests / "gen50.manifest").write_text(
        "task_id: gen50\n"
        "task_kind: generation\n"
        "metric: set_accuracy\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: product\n"
        "role.product.kind: smiles\n"
        "role.product.column: Product\n"
        "role.product.label: Product SMILES\n"
        "instruction: Predict the reactants.\n"
        "context: Retrosynthesis of a product into reactants.\n"
        "question: Given a product SMILES string, predict the reactant SMILES string.\n"
    )
    lines = ["Product\tY"]
    for i in range(50):
        chain = "C" * (1 + i % 6)
        lines.append(f"{chain}O\t{chain}.O")
    (data / "gen50.tsv").write_text("\n".join(lines) + "\n")


def _write_binary_task(manifests, data):
    (manifests / "bin100.manifest").write_text(
        "task_id: bin100\n"
        "task_kind: binary\n"
        "metric: auroc\n"
        "split_method: random\n"
        "label_column: Y\n"
        "roles: drug\n"
        "role.drug.kind: smiles\n"
        "role.drug.column: Drug\n"
        "role.drug.label: Drug SMILES\n"
        "instruction: Classify the molecule.\n"
        "context: A balanced synthetic screen.\n"
        "question: Active?\\n\\n(A) no (B) yes\n"
    )
    lines = ["Drug\tY"]
    for i in range(100):
        lines.append(f"{'C' * (1 + i % 9)}N\t{i % 2}")
    (data / "bin100.tsv").write_text("\n".join(lines) + "\n")


def test_criterion_7_end_to_end_smoke(tmp_path):
    manifests = tmp_path / "manifests"
    data = tmp_path / "data"
    manifests.mkdir()
    data.mkdir()
    _write_generation_task(manifests, data)
    _write_binary_task(manifests, data)

    build_out = tmp_path / "build"
    assert main([
        "build", "--manifests", str(manifests), "--data", str(data),
        "--out", str(build_out), "--seed", "1",
    ]) == 0
    assert (build_out / "gen50.test.jsonl").exists()

    eval_dirs = []
    for concurrency in (1, 8):
        out = tmp_path / f"eval_c{concurrency}"
        code = main([
            "evaluate", "--manifests", str(manifests), "--data", str(data),
            "--out", str(out), "--stub", "echo", "--task", "gen50",
            "--concurrency", str(concurrency),
        ])
        assert code == 0
        eval_dirs.append(out)
    gen_payload = json.loads((eval_dirs[0] / "gen50.result.json").read_text())
    assert gen_payload["value"] == 1.0
    assert (eval_dirs[0] / "gen50.result.json").read_bytes() == (
        eval_dirs[1] / "gen50.result.json"
    ).read_bytes()
    assert (eval_dirs[0] / "gen50.rows.csv").read_bytes() == (
        eval_dirs[1] / "gen50.rows.csv"
    ).read_bytes()

    majority_dirs = []
    for concurrency in (1, 8):
        out = tmp_path / f"maj_c{concurrency}"
        code = main([
            "evaluate", "--manifests", str(manifests), "--data", str(data),
            "--out", str(out), "--stub", "majority", "--task", "bin100",
            "--concurrency", str(concurrency),
        ])
        assert code == 0
        majority_dirs.append(out)
    bin_payload = json.loads((majority_dirs[0] / "bin100.result.json").read_text())
    assert bin_payload["value"] == 0.5
    assert (majority_dirs[0] / "bin100.rows.csv").read_bytes() == (
        majority_dirs[1] / "bin100.rows.csv"
    ).read_bytes()
    _report(7, "echo set accuracy 1.0, majority AUROC 0.5, concurrency-stable")


def test_criterion_8_mixture_statistics():
    tasks = {}
    for name, size in (("alpha", 700), ("beta", 300)):
        manifest = TaskManifest(
            task_id=name,
            task_kind="binary",
            roles=(RoleSpec("drug", "smiles", "Drug", "Drug SMILES"),),
            instruction="Classify.",
            context="Ctx.",
            question="Active?\n\n(A) no (B) yes",
            label_column="Y",
            metric="auroc",
            split_method="random",
        )
        records = [
            DataRecord(f"{name}{i}", {"drug": "C" * (1 + i % 5)}, bool(i % 2), split="train")
            for i in range(size)
        ]
        tasks[name] = (manifest, records)

    n = 100_000
    zero_shot = 0
    shot_counts = Counter()
    for prompt in build_mixture(tasks, n, seed=1):
        if len(prompt.shot_ids) == 0:
            zero_shot += 1
        else:
            shot_counts[len(prompt.shot_ids)] += 1

    fraction = zero_shot / n
    sigma = math.sqrt(0.7 * 0.3 / n)
    assert abs(fraction - 0.7) <= 3 * sigma

    few = sum(shot_counts.values())
    expected = few / 10
    chi2 = sum((shot_counts.get(k, 0) - expected) ** 2 / expected for k in range(1, 11))
    # chi-square critical value, 9 degrees of freedom, alpha = 0.01
    assert chi2 < 21.666
    _report(8, f"mixture: zero-shot {fraction:.4f}, chi2 {chi2:.2f}")
